"""Exhaustive search over projective plane curves of a given degree.

It backs the small-field impossibility results: for some (q, d) no
irreducible degree-d curve meets the Hermitian curve in d(q+1) distinct
rational points.  Every projective equivalence class of ternary forms is
scanned in canonical order: the leading 1 at the lowest monomial index,
then the free coefficients as the base-Q digits of an index s, most
significant first (`_coeff_rows`).  Zeros are counted among the q^3+1
Hermitian points only; that count is the intersection number.

The counts come from the span scan `_zero_hits`.  Values are linear in
the coefficients, so each canonical form's values at the points are a
sum H[high digits] + L[low digits] of two rows precomputed with
`plane.form_values`, and the scan counts zeros point by point: at each
point it compares every L value with every -H value and adds the result
to one counter per form, with no field arithmetic per form.
Form indices are int64; a space past int64 is refused before the scan,
so every place value Q^k the scan decodes fits.

Achievers are kept as their coefficient rows over `monomials(d)`, each
with its class; a form is built only to classify a row or, through
`SearchReport.forms`, for a test.  A line meets H_q in 1 or q+1 rational
points, and for d >= 2 a line factor L of an achiever f = L g holds at
least q+1 of its d(q+1) zeros, since g meets H_q in at most (d-1)(q+1) by
Bezout: L is a secant whose q+1 points are all zeros of f.  The secant
vote (`_full_secants`) finds these secants for all achievers at once from
their values at the Hermitian points, sums of the rows of the scan's term
table.  When 2 <= d <= q every such secant divides f
(`plane.secants_divide`), so a row with one is reducible in bulk.  Every
other row is built as a form; one that shares no component with the
Hermitian model is classified by `plane.reducibility_search`, the rule
the factor certificate uses, where `plane.line_factors` keeps the voted
secants that divide f and the line restrictions exclude the factor
degrees 2 .. d/2, none when d <= 3, so a conic or cubic with no line
factor is irreducible.  An achiever the lines leave open is in neither
class, and the irreducible ones are accepted only after
`intersection_counts` re-measures them, all in one batch, to d(q+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log10

import numpy as np

from .field import FieldSpec, ambient
from .plane import (
    TernaryForm,
    divides,
    form_values,
    hermitian_model,
    hermitian_points,
    hermitian_secants,
    intersection_counts,
    monomials,
    point_coords,
    reducibility_search,
    secants_divide,
)
from .serialize import json_list, json_text

SCAN_BUDGET = 10**7

# form indices are int64 (`_coeff_rows`), so no scan goes past this one
_MAX_FORM_INDEX = np.iinfo(np.int64).max

# Python prints an int of at most this many digits by default
_PRINTED_DIGITS = 4300

# the most forms one counter of the span scan (`_zero_hits`) covers
_SCAN_CHUNK = 1 << 15


class SearchBudgetError(RuntimeError):
    """The candidate space exceeds the permitted scan budget."""


@dataclass
class SearchReport:
    """The outcome of `exhaustive_negative_search`.

    `achievers` holds the coefficient row over `monomials(d)` of each
    achiever, in scan order, and `status[r]` the class of row r:
    "irreducible", "factor" or "open" (`ReducibilityResult.status`).
    """

    q: int
    d: int
    model: str
    target: int
    total_forms_scanned: int
    complete: bool
    achievers: np.ndarray
    status: np.ndarray

    @property
    def irreducible_achievers(self) -> np.ndarray:
        return self.achievers[self.status == "irreducible"]

    @property
    def reducible_achievers(self) -> np.ndarray:
        return self.achievers[self.status == "factor"]

    def forms(self, status: str | None = None) -> list[TernaryForm]:
        """The achievers, or those of one status, as forms in scan order."""
        spec, mons = ambient(self.q), monomials(self.d)
        rows = self.achievers if status is None else self.achievers[self.status == status]
        return [_form(spec, self.d, mons, row) for row in rows.tolist()]

    def summary(self):
        """The record without the achiever forms."""
        return {
            "q": self.q,
            "d": self.d,
            "model": self.model,
            "target": self.target,
            "total_forms_scanned": self.total_forms_scanned,
            "complete": self.complete,
        }

    def to_dict(self):
        """The summary with the achiever forms, each as its sorted
        [[i, j, k], c] terms: `achievers`, `irreducible_achievers` and
        `reducible_achievers` (rows of status "factor").

        The three lists are `serialize.Encoded` JSON text, which
        `serialize.json_line` writes verbatim: each (monomial, coefficient)
        term is encoded once, each row's text is built once from its terms,
        and each list joins row texts.  The JSON text rules (key order,
        separators) live in `serialize`.
        """
        # `monomials` is descending, so reversed rows list terms ascending
        terms = [[json_text([m, c]) for c in range(self.q**2)] for m in monomials(self.d)[::-1]]
        rows = [
            json_list([terms[m][c] for m, c in enumerate(row) if c])
            for row in self.achievers[:, ::-1].tolist()
        ]

        def of(status):
            return json_list([rows[r] for r in np.flatnonzero(self.status == status).tolist()])

        return {
            **self.summary(),
            "achievers": json_list(rows),
            "irreducible_achievers": of("irreducible"),
            "reducible_achievers": of("factor"),
        }


def _form(spec: FieldSpec, d: int, monos, row) -> TernaryForm:
    """The form of a coefficient row over `monos`."""
    return TernaryForm(spec, d, dict(zip(monos, row)))


def projective_form_count(Q: int, M: int) -> int:
    """(Q^M - 1)/(Q - 1): forms up to scalar on M monomials over F_Q."""
    return (Q**M - 1) // (Q - 1)


def _coeff_rows(Q: int, M: int, lead: int, s) -> np.ndarray:
    """Coefficient rows of the canonical forms (lead, s): a 1 at `lead`,
    then the free coefficients as the base-Q digits of s, most significant
    first.

    The place values go up to Q^(M-2), below the form count of the space,
    which the search keeps within int64.
    """
    s = np.asarray(s, dtype=np.int64)
    rows = np.zeros((len(s), M), dtype=np.int64)
    rows[:, lead] = 1
    places = np.array([Q**k for k in range(M - 1 - lead)], dtype=np.int64)
    rows[:, lead + 1 :] = s[:, None] // places[::-1] % Q
    return rows


def _zero_hits(spec: FieldSpec, monos, X, Y, Z):
    """Zero counts of every canonical form over `monos` at the points
    (X, Y, Z), leading index ascending, then the free coefficients as a
    base-Q integer s.

    Yields (lead, offset, hits): hits[i] counts the points where the form
    (lead, offset + i) of `_coeff_rows` vanishes.  Values are linear in
    the coefficients, so with the free digits of s split into high and
    low ones, values(s) = H[high] + L[low]: H sums the rows c * X^i Y^j Z^k
    of the leading 1 and the high digits, L those of the low digits, and
    the form vanishes where L[low] = -H[high].  Both are held point-major,
    and each run of H has one (high x low) counter, to which every point
    adds its comparisons L[p] = -H[p]: no (form, point) array is built.
    L has at most _SCAN_CHUNK low rows, each run at most _SCAN_CHUNK
    forms, and the counter's dtype holds the number of points.
    """
    Q, M = spec.order, len(monos)
    table = _term_table(spec, monos, (X, Y, Z))
    dtype, count = np.min_scalar_type(Q - 1), np.min_scalar_type(len(X))
    for lead in range(M):
        free = M - 1 - lead
        low = 0
        while low < free // 2 and Q ** (low + 1) <= _SCAN_CHUNK:
            low += 1
        L = np.zeros((1, table[0].shape[1]), dtype=np.int64)
        for m in range(M - low, M):
            L = spec.add_v(L[:, None], table[m][None]).reshape(-1, L.shape[1])
        L = np.ascontiguousarray(L.T, dtype=dtype)
        high_rows, step = Q ** (free - low), max(1, _SCAN_CHUNK // L.shape[1])
        for h0 in range(0, high_rows, step):
            # the high digits are canonical rows over the first M - low monomials
            h = _coeff_rows(Q, M - low, lead, np.arange(h0, min(h0 + step, high_rows)))
            H = table[lead][h[:, lead]]
            for m in range(lead + 1, M - low):
                H = spec.add_v(H, table[m][h[:, m]])
            neg = np.ascontiguousarray(spec.neg_v(H).T, dtype=dtype)
            hits = np.zeros((len(h), L.shape[1]), dtype=count)
            for Lp, negp in zip(L, neg):
                hits += Lp == negp[:, None]
            yield lead, h0 * L.shape[1], hits.reshape(-1)


def _term_table(spec: FieldSpec, monos, points) -> list:
    """table[m][c]: c times monomial m at each of the points (X, Y, Z), for
    every encoding c; a form's values are the sum of its terms' rows."""
    c = np.arange(spec.order, dtype=np.int64)[:, None]
    return [form_values(spec, (c,), (m,), *points) for m in monos]


def _full_secants(spec: FieldSpec, on, monos, batch, points) -> np.ndarray:
    """(len(batch), len(on)) mask: the form of row r of `batch` vanishes at
    all q+1 Hermitian points on[s] of secant s (`hermitian_secants`).

    The forms are evaluated at the Hermitian points (X, Y, Z) only, as sums
    of `_term_table` rows, in groups of rows whose gathered secant points
    take at most 4 * _SCAN_CHUNK bools (128 KiB).
    """
    table = _term_table(spec, monos, points)
    full = np.empty((len(batch), len(on)), dtype=bool)
    step = max(1, 4 * _SCAN_CHUNK // on.size)
    for r in range(0, len(batch), step):
        rows = batch[r : r + step]
        values = table[0][rows[:, 0]]
        for m in range(1, len(monos)):
            spec.add_v(values, table[m][rows[:, m]], out=values)
        full[r : r + step] = (values == 0)[:, on].all(axis=-1)
    return full


def _shares_hermitian_component(form: TernaryForm, h: TernaryForm) -> bool:
    if form.degree == h.degree:
        return form == h
    if form.degree > h.degree:
        return divides(h, form)
    return False


def exhaustive_negative_search(
    q: int, d: int, model: str = "H2", budget: int = SCAN_BUDGET
) -> SearchReport:
    """Scan every projective degree-d form over F_{q^2} for d(q+1) hits.

    Proves a negative when every achiever is in reducible_achievers: an
    achiever with a factor degree the lines leave open
    (`ReducibilityResult.open`, possible only for d >= 4) is in neither
    list, so it breaks the negative.  Raises SearchBudgetError when the
    space exceeds `budget`, and ValueError when it is past int64.
    """
    if d < 1:
        raise ValueError(f"degree d must be >= 1 (got {d})")
    if budget < 1:
        raise ValueError(f"budget must be >= 1 (got {budget})")
    h = hermitian_model(q, model)
    spec = h.field
    Q = spec.order
    M = (d + 1) * (d + 2) // 2
    # Q >= 4, so the space holds at least 2^(M-1) forms, and Q^(M-1).  Past
    # the budget by the first bound, with Q^(M-1) of _PRINTED_DIGITS digits
    # or more, it is refused before the count or the monomials are built;
    # every smaller count prints in the messages below
    if M - 1 >= budget.bit_length() and (M - 1) * log10(Q) >= _PRINTED_DIGITS - 1:
        raise SearchBudgetError(
            f"more than 2^{M - 1} candidate forms for (q={q}, d={d}) exceed the budget {budget}"
        )
    total = projective_form_count(Q, M)
    if total > budget:
        raise SearchBudgetError(
            f"{total} candidate forms for (q={q}, d={d}) exceed the budget {budget}"
        )
    if total > _MAX_FORM_INDEX:
        raise ValueError(
            f"budget {budget} would scan {total} forms for (q={q}, d={d}), "
            f"past the largest form index {_MAX_FORM_INDEX}"
        )
    mons = monomials(d)
    target = d * (q + 1)
    scanned = 0
    points = point_coords(Q, hermitian_points(q, model))
    lines, on = hermitian_secants(q, model)
    rows = []
    for lead, offset, hits in _zero_hits(spec, mons, *points):
        scanned += len(hits)
        rows.append(_coeff_rows(Q, M, lead, offset + np.flatnonzero(hits == target)))
    batch = np.concatenate(rows)
    full = _full_secants(spec, on, mons, batch, points)
    # a row with a full secant has a line factor when d <= q; a line
    # (d = 1) is irreducible, and every other row is classified as a form
    bulk = full.any(axis=1) if d > 1 and secants_divide(d, Q) else np.zeros(len(batch), bool)
    status = ["factor"] * len(batch)
    keep = np.ones(len(batch), dtype=bool)
    for r in np.flatnonzero(~bulk).tolist():
        form = _form(spec, d, mons, batch[r].tolist())
        if _shares_hermitian_component(form, h):
            keep[r] = False
        else:
            status[r] = reducibility_search(form, lines[full[r]]).status
    status = np.array(status, dtype=str)
    # an irreducible row counted again off its target is not the form the
    # scan counted: no witness
    witnesses = np.flatnonzero(keep & (status == "irreducible"))
    keep[witnesses[intersection_counts(h, mons, batch[witnesses]) != target]] = False
    return SearchReport(q, d, model, target, scanned, scanned == total, batch[keep], status[keep])
