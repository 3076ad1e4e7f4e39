"""Exhaustive searches over projective plane curves of a given degree.

These back the small-field impossibility results: for some (q, d) no
irreducible degree-d curve meets the Hermitian curve in d(q+1) distinct
rational points.  Every projective equivalence class of ternary forms is
scanned in canonical order, counting zeros among the q^3+1 Hermitian
points only (that count is the intersection number).  The counts come
from `plane._zero_hits`, which splits the coefficient span into two
tables of form values and compares them, one comparison per form and
point.  An achiever, rebuilt from its index (`plane._coeff_rows`), that
shares no component with the Hermitian model is classified: for
2 <= d <= Q the achievers that vanish on a whole line are reducible by
one line test over the batch (`vanishing_lines`, which counts the zeros
of each achiever on the lines through them), and the rest, lines
included, go through the factor certificate `reducibility_search`.  An achiever the
certificate leaves open is in neither class, and an irreducible one is
accepted only after `intersection` re-measures it to d(q+1).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .plane import (
    TernaryForm,
    _coeff_rows,
    _zero_hits,
    divides,
    hermitian_model,
    hermitian_points,
    intersection,
    monomials,
    point_coords,
    reducibility_search,
    vanishing_lines,
)

SCAN_BUDGET = 10**7

# form indices are int64 (`_coeff_rows`), so no scan goes past this one
_MAX_FORM_INDEX = np.iinfo(np.int64).max


class SearchBudgetError(RuntimeError):
    """The candidate space exceeds the permitted scan budget."""


@dataclass
class SearchReport:
    q: int
    d: int
    model: str
    target: int
    total_forms_scanned: int
    complete: bool
    achievers: list = dc_field(default_factory=list)
    irreducible_achievers: list = dc_field(default_factory=list)
    reducible_achievers: list = dc_field(default_factory=list)

    def to_dict(self):
        def ser(forms):
            return [sorted(f.terms.items()) for f in forms]

        return {
            "q": self.q,
            "d": self.d,
            "model": self.model,
            "target": self.target,
            "total_forms_scanned": self.total_forms_scanned,
            "complete": self.complete,
            "achievers": ser(self.achievers),
            "irreducible_achievers": ser(self.irreducible_achievers),
            "reducible_achievers": ser(self.reducible_achievers),
        }


def projective_form_count(Q: int, M: int) -> int:
    """(Q^M - 1)/(Q - 1): forms up to scalar on M monomials over F_Q."""
    return (Q**M - 1) // (Q - 1)


def _shares_hermitian_component(form: TernaryForm, h: TernaryForm) -> bool:
    if form.degree == h.degree:
        return form == h
    if form.degree > h.degree:
        return divides(h, form)
    return False


def _run_search(q, d, model, budget, limit):
    if d < 1:
        raise ValueError(f"degree d must be >= 1 (got {d})")
    if budget < 1:
        raise ValueError(f"budget must be >= 1 (got {budget})")
    h = hermitian_model(q, model)
    spec = h.field
    Q = spec.order
    points = point_coords(Q, hermitian_points(q, model))
    mons = monomials(d)
    M = len(mons)
    total = projective_form_count(Q, M)
    if limit is None and total > budget:
        raise SearchBudgetError(
            f"{total} candidate forms for (q={q}, d={d}) exceed the budget {budget}"
        )
    cap = total if limit is None else min(total, budget)
    if cap > _MAX_FORM_INDEX:
        raise ValueError(
            f"budget {budget} would scan {cap} forms for (q={q}, d={d}), "
            f"past the largest form index {_MAX_FORM_INDEX}"
        )
    target = d * (q + 1)
    report = SearchReport(q, d, model, target, 0, False)
    for lead, offset, hits in _zero_hits(spec, mons, *points):
        hits = hits[: cap - report.total_forms_scanned]
        scanned = report.total_forms_scanned
        report.total_forms_scanned += len(hits)
        rows = np.flatnonzero(hits == target)
        batch = _coeff_rows(Q, M, lead, offset + rows)
        # a line through d + 1 zeros of a form of degree d >= 2 divides it
        lined = np.zeros(len(rows), dtype=bool)
        if 2 <= d <= Q and len(rows):
            lined = vanishing_lines(spec, mons, batch).any(axis=1)
        for i, coeffs, has_line in zip(rows, batch, lined):
            form = TernaryForm(spec, d, {m: int(c) for m, c in zip(mons, coeffs) if c})
            if _shares_hermitian_component(form, h):
                continue
            status = "factor" if has_line else reducibility_search(form).status
            if status == "irreducible" and intersection(h, form).count != target:
                continue  # not the form that was counted: no witness
            report.achievers.append(form)
            if status == "irreducible":
                report.irreducible_achievers.append(form)
                if limit is not None and len(report.irreducible_achievers) >= limit:
                    # the scan stops at this form
                    report.total_forms_scanned = scanned + int(i) + 1
                    return report
            elif status == "factor":
                report.reducible_achievers.append(form)
        if report.total_forms_scanned >= cap:
            break
    report.complete = report.total_forms_scanned >= total
    return report


def exhaustive_negative_search(
    q: int, d: int, model: str = "H2", budget: int = SCAN_BUDGET
) -> SearchReport:
    """Scan every projective degree-d form over F_{q^2} for d(q+1) hits.

    Proves a negative when every achiever is in reducible_achievers: an
    achiever with a factor degree the lines leave open
    (`ReducibilityResult.open`, possible only for d >= 4) is in neither
    list, so it breaks the negative.  Raises SearchBudgetError when the
    space exceeds `budget`.
    """
    return _run_search(q, d, model, budget, None)


def positive_witness_search(
    q: int, d: int, limit: int = 1, model: str = "H2", budget: int = SCAN_BUDGET
) -> SearchReport:
    """Scan in canonical order until `limit` irreducible achievers appear.

    At most `budget` forms are scanned; `total_forms_scanned` counts the
    forms up to the last witness found, and `complete` records whether
    the space was exhausted anyway.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    return _run_search(q, d, model, budget, limit)
