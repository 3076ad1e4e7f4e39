from itertools import product

import numpy as np
import pytest

from hermplane.plane import (
    TernaryForm,
    _coeff_rows,
    _zero_hits,
    divides,
    form_values,
    hermitian_model,
    hermitian_points,
    intersection,
    monomials,
    point_coords,
    reducibility_search,
)
from hermplane.search import (
    exhaustive_negative_search,
    positive_witness_search,
    projective_form_count,
)
from test_factor_certificate import _coeff_batches


def test_projective_form_count():
    # (Q^M - 1)/(Q - 1) forms up to scalar, M monomial slots
    assert projective_form_count(4, 6) == (4**6 - 1) // 3
    assert projective_form_count(9, 6) == (9**6 - 1) // 8
    assert projective_form_count(4, 10) == (4**10 - 1) // 3


def test_no_irreducible_conic_with_six_points_over_f4():
    rep = exhaustive_negative_search(2, 2)
    assert rep.complete
    assert rep.total_forms_scanned == 1365
    assert rep.irreducible_achievers == []
    # every achiever shares no component with the Hermitian model but factors
    assert len(rep.achievers) == len(rep.reducible_achievers) > 0
    h = hermitian_model(2, "H2")
    for f in rep.achievers:
        assert intersection(h, f).count == 6
        assert not divides(f, h)


@pytest.mark.parametrize("chunk", [1 << 15, 64])
@pytest.mark.parametrize("model", ["H1", "H2"])
@pytest.mark.parametrize("q, d", [(2, 2), (3, 2), (2, 3)])
def test_zero_hits_match_form_values(q, d, model, chunk):
    # the span scan against the kernel on each canonical batch, form by
    # form; a chunk of 64 forms caps the low digits and splits H finely
    spec = hermitian_model(q, model).field
    Q, monos = spec.order, monomials(d)
    points = point_coords(Q, hermitian_points(q, model))
    want = np.concatenate(
        [
            np.count_nonzero(form_values(spec, b.T[:, :, None], monos, *points) == 0, axis=1)
            for b in _coeff_batches(Q, len(monos))
        ]
    )
    got, done = [], {}
    for lead, offset, hits in _zero_hits(spec, monos, *points, chunk=chunk):
        assert offset == done.get(lead, 0)
        done[lead] = offset + len(hits)
        got.append(hits)
    assert done == {lead: Q ** (len(monos) - 1 - lead) for lead in range(len(monos))}
    assert np.array_equal(np.concatenate(got), want)


@pytest.mark.parametrize("q", [2, 3])
def test_secant_lines_are_irreducible_achievers(q):
    # a line meets H_q in q + 1 points exactly when it is not one of the
    # q^3 + 1 tangents; the q^4 + q^2 + 1 lines leave q^4 - q^3 + q^2
    rep = exhaustive_negative_search(q, 1)
    assert rep.complete
    assert rep.total_forms_scanned == q**4 + q**2 + 1
    assert len(rep.achievers) == len(rep.irreducible_achievers) == q**4 - q**3 + q**2
    assert rep.reducible_achievers == []


def test_negative_search_budget_guard():
    from hermplane.search import SearchBudgetError

    with pytest.raises(SearchBudgetError):
        exhaustive_negative_search(3, 3, budget=1000)


def test_positive_witness_conic_over_f16():
    rep = positive_witness_search(4, 2, limit=1)
    assert len(rep.irreducible_achievers) == 1
    f = rep.irreducible_achievers[0]
    h = hermitian_model(4, "H2")
    assert intersection(h, f).count == 2 * 5


def test_positive_witness_matches_a_reference_scan():
    # canonical order one form at a time: leading 1, then the free
    # coefficients with the last one fastest
    h = hermitian_model(4, "H2")
    spec, monos = h.field, monomials(2)
    scanned, witness = 0, None
    for lead in range(len(monos)):
        for free in product(range(spec.order), repeat=len(monos) - 1 - lead):
            scanned += 1
            coeffs = (0,) * lead + (1,) + free
            f = TernaryForm(spec, 2, {m: c for m, c in zip(monos, coeffs) if c})
            if intersection(h, f).count == 10 and reducibility_search(f).status == "irreducible":
                witness = f
                break
        if witness is not None:
            break
    rep = positive_witness_search(4, 2, limit=1)
    assert rep.irreducible_achievers[0].same_terms(witness)
    assert rep.total_forms_scanned == scanned
    assert not rep.complete


def test_positive_witness_respects_budget_cap():
    # quartics over F_4: more forms than budget; the scan caps and reports
    rep = positive_witness_search(2, 4, limit=1, budget=20000)
    assert not rep.complete
    assert rep.total_forms_scanned == 20000
    assert rep.irreducible_achievers == []


@pytest.mark.parametrize("Q, M", [(49, 21), (64, 21), (81, 28)])
def test_coeff_rows_match_python_int_digits(Q, M):
    # place values Q^k past 2^63 (Q^12 at 49, Q^11 at 64, Q^10 at 81) are
    # above every int64 index, so those digits are 0
    rng = np.random.default_rng(Q)
    s = np.concatenate(([0, 1, Q - 1, Q, 2**62, 2**63 - 1], rng.integers(0, 2**63 - 1, 64)))
    for lead in (0, 3):
        free = M - 1 - lead
        want = [
            [0] * lead + [1] + [int(v) // Q**k % Q for k in range(free - 1, -1, -1)] for v in s
        ]
        assert _coeff_rows(Q, M, lead, s).tolist() == want
    small = [[1] + [0] * (M - 2) + [i] for i in range(5)]
    assert _coeff_rows(Q, M, 0, np.arange(5)).tolist() == small


@pytest.mark.parametrize("q, d", [(7, 6), (9, 5)])
def test_zero_hits_count_the_rebuilt_form(q, d):
    # high digits decoded over M - low monomials and the achiever decoded
    # over M name the same form when Q^(M-2) is past int64
    h = hermitian_model(q, "H2")
    spec, monos = h.field, monomials(d)
    points = point_coords(spec.order, hermitian_points(q, "H2"))
    lead, offset, hits = next(_zero_hits(spec, monos, *points))
    rows = np.arange(0, len(hits), 997)
    for i, coeffs in zip(rows, _coeff_rows(spec.order, len(monos), lead, offset + rows)):
        f = TernaryForm(spec, d, {m: int(c) for m, c in zip(monos, coeffs) if c})
        assert intersection(h, f).count == hits[i]


@pytest.mark.parametrize("q, d", [(7, 6), (9, 5)])
def test_witnesses_past_int64_re_measure(q, d):
    rep = positive_witness_search(q, d, limit=1, budget=10**5)
    h = hermitian_model(q, "H2")
    assert rep.achievers
    for f in rep.achievers:
        assert intersection(h, f).count == d * (q + 1)

