from functools import reduce
from operator import mul

import numpy as np
import pytest

from hermplane import search
from hermplane.constructions import sporadic_cubic
from hermplane.plane import (
    TernaryForm,
    divides,
    form_values,
    hermitian_model,
    hermitian_points,
    hermitian_secants,
    intersection,
    line_form,
    line_points,
    monomials,
    point_coords,
    point_index,
    reducibility_search,
)
from hermplane.search import (
    _MAX_FORM_INDEX,
    _coeff_rows,
    _full_secants,
    _zero_hits,
    exhaustive_negative_search,
    projective_form_count,
)

from brute_force import vanishing_lines
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
    assert rep.forms("irreducible") == []
    # every achiever shares no component with the Hermitian model but factors
    assert len(rep.achievers) == len(rep.reducible_achievers) > 0
    h = hermitian_model(2, "H2")
    for f in rep.forms():
        assert intersection(h, f).count == 6
        assert not divides(f, h)


@pytest.mark.parametrize("chunk", [1 << 15, 64])
@pytest.mark.parametrize("model", ["H1", "H2"])
@pytest.mark.parametrize("q, d", [(2, 2), (3, 2), (2, 3)])
def test_zero_hits_match_form_values(q, d, model, chunk, monkeypatch):
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
    monkeypatch.setattr(search, "_SCAN_CHUNK", chunk)
    got, done = [], {}
    for lead, offset, hits in _zero_hits(spec, monos, *points):
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
    assert rep.forms("factor") == []


def test_negative_search_budget_guard():
    from hermplane.search import SearchBudgetError

    with pytest.raises(SearchBudgetError):
        exhaustive_negative_search(3, 3, budget=1000)


@pytest.mark.parametrize("Q, M", [(4, 32), (49, 12), (64, 11), (81, 10)])
def test_coeff_rows_match_python_int_digits(Q, M):
    # the largest M whose form count fits int64 at each Q: the top place
    # value Q^(M-2) is the largest the search decodes
    assert projective_form_count(Q, M) <= _MAX_FORM_INDEX < projective_form_count(Q, M + 1)
    rng = np.random.default_rng(Q)
    for lead in (0, 3):
        free = M - 1 - lead
        top = Q**free - 1
        s = np.concatenate(([0, 1, Q - 1, Q, top], rng.integers(0, top, 64, endpoint=True)))
        want = [
            [0] * lead + [1] + [int(v) // Q**k % Q for k in range(free - 1, -1, -1)] for v in s
        ]
        assert _coeff_rows(Q, M, lead, s).tolist() == want
    small = [[1] + [0] * (M - 2) + [i] for i in range(Q)]
    assert _coeff_rows(Q, M, 0, np.arange(Q)).tolist() == small


@pytest.mark.parametrize("q, d", [(7, 3), (9, 3)])
def test_zero_hits_count_the_rebuilt_form(q, d):
    # high digits decoded over M - low monomials and the achiever decoded
    # over M name the same form, on the largest spaces of cubics the
    # search could scan (1.7e15 and 1.5e17 forms)
    h = hermitian_model(q, "H2")
    spec, monos = h.field, monomials(d)
    points = point_coords(spec.order, hermitian_points(q, "H2"))
    lead, offset, hits = next(_zero_hits(spec, monos, *points))
    rows = np.arange(0, len(hits), 997)
    for i, coeffs in zip(rows, _coeff_rows(spec.order, len(monos), lead, offset + rows)):
        f = TernaryForm(spec, d, {m: int(c) for m, c in zip(monos, coeffs) if c})
        assert intersection(h, f).count == hits[i]


def test_zero_hits_count_past_255_points():
    # the counter is sized by the number of points: 30 copies of the 9
    # points of (2, 3) give counts up to 270, which a uint8 counter wraps
    spec = hermitian_model(2, "H2").field
    monos = monomials(3)
    points = point_coords(spec.order, hermitian_points(2, "H2"))
    once = np.concatenate([hits for _, _, hits in _zero_hits(spec, monos, *points)])
    tiled = [np.tile(v, 30) for v in points]
    many = np.concatenate([hits for _, _, hits in _zero_hits(spec, monos, *tiled)])
    assert once.max() == 9
    assert np.array_equal(many.astype(np.int64), 30 * once.astype(np.int64))


def _line_test(q, model, forms):
    """The search's line test on `forms` of one degree, (factor?, lines
    voted for), next to the brute-force oracle (factor?, vanishing lines)."""
    spec = hermitian_model(q, model).field
    monos = monomials(forms[0].degree)
    batch = np.array([[f.terms.get(m, 0) for m in monos] for f in forms])
    points = point_coords(spec.order, hermitian_points(q, model))
    lines, on = hermitian_secants(q, model)
    voted = [lines[row] for row in _full_secants(spec, on, monos, batch, points)]
    got = [(reducibility_search(f, v).status == "factor", v.tolist()) for f, v in zip(forms, voted)]
    want = [(len(v) > 0, v.tolist()) for v in map(vanishing_lines, forms)]
    return got, want


@pytest.mark.parametrize("model", ["H1", "H2"])
@pytest.mark.parametrize("q, d", [(3, 2), (3, 3), (4, 2), (4, 3), (4, 4)])
def test_vote_finds_the_secants_of_planted_products(q, d, model):
    # d secants with disjoint Hermitian points, so meeting off H: their
    # product is an achiever, and for d <= q its line factors are exactly
    # the secants the vote finds
    h = hermitian_model(q, model)
    lines, on = hermitian_secants(q, model)
    rng = np.random.default_rng(10 * q + d)
    forms = []
    while len(forms) < 6:
        chosen, used = [], set()
        for s in rng.permutation(len(lines)):
            if len(chosen) < d and used.isdisjoint(on[s].tolist()):
                chosen.append(s)
                used.update(on[s].tolist())
        if len(chosen) == d:
            f = reduce(mul, [line_form(h.field, int(lines[s])) for s in chosen])
            assert intersection(h, f).count == d * (q + 1)
            forms.append(f)
    got, want = _line_test(q, model, forms)
    assert got == want
    assert all(len(v) == d for _, v in got)


@pytest.mark.parametrize("model", ["H1", "H2"])
def test_vote_confirms_with_divides_past_degree_q(model):
    # q = 2, d = 3 = q + 1: a secant through q + 1 zeros need not divide.
    # A secant times a conic through the other six points is a factor; a
    # cubic through the points of a secant, L X^2 plus three other lines
    # through them, is not one: the vote keeps L, and the values at the
    # Q + 1 points of L reject it, as `divides` does
    q = 2
    h = hermitian_model(q, model)
    spec = h.field
    lines, on = hermitian_secants(q, model)
    pts = hermitian_points(q, model)
    L = line_form(spec, int(lines[0]))
    conic = next(c for c in exhaustive_negative_search(q, 2, model).forms()
                 if intersection(h, L * c).count == 9)
    through = []
    for x, y, z in zip(*point_coords(spec.order, pts[on[0]])):
        others = point_index(spec, *line_points(spec, x, y, z))
        through.append(line_form(spec, int(next(i for i in others if i != lines[0]))))
    control = L * TernaryForm(spec, 2, {(2, 0, 0): 1}) + reduce(mul, through)
    got, want = _line_test(q, model, [L * conic, control])
    assert [g[0] for g in got] == [w[0] for w in want] == [True, False]
    assert int(lines[0]) in got[1][1] and not divides(L, control)


@pytest.mark.parametrize("model", ["H1", "H2"])
@pytest.mark.parametrize("q", [3, 4])
def test_vote_finds_no_line_in_the_sporadic_cubics(q, model):
    got, want = _line_test(q, model, [sporadic_cubic(q)])
    assert got == want == [(False, [])]


def test_search_evaluates_no_form_off_the_hermitian_points():
    # d <= q: the vote's secants are the line factors, with no evaluation
    rep = exhaustive_negative_search(3, 2)
    assert rep.complete and rep.total_forms_scanned == 66430
    assert len(rep.achievers) == len(rep.reducible_achievers) == 945


def test_search_counts_irreducible_achievers_at_q4_d2():
    # irreducible conics meet H_4 in 10 points: all are re-measured in one
    # `intersection_counts` batch; the reducible ones are secant pairs
    rep = exhaustive_negative_search(4, 2)
    assert rep.complete and rep.total_forms_scanned == projective_form_count(16, 6)
    counts = tuple(map(len, (rep.achievers, rep.reducible_achievers, rep.irreducible_achievers)))
    assert counts == (19968, 13728, 6240)
