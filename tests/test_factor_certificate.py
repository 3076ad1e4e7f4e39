"""The line factor certificate of `plane.reducibility_search`.

The oracle is the enumeration of candidate factors, degree by degree, that
the certificate falls back to: `_search_degree_k_factor` called directly.
"""

import time

import numpy as np
from hypothesis import given, settings, strategies as st

from hermplane.constructions import secant_fan_curve, sporadic_cubic
from hermplane.field import FieldElem, field_of_order
from hermplane import plane
from hermplane.plane import (
    ProjPoint,
    TernaryForm,
    _line_frames,
    _restrictions,
    _search_degree_k_factor,
    absolute_irreducibility_status,
    divides,
    form_values,
    line_count,
    line_form,
    line_points,
    monomials,
    reducibility_search,
    vanishing_lines,
)
from hermplane.unipoly import UniPoly

# below 16^5, so the conic level over F_16 is left to the lines; 9^5 and 4^5 fit
BUDGET = 10**5


def _xyz(spec):
    return [TernaryForm(spec, 1, {m: 1}) for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]


def test_lines_cover_the_plane():
    for Q in (4, 9):
        spec = field_of_order(Q)
        n = line_count(Q)
        X, Y, Z = line_points(spec, np.arange(n))
        assert X.shape == (n, Q + 1)
        lines, incidences = set(), {}
        for i in range(n):
            g = line_form(spec, i)
            coeffs, monos = tuple(g.terms.values()), tuple(g.terms)
            assert not form_values(spec, coeffs, monos, X[i], Y[i], Z[i]).any()
            keys = {
                ProjPoint(*(FieldElem(spec, int(v[i, j])) for v in (X, Y, Z))).key()
                for j in range(Q + 1)
            }
            assert len(keys) == Q + 1
            lines.add(frozenset(keys))
            for k in keys:
                incidences[k] = incidences.get(k, 0) + 1
        assert len(lines) == n
        assert len(incidences) == n and set(incidences.values()) == {Q + 1}


def test_vanishing_lines_are_the_linear_factors():
    spec = field_of_order(9)
    x, y, z = _xyz(spec)
    conic = x * x + y * z + z * z  # smooth, so irreducible
    f = (x + y) * conic * (y - z)
    mask = vanishing_lines(spec, tuple(f.terms), [tuple(f.terms.values())])[0]
    found = {line_form(spec, int(i)) for i in np.nonzero(mask)[0]}
    assert found == {x + y, y - z}


def test_vanishing_lines_match_evaluation_on_each_line():
    # the oracle evaluates every form at the Q + 1 points of every line
    rng = np.random.default_rng(3)
    for Q, d in ((4, 2), (9, 3), (16, 2)):
        spec = field_of_order(Q)
        monos, rest = monomials(d), monomials(d - 1)
        rows = rng.integers(0, Q, (12, len(monos))).tolist()
        for _ in range(12):  # forms with a planted linear factor
            g = line_form(spec, int(rng.integers(line_count(Q))))
            f = g * TernaryForm(spec, d - 1, dict(zip(rest, rng.integers(0, Q, len(rest)).tolist())))
            rows.append([f.terms.get(m, 0) for m in monos])
        batch = np.array(rows)
        values = form_values(
            spec, batch.T[:, :, None, None], monos, *line_points(spec, np.arange(line_count(Q)))
        )
        mask = vanishing_lines(spec, monos, batch)
        assert np.array_equal(mask, ~values.any(axis=-1))
        assert mask[12:].any(axis=1).all()


def test_a_line_is_absolutely_irreducible():
    spec = field_of_order(9)
    for i in (0, 40, line_count(9) - 1):
        g = line_form(spec, i)
        assert reducibility_search(g).status == "irreducible"
        assert absolute_irreducibility_status(g).status == "absolutely-irreducible"


def test_restrictions_match_substitution():
    # f(A + tB) expanded with UniPoly arithmetic, against the interpolation
    for Q, d in ((9, 4), (16, 5), (16, 16), (25, 3)):
        spec = field_of_order(Q)
        rng = np.random.default_rng(Q + d)
        monos = monomials(d)
        f = TernaryForm(spec, d, dict(zip(monos, rng.integers(0, Q, len(monos)).tolist())))
        idx = rng.choice(line_count(Q), 12, replace=False)
        idx[-1] = line_count(Q) - 1
        rows = _restrictions(f, idx)
        A, B = _line_frames(spec, idx)
        for r, row in enumerate(rows):
            coords = [UniPoly(spec, [int(a[r]), int(b[r])]) for a, b in zip(A, B)]
            want = UniPoly(spec, [])
            for m, c in f.terms.items():
                term = UniPoly.constant(spec, c)
                for poly, e in zip(coords, m):
                    for _ in range(e):
                        term = term * poly
                want = want + term
            assert UniPoly(spec, row.tolist()) == want


def _enumerated_status(f, budget):
    """Status of the enumeration alone: every degree 1 .. d/2 within budget."""
    Q = f.field.order
    skipped = False
    for k in range(1, f.degree // 2 + 1):
        M = (k + 1) * (k + 2) // 2
        if k > 1 and Q ** (M - 1) > budget:
            skipped = True
        elif _search_degree_k_factor(f, k)[0] is not None:
            return "factor"
    return "budget-exceeded" if skipped else "irreducible"


@st.composite
def _factor_cases(draw):
    """(f, reducible): a random form of degree 2..5, or a product g*h with
    deg g in {1, 2} and deg f <= 5."""
    Q = draw(st.sampled_from((4, 9, 16)))
    spec = field_of_order(Q)

    def form(d):
        monos = monomials(d)
        coeffs = draw(st.lists(st.integers(0, Q - 1), min_size=len(monos), max_size=len(monos)))
        if not any(coeffs):
            coeffs[0] = 1
        return TernaryForm(spec, d, dict(zip(monos, coeffs)))

    if draw(st.booleans()):
        return form(draw(st.integers(2, 5))), False
    k = draw(st.sampled_from((1, 2)))
    return form(k) * form(draw(st.integers(1, 5 - k))), True


@given(_factor_cases())
@settings(max_examples=40, deadline=None)
def test_certificate_matches_enumeration(case):
    f, reducible = case
    res = reducibility_search(f, budget=BUDGET)
    want = _enumerated_status(f, BUDGET)
    if want == "budget-exceeded":
        # the lines may close a level the enumeration skips, never a true factor
        assert res.status in ("budget-exceeded", "irreducible")
    else:
        assert res.status == want
    if reducible:
        assert res.status != "irreducible"
    if res.status == "factor":
        assert divides(res.factor, f)
        assert 1 <= res.factor.degree <= f.degree // 2
    if res.status == "budget-exceeded":
        assert res.skipped and all(2 <= k <= f.degree // 2 for k in res.skipped)


def test_product_of_conics_is_found_reducible():
    # lines tangent to one conic restrict f to l^2 * (irreducible quadratic);
    # a distinct-degree factorization of that non-squarefree restriction
    # reads degrees [1, 3], which would wrongly exclude the conic factors
    spec = field_of_order(9)
    x, y, z = _xyz(spec)
    f = (x * x + y * z) * (x * y + z * z)
    res = reducibility_search(f)
    assert res.status == "factor"
    assert res.factor.degree == 2 and divides(res.factor, f)


def test_double_root_at_base_point_is_not_used():
    # on the line y = 0 (A = (1,0,0), B = (0,0,1)) the conic restricts to
    # s^2, a double root at B, so f|_L = s^2 (t^3 - w s^3): counting only one
    # linear factor at B would read degrees [1, 3] and exclude 2
    spec = field_of_order(16)
    x, y, z = _xyz(spec)
    w = FieldElem(spec, spec.generator)
    cubic = z * z * z - (x * x * x).scale(w) + x * y * z
    f = (x * x + y * z) * cubic
    res = reducibility_search(f, budget=1)
    assert res.status == "budget-exceeded"
    assert res.skipped == (2,)


def test_fan_times_cubic_is_never_certified():
    f = secant_fan_curve(4, 5)[1] * sporadic_cubic(4)
    res = reducibility_search(f)
    assert res.status == "budget-exceeded"
    assert res.skipped == (3,)
    status = absolute_irreducibility_status(f)
    assert status.status == "undetermined"
    assert status.reason == "factor budget exceeded at degree 3"


def test_line_walk_stops_when_no_line_removes_a_degree(monkeypatch):
    # over F_81 every line leaves the conic factors' degree 2 open; the
    # walk gives up after _LINE_STALL used lines instead of all 6643
    calls = []
    factor_degrees = plane.factor_degrees

    def counted(g):
        calls.append(g)
        return factor_degrees(g)

    monkeypatch.setattr(plane, "factor_degrees", counted)
    spec = field_of_order(81)
    x, y, z = _xyz(spec)
    f = (x * x + y * z) * (x * y + z * z)
    t0 = time.perf_counter()
    res = reducibility_search(f)
    assert time.perf_counter() - t0 < 1.0
    assert res.status == "budget-exceeded"
    assert res.skipped == (2,)
    assert len(calls) == plane._LINE_STALL
