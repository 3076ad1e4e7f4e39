"""The factor certificate of `plane.absolute_irreducibility_status`: the
partials rule for nonsingular curves and the line certificate
`plane.reducibility_search`, on achievers.

The oracle is an enumeration of candidate factors, degree by degree:
`_search_degree_k_factor` below, which tests every canonical form of
degree k that vanishes nowhere off the curve for divisibility.  The
degree exclusion alone is tested through `_line_surviving_degrees`.
"""

import time
from functools import reduce
from math import isqrt
from operator import mul

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from hermplane.constructions import measure, secant_fan_curve, sporadic_cubic
from hermplane.field import field_of_order
from hermplane import plane
from hermplane.plane import (
    TernaryForm,
    _line_surviving_degrees,
    _partials_vanish_only_at_zero,
    _restrictions,
    absolute_irreducibility_status,
    divides,
    form_values,
    hermitian_model,
    hermitian_points,
    hermitian_secants,
    intersection,
    line_count,
    line_factors,
    line_form,
    line_points,
    lines_through,
    monomials,
    point_coords,
    point_index,
    reducibility_search,
)
from hermplane.search import _coeff_rows

from brute_force import evaluate_all, line_zero_counts, vanishing_lines

# the oracle enumerates a degree when it has at most this many forms:
# conics over F_Q for Q <= 9, not over F_16
BUDGET = 10**5


def _coeff_batches(Q, M, chunk=1 << 15):
    """Canonical projective coefficient vectors of length M, in batches.

    Ordering: leading index ascending, then the remaining coefficients as a
    base-Q integer (most significant digit right after the leading 1).
    """
    for lead in range(M):
        total = Q ** (M - 1 - lead)
        for start in range(0, total, chunk):
            yield _coeff_rows(Q, M, lead, np.arange(start, min(start + chunk, total)))


def _search_degree_k_factor(f, k):
    """First canonical degree-k factor of f, or None."""
    spec = f.field
    monos = monomials(k)
    # a factor of f vanishes nowhere off the curve f = 0
    off_curve = point_coords(spec.order, np.flatnonzero(evaluate_all(f)))
    for batch in _coeff_batches(spec.order, len(monos)):
        candidates = batch
        for x, y, z in zip(*off_curve):
            values = form_values(spec, candidates.T, monos, x, y, z)
            candidates = candidates[values != 0]
            if not len(candidates):
                break
        for row in candidates:
            g = TernaryForm(spec, k, {m: int(c) for m, c in zip(monos, row) if c})
            if divides(g, f):
                return g
    return None


def _oracle_factor(f):
    """(first factor of least degree 1 .. d/2, every degree enumerated)."""
    Q = f.field.order
    complete = True
    for k in range(1, f.degree // 2 + 1):
        M = (k + 1) * (k + 2) // 2
        if Q ** (M - 1) > BUDGET:
            complete = False
            continue
        g = _search_degree_k_factor(f, k)
        if g is not None:
            return g, complete
    return None, complete


def _normalized(spec, xyz):
    """The coordinates of (x : y : z) scaled so that the first nonzero one is 1."""
    inv = spec.inv(next(v for v in xyz if v))
    return tuple(spec.mul(inv, v) for v in xyz)


def _xyz(spec):
    return [TernaryForm(spec, 1, {m: 1}) for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]


def _secant_product(q, model, d, rng):
    """The product of d secants of a Hermitian model with pairwise disjoint
    points, which therefore meet off the model: an achiever."""
    spec = hermitian_model(q, model).field
    lines, on = hermitian_secants(q, model)
    while True:
        chosen, used = [], set()
        for s in rng.permutation(len(lines)):
            if len(chosen) < d and used.isdisjoint(on[s].tolist()):
                chosen.append(int(lines[s]))
                used.update(on[s].tolist())
        if len(chosen) == d:
            return reduce(mul, [line_form(spec, i) for i in chosen])


def _candidates(f, rep):
    """The certificate's candidate line factors of an achiever: the lines
    through q+1 of its points on the Hermitian model."""
    return lines_through(f.field, rep.points, rep.q + 1)[0]


def _status(f, model):
    """The certificate's status of f as an achiever on H_q of `model`."""
    q = isqrt(f.field.order)
    return absolute_irreducibility_status(f, intersection(hermitian_model(q, model), f))


def test_lines_cover_the_plane():
    # line i has the coefficients of point i, and the lines through point j
    # are the points of the dual line j: the incidence vote relies on both
    for Q in (4, 9):
        spec = field_of_order(Q)
        n = line_count(Q)
        X, Y, Z = line_points(spec, *point_coords(Q, np.arange(n)))
        assert X.shape == (n, Q + 1)
        lines, incidences, through = set(), {}, {}
        for i in range(n):
            g = line_form(spec, i)
            coeffs = [int(v) for v in point_coords(Q, i)]
            assert [g.terms.get(m, 0) for m in monomials(1)] == coeffs
            coeffs, monos = tuple(g.terms.values()), tuple(g.terms)
            assert not form_values(spec, coeffs, monos, X[i], Y[i], Z[i]).any()
            on = form_values(spec, coeffs, monos, *point_coords(Q, np.arange(n))) == 0
            assert sorted(point_index(spec, X[i], Y[i], Z[i]).tolist()) == np.flatnonzero(on).tolist()
            keys = {
                _normalized(spec, (int(X[i, j]), int(Y[i, j]), int(Z[i, j])))
                for j in range(Q + 1)
            }
            assert len(keys) == Q + 1
            lines.add(frozenset(keys))
            for k in keys:
                incidences[k] = incidences.get(k, 0) + 1
            for j in point_index(spec, X[i], Y[i], Z[i]).tolist():
                through.setdefault(j, set()).add(i)
        assert len(lines) == n
        assert len(incidences) == n and set(incidences.values()) == {Q + 1}
        for j in range(n):
            dual = point_index(spec, *line_points(spec, *point_coords(Q, [j])))
            assert dual.shape == (1, Q + 1)
            assert set(dual[0].tolist()) == through[j]


def test_vanishing_lines_are_the_linear_factors():
    # two secants of H2 over F_16 and the conic X^2 + YZ, with disjoint
    # points on H: an achiever of degree 4 whose line factors are exactly
    # the lines it vanishes on
    q, model = 4, "H2"
    h = hermitian_model(q, model)
    spec = h.field
    x, y, z = _xyz(spec)
    conic = x * x + y * z  # meets H2 in 10 points, irreducible
    lines, on = hermitian_secants(q, model)
    used = set(intersection(h, conic).points.tolist())
    chosen = []
    for s in range(len(lines)):
        points = set(hermitian_points(q, model)[on[s]].tolist())
        if len(chosen) < 2 and used.isdisjoint(points):
            chosen.append(int(lines[s]))
            used |= points
    f = line_form(spec, chosen[0]) * conic * line_form(spec, chosen[1])
    rep = intersection(h, f)
    assert rep.count == 4 * (q + 1)
    assert line_factors(f, _candidates(f, rep)).tolist() == vanishing_lines(f).tolist() == chosen
    assert reducibility_search(f, _candidates(f, rep)).line == chosen[0]


def test_vanishing_lines_match_evaluation_on_each_line():
    # the oracle evaluates every form at the Q + 1 points of every line;
    # the candidates are the lines holding at least q + 1 zeros, of which
    # `line_factors` keeps those f vanishes on, for d <= q without
    # evaluating them
    rng = np.random.default_rng(3)
    for Q, d in ((4, 2), (4, 3), (9, 3), (9, 5), (16, 2), (16, 7), (25, 6), (49, 3)):
        spec = field_of_order(Q)
        q = isqrt(Q)
        monos, rest = monomials(d), monomials(d - 1)
        forms = [TernaryForm(spec, d, dict(zip(monos, rng.integers(0, Q, len(monos)).tolist()))) for _ in range(6)]
        for _ in range(6):  # forms with a planted linear factor
            g = line_form(spec, int(rng.integers(line_count(Q))))
            forms.append(g * TernaryForm(spec, d - 1, dict(zip(rest, rng.integers(0, Q, len(rest)).tolist()))))
        for i, f in enumerate(forms):
            candidates = np.flatnonzero(line_zero_counts(f) >= q + 1)
            got = line_factors(f, candidates)
            assert got.tolist() == vanishing_lines(f).tolist()
            assert i < 6 or len(got)


def test_a_line_is_absolutely_irreducible():
    # a secant is an achiever of degree 1, and it holds its own q+1 points
    q = 3
    lines, _ = hermitian_secants(q, "H1")
    for i in (lines[0], lines[40], lines[-1]):
        g = line_form(field_of_order(9), int(i))
        rep = intersection(hermitian_model(q, "H1"), g)
        assert reducibility_search(g, _candidates(g, rep)).status == "irreducible"
        assert absolute_irreducibility_status(g, rep).status == "absolutely-irreducible"


def test_sporadic_quartic_q25_certifies_in_seconds():
    # the vote lists the 626 lines through each of its 104 points on H2
    # instead of gathering the 626 points of each of the 391 251 lines
    _, f, rep = measure("sporadic-quartic", 25)
    assert not _partials_vanish_only_at_zero(f)
    t0 = time.perf_counter()
    assert absolute_irreducibility_status(f, rep).status == "absolutely-irreducible"
    assert time.perf_counter() - t0 < 3.0


def test_restrictions_match_substitution():
    # f(sA + tB) expanded as a binary form in X = t and Z = s with
    # TernaryForm products: its X^j Z^(d-j) coefficient is column j of the
    # interpolation
    for Q, d in ((9, 4), (16, 5), (16, 16), (25, 3)):
        spec = field_of_order(Q)
        rng = np.random.default_rng(Q + d)
        monos = monomials(d)
        f = TernaryForm(spec, d, dict(zip(monos, rng.integers(0, Q, len(monos)).tolist())))
        idx = rng.choice(line_count(Q), 12, replace=False)
        idx[-1] = line_count(Q) - 1
        rows = _restrictions(f, idx)
        # column 0 of a line's points is B, column 1 is A + 0B
        frames = line_points(spec, *point_coords(Q, idx))
        for r, row in enumerate(rows):
            coords = [
                TernaryForm(spec, 1, {(1, 0, 0): int(v[r, 0]), (0, 0, 1): int(v[r, 1])})
                for v in frames
            ]
            want = TernaryForm(spec, d, {})
            for m, c in f.terms.items():
                term = TernaryForm(spec, 0, {(0, 0, 0): c})
                for line, e in zip(coords, m):
                    term = term * line**e
                want = want + term
            assert [want.terms.get((j, 0, d - j), 0) for j in range(d + 1)] == row.tolist()


@st.composite
def _factor_cases(draw):
    """(f, reducible): a random form of degree 2..top, or a product g*h
    with deg g in {1, 2} and deg f <= top, where top = min(5, Q - 1)."""
    Q = draw(st.sampled_from((4, 9, 16)))
    spec = field_of_order(Q)
    top = min(5, Q - 1)

    def form(d):
        monos = monomials(d)
        coeffs = draw(st.lists(st.integers(0, Q - 1), min_size=len(monos), max_size=len(monos)))
        if not any(coeffs):
            coeffs[0] = 1
        return TernaryForm(spec, d, dict(zip(monos, coeffs)))

    if draw(st.booleans()):
        return form(draw(st.integers(2, top))), False
    k = draw(st.sampled_from((1, 2)))
    return form(k) * form(draw(st.integers(1, top - k))), True


@given(_factor_cases())
@settings(max_examples=40, deadline=None)
def test_certificate_matches_enumeration(case):
    # the candidates are the lines holding at least q + 1 zeros of f, as
    # the secants through q + 1 common points are for an achiever
    f, reducible = case
    q = isqrt(f.field.order)
    res = reducibility_search(f, np.flatnonzero(line_zero_counts(f) >= q + 1))
    g, complete = _oracle_factor(f)
    if reducible:
        assert res.status != "irreducible"
    # the linear factors are exactly the oracle's
    assert (res.status == "factor") == (g is not None and g.degree == 1)
    if res.status == "factor":
        assert divides(line_form(f.field, res.line), f)
    if res.status == "open":
        assert res.open and all(2 <= k <= f.degree // 2 for k in res.open)
    if g is not None and g.degree >= 2:
        # the lines never exclude the degree of a true factor
        assert res.status == "open" and g.degree in res.open


def test_product_of_conics_is_found_reducible():
    # lines tangent to one conic restrict f to l^2 * (irreducible quadratic);
    # a distinct-degree factorization of that non-squarefree restriction
    # reads degrees [1, 3], which would wrongly exclude the conic factors
    spec = field_of_order(9)
    x, y, z = _xyz(spec)
    f = (x * x + y * z) * (x * y + z * z)
    assert _line_surviving_degrees(f, [2]) == [2]
    g = _search_degree_k_factor(f, 2)
    assert g is not None and divides(g, f)


def test_double_root_at_base_point_is_not_used():
    # on the line y = 0 (A = (1,0,0), B = (0,0,1)) the conic restricts to
    # s^2, a double root at B, so f|_L = s^2 (t^3 - w s^3): counting only one
    # linear factor at B would read degrees [1, 3] and exclude 2
    spec = field_of_order(16)
    x, y, z = _xyz(spec)
    cubic = z * z * z - (x * x * x).scale(spec.generator) + x * y * z
    f = (x * x + y * z) * cubic
    assert _line_surviving_degrees(f, [2]) == [2]


def test_fan_times_cubic_is_never_certified():
    f = secant_fan_curve(4, 5)[1] * sporadic_cubic(4)
    assert _line_surviving_degrees(f, range(2, 5)) == [3]


def test_line_walk_stops_when_no_line_removes_a_degree(monkeypatch):
    # over F_81 every line leaves the conic factors' degree 2 open; the
    # walk gives up after _LINE_STALL used lines instead of all 6643
    calls = []
    factor_degrees = plane.factor_degrees

    def counted(spec, g):
        calls.append(g)
        return factor_degrees(spec, g)

    monkeypatch.setattr(plane, "factor_degrees", counted)
    spec = field_of_order(81)
    x, y, z = _xyz(spec)
    f = (x * x + y * z) * (x * y + z * z)
    t0 = time.perf_counter()
    assert _line_surviving_degrees(f, [2]) == [2]
    assert time.perf_counter() - t0 < 1.0
    assert len(calls) == plane._LINE_STALL


def test_certificate_refuses_what_is_no_achiever():
    # a line of F_9 that is no secant of H1, and a report of another degree
    q = 3
    h = hermitian_model(q, "H1")
    spec = h.field
    tangent = next(
        g for g in (line_form(spec, i) for i in range(line_count(9))) if intersection(h, g).count == 1
    )
    with pytest.raises(ValueError, match="not an achiever"):
        absolute_irreducibility_status(tangent, intersection(h, tangent))
    f = sporadic_cubic(q)
    rep = intersection(hermitian_model(q, "H2"), f)
    assert rep.count == 3 * (q + 1)
    with pytest.raises(ValueError, match="not an achiever"):
        absolute_irreducibility_status(f * line_form(spec, 0), rep)
    with pytest.raises(ValueError, match="not an achiever"):
        absolute_irreducibility_status(f, intersection(h, f))


@pytest.mark.parametrize("model", ["H1", "H2"])
def test_hermitian_multiple_is_never_certified(model):
    # at d = q^2 - q + 1 = 7 (q = 3) h times a cubic meets H_q in all
    # q^3 + 1 = d(q+1) points; its factors of degrees 4 and 3 stay open
    q = 3
    h = hermitian_model(q, model)
    spec = h.field
    rng = np.random.default_rng(7)
    x, y, z = _xyz(spec)
    cubics = [TernaryForm(spec, 3, dict(zip(monomials(3), rng.integers(0, 9, 10).tolist()))) for _ in range(3)]
    cubics += [sporadic_cubic(q), x * (y * y + x * z)]
    for g in cubics:
        f = h * g
        rep = intersection(h, f)
        assert rep.count == q**3 + 1 == f.degree * (q + 1)
        status = absolute_irreducibility_status(f, rep)
        assert status.status != "absolutely-irreducible"
        if status.status == "undetermined":
            assert status.reason == "lines left degrees 2, 3 open"
        else:
            assert status.status == "reducible" and divides(status.factor, g)


# ---------------------------------------------------------------------------
# the partials rule: nonsingular curves
# ---------------------------------------------------------------------------

def test_hermitian_models_certify_by_their_partials():
    # the partials of H1 and H2 are X^q, Y^q and Z^q up to order and sign;
    # no line is tested, so q = 128 costs what q = 2 does.  H_2 is an
    # achiever of itself, 9 = 3(2 + 1) points, and certifies by the rule
    t0 = time.perf_counter()
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 27, 64, 128):
        for variant in ("H1", "H2"):
            h = hermitian_model(q, variant)
            assert sorted(m for g in plane.partials(h) for m in g.terms) == [
                (0, 0, q),
                (0, q, 0),
                (q, 0, 0),
            ]
            assert _partials_vanish_only_at_zero(h)
    assert time.perf_counter() - t0 < 1.0
    for variant in ("H1", "H2"):
        assert _status(hermitian_model(2, variant), variant).status == "absolutely-irreducible"


def test_odd_half_curves_and_sporadic_quartics_certify():
    for family, qs in (("odd-half", (7, 11, 13)), ("sporadic-quartic", (11, 19))):
        for q in qs:
            _, f, rep = measure(family, q)
            assert _partials_vanish_only_at_zero(f)
            assert absolute_irreducibility_status(f, rep).status == "absolutely-irreducible"


def test_partials_rule_does_not_fire_on_reducible_forms():
    # XY over F_4 has f_Z = 0, and X^2 + Y^2 = (X + iY)(X - iY) over F_9
    # has f_Z = 0; both are pairs of secants of H2 meeting off it, so
    # achievers (6 and 8 points): the lines decide
    cases = (
        (4, {(1, 1, 0): 1}),
        (9, {(2, 0, 0): 1, (0, 2, 0): 1}),
    )
    for Q, terms in cases:
        f = TernaryForm(field_of_order(Q), 2, terms)
        assert not _partials_vanish_only_at_zero(f)
        status = _status(f, "H2")
        assert status.status == "reducible"
        assert divides(status.factor, f)


@st.composite
def _gradient_forms(draw):
    """Sparse forms whose partials are often single powers: for each
    variable w a term whose w-partial is a power of a variable v(w), w^d
    when v(w) = w and v^(d-1) w otherwise, and sometimes one random term.
    v is mostly a permutation; the rule needs p to divide the exponent
    that every other partial of these terms carries."""
    Q = draw(st.sampled_from((3, 4, 5, 7, 8, 9)))
    spec = field_of_order(Q)
    d = draw(st.integers(2, 5))
    if draw(st.integers(0, 3)):
        v = draw(st.permutations(range(3)))
    else:
        v = draw(st.lists(st.integers(0, 2), min_size=3, max_size=3))
    terms = {}
    for w in range(3):
        m = [0, 0, 0]
        m[v[w]] += d - 1
        m[w] += 1
        terms[tuple(m)] = draw(st.integers(1, Q - 1))
    if not draw(st.integers(0, 3)):
        terms[draw(st.sampled_from(monomials(d)))] = draw(st.integers(1, Q - 1))
    return TernaryForm(spec, d, terms)


# Most drawn forms fail the rule's premise, so Hypothesis' filter health
# check fails the test at random (about one run in eight) on no fault.
@given(_gradient_forms())
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)
def test_partials_rule_leaves_no_factor(f):
    assume(_partials_vanish_only_at_zero(f))
    g, complete = _oracle_factor(f)
    assert complete
    assert g is None
