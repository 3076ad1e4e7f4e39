import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hermplane import plane
from hermplane.constructions import secant_fan_curve, sporadic_cubic
from hermplane.field import FieldError, field_of_order
from hermplane.plane import (
    TernaryForm,
    absolute_irreducibility_status,
    divides,
    form_values,
    hermitian_model,
    hermitian_point_count,
    hermitian_points,
    hermitian_secants,
    intersection,
    intersection_counts,
    line_count,
    line_form,
    monomials,
    partials,
    point_coords,
    point_index,
    reducibility_search,
)

from brute_force import evaluate_all, zero_points
from test_factor_certificate import _candidates, _secant_product, _xyz


# scalar references for the vectorized kernel: point enumeration,
# evaluation at a point and the singularity test, one point at a time

def normalized(spec, xyz):
    """The coordinates of the point (x : y : z) scaled so that the first
    nonzero one is 1."""
    inv = spec.inv(next(v for v in xyz if v))
    return tuple(spec.mul(inv, v) for v in xyz)


def enumerate_points(spec):
    """All Q^2+Q+1 points, normalized: chart Z=1, then (x:1:0), then [1:0:0]."""
    for xv in range(spec.order):
        for yv in range(spec.order):
            yield normalized(spec, (xv, yv, 1))
    for xv in range(spec.order):
        yield normalized(spec, (xv, 1, 0))
    yield (1, 0, 0)


def coordinate_triples(Q, idx):
    """The chart coordinates (x, y, z) of enumeration indices idx, as ints."""
    return list(zip(*(v.tolist() for v in point_coords(Q, idx))))


def evaluate(f, xyz):
    """The encoding of the value of f at the coordinates xyz."""
    K = f.field
    acc = 0
    for m, c in f.terms.items():
        term = c
        for v, e in zip(xyz, m):
            term = K.mul(term, K.pow(v, e))
        acc = K.add(acc, term)
    return acc


def is_singular_point(f, P):
    """All three partials vanish at P; if char | degree, also require f(P)=0."""
    fx, fy, fz = partials(f)
    if evaluate(fx, P) or evaluate(fy, P) or evaluate(fz, P):
        return False
    if f.degree % f.field.p == 0 and evaluate(f, P):
        return False
    return True


def test_monomial_count():
    for d in range(1, 8):
        assert len(monomials(d)) == (d + 1) * (d + 2) // 2


def test_projective_point_count():
    for q in (4, 9, 16, 25):
        spec = field_of_order(q)
        pts = list(enumerate_points(spec))
        assert len(pts) == q * q + q + 1
        assert len(set(pts)) == len(pts)


def test_point_coords_match_enumeration():
    spec = field_of_order(9)
    pts = list(enumerate_points(spec))
    for i in (0, 1, 17, len(pts) - 1):
        assert normalized(spec, tuple(int(v) for v in point_coords(9, i))) == pts[i]
    # an index array, at every index
    for xyz, P in zip(coordinate_triples(9, np.arange(len(pts))), pts, strict=True):
        assert normalized(spec, xyz) == P


def _chart_representative(Q, idx):
    """(x, y, 1), (x, 1, 0) or (1, 0, 0): the coordinates evaluate_all uses."""
    if idx < Q * Q:
        return idx // Q, idx % Q, 1
    if idx < Q * Q + Q:
        return idx - Q * Q, 1, 0
    return 1, 0, 0


@st.composite
def _forms(draw):
    Q = draw(st.sampled_from((4, 7, 9, 16, 25)))
    d = draw(st.integers(0, 4))
    spec = field_of_order(Q)
    coeff = st.one_of(st.just(0), st.integers(0, Q - 1))
    terms = {m: draw(coeff) for m in monomials(d)}
    return TernaryForm(spec, d, terms)


@given(_forms())
@settings(max_examples=40, deadline=None)
def test_evaluate_all_matches_scalar_evaluation(f):
    Q = f.field.order
    values = evaluate_all(f)
    assert values.shape == (Q * Q + Q + 1,)
    want = [evaluate(f, _chart_representative(Q, i)) for i in range(len(values))]
    assert values.tolist() == want


def test_point_index_inverts_point_coords():
    for Q in (2, 3, 4, 9, 16):
        spec = field_of_order(Q)
        n = Q * Q + Q + 1
        X, Y, Z = point_coords(Q, np.arange(n))
        assert np.array_equal(point_index(spec, X, Y, Z), np.arange(n))
        # any nonzero multiple names the same point
        c = np.arange(n) % (Q - 1) + 1
        scaled = (spec.mul_v(c, v) for v in (X, Y, Z))
        assert np.array_equal(point_index(spec, *scaled), np.arange(n))


def test_batch_rows_match_single_form_calls():
    spec = field_of_order(16)
    monos = monomials(2)
    rng = np.random.default_rng(7)
    batch = rng.integers(0, 16, size=(50, len(monos)))
    batch[rng.random(batch.shape) < 0.4] = 0
    X, Y, Z = point_coords(16, np.arange(16 * 16 + 16 + 1))
    values = form_values(spec, batch.T[:, :, None], monos, X, Y, Z)
    assert values.shape == (50, len(X))
    for row, got in zip(batch, values):
        assert (got == form_values(spec, row, monos, X, Y, Z)).all()
        form = TernaryForm(spec, 2, {m: int(c) for m, c in zip(monos, row)})
        assert (got == evaluate_all(form)).all()


def test_zero_form_evaluates_to_zero():
    for q in (4, 9):
        spec = field_of_order(q)
        for d in (0, 2):
            values = evaluate_all(TernaryForm(spec, d, {}))
            assert values.shape == (q * q + q + 1,)
            assert not values.any()


def test_form_arithmetic():
    spec = field_of_order(9)
    x = TernaryForm(spec, 1, {(1, 0, 0): 1})
    y = TernaryForm(spec, 1, {(0, 1, 0): 1})
    assert (x + y) * (x + y) == x * x + x * y + x * y + y * y
    assert (x**3).degree == 3
    assert (x - x).is_zero()


def test_canonical_scales_leading_coeff_to_one():
    spec = field_of_order(25)
    f = TernaryForm(spec, 2, {(2, 0, 0): 7, (0, 1, 1): 3})
    g = f.canonical()
    lead = min(g.terms)  # lex-first monomial of highest X-power first
    assert any(c == 1 for c in g.terms.values())
    assert f.canonical() == f.scale(2).canonical()


def _random_form(rng, spec, d):
    """A form of degree d with about 60 % of its monomials present."""
    terms = {m: int(rng.integers(spec.order)) for m in monomials(d) if rng.random() < 0.6}
    return TernaryForm(spec, d, terms)


def test_projective_equality_matches_canonical_terms():
    rng = np.random.default_rng(16)
    for Q in (2, 4, 7, 9, 16, 25):
        spec = field_of_order(Q)
        pairs = [(TernaryForm(spec, 2, {}), TernaryForm(spec, 2, {}))]
        for _ in range(30):
            d = int(rng.integers(0, 4))
            f = _random_form(rng, spec, d)
            c = int(rng.integers(1, Q))
            g = f.scale(c)
            pairs += [(f, g), (f, _random_form(rng, spec, d)), (f, TernaryForm(spec, d, {}))]
            if f.terms:
                # the same support, one coefficient off by the generator: not
                # proportional once f has two terms and Q > 2
                m = next(iter(f.terms))
                h = TernaryForm(spec, d, {**g.terms, m: spec.mul(g.terms[m], spec.generator)})
                pairs += [(f, h), (h, f)]
        for f, g in pairs:
            same = f.canonical().terms == g.canonical().terms
            assert (f == g) == same
            assert (g == f) == same
            if same:
                assert hash(f) == hash(g)


def test_hermitian_models_have_q_cubed_plus_one_points():
    for q in (2, 3, 4, 5):
        for model in ("H1", "H2"):
            assert len(hermitian_points(q, model)) == q**3 + 1


@pytest.mark.parametrize("model", ["H1", "H2"])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_hermitian_points_match_full_plane(q, model):
    idx = hermitian_points(q, model)
    want = zero_points(hermitian_model(q, model))
    assert idx.dtype == want.dtype
    assert idx.tolist() == want.tolist()
    assert not idx.flags.writeable


@pytest.mark.parametrize("model", ["H1", "H2"])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_fiber_table_count_matches_listing_and_full_plane(q, model):
    # the summed fiber products, the x-major listing and the full plane
    n = len(zero_points(hermitian_model(q, model)))
    assert hermitian_point_count(q, model) == len(hermitian_points(q, model)) == n


@pytest.mark.parametrize("model", ["H1", "H2"])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_fiber_walk_matches_full_plane_on_the_axes(q, model):
    # forms through (0, y, 1) and (x, 0, 1) vanish on the single-point
    # fibers {0}, whose rows repeat their point: a repeat that escaped the
    # validity mask would be counted twice
    rng = np.random.default_rng(100 + q)
    h = hermitian_model(q, model)
    spec = h.field
    X, Y = (TernaryForm(spec, 1, {m: 1}) for m in ((1, 0, 0), (0, 1, 0)))
    forms = [X, Y, X * Y]
    for d in (1, 2, 3):
        for _ in range(3):
            g = _random_form(rng, spec, d)
            forms += [g, X * g, Y * g]
    on_h = zero_points(h)
    by_degree = {}
    for f in forms:
        want = np.intersect1d(on_h, zero_points(f))
        assert intersection(h, f).points.tolist() == want.tolist()
        by_degree.setdefault(f.degree, []).append((f, len(want)))
    for d, pairs in by_degree.items():
        batch = [[f.terms.get(m, 0) for m in monomials(d)] for f, _ in pairs]
        assert intersection_counts(h, monomials(d), batch).tolist() == [n for _, n in pairs]


@st.composite
def _hermitian_and_form(draw):
    q = draw(st.sampled_from((2, 3, 4, 5)))
    h = hermitian_model(q, draw(st.sampled_from(("H1", "H2"))))
    kind = draw(st.sampled_from(("random", "random", "same", "scaled", "other model")))
    if kind == "same":
        return h, h
    if kind == "scaled":
        return h, h.scale(h.field.generator)
    if kind == "other model":
        return h, hermitian_model(q, "H2" if h == hermitian_model(q, "H1") else "H1")
    d = draw(st.integers(0, 4))
    coeff = st.one_of(st.just(0), st.integers(0, q * q - 1))
    return h, TernaryForm(h.field, d, {m: draw(coeff) for m in monomials(d)})


@given(_hermitian_and_form())
@settings(max_examples=60, deadline=None)
def test_intersection_on_hermitian_points_matches_full_plane(case):
    h, f = case
    want = np.intersect1d(zero_points(h), zero_points(f)).tolist()
    rep = intersection(h, f)
    assert rep.count == len(want)
    assert rep.points.tolist() == want
    assert rep.degenerate == (f == h)
    assert rep.d == f.degree


@st.composite
def _hermitian_and_batch(draw):
    q = draw(st.sampled_from((2, 3, 4, 5)))
    h = hermitian_model(q, draw(st.sampled_from(("H1", "H2"))))
    d = draw(st.sampled_from((0, 1, 2, 3, 4, q + 1)))
    monos = monomials(d)
    coeff = st.one_of(st.just(0), st.integers(0, q * q - 1))
    rows = [st.lists(coeff, min_size=len(monos), max_size=len(monos)), st.just([0] * len(monos))]
    if d == q + 1:
        # h and its nonzero multiples
        scale = st.integers(1, q * q - 1)
        rows.append(scale.map(lambda c: [h.field.mul(c, h.terms.get(m, 0)) for m in monos]))
    return h, d, monos, draw(st.lists(st.one_of(*rows), max_size=8))


@given(_hermitian_and_batch())
@settings(max_examples=60, deadline=None)
def test_intersection_counts_match_single_intersections(case):
    h, d, monos, batch = case
    counts = intersection_counts(h, monos, batch)
    assert counts.shape == (len(batch),)
    want = [intersection(h, TernaryForm(h.field, d, dict(zip(monos, row)))).count for row in batch]
    assert counts.tolist() == want


@pytest.mark.parametrize("model", ["H1", "H2"])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_blocks_smaller_than_a_row_change_nothing(monkeypatch, q, model):
    # a block of 7 points: intersections walk one fiber row at a time, as
    # does a batch of 10 forms
    rng = np.random.default_rng(q)
    h = hermitian_model(q, model)
    spec = h.field
    forms = [h, hermitian_model(q, "H2" if model == "H1" else "H1"), TernaryForm(spec, 1, {(0, 0, 1): 1})]
    forms += [_random_form(rng, spec, d) for d in (0, 1, 2, 3, 3, 4)]
    on_h = zero_points(h)
    want = [np.intersect1d(on_h, zero_points(f)) for f in forms]
    batch = [[f.terms.get(m, 0) for m in monomials(3)] for f in forms if f.degree == 3]
    cubics = batch + rng.integers(0, spec.order, (8, 10)).tolist()
    cubic_forms = (TernaryForm(spec, 3, dict(zip(monomials(3), row))) for row in cubics)
    counts = [len(np.intersect1d(on_h, zero_points(f))) for f in cubic_forms]
    monkeypatch.setattr(plane, "_CHUNK", 7)
    assert intersection_counts(h, monomials(3), cubics).tolist() == counts
    for f, idx in zip(forms, want):
        rep = intersection(h, f)
        assert rep.count == len(idx)
        assert rep.points.tolist() == idx.tolist()


def test_intersection_needs_a_hermitian_model_first():
    h = hermitian_model(3, "H1")
    line = TernaryForm(h.field, 1, {(1, 0, 0): 1})
    with pytest.raises(ValueError, match="Hermitian model"):
        intersection(line, h)
    with pytest.raises(FieldError):
        intersection(h, TernaryForm(field_of_order(4), 1, {(1, 0, 0): 1}))


def test_hermitian_is_nonsingular():
    for q in (2, 3, 4):
        h = hermitian_model(q, "H1")
        for xyz in coordinate_triples(h.field.order, hermitian_points(q, "H1")):
            assert not is_singular_point(h, xyz)


def test_line_meets_hermitian_in_one_or_q_plus_one():
    # every line meets H in either 1 (tangent) or q+1 (secant) points
    q = 3
    spec = field_of_order(q * q)
    h = hermitian_model(q, "H1")
    counts = set()
    for a in range(spec.order):
        line = TernaryForm(spec, 1, {(1, 0, 0): 1, (0, 1, 0): a})
        counts.add(intersection(h, line).count)
    assert counts <= {1, q + 1}


@pytest.mark.parametrize("model", ["H1", "H2"])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_hermitian_secants_against_every_line(q, model):
    # every line of the plane evaluated at the Hermitian points: the lines
    # with q+1 zeros are the q^2(q^2 - q + 1) secants, q^2 through each point
    spec = hermitian_model(q, model).field
    points = point_coords(spec.order, hermitian_points(q, model))
    want_lines, want_on = [], []
    for i in range(line_count(spec.order)):
        g = line_form(spec, i)
        zeros = np.flatnonzero(form_values(spec, tuple(g.terms.values()), tuple(g.terms), *points) == 0)
        assert len(zeros) in (1, q + 1)
        if len(zeros) == q + 1:
            want_lines.append(i)
            want_on.append(zeros.tolist())
    lines, on = hermitian_secants(q, model)
    assert lines.tolist() == want_lines and on.tolist() == want_on
    assert len(lines) == q * q * (q * q - q + 1)
    assert np.bincount(on.reshape(-1)).tolist() == [q * q] * (q**3 + 1)


def test_intersection_flags_identical_curves():
    h = hermitian_model(3, "H1")
    rep = intersection(h, h)
    assert rep.degenerate
    assert rep.count == 28


def test_intersection_with_points():
    q = 3
    h = hermitian_model(q, "H2")
    spec = h.field
    line = TernaryForm(spec, 1, {(1, 0, 0): 1})
    rep = intersection(h, line)
    assert rep.count == q + 1
    assert len(rep.points) == rep.count
    for xyz in coordinate_triples(spec.order, rep.points):
        assert evaluate(h, xyz) == 0
        assert evaluate(line, xyz) == 0


def test_partials_euler_identity():
    spec = field_of_order(9)
    f = TernaryForm(spec, 4, {(4, 0, 0): 1, (2, 1, 1): 2, (0, 2, 2): 5})
    fx, fy, fz = partials(f)
    x = TernaryForm(spec, 1, {(1, 0, 0): 1})
    y = TernaryForm(spec, 1, {(0, 1, 0): 1})
    z = TernaryForm(spec, 1, {(0, 0, 1): 1})
    assert (x * fx + y * fy + z * fz).same_terms(f.scale(4 % 3))


def test_divides_detects_linear_factor():
    spec = field_of_order(4)
    x = TernaryForm(spec, 1, {(1, 0, 0): 1})
    y = TernaryForm(spec, 1, {(0, 1, 0): 1})
    f = (x + y) * (x * x + y * y + TernaryForm(spec, 2, {(0, 0, 2): 1}))
    assert divides(x + y, f)
    assert not divides(x, f)


def test_reducibility_search_finds_factor():
    # three secants of H2 over F_9 with disjoint points: an achiever
    q = 3
    f = _secant_product(q, "H2", 3, np.random.default_rng(1))
    rep = intersection(hermitian_model(q, "H2"), f)
    assert rep.count == 3 * (q + 1)
    res = reducibility_search(f, _candidates(f, rep))
    assert res.status == "factor"
    assert res.line is not None and divides(line_form(f.field, res.line), f)


def test_reducibility_search_certifies_irreducible_conic():
    # X^2 + YZ meets H2 over F_16 in 10 points: the first irreducible
    # achiever of the (4, 2) search
    x, y, z = _xyz(field_of_order(16))
    f = x * x + y * z
    rep = intersection(hermitian_model(4, "H2"), f)
    assert rep.count == 10
    assert reducibility_search(f, _candidates(f, rep)).status == "irreducible"


def test_smooth_point_certificate_for_hermitian():
    # an achiever certified by the lines has every common point smooth
    # (Bezout), which the scalar singularity test confirms point by point;
    # H_2 is an achiever of itself, certified by its partials
    x, y, z = _xyz(field_of_order(16))
    h2 = hermitian_model(2, "H2")
    cases = [
        (hermitian_model(4, "H2"), x * x + y * z),
        (hermitian_model(3, "H2"), sporadic_cubic(3)),
        (hermitian_model(3, "H1"), secant_fan_curve(3, 4)[1]),
        (h2, h2),
    ]
    for h, f in cases:
        rep = intersection(h, f)
        assert absolute_irreducibility_status(f, rep).status == "absolutely-irreducible"
        for xyz in coordinate_triples(f.field.order, rep.points):
            assert not is_singular_point(f, xyz)


def test_singular_cubic_is_not_certified():
    # XYZ meets H2 over F_9 in 12 points, three secants meeting off H
    x, y, z = _xyz(field_of_order(9))
    f = x * y * z
    rep = intersection(hermitian_model(3, "H2"), f)
    assert rep.count == 12
    assert absolute_irreducibility_status(f, rep).status == "reducible"
