import pytest

from hermplane.constructions import (
    ConstructionError,
    FAMILIES,
    ambient,
    build,
    canonical_degree_q_alpha,
    degree_q_curve,
    even_half_curve,
    full_point_curve,
    monomial_curve,
    monomial_fast_count,
    odd_half_curve,
    odd_half_params,
    secant_fan_curve,
    sporadic_cubic,
    sporadic_quartic,
)
from hermplane.field import subfield_elements
from hermplane.plane import (
    absolute_irreducibility_status,
    hermitian_model,
    hermitian_points,
    intersection,
)

from brute_force import zero_points


def _count(q, model, form):
    return intersection(hermitian_model(q, model), form).count


def test_secant_fan_counts():
    for q in (3, 4):
        for d in range(q + 1, q * q - q + 1):
            desc, f = secant_fan_curve(q, d)
            assert f.degree == d
            assert _count(q, "H1", f) == d * (q + 1)
            assert desc.model == "H1"


def test_secant_fan_rejects_out_of_range_degree():
    with pytest.raises(ConstructionError):
        secant_fan_curve(3, 3)
    with pytest.raises(ConstructionError):
        secant_fan_curve(3, 7)


def test_full_point_curve_contains_all_hermitian_points():
    for q in (2, 3, 4):
        f = full_point_curve(q)
        assert f.degree == q * q - q + 1
        herm = set(hermitian_points(q, "H1").tolist())
        ours = set(zero_points(f).tolist())
        assert herm <= ours
        assert _count(q, "H1", f) == q**3 + 1


def test_degree_q_curve_counts():
    for q in (3, 4, 5):
        f = degree_q_curve(q)
        assert f.degree == q
        assert _count(q, "H1", f) == q * (q + 1)


def test_canonical_degree_q_alpha_avoids_subfield_squares():
    for q in (3, 5, 7):
        spec = ambient(q)
        a = canonical_degree_q_alpha(q)
        sub = subfield_elements(spec, q)
        assert a not in sub
        assert spec.mul(a, a) not in sub


def test_even_half_curve_counts():
    for q in (4, 8):
        desc, f = even_half_curve(q)
        assert f.degree == q // 2
        assert _count(q, "H1", f) == (q // 2) * (q + 1)


def test_even_half_rejects_odd_q():
    with pytest.raises(ConstructionError):
        even_half_curve(9)


def test_odd_half_params_conditions():
    for q in (7, 11, 17, 19):
        K = ambient(q)
        a, b, g = odd_half_params(q)
        a2, b2 = K.mul(a, a), K.mul(b, b)
        factors = (a, b, K.add(a2, 1), K.add(b2, 1), K.add(a2, b2))
        assert all(factors)
        assert K.add(K.add(K.mul(g, g), K.add(a2, b2)), 1) == 0


def test_odd_half_counts():
    for q in (7, 11, 13):
        params = odd_half_params(q)
        if params is None:
            continue
        a, b, _ = params
        f = odd_half_curve(q, a, b)
        assert _count(q, "H2", f) == ((q + 1) // 2) * (q + 1)


def test_odd_half_no_params_for_tiny_q():
    assert odd_half_params(3) is None
    assert odd_half_params(5) is None


def test_monomial_fast_count_matches_enumeration():
    for q in (3, 4, 5):
        spec = ambient(q)
        for d in (2, 3):
            for alpha in range(1, spec.order):
                assert monomial_fast_count(q, d, alpha) == _count(
                    q, "H2", monomial_curve(q, d, alpha)
                )


def test_monomial_fast_count_rejects_degree_below_two():
    for d in (0, 1):
        with pytest.raises(ConstructionError):
            monomial_fast_count(5, d, 1)


def test_sporadic_cubics():
    for q in (3, 4, 5, 7):
        f = sporadic_cubic(q)
        rep = intersection(hermitian_model(q, "H2"), f)
        assert rep.count == 3 * (q + 1)
        assert absolute_irreducibility_status(f, rep).status == "absolutely-irreducible"


def test_sporadic_quartics():
    for q in (5, 9, 11, 13):
        w, f = sporadic_quartic(q)
        assert f.degree == 4
        assert ambient(q).element_order(w) == ambient(q).order - 1
        assert _count(q, "H2", f) == 4 * (q + 1)


def test_sporadic_tables_reject_unknown_q():
    with pytest.raises(ConstructionError):
        sporadic_cubic(9)
    with pytest.raises(ConstructionError):
        sporadic_quartic(7)


def test_build_dispatch_round_trip():
    desc, f = build("secant-fan", 3, d=5)
    assert desc.q == 3 and desc.d == 5
    assert _count(3, desc.model, f) == 5 * 4
    with pytest.raises(ConstructionError):
        build("no-such-family", 3)


def test_build_covers_all_families():
    for family in FAMILIES:
        kwargs = {}
        q = 3
        if family == "secant-fan":
            kwargs["d"] = 4
        elif family == "monomial":
            kwargs.update(d=3, alpha="w")
        elif family == "even-half":
            q = 4
        elif family == "odd-half":
            q = 7
        elif family == "sporadic-quartic":
            q = 5
        desc, f = build(family, q, **kwargs)
        assert f.degree == desc.d


def test_degree_q_curve_is_absolutely_irreducible():
    for q in (4, 5, 7, 9):
        f = degree_q_curve(q)
        rep = intersection(hermitian_model(q, "H1"), f)
        assert absolute_irreducibility_status(f, rep).status == "absolutely-irreducible"
