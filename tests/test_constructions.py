import hashlib

import pytest

from hermplane import cli

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


# sha256 of `construct --family degree-q --format json` stdout; the pencil's
# expansion must leave every term of these curves as it is
DEGREE_Q_SHA256 = {
    ("3", None): "c75cceb76140c0b0d66b4af4bde05aa0eedca06b5eb104acda602a07bddd08e8",
    ("4", None): "e6d197a3f8025f50ac6b253619c73a2ebbe68bbc5f5639f846b0df5b3b2aed6f",
    ("5", None): "18d7443f35d20a9bb59dd51897ae957c9a552e4937b8ad36dbc1cbafee816fb4",
    ("7", None): "b8323656fc0672e896750b66bce179c31d6c77b05bdefeb23d3e455af12c1f60",
    ("16", None): "a05732c25b8c718bd6d6367147b9b52db6536259d11f18514cac3109e7082804",
    ("9", "w^7"): "9bc2cf49bb8589402a5b3f85fb0d9f855c823ae48d305645d051764c9f2c6739",
}


@pytest.mark.parametrize("q, alpha", sorted(DEGREE_Q_SHA256, key=lambda k: int(k[0])))
def test_degree_q_construction_is_pinned(capsys, q, alpha):
    argv = ["construct", "--family", "degree-q", "--q", q, "--format", "json"]
    assert cli.main(argv + (["--alpha", alpha] if alpha else [])) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DEGREE_Q_SHA256[q, alpha]


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
