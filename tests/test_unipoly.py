import pytest
from hypothesis import given, settings, strategies as st

from hermplane.field import field_of_order
from hermplane.unipoly import UniPoly, factor_degrees, gcd, is_squarefree, roots_in_field


def _poly(q, coeffs):
    return UniPoly(field_of_order(q), coeffs)


def test_degree_and_zero():
    f = _poly(5, [1, 2, 3])
    assert f.degree == 2
    assert _poly(5, []).is_zero()
    assert _poly(5, [0, 0]).is_zero()


def test_roots_in_field_ignores_multiplicity():
    K = field_of_order(7)
    lin = UniPoly(K, [3, 1])
    sq = lin * lin
    assert roots_in_field(sq, 7) == [K.neg(3)]


@given(st.lists(st.integers(0, 8), min_size=1, max_size=6),
       st.lists(st.integers(0, 8), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_mul_degree_additive(a, b):
    K = field_of_order(9)
    f, g = UniPoly(K, a), UniPoly(K, b)
    if f.is_zero() or g.is_zero():
        assert (f * g).is_zero()
    else:
        assert (f * g).degree == f.degree + g.degree


def _nonzero(K, coeffs):
    f = UniPoly(K, coeffs)
    return f if not f.is_zero() else UniPoly(K, [1])


_coeff_lists = st.lists(st.integers(0, 8), min_size=1, max_size=7)


@given(_coeff_lists, _coeff_lists)
@settings(max_examples=100, deadline=None)
def test_divrem_identity(a, b):
    K = field_of_order(9)
    f, g = UniPoly(K, a), _nonzero(K, b)
    quo, rem = f.divrem(g)
    assert quo * g + rem == f
    assert rem.degree < g.degree


@given(_coeff_lists, _coeff_lists, _coeff_lists)
@settings(max_examples=60, deadline=None)
def test_gcd_of_multiples(a, b, c):
    K = field_of_order(16)
    f, g, h = _nonzero(K, a), _nonzero(K, b), _nonzero(K, c)
    d = gcd(f * h, g * h)
    assert d.coeffs[-1] == 1
    assert (d % h).is_zero()
    assert ((f * h) % d).is_zero() and ((g * h) % d).is_zero()
    assert d.degree == gcd(f, g).degree + h.degree


@given(_coeff_lists, st.integers(0, 40), _coeff_lists)
@settings(max_examples=60, deadline=None)
def test_powmod_matches_repeated_multiplication(a, e, m):
    K = field_of_order(9)
    f, mod = UniPoly(K, a), _nonzero(K, m)
    want = UniPoly.constant(K, 1)
    for _ in range(e):
        want = want * f
    assert f.powmod(e, mod) == want % mod


def _binomial(K, t, a):
    """t^n - a; irreducible over F_Q when every prime factor of n divides
    ord(a) but not (Q - 1)/ord(a), and 4 | Q - 1 if 4 | n
    (Lidl-Niederreiter, Theorem 3.75)."""
    return UniPoly(K, [K.neg(a)] + [0] * (t - 1) + [1])


@pytest.mark.parametrize(
    "Q, parts",
    [
        # F_9: the generator has order 8, so t^2 - w, t^4 - w, t^8 - w are irreducible
        (9, [(1, 0), (1, 1), (2, None), (4, None)]),
        (9, [(8, None), (1, 2)]),
        (9, [(2, None), (1, 0)]),
        # F_16: the generator has order 15, so t^3 - w, t^5 - w, t^9 - w are irreducible
        (16, [(3, None), (5, None), (1, 0), (1, 7)]),
        (16, [(9, None), (1, 3)]),
        (16, [(15, None)]),
    ],
)
def test_factor_degrees_of_known_irreducibles(Q, parts):
    K = field_of_order(Q)
    f = UniPoly.constant(K, 1)
    for n, root in parts:
        if root is None:
            f = f * _binomial(K, n, K.generator)
        else:
            f = f * UniPoly(K, [K.neg(root), 1])
    assert is_squarefree(f)
    assert factor_degrees(f) == sorted(n for n, _ in parts)


def test_square_is_not_squarefree():
    K = field_of_order(16)
    g = _binomial(K, 3, K.generator)
    assert not is_squarefree(g * g)
    # t^4 = (t^2)^2 in characteristic 2: the derivative vanishes
    assert not is_squarefree(UniPoly(K, [1, 0, 0, 0, 1]))


@given(st.sampled_from([4, 9, 16]), st.lists(st.integers(0, 15), min_size=2, max_size=9))
@settings(max_examples=80, deadline=None)
def test_linear_factor_count_is_root_count(Q, coeffs):
    K = field_of_order(Q)
    g = UniPoly(K, [c % Q for c in coeffs])
    if g.degree < 1 or not is_squarefree(g):
        return
    degrees = factor_degrees(g)
    assert sum(degrees) == g.degree
    assert degrees == sorted(degrees)
    assert degrees.count(1) == len(roots_in_field(g, Q))
