import pytest
from hypothesis import given, settings, strategies as st

from hermplane.field import field_of_order
from hermplane.unipoly import (
    _divmod,
    _gcd,
    _mul,
    _powmod,
    _trim,
    factor_degrees,
    is_squarefree,
)


def _deg(f):
    """Degree of a trimmed polynomial, -1 for the zero polynomial."""
    return len(f) - 1


def _add(K, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = K.add(out[i], c)
    return _trim(out)


def _roots(K, f):
    """The distinct roots of f in K, by a scalar Horner scan."""
    out = []
    for x in range(K.order):
        acc = 0
        for c in reversed(f):
            acc = K.add(K.mul(acc, x), c)
        if not acc:
            out.append(x)
    return out


def test_degree_and_zero():
    assert _deg(_trim([1, 2, 3])) == 2
    assert _trim([1, 2, 3, 0, 0]) == [1, 2, 3]
    assert _trim([]) == []
    assert _trim([0, 0]) == []
    with pytest.raises(ValueError):
        is_squarefree(field_of_order(5), [])


@given(st.lists(st.integers(0, 8), min_size=1, max_size=6),
       st.lists(st.integers(0, 8), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_mul_degree_additive(a, b):
    K = field_of_order(9)
    f, g = _trim(a), _trim(b)
    if not f or not g:
        assert _mul(K, f, g) == []
    else:
        assert _deg(_mul(K, f, g)) == _deg(f) + _deg(g)


def _nonzero(coeffs):
    return _trim(coeffs) or [1]


_coeff_lists = st.lists(st.integers(0, 8), min_size=1, max_size=7)


@given(_coeff_lists, _coeff_lists)
@settings(max_examples=100, deadline=None)
def test_divrem_identity(a, b):
    K = field_of_order(9)
    f, g = _trim(a), _nonzero(b)
    quo, rem = _divmod(K, f, g)
    assert _add(K, _mul(K, quo, g), rem) == f
    assert _deg(rem) < _deg(g)


@given(_coeff_lists, _coeff_lists, _coeff_lists)
@settings(max_examples=60, deadline=None)
def test_gcd_of_multiples(a, b, c):
    K = field_of_order(16)
    f, g, h = _nonzero(a), _nonzero(b), _nonzero(c)
    fh, gh = _mul(K, f, h), _mul(K, g, h)
    d = _gcd(K, fh, gh)
    assert d[-1] == 1
    assert _divmod(K, d, h)[1] == []
    assert _divmod(K, fh, d)[1] == [] and _divmod(K, gh, d)[1] == []
    assert _deg(d) == _deg(_gcd(K, f, g)) + _deg(h)


@given(_coeff_lists, st.integers(0, 40), _coeff_lists)
@settings(max_examples=60, deadline=None)
def test_powmod_matches_repeated_multiplication(a, e, m):
    K = field_of_order(9)
    f, mod = _trim(a), _nonzero(m)
    want = [1]
    for _ in range(e):
        want = _mul(K, want, f)
    assert _powmod(K, f, e, mod) == _divmod(K, want, mod)[1]


def _binomial(K, t, a):
    """t^n - a; irreducible over F_Q when every prime factor of n divides
    ord(a) but not (Q - 1)/ord(a), and 4 | Q - 1 if 4 | n
    (Lidl-Niederreiter, Theorem 3.75)."""
    return [K.neg(a)] + [0] * (t - 1) + [1]


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
    f = [1]
    for n, root in parts:
        if root is None:
            f = _mul(K, f, _binomial(K, n, K.generator))
        else:
            f = _mul(K, f, [K.neg(root), 1])
    assert is_squarefree(K, f)
    assert factor_degrees(K, f) == sorted(n for n, _ in parts)


def test_square_is_not_squarefree():
    K = field_of_order(16)
    g = _binomial(K, 3, K.generator)
    assert not is_squarefree(K, _mul(K, g, g))
    # t^4 = (t^2)^2 in characteristic 2: the derivative vanishes
    assert not is_squarefree(K, [1, 0, 0, 0, 1])


@given(st.sampled_from([4, 9, 16]), st.lists(st.integers(0, 15), min_size=2, max_size=9))
@settings(max_examples=80, deadline=None)
def test_linear_factor_count_is_root_count(Q, coeffs):
    K = field_of_order(Q)
    g = _trim(c % Q for c in coeffs)
    if _deg(g) < 1 or not is_squarefree(K, g):
        return
    degrees = factor_degrees(K, g)
    assert sum(degrees) == _deg(g)
    assert degrees == sorted(degrees)
    assert degrees.count(1) == len(_roots(K, g))
