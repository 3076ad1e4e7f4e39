import pytest
from hypothesis import given, settings, strategies as st

from hermplane.field import field_of_order
from hermplane.unipoly import UniPoly, roots_in_field


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
    assert [x.val for x in roots_in_field(sq, 7)] == [K.neg(3)]


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
