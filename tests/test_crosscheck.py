"""The crosscheck's own F_p[x]/(g) arithmetic against sympy, and its counts.

galoistools lists are most significant first; the crosscheck's lists
are constant term first.
"""

import random

import pytest
from sympy import factorint
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p, gf_mul, gf_pow_mod, gf_rem, gf_strip

from hermplane import crosscheck as cc


def _gf(poly):
    return gf_strip(list(reversed(poly)))


def _ours(gf, m):
    """A galoistools residue as the crosscheck's m coefficients."""
    out = list(reversed(gf))
    return out + [0] * (m - len(out))


def _prime_powers(lo, hi):
    return [q for q in range(lo, hi + 1) if len(factorint(q)) == 1]


# every field the sextic record builds past the primes, and the small
# fields that the survey tests sweep
EXTENSION_FIELDS = [8, 9, 16, 25, 27, 32, 49, 64, 81, 125, 343, 2197, 2209, 2401]


def test_modulus_is_the_first_irreducible_in_encoding_order():
    fields = [q for q in _prime_powers(2, 2**12) if factorint(q) != {q: 1}]
    for q in fields + [2197, 2209, 2401]:
        (p, m), = factorint(q).items()
        g = cc._modulus(p, m)
        assert len(g) == m + 1 and g[-1] == 1, q
        assert gf_irreducible_p(_gf(g), p, ZZ), q
        # no monic polynomial of degree m encoded below g is irreducible
        n = sum(c * p**i for i, c in enumerate(g[:m]))
        assert not any(
            gf_irreducible_p(_gf(cc._digits(k, p, m) + [1]), p, ZZ) for k in range(n)
        ), q


@pytest.mark.parametrize("q", EXTENSION_FIELDS)
def test_product_and_power_match_galoistools(q):
    (p, m), = factorint(q).items()
    g = cc._modulus(p, m)
    rng = random.Random(q)
    for _ in range(100):
        a = [rng.randrange(p) for _ in range(m)]
        b = [rng.randrange(p) for _ in range(m)]
        e = rng.choice([0, 1, 2, q - 1, q, rng.randrange(3 * q), rng.getrandbits(80)])
        want_mul = gf_rem(gf_mul(_gf(a), _gf(b), p, ZZ), _gf(g), p, ZZ)
        assert cc._mul(a, b, g, p) == _ours(want_mul, m)
        assert cc._pow(a, e, g, p) == _ours(gf_pow_mod(_gf(a), e, _gf(g), p, ZZ), m)


def test_prime_power_matches_factorint():
    for q in range(-3, 5001):
        fac = factorint(q) if q > 1 else {}
        if len(fac) == 1:
            assert cc._prime_power(q) == next(iter(fac.items())), q
        else:
            with pytest.raises(ValueError, match=f"{q} is not a prime power"):
                cc._prime_power(q)


@pytest.mark.parametrize("q, n6", [(2197, 0), (2209, 7), (2401, 7)])
def test_sextic_counts_of_the_prime_power_fields(q, n6):
    assert cc.fiber_split_count(q, 6) == n6
