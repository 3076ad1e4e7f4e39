import importlib.util
import tracemalloc
from functools import cache
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import factorint, isprime, primitive_root
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_irreducible_p, gf_mul, gf_rem, gf_strip

from hermplane.field import (
    FieldError,
    FieldSpec,
    ambient,
    field_of_order,
    make_field,
    norm_preimages,
    norm_to_subfield,
    prime_factors,
    prime_power,
    primitive_elements,
    subfield_elements,
    trace_to_subfield,
)


def test_prime_field_matches_modular_arithmetic():
    K = make_field(7, 1)
    for a in range(7):
        for b in range(7):
            assert K.add(a, b) == (a + b) % 7
            assert K.mul(a, b) == (a * b) % 7
    assert K.inv(3) == 5


def test_f9_is_a_field():
    K = make_field(3, 2)
    els = list(range(9))
    for a in els:
        assert K.add(a, K.neg(a)) == 0
        if a:
            assert K.mul(a, K.inv(a)) == 1
        for b in els:
            for c in els:
                assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))


def test_generator_has_full_order():
    for q in (4, 8, 9, 16, 25, 27):
        K = field_of_order(q)
        g = K.generator
        seen = set()
        x = 1
        for _ in range(q - 1):
            seen.add(x)
            x = K.mul(x, g)
        assert len(seen) == q - 1


def test_field_of_order_rejects_non_prime_powers():
    with pytest.raises(FieldError):
        field_of_order(6)
    with pytest.raises(FieldError):
        field_of_order(12)


# -- the trial-division number theory against sympy's factorint ---------------

@cache
def _factorint_oracle():
    ns = [*range(2, 1 << 16), 1 << 24, 16777213, 4093**2, (1 << 12) * 3]
    return {n: factorint(n) for n in ns}


def test_prime_factors_match_factorint():
    assert prime_factors(0) == prime_factors(1) == []
    for n, fac in _factorint_oracle().items():
        assert prime_factors(n) == sorted(fac), n


def test_prime_power_matches_factorint():
    for n, fac in _factorint_oracle().items():
        if len(fac) == 1:
            assert prime_power(n) == next(iter(fac.items())), n
        else:
            with pytest.raises(FieldError, match="not a prime power"):
                prime_power(n)
    for n in (-4, -2, 0, 1):
        with pytest.raises(FieldError, match="not a prime power"):
            prime_power(n)


def test_prime_power_refuses_orders_above_the_bound():
    assert prime_power(1 << 24) == (2, 24)
    with pytest.raises(FieldError, match="field order 16777217 exceeds 16777216"):
        prime_power((1 << 24) + 1)


def test_field_spec_checks_bounds_before_primality():
    with pytest.raises(FieldError, match="exceeds"):
        FieldSpec((1 << 24) + 1, 1)
    with pytest.raises(FieldError, match="out of range"):
        FieldSpec(4, 17)
    with pytest.raises(FieldError, match="not prime"):
        FieldSpec(4093 * 4099, 1)
    with pytest.raises(FieldError, match="not an integer"):
        FieldSpec(3.0, 2)


def test_ambient_is_cached_and_still_refuses(monkeypatch):
    from hermplane import field

    assert ambient(4) is ambient(4) is make_field(2, 4)

    def no_factoring(q):
        raise AssertionError("q factored again")

    monkeypatch.setattr(field, "prime_power", no_factoring)
    assert ambient(4) is make_field(2, 4)
    monkeypatch.undo()
    # 4.0 == 4 and hashes alike, yet must not reach the cached F_16
    with pytest.raises(FieldError, match="4.0 is not an integer"):
        ambient(4.0)
    with pytest.raises(FieldError, match="6 is not a prime power"):
        ambient(6)


def test_field_specs_are_cached():
    assert make_field(3, 2) is make_field(3, 2)
    assert field_of_order(9) is make_field(3, 2)


@given(st.integers(0, 48), st.integers(0, 48), st.integers(0, 48))
@settings(max_examples=200, deadline=None)
def test_f49_ring_axioms(a, b, c):
    K = field_of_order(49)
    assert K.mul(a, b) == K.mul(b, a)
    assert K.add(a, b) == K.add(b, a)
    assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
    assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))


def test_frobenius_is_additive_and_fixes_prime_field():
    K = field_of_order(16)
    for a in range(16):
        for b in range(16):
            fa, fb = K.pow(a, 2), K.pow(b, 2)
            assert K.pow(K.add(a, b), 2) == K.add(fa, fb)
    for a in range(2):
        assert K.pow(a, 2) == a


def test_norm_and_trace_land_in_subfield():
    for q in (3, 4, 5, 8, 9):
        spec = field_of_order(q * q)
        sub = set(subfield_elements(spec, q))
        assert len(sub) == q
        for v in range(spec.order):
            assert norm_to_subfield(spec, v) in sub
            assert trace_to_subfield(spec, v) in sub


def test_norm_preimage_counts():
    for q in (3, 4, 5):
        spec = field_of_order(q * q)
        for s in subfield_elements(spec, q):
            if s == 0:
                with pytest.raises(FieldError):
                    norm_preimages(spec, s)
                continue
            pre = norm_preimages(spec, s)
            assert len(pre) == q + 1
            for x in pre:
                assert norm_to_subfield(spec, x) == s


def test_from_int_reads_encodings_and_embeds_other_integers_mod_p():
    # an integer in [0, q) is an encoding, any other is embedded mod p;
    # anything but an integer is refused
    spec = field_of_order(9)
    assert [spec.from_int(x) for x in range(9)] == list(range(9))
    assert spec.add(1, spec.from_int(5)) == spec.add(1, 5) != spec.add(1, 5 % 3)
    assert spec.from_int(np.int64(7)) == 7
    assert spec.from_int(10) == 1 and spec.from_int(-1) == spec.neg(1) == 2
    for bad in (3.0, "3", None):
        with pytest.raises(FieldError, match="cannot build a field element from"):
            spec.from_int(bad)


def test_from_coeffs_inverts_to_coeffs():
    spec = field_of_order(27)
    for v in range(spec.order):
        assert spec.from_coeffs(spec.to_coeffs(v)) == v
    assert spec.from_coeffs([2, 1]) == 5 and spec.from_coeffs([]) == 0
    with pytest.raises(FieldError, match="too many coordinates"):
        spec.from_coeffs([0, 0, 0, 1])


def test_subfield_elements_are_python_ints():
    # the listing reaches JSON records, so it holds no numpy scalars
    spec = ambient(9)
    sub = subfield_elements(spec, 9)
    assert all(type(x) is int for x in sub)
    assert sub == [v for v in range(spec.order) if spec.pow(v, 9) == v]
    assert subfield_elements(spec, 3) == [v for v in range(spec.order) if spec.pow(v, 3) == v]
    with pytest.raises(FieldError):
        subfield_elements(spec, 27)


def test_primitive_elements_start_with_generator():
    spec = field_of_order(25)
    prim = list(primitive_elements(spec))
    assert prim[0] == spec.generator
    for w in prim:
        assert spec.element_order(w) == spec.order - 1


def test_vector_ops_match_scalar_ops():
    import numpy as np

    spec = field_of_order(16)
    a = np.arange(16, dtype=np.int64)
    b = np.arange(16, dtype=np.int64)[::-1].copy()
    add = spec.add_v(a, b)
    mul = spec.mul_v(a, b)
    for i in range(16):
        assert add[i] == spec.add(int(a[i]), int(b[i]))
        assert mul[i] == spec.mul(int(a[i]), int(b[i]))
    assert mul[0] == mul[15] == 0  # 0 * 15 and 15 * 0
    for e in (3, 1, 0, -1, -5, 15, -16):
        pe = spec.pow_v(a, e)
        for i in range(16):
            # any exponent for nonzero x; 0^0 = 1 and 0^e = 0 otherwise
            want = spec.pow(int(a[i]), e) if a[i] or e >= 0 else 0
            assert pe[i] == want, (e, i)
    # c * a^i * b^j on the 16 x 16 grid, with 0^0 = 1
    for c in (0, 1, 7):
        for i, j in ((0, 0), (2, 0), (0, 3), (1, 4)):
            got = spec.monomial_v(c, ((a[:, None], i), (b[None, :], j)))
            got = np.broadcast_to(got, (16, 16))
            for r, x in enumerate(a.tolist()):
                for s, y in enumerate(b.tolist()):
                    xy = spec.mul(spec.pow(x, i), spec.pow(y, j))
                    assert got[r, s] == spec.mul(c, xy)


@pytest.mark.parametrize("Q", [2, 4, 7, 16, 25, 49])
def test_huge_exponents_reduce_mod_the_group_order(Q):
    # x^k depends on k mod Q-1 for x != 0, and 0^k = 0 for every k != 0,
    # also where Q-1 divides k; past int64 nothing wraps or overflows
    spec = field_of_order(Q)
    x = np.arange(Q, dtype=np.int64)
    y = x[::-1].copy()
    for k in (0, 1, 2, 5, Q - 2):
        for big in (k + (Q - 1) * 2**62, k + (Q - 1) * 10**30, k - (Q - 1) * 10**30):
            if big == k:
                continue
            want = spec.pow_v(x, k)
            want[0] = 0  # the unreduced exponent is nonzero
            assert spec.pow_v(x, big).tolist() == want.tolist(), (k, big)
            assert [spec.pow(int(v), big) for v in x[1:]] == want[1:].tolist()
            got = spec.monomial_v(3 % Q, ((x, big), (y, -big)))
            ref = spec.monomial_v(3 % Q, ((x, k % (Q - 1) or Q - 1), (y, -k % (Q - 1) or Q - 1)))
            assert got.tolist() == ref.tolist(), (k, big)


@pytest.mark.parametrize("Q", [4, 7, 16, 25, 49])
def test_scalar_ops_match_vector_ops_on_every_pair(Q):
    # the char-2, prime and Zech branches of `add`.  The scalar ops read
    # the tables through memoryviews; their values reach JSON records, so
    # each is a Python int, for numpy-integer arguments too
    spec = field_of_order(Q)
    x = np.arange(Q, dtype=np.int64)
    add, mul = spec.add_v(x[:, None], x), spec.mul_v(x[:, None], x)
    neg = spec.neg_v(x)
    sub = spec.add_v(x[:, None], neg)
    exps = (-Q, -2, -1, 0, 1, 2, 3, Q - 1, Q + 1)
    powers = {e: spec.pow_v(x, e) for e in exps}
    for cast in (int, np.int64):
        for a in range(Q):
            ca = cast(a)
            for b in range(Q):
                cb = cast(b)
                got = (spec.add(ca, cb), spec.sub(ca, cb), spec.mul(ca, cb))
                assert got == (add[a, b], sub[a, b], mul[a, b]), (cast, a, b)
                assert all(type(v) is int for v in got)
            assert spec.neg(ca) == neg[a] and type(spec.neg(ca)) is int
            for e in exps:
                if a or e >= 0:
                    v = spec.pow(ca, cast(e))
                    assert v == powers[e][a] and type(v) is int, (cast, a, e)
            if a:
                assert spec.inv(ca) == powers[-1][a] and type(spec.inv(ca)) is int
        for zero in (cast(0), 0):
            with pytest.raises(FieldError):
                spec.inv(zero)
            with pytest.raises(FieldError):
                spec.pow(zero, cast(-1))


# -- FieldSpec against sympy's galoistools, which shares no code with it ------

def _gf(a, p):
    """Encoding a as a galoistools polynomial (most significant first)."""
    out = []
    while a:
        a, r = divmod(a, p)
        out.append(r)
    return gf_strip(out[::-1])


def _enc(poly, p):
    n = 0
    for c in poly:
        n = n * p + c
    return n


def _gf_modulus(p, m):
    """The smallest-encoded monic irreducible of degree m (x for m = 1)."""
    if m == 1:
        return [1, 0]
    for n in range(p**m):
        tail = _gf(n, p)
        f = [1] + [0] * (m - len(tail)) + tail
        if gf_irreducible_p(f, p, ZZ):
            return f


def _gf_order(a, g, p):
    """Multiplicative order of a != 0 by walking its powers."""
    x, k = a, 1
    while x != [1]:
        x = gf_rem(gf_mul(x, a, p, ZZ), g, p, ZZ)
        k += 1
    return k


def _prime_powers(hi):
    return [q for q in range(2, hi + 1) if len(factorint(q)) == 1]


# every field the matrix and the benchmark build, and six they never
# build: the odd degrees 3, 7 and 11, and F_{q^2} for q = 47, 49, 81
ARITH_FIELDS = [q * q for q in _prime_powers(32) + [64]] + [
    13**3, 47**2, 7**4, 3**7, 2**11, 3**8,
]


@pytest.mark.parametrize("Q", ARITH_FIELDS)
def test_arithmetic_matches_galoistools(Q):
    spec = field_of_order(Q)
    p = spec.p
    g = _gf_modulus(p, spec.m)
    assert list(reversed(spec.modulus)) == g
    rng = np.random.default_rng(Q)
    a, b = rng.integers(0, Q, (2, 200))
    a[:3], b[:3] = (0, 1, Q - 1), (Q - 1, 0, Q - 1)
    add_v, mul_v = spec.add_v(a, b), spec.mul_v(a, b)
    for x, y, s, t in zip(a.tolist(), b.tolist(), add_v.tolist(), mul_v.tolist()):
        fx, fy = _gf(x, p), _gf(y, p)
        want_add = _enc(gf_add(fx, fy, p, ZZ), p)
        want_mul = _enc(gf_rem(gf_mul(fx, fy, p, ZZ), g, p, ZZ), p)
        assert spec.add(x, y) == s == want_add
        assert spec.mul(x, y) == t == want_mul


@pytest.mark.parametrize("p, root", [(2161, 23), (409, 21), (2287, 19), (1559, 19)])
def test_prime_field_generator_is_least_primitive_root(p, root):
    # the primes below 2500 with the largest least primitive roots
    assert make_field(p, 1).generator == primitive_root(p) == root


def test_prime_field_powers_match_pow():
    # p = 2 and 3 fill in no doubling and in one
    for p in filter(isprime, range(2, 1 << 13)):
        spec = FieldSpec(p, 1)  # uncached: 1028 fields would stay alive
        g = spec.generator
        assert spec._exp[: p - 1].tolist() == [pow(g, k, p) for k in range(p - 1)], p


def test_largest_prime_field_powers_and_peak():
    p = 16777213  # the largest prime below MAX_ORDER
    tracemalloc.start()
    try:
        spec = FieldSpec(p, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the peak is the final tables (exp 3(p-1), log and neg p each): the
    # fill's table is freed once exp holds it, and neg is gathered in place
    assert peak <= 5 * (p - 1) * 8 + (1 << 16)
    g = spec.generator
    k = np.random.default_rng(0).integers(0, p - 1, 10_000)
    assert spec._exp[k].tolist() == [pow(g, e, p) for e in k.tolist()]
    assert np.array_equal(spec._log[spec._exp[k]], k)


# the extension fields of the d = 6 survey: gcd(q, 30) = 1, q <= 2500
SEXTIC_EXTENSION_FIELDS = [Q for Q in _prime_powers(2500) if gcd(Q, 30) == 1 and not isprime(Q)]


@pytest.mark.parametrize("Q", SEXTIC_EXTENSION_FIELDS)
def test_extension_generator_matches_power_walk(Q):
    [(p, m)] = factorint(Q).items()
    spec = FieldSpec(p, m)  # uncached, as the survey builds it
    g = _gf_modulus(p, m)
    orders = [_gf_order(_gf(c, p), g, p) for c in range(1, spec.generator + 1)]
    assert orders[-1] == Q - 1 and max(orders[:-1]) < Q - 1


def test_generator_and_orders_match_power_walk():
    rng = np.random.default_rng(0)
    for Q in _prime_powers(1024):
        spec = field_of_order(Q)
        p, g = spec.p, _gf_modulus(spec.p, spec.m)
        # the generator is the first encoding whose powers reach 1 at Q - 1
        walked = [_gf_order(_gf(c, p), g, p) for c in range(1, spec.generator + 1)]
        assert walked[-1] == Q - 1 and max(walked[:-1], default=0) < Q - 1
        for c in range(1, spec.generator + 1):
            assert spec.element_order(c) == walked[c - 1]
        for c in rng.integers(1, Q, 4).tolist():
            assert spec.element_order(c) == _gf_order(_gf(c, p), g, p)


# every odd-characteristic extension field up to 4096, checked on all pairs
ADD_TABLE_FIELDS = [
    (p, m) for Q in _prime_powers(4096) for p, m in factorint(Q).items() if p > 2 and m > 1
]


def _digitwise_sum(spec, a, b):
    """a + b coordinate by coordinate, for rows of coordinates a and b."""
    return (np.asarray(a) + b) % spec.p @ spec.p ** np.arange(spec.m)


@pytest.mark.parametrize("p, m", ADD_TABLE_FIELDS)
def test_add_table_is_digitwise_sum(p, m):
    spec = FieldSpec(p, m)  # uncached, so its tables are freed after the test
    Q = spec.order
    a = np.arange(Q, dtype=np.int64)
    digits = np.array([spec.to_coeffs(x) for x in range(Q)], dtype=np.int64)
    for lo in range(0, Q, 128):  # all Q^2 pairs, 128 rows at a time
        rows = slice(lo, lo + 128)
        want = _digitwise_sum(spec, digits[rows, None], digits)
        assert np.array_equal(spec.add_v(a[rows, None], a), want)
    # 0-d operands on either side, and the scalar add, agree
    for c in (0, 1, p - 1, p, Q - 1):
        want = _digitwise_sum(spec, digits, digits[c])
        for x in (c, np.int64(c), np.array(c)):
            assert np.array_equal(spec.add_v(a, x), want)
            assert np.array_equal(spec.add_v(x, a), want)
        assert [spec.add(x, c) for x in range(Q)] == want.tolist()
        assert [spec.add(c, x) for x in range(Q)] == want.tolist()
    assert spec.add(0, 0) == 0 and spec.add_v(np.int64(0), 0) == 0
    assert not spec.add_v(a, spec.neg_v(a)).any()
    assert all(spec.add(x, spec.neg(x)) == 0 for x in range(Q))


@pytest.mark.parametrize("p, m", [(3, 8), (5, 6), (7, 5)])
def test_add_above_4096_is_digitwise_sum(p, m):
    spec = FieldSpec(p, m)
    rng = np.random.default_rng(p)
    a, b = rng.integers(0, spec.order, (2, 4096))
    a[:256] = 0
    b[256:512] = 0
    a[512:768] = b[512:768] = 0
    b[768:1024] = spec.neg_v(a[768:1024])
    coords = np.array([spec.to_coeffs(x) for x in np.concatenate((a, b)).tolist()])
    want = _digitwise_sum(spec, coords[:4096], coords[4096:])
    assert not want[512:1024].any()
    assert np.array_equal(spec.add_v(a, b), want)
    assert [spec.add(x, y) for x, y in zip(a.tolist(), b.tolist())] == want.tolist()
    assert np.array_equal(spec.add_v(a, np.int64(b[0])), _digitwise_sum(spec, coords[:4096], coords[4096]))
    assert np.array_equal(spec.add_v(np.int64(a[-1]), b), _digitwise_sum(spec, coords[4095], coords[4096:]))


def test_exp_table_is_periodic():
    for Q in _prime_powers(64) + ARITH_FIELDS:
        spec = field_of_order(Q)
        n = 2 * (Q - 1) + 1  # the periodic part, then Q - 1 zeros
        assert np.array_equal(spec._exp[:n], spec._exp[np.arange(n) % (Q - 1)])
        assert len(spec._exp) == n + Q - 1 and not spec._exp[n:].any()


def test_benchmark_trace_reads_every_table():
    # perfbench/spans.py sizes a field's tables by attribute name in traced
    # runs; a renamed or dropped table would break those runs only.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    loader = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    for p, m in [(2, 4), (7, 1), (7, 4)]:
        spec = FieldSpec(p, m)
        tables = [t for t in vars(spec).values() if isinstance(t, np.ndarray)]
        assert spans._table_bytes(spec) == sum(t.nbytes for t in tables) > 0
