"""Splitting counts for the family A t^d + t + 1 over F_q.

A value A in F_q^* for which A t^d + t + 1 has d distinct roots in F_q
yields, for any alpha of norm A, a monomial curve X Z^{d-1} = alpha Y^d
meeting the Hermitian curve in d(q+1) rational points.  The roots of
A t^d + t + 1 are the fiber of A under t -> -(t + 1) / t^d on F_q^*,
so one vectorized pass of that map (`fiber_images`) and a bincount give
the exact counts N_d(q) with witnesses.

A prime field needs no field tables.  With u = 1/t the map becomes
-(t + 1) / t^d = -u^(d-1) (u + 1), and t -> 1/t permutes F_p^*, so every
A has the same fiber size under both maps: the counts and the witnesses
are unchanged, and no inverse or generator is needed.  The prime pass
(`_prime_fiber_hits`) evaluates -u^(d-1) (u + 1) mod p in int64 for a run
of primes at once: their residues lie end to end in one array, each
prime's images are shifted by the sum of the primes before it, and one
bincount counts every fiber.  A product is reduced mod p only when the
next one could pass 2^63 (p <= 2^24, so at least two residues always
fit).  A run holds at most _GROUP_CAP residues; a larger prime is a run
of its own.  The module also holds the
closed forms for d = 3 and d = 4, the subfield existence criteria for d
a power of the characteristic (or one more), the rho-parametrization of
the roots, the genus of the splitting field, the resulting effective
thresholds, and a sweep over prime powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import factorial, gcd, isqrt

import numpy as np

from .field import MAX_DEGREE, MAX_ORDER, FieldSpec, ambient, field_of_order, prime_power, subfield_elements

# the most residues the prime pass lays end to end in one int64 array;
# a prime above it is swept alone, so no array outgrows the O(p) tables
# a FieldSpec(p, 1) would hold
_GROUP_CAP = 1 << 12


@dataclass
class SplitCountReport:
    q: int
    d: int
    count: int
    witnesses: list  # encodings of the splitting A, ascending
    closed_form: int | None = None
    agree: bool | None = None


def fiber_images(spec: FieldSpec, d: int, t: np.ndarray) -> np.ndarray:
    """-(t + 1) / t^d for an int64 array of nonzero encodings t.

    For A != 0 the roots of A t^d + t + 1 are exactly the t != 0 with
    -(t + 1) / t^d = A (t = 0 is never a root), so the fiber of A under
    this map is its root set; A t^d + t + 1 splits when it has d points.
    """
    return spec.neg_v(spec.mul_v(spec.add_v(t, 1), spec.pow_v(t, -d)))


def _splitting_witnesses(spec: FieldSpec, d: int) -> list:
    """The A in F_q^* for which A t^d + t + 1 splits, ascending."""
    _check_degree(d)
    images = fiber_images(spec, d, np.arange(1, spec.order, dtype=np.int64))
    # A = 0 has the single preimage t = -1, so it is never a witness
    return np.nonzero(np.bincount(images) == d)[0].tolist()


def _check_degree(d: int) -> None:
    if d < 2:
        raise ValueError("need d >= 2")


def _prime_fiber_hits(primes: list, d: int):
    """(hits, starts) for a run of primes p_0 < p_1 < ...

    Prime p_i owns the slots starts[i] .. starts[i] + p_i - 1, and
    hits[starts[i] + A] is True when A t^d + t + 1 splits over F_{p_i},
    that is when A has d preimages under u -> -u^(d-1) (u + 1) on F_p^*.
    """
    sizes = np.array(primes, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    if len(primes) == 1:
        mods, offsets = primes[0], 0
    else:
        mods = np.repeat(sizes, sizes)
        offsets = np.repeat(starts, sizes)
    # u runs over 0 .. p-1 for each prime; u = 0 maps to A = 0, whose
    # slot is cleared below, as A = 0 is never a witness
    u = np.arange(int(sizes.sum()), dtype=np.int64)
    u -= offsets
    # a product of k factors, each at most p, fits in an int64, so an
    # array is reduced mod p only when its next product could overflow
    k = 1
    while max(primes) ** (k + 1) < 1 << 63:
        k += 1
    # power = (u + 1) u^(d-1), by repeated squaring of base = u
    power, n = u + 1, 1
    base, b, e = u, 1, d - 1
    while True:
        if e & 1:
            n = _lazy_mul(power, n, base, b, mods, k)
        e >>= 1
        if not e:
            break
        b = _lazy_mul(base, b, base, b, mods, k)
    np.negative(power, out=power)
    power %= mods
    power += offsets
    hits = np.bincount(power, minlength=len(u)) == d
    hits[starts] = False
    return hits, starts


def _lazy_mul(x, nx, y, ny, mods, k):
    """x *= y in place, where x and y are products of nx and ny factors
    of at most p each; either is first reduced mod p if the product
    could exceed k factors.  Returns the factor count of the new x."""
    if nx + ny > k:
        x %= mods
        nx = 1
        if y is x:
            ny = 1
    if nx + ny > k:
        y %= mods
        ny = 1
    x *= y
    return nx + ny


def _prime_runs(primes: list):
    """The primes, ascending, cut into runs of at most _GROUP_CAP residues."""
    run, size = [], 0
    for p in primes:
        if run and size + p > _GROUP_CAP:
            yield run
            run, size = [], 0
        run.append(p)
        size += p
    if run:
        yield run


def count_splitting_A(q: int, d: int) -> SplitCountReport:
    """N_d(q) with the witnesses A in F_q^* for which A t^d + t + 1 splits.

    A prime q takes the prime pass; a prime power builds its field.
    """
    p, m = prime_power(q)
    if m == 1:
        _check_degree(d)
        witnesses = np.nonzero(_prime_fiber_hits([p], d)[0])[0].tolist()
    else:
        witnesses = _splitting_witnesses(field_of_order(q), d)
    closed = None
    if d == 3:
        closed = n3_closed_form(q)
    elif d == 4:
        closed = n4_closed_form(q)
    agree = None if closed is None else (len(witnesses) == closed)
    return SplitCountReport(q, d, len(witnesses), witnesses, closed, agree)


# ---------------------------------------------------------------------------
# closed forms for d = 3 and d = 4
# ---------------------------------------------------------------------------

def n3_closed_form(q: int) -> int:
    """Number of A in F_q^* with A t^3 + t + 1 split: floor((q-2)/6),
    computed through the underlying case split on q mod 6."""
    prime_power(q)
    if q % 3 == 0:
        n = (q - 3) // 6
    else:
        r = q % 6
        n = {1: (q - 7) // 6, 2: (q - 2) // 6, 4: (q - 4) // 6, 5: (q - 5) // 6}[r]
    assert n == (q - 2) // 6
    return n


def n4_closed_form(q: int) -> int:
    """Number of A in F_q^* with A t^4 + t + 1 split, piecewise by q."""
    p, e = prime_power(q)
    if p == 2:
        return 0 if e % 2 else (q - 4) // 12
    if q % 24 == 23:
        return (q + 1) // 24
    return (q - 2) // 24


# ---------------------------------------------------------------------------
# existence criteria for d = p^e and d = p^e + 1
# ---------------------------------------------------------------------------

def exists_split_pe(q: int, d: int) -> bool:
    """For d = p^e a power of char(F_q): some splitting A exists iff
    F_{p^e} is a proper subfield of F_q."""
    p, m = prime_power(q)
    e = _exact_log(d, p)
    if e is None:
        raise ValueError(f"d={d} is not a power of the characteristic {p}")
    return m % e == 0 and m // e > 1


def exists_split_pe_plus_one(q: int, d: int) -> bool:
    """For d = p^e + 1: some splitting A exists iff [F_q : F_{p^e}] > 2."""
    p, m = prime_power(q)
    e = _exact_log(d - 1, p)
    if e is None:
        raise ValueError(f"d-1={d - 1} is not a power of the characteristic {p}")
    return m % e == 0 and m // e > 2


def _exact_log(n: int, p: int):
    e = 0
    while n > 1 and n % p == 0:
        n //= p
        e += 1
    return e if n == 1 and e > 0 else None


# ---------------------------------------------------------------------------
# the rho-parametrization of the roots of A t^d + t + 1
# ---------------------------------------------------------------------------

def rho_parametrization(q: int, d: int, rho: int):
    """(A, T1, T2) in F_{q^2} from the root ratio rho = T2/T1.

    T1 = -(rho^d - 1)/(rho^d - rho), T2 = rho T1, A = -(T1+1)/T1^d, and
    A T_i^d + T_i + 1 = 0 for both i.  Returns None for degenerate rho
    (rho^d = rho, rho^{d-1} = 1, or rho^d = 1, which would force T1 = 0).
    """
    spec = ambient(q)
    rd = spec.pow(rho, d)
    den = spec.sub(rd, rho)
    if den == 0 or rd == 1 or spec.pow(rho, d - 1) == 1:
        return None
    t1 = spec.neg(spec.mul(spec.sub(rd, 1), spec.inv(den)))
    t2 = spec.mul(rho, t1)
    a = spec.neg(spec.mul(spec.add(t1, 1), spec.inv(spec.pow(t1, d))))
    for t in (t1, t2):
        lhs = spec.add(spec.add(spec.mul(a, spec.pow(t, d)), t), 1)
        assert lhs == 0, "parametrization identity failed"
    return a, t1, t2


def pe_transform_roots(q: int, d: int, rho: int):
    """For d = p^e, (B, the full root set {T1 + a/B : a in F_{p^e}}) of
    A t^d + t + 1, via B = -(rho^d - rho)/(rho - 1)^{d+1} with
    A = -B^{d-1}.  Returns None on degenerate rho."""
    spec = ambient(q)
    parts = rho_parametrization(q, d, rho)
    if parts is None:
        return None
    a, t1, _ = parts
    num = spec.sub(spec.pow(rho, d), rho)
    den = spec.pow(spec.sub(rho, 1), d + 1)
    b = spec.neg(spec.mul(num, spec.inv(den)))
    assert spec.neg(spec.pow(b, d - 1)) == a
    binv = spec.inv(b)
    roots = sorted(spec.add(t1, spec.mul(s, binv)) for s in subfield_elements(spec, d))
    return b, roots


# ---------------------------------------------------------------------------
# genus and effective thresholds
# ---------------------------------------------------------------------------

def genus_Fd(d: int) -> int:
    """Genus of the splitting field of A t^d + t + 1 over F_q(A) when
    gcd(q, d(d-1)) = 1: 1 + (d^2 - 5d + 2)(d-2)!/4."""
    if d < 3:
        raise ValueError("need d >= 3")
    g = 1 + Fraction((d * d - 5 * d + 2) * factorial(d - 2), 4)
    if g.denominator != 1:
        raise ValueError(f"genus formula is not integral for d={d}")
    return int(g)


def ramification_allowance(d: int) -> int:
    """Rational places that ramification can consume:
    (1/d + 1/(d-1) + 1/2) d!, an integer."""
    return factorial(d - 1) + d * factorial(d - 2) + factorial(d) // 2


def serre_split_threshold(d: int) -> int:
    """Largest q failing q + 1 - floor(2 sqrt(q)) g_d - C_d > 0.

    Every prime power beyond it (with gcd(q, d(d-1)) = 1) has a
    splitting A.  Group q by k = isqrt(4q): block k holds the q with
    k^2 <= 4q < (k+1)^2, and q fails there exactly when q <= gk + C - 1.
    A block holds a failing q when k^2 <= 4(gk + C - 1), that is
    k <= 2g + sqrt(4(g^2 + C - 1)); the blocks grow with k, so the
    largest failure lies in the last such block K, at the smaller of
    its top ((K+1)^2 - 1) // 4 and gK + C - 1.
    """
    g = genus_Fd(d)
    c = ramification_allowance(d)
    k = 2 * g + isqrt(4 * (g * g + c - 1))
    return min(((k + 1) ** 2 - 1) // 4, g * k + c - 1)


# ---------------------------------------------------------------------------
# sweeping over prime powers
# ---------------------------------------------------------------------------

def _prime_power_factors(lo: int, hi: int) -> list[tuple[int, int, int]]:
    """(q, p, m) for every prime power q = p^m in [lo, hi], ascending in q.

    The primes come from a sieve of Eratosthenes on [0, hi].
    """
    if hi < 2:
        return []
    sieve = bytearray([0, 0]) + bytearray([1]) * (hi - 1)
    for i in range(2, isqrt(hi) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, hi + 1, i)))
    out = []
    for p in compress(range(hi + 1), sieve):
        v, m = p, 1
        while v <= hi:
            if v >= lo:
                out.append((v, p, m))
            v, m = v * p, m + 1
    return sorted(out)


def prime_powers(lo: int, hi: int) -> list[int]:
    """All prime powers in [lo, hi]."""
    return [q for q, _, _ in _prime_power_factors(lo, hi)]


def survey_split(d: int, q_max: int, gcd_filter: int | None = None):
    """[(q, N_d(q))] over prime powers q <= q_max.

    With gcd_filter = n, only q coprime to n are swept (the regime of
    the genus/threshold formulas uses n = d(d-1)).  The primes take the
    prime pass of the module docstring: no field tables, runs of at most
    _GROUP_CAP residues per bincount, so the largest array is O(p) for a
    prime beyond the cap and O(_GROUP_CAP) below it.  Each proper prime
    power builds its field uncached and drops it after its count, so the
    sweep holds one field's tables at a time.  A d below 2 is refused, as
    is a filter below 1 (0 would sweep nothing, since gcd(q, 0) = q) and
    a q_max above MAX_ORDER, all before the sieve is allocated; then a
    sweep of no q, and a swept p^m with m above MAX_DEGREE (2^17 onward),
    before the prime pass.
    """
    _check_degree(d)
    if gcd_filter is not None and gcd_filter < 1:
        raise ValueError(f"gcd filter must be >= 1 (got {gcd_filter})")
    if q_max > MAX_ORDER:
        raise ValueError(f"survey q_max {q_max} exceeds the largest field order {MAX_ORDER}")
    swept = [
        (q, p, m)
        for q, p, m in _prime_power_factors(2, q_max)
        if gcd_filter is None or gcd(q, gcd_filter) == 1
    ]
    if not swept:
        coprime = "" if gcd_filter is None else f" coprime to the gcd filter {gcd_filter}"
        raise ValueError(f"survey q_max {q_max} sweeps no prime power{coprime}")
    for q, p, m in swept:
        if m > MAX_DEGREE:
            raise ValueError(
                f"survey q_max {q_max} sweeps {q} = {p}^{m}, "
                f"past the largest extension degree {MAX_DEGREE}"
            )
    counts = {}
    for run in _prime_runs([q for q, _, m in swept if m == 1]):
        hits, starts = _prime_fiber_hits(run, d)
        counts.update(zip(run, np.add.reduceat(hits, starts, dtype=np.int64).tolist()))
    return [
        (q, counts[q] if m == 1 else len(_splitting_witnesses(FieldSpec(p, m), d)))
        for q, p, m in swept
    ]
