"""An independent recount of N_d(q) = #{A : A t^d + t + 1 splits over F_q}.

For A != 0 the roots of A t^d + t + 1 are the t in F_q^* with
A = -(t + 1) / t^d (t = 0 is never a root), so the polynomial has d
distinct roots in F_q exactly when A has d preimages under the map
t -> -(t + 1) / t^d.  Counting the fibers of that map over F_q^* gives
N_d(q) in one pass.

This module is a second method for the verification matrix, so it
shares no arithmetic with `field`, `unipoly` or `splitting` and runs on
the standard library alone: prime fields use Python integers mod p, and
prime-power fields use the small F_p[x]/(g) arithmetic below, where g is
the first monic polynomial of degree m in encoding order with no monic
factor of degree 1 .. m/2.  A fault in the package's field tables or in
its root counting cannot then be repeated here.

A polynomial over F_p is a list of coefficients, constant term first;
the encoding n of an element of F_p[x]/(g) is sum(c_i p^i).
"""

from __future__ import annotations

from collections import Counter
from math import gcd, isqrt


def _prime_power(q: int):
    """(p, m) with q = p^m, by trial division; ValueError otherwise."""
    if q >= 2:
        p = next((r for r in range(2, isqrt(q) + 1) if q % r == 0), q)
        m, rest = 0, q
        while rest % p == 0:
            rest //= p
            m += 1
        if rest == 1:
            return p, m
    raise ValueError(f"{q} is not a prime power")


def _digits(n: int, p: int, m: int) -> list:
    """The m base-p digits of n, least significant first."""
    out = []
    for _ in range(m):
        n, r = divmod(n, p)
        out.append(r)
    return out


def _rem(a: list, g: list, p: int) -> list:
    """a mod the monic g over F_p, as len(g) - 1 coefficients."""
    m = len(g) - 1
    a = a + [0] * (m - len(a))
    for i in range(len(a) - 1, m - 1, -1):
        c = a[i] % p
        if c:
            # a -= c x^(i-m) g; the x^i term cancels and is dropped
            for j in range(m):
                a[i - m + j] -= c * g[j]
    return [c % p for c in a[:m]]


def _mul(a: list, b: list, g: list, p: int) -> list:
    """a b mod (p, g)."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _rem(prod, g, p)


def _pow(a: list, e: int, g: list, p: int) -> list:
    """a^e mod (p, g) for e >= 0, by square-and-multiply."""
    out = _rem([1], g, p)
    while e:
        if e & 1:
            out = _mul(out, a, g, p)
        e >>= 1
        if e:
            a = _mul(a, a, g, p)
    return out


def _monic(p: int, k: int):
    """The monic polynomials of degree k over F_p, in encoding order."""
    for n in range(p**k):
        yield _digits(n, p, k) + [1]


def _modulus(p: int, m: int) -> list:
    """The first monic g of degree m that no monic f of degree 1 .. m/2 divides."""
    return next(
        g
        for g in _monic(p, m)
        if all(any(_rem(g, f, p)) for k in range(1, m // 2 + 1) for f in _monic(p, k))
    )


def _images_prime(p: int, d: int):
    """-(t + 1) / t^d mod p for t = 1 .. p-1."""
    e = -d % (p - 1)
    for t in range(1, p):
        yield -(t + 1) * pow(t, e, p) % p


def _images_extension(p: int, m: int, d: int):
    """-(t + 1) / t^d in F_p[x]/(g) for every nonzero t, as coefficient tuples."""
    g = _modulus(p, m)
    e = -d % (p**m - 1)
    for n in range(1, p**m):
        t = _digits(n, p, m)
        num = [-c % p for c in t]
        num[0] = (num[0] - 1) % p
        yield tuple(_mul(num, _pow(t, e, g, p), g, p))


def fiber_split_count(q: int, d: int) -> int:
    """N_d(q) as the number of nonzero A whose fiber has exactly d points."""
    if d < 2:
        raise ValueError("need d >= 2")
    p, m = _prime_power(q)
    images = _images_prime(p, d) if m == 1 else _images_extension(p, m, d)
    # A = 0 has the one preimage t = -1, so it never counts
    fibers = Counter(images)
    return sum(1 for size in fibers.values() if size == d)


def fiber_survey(d: int, q_lo: int, q_hi: int, gcd_filter: int | None = None):
    """[(q, N_d(q))] over prime powers q_lo <= q <= q_hi, by fiber counting.

    With gcd_filter = n, only q coprime to n are swept, as in
    `splitting.survey_split`; the prime powers are found here afresh.
    """
    rows = []
    for q in range(max(q_lo, 2), q_hi + 1):
        try:
            _prime_power(q)
        except ValueError:
            continue
        if gcd_filter is not None and gcd(q, gcd_filter) != 1:
            continue
        rows.append((q, fiber_split_count(q, d)))
    return rows
