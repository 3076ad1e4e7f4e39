"""Deterministic construction of finite fields F_{p^m}.

Elements are encoded as integers sum(c_i * p^i) where (c_0, ..., c_{m-1})
are the coordinates in the power basis of the modulus root.  The encoding
is the only element type at every layer of the package: a FieldSpec's
methods and the subfield functions below take and return encodings.
`from_int` reads any integer (an encoding in [0, q), any other integer mod
p, as the -1 coefficients of the Hermitian models need) and `from_coeffs` a
coordinate vector.  The modulus is the monic irreducible polynomial of
degree m with the smallest encoding, and the generator is the
smallest-encoded element of full multiplicative order, so two builds of the
same field are identical.

Multiplication runs through log/antilog tables built from the generator g.
The tables come from F_p-linear algebra on digit vectors: multiplication by
c is an m x m matrix T over F_p (rows built from the companion matrix of the
modulus).  The generator is the first c in encoding order that passes the
order test c^((q-1)/r) != 1 for every prime r dividing q-1, where c^e is
read off T^e by repeated squaring (a modular pow when m = 1); its powers
then fill in log2(q) matrix doublings, in every field alike (a prime
field's matrices are 1 x 1: its modulus is x).  Addition is XOR in
characteristic 2 and a sum mod p in a prime field.  Odd extension fields
add by Zech's logarithms (Lidl and Niederreiter, Finite Fields):
g^i + g^j = g^(i + Z(j-i)) with Z(k) = log(1 + g^k), and 1 + g^k differs
from g^k only in the lowest base-p digit.  log 0 = 2(q-1)+1 points into
q-1 zeros after the exp table, so a = 0, b = 0 and a + b = 0 come out of
the same lookups.
Vectorized (numpy) variants of all operations are provided for the hot
enumeration loops elsewhere in the package.

The number theory (primality of p, the primes of q-1, the prime power
behind q) is trial division: no order above MAX_ORDER = 2^24 is ever
factored, so divisors up to 4096 suffice.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import index

import numpy as np

MAX_DEGREE = 16
MAX_ORDER = 1 << 24


class FieldError(ValueError):
    """Invalid field construction or an operation on mismatched fields."""


# ---------------------------------------------------------------------------
# small polynomial helpers over F_p (lists, little endian)
# ---------------------------------------------------------------------------

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a, b, p):
    """Remainder of a modulo monic b over F_p."""
    a = list(a)
    db = len(b) - 1
    while len(a) - 1 >= db and a:
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - 1 - db
        c = a[-1]
        for i in range(db + 1):
            a[shift + i] = (a[shift + i] - c * b[i]) % p
        _poly_trim(a)
    return a


def _divides(small, big, p):
    return not _poly_mod(big, small, p)


def _is_irreducible(poly, p):
    """Trial division by all monic polynomials of degree <= deg/2."""
    m = len(poly) - 1
    for k in range(1, m // 2 + 1):
        for enc in range(p ** k):
            cand = _decode(enc, p, k) + [1]
            if _divides(cand, poly, p):
                return False
    return True


def _decode(n, p, m):
    out = []
    for _ in range(m):
        n, r = divmod(n, p)
        out.append(r)
    return out


def _mod_p(a, p):
    """a mod p in place, for a float64 array of integers in [0, 2^53)."""
    t = a / p
    np.floor(t, out=t)
    t *= p
    a -= t
    return a


# ---------------------------------------------------------------------------
# field construction
# ---------------------------------------------------------------------------

class FieldSpec:
    """Immutable description of F_{p^m} plus arithmetic tables.

    Use :func:`make_field`; constructing directly bypasses the cache that
    guarantees a single shared instance per (p, m).  Sweeps that visit
    each field once (``splitting.survey_split``) construct directly, so
    their tables are freed as they go; the survey builds only its proper
    prime-power fields, as it counts over prime fields with no tables.
    Every field, prime or not, fills its exp table by the same matrix
    doubling (`_fill_powers`).  Every table (exp, log, negation, and the
    Zech table of an odd extension field) has O(q) entries.

    The numpy arrays are the only storage: the vector ops gather from
    them, and the scalar ops index a `memoryview` of each, which reads the
    array in place and returns a Python int (a numpy scalar index makes
    three numpy objects per product).  Python-list copies index faster
    still, but they would hold one Python int object per entry, over 1 GB
    for a 2^24-element field.
    """

    def __init__(self, p: int, m: int):
        if not 1 <= m <= MAX_DEGREE:
            raise FieldError(f"extension degree {m} out of range [1, {MAX_DEGREE}]")
        if p ** m > MAX_ORDER:
            raise FieldError(f"field order {p}^{m} exceeds {MAX_ORDER}")
        if prime_factors(p) != [p]:
            raise FieldError(f"characteristic {p} is not prime")
        self.p = p
        self.m = m
        self.order = p ** m
        self.modulus = self._canonical_modulus()
        self._build_tables()

    # -- construction helpers ------------------------------------------------

    def _canonical_modulus(self):
        """The monic irreducible of degree m with the smallest encoding: x when m = 1."""
        for enc in range(self.p ** self.m):
            cand = _decode(enc, self.p, self.m) + [1]
            if _is_irreducible(cand, self.p):
                return tuple(cand)
        raise AssertionError("no irreducible polynomial found")  # unreachable

    def _build_tables(self):
        p, m, q1 = self.p, self.m, self.order - 1
        pw = p ** np.arange(m, dtype=np.int64)
        # multiplying a digit row by the companion matrix multiplies by x.
        # The digit algebra runs on float64 (BLAS products), exact because a
        # product of digit rows sums at most m*(p-1)^2 < 2^53.
        comp = np.zeros((m, m))
        comp[:-1, 1:] = np.eye(m - 1)
        comp[-1] = np.negative(self.modulus[:m]) % p
        self.generator = self._find_generator(comp, pw)
        rows = np.zeros((q1, m))
        rows[0, 0] = 1
        self._fill_powers(rows, self._mul_matrices([self.generator], comp)[0])
        exp = (rows @ pw).astype(np.int64)
        del rows  # the peak of a large build
        if np.flatnonzero(exp == 1).tolist() != [0]:
            raise AssertionError(f"{self.generator} is not primitive in F_{self.order}")
        # log 0: added to any log in [0, q-1), it lands in the zero tail
        zero_log = 2 * q1 + 1
        self._exp = np.concatenate((exp, exp, exp[:1], np.zeros(q1, dtype=np.int64)))
        exp = self._exp[:q1]  # frees the fill's table: a large build peaks at its final tables
        log = np.empty(self.order, dtype=np.int64)
        log[exp] = np.arange(q1, dtype=np.int64)
        log[0] = zero_log
        self._log = log
        self._pw = pw
        # -1 is g^((q-1)/2) in odd characteristic and 1 in characteristic 2
        neg = log + (q1 // 2 if p > 2 else 0)  # gathered in place
        self._neg = self._exp.take(neg, out=neg, mode="clip")
        self._dig = None  # no digit table; perfbench/spans.py still sizes it by name
        self._add_tab = None
        if p > 2 and m > 1:
            # Zech table, read at k + zero_log for k = lb - la.  Nonzero a, b
            # read Z(k), or zero_log where 1 + g^k = 0; a = 0 reads
            # lb - zero_log, so that la + it = lb; b = 0 reads 0; a = b = 0
            # reads Z(0), which lands in the zero tail.
            low = exp % p
            one_plus = log[exp - low + (low + 1) % p]
            zech = np.zeros(4 * q1 + 3, dtype=np.int64)
            zech[:q1] = np.arange(-zero_log, q1 - zero_log)
            zech[q1 + 2 : 3 * q1 + 1] = np.concatenate((one_plus[1:], one_plus))
            self._add_tab = zech
        # zero-copy views for the scalar ops: one index is one Python int
        self._exp_view, self._log_view, self._neg_view = map(memoryview, (self._exp, log, self._neg))
        self._add_view = None if self._add_tab is None else memoryview(self._add_tab)

    def _mul_matrices(self, cs, comp):
        """T[j], the F_p-linear map of multiplying by cs[j]: row i = digits of cs[j]*x^i."""
        p = self.p
        T = np.empty((len(cs), self.m, self.m))
        T[:, 0] = np.asarray(cs)[:, None] // p ** np.arange(self.m) % p
        for i in range(1, self.m):
            T[:, i] = _mod_p(T[:, i - 1] @ comp, p)
        return T

    def _find_generator(self, comp, pw):
        """The first c in encoding order with c^((q-1)/r) != 1 for each prime r | q-1.

        For m = 1 the test is a modular pow.  For m > 1 the candidates start
        at p, since the prime subfield's orders divide p-1, and go in batches
        of 2, 4, 8, ...: c^e is the digit row of 1 times T_c^e.  Each
        candidate's matrix X stacks T_c^(2^i) over the rows of c^(e mod 2^i),
        one per exponent, so one product X @ T_c^(2^i) both squares T_c and
        steps the rows of the exponents with bit i set.
        """
        p, m, q1 = self.p, self.m, self.order - 1
        exps = [q1 // r for r in prime_factors(q1)]
        if m == 1:
            return next(c for c in range(1, p) if all(pow(c, e, p) != 1 for e in exps))
        steps = [
            np.array([True] * m + [e >> i & 1 == 1 for e in exps])[:, None]
            for i in range(max(exps).bit_length())
        ]
        lo, n = p, 2
        while lo < self.order:
            cs = np.arange(lo, min(lo + n, self.order))
            X = np.zeros((len(cs), m + len(exps), m))
            X[:, :m] = self._mul_matrices(cs, comp)
            X[:, m:, 0] = 1
            for step in steps:
                X = np.where(step, _mod_p(X @ X[:, :m], p), X)
            hits = np.flatnonzero(~np.any(X[:, m:] @ pw == 1, axis=1))
            if len(hits):
                return int(cs[hits[0]])
            lo, n = lo + n, 2 * n
        raise AssertionError("no generator found")  # unreachable

    def _fill_powers(self, rows, T):
        """Write the digits of c^0 .. c^(q-2) into rows, T the matrix of c.

        Every field fills this way; a prime field's rows and T are 1 x 1,
        residues mod p.  Each doubling step rows[k:2k] = rows[:k] @ T,
        T = T @ T doubles the powers known.
        """
        p = self.p
        k = 1
        while k < len(rows):
            blk = rows[k : 2 * k]
            np.matmul(rows[: len(blk)], T, out=blk)
            _mod_p(blk, p)
            T = _mod_p(T @ T, p)
            k += len(blk)

    # -- scalar arithmetic on encodings -------------------------------------
    # an argument may be any integer, numpy's too; every result is an int

    def add(self, a, b):
        if self.p == 2:
            return index(a ^ b)
        if self.m == 1:
            return index(a + b) % self.p
        log = self._log_view
        la = log[a]
        return self._exp_view[la + self._add_view[log[b] - la + 2 * self.order - 1]]

    def neg(self, a):
        return self._neg_view[a]

    def sub(self, a, b):
        return self.add(a, self._neg_view[b])

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        log = self._log_view
        return self._exp_view[log[a] + log[b]]

    def inv(self, a):
        if a == 0:
            raise FieldError("inversion of zero")
        return self._exp_view[self.order - 1 - self._log_view[a]]

    def pow(self, a, e):
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise FieldError("negative power of zero")
            return 0
        return self._exp_view[self._log_view[a] * e % (self.order - 1)]

    def element_order(self, a):
        if a == 0:
            raise FieldError("zero has no multiplicative order")
        n = self.order - 1
        return n // gcd(n, self._log_view[a])

    # -- vectorized arithmetic on int64 arrays of encodings ------------------

    def add_v(self, a, b, out=None):
        """a + b elementwise; `out` (an int64 array of the broadcast shape,
        which may be a itself) takes the sum in place of a new array."""
        if self.p == 2:
            return np.bitwise_xor(a, b, out=out)
        if self.m == 1:
            return np.remainder(np.add(a, b, out=out), self.p, out=out)
        la = self._log[a]
        s = np.empty(np.broadcast(a, b).shape, dtype=np.int64) if out is None else out
        s[...] = self._log[b]
        s -= la
        s += 2 * self.order - 1
        self._add_tab.take(s, out=s, mode="clip")
        s += la
        self._exp.take(s, out=s, mode="clip")
        return s

    def neg_v(self, a):
        return self._neg[a]

    def mul_v(self, a, b):
        return self.monomial_v(a, ((b, 1),))

    def pow_v(self, a, e):
        """a^e elementwise for any integer e; 0^e = 0 for e != 0 and 1 for e = 0."""
        if e == 0:
            return np.ones_like(a)
        return self.monomial_v(1, ((a, e),))

    def monomial_v(self, c, factors):
        """c * x1^k1 * x2^k2 * ... over broadcastable arrays of encodings.

        `factors` holds (x, k) pairs with any integer k; where x is 0, a
        nonzero k makes the product 0 and k = 0 leaves it alone (0^0 = 1).
        The product is summed in the log domain and read back with one exp
        gather; it is zero where c = 0 or where an x with k != 0 is 0.
        """
        operands = [(c, 1), *((x, k) for x, k in factors if k)]
        e = np.zeros(np.broadcast(*(x for x, _ in operands)).shape, dtype=np.int64)
        for x, k in operands:
            lx = self._log[x]
            k %= self.order - 1  # x^k = x^(k mod q-1) for x != 0; keeps the product in int64
            if k != 1:
                lx *= k
            e += lx
            del lx  # before the next gather, so one log array is live at a time
        np.remainder(e, self.order - 1, out=e)
        self._exp.take(e, out=e, mode="clip")
        for x, _ in operands:
            if isinstance(x, np.ndarray) or not x:  # a nonzero scalar leaves e as it is
                e *= x != 0
        return e

    # -- element construction -------------------------------------------------

    def from_int(self, x) -> int:
        """An integer's encoding: itself in [0, q), else x mod p (the prime subfield)."""
        if not isinstance(x, (int, np.integer)):
            raise FieldError(f"cannot build a field element from {x!r}")
        x = int(x)
        return x if 0 <= x < self.order else x % self.p

    def from_coeffs(self, coeffs) -> int:
        """The encoding of the coordinates [c0, c1, ...], each in [0, p), zero-padded to m."""
        if len(coeffs) > self.m:
            raise FieldError("too many coordinates")
        n = 0
        for c in reversed(coeffs):
            n = n * self.p + int(c)
        return n

    def to_coeffs(self, a):
        return _decode(a, self.p, self.m)

    def __repr__(self):
        return f"FieldSpec(p={self.p}, m={self.m})"


@lru_cache(maxsize=None)
def make_field(p: int, m: int) -> FieldSpec:
    """The canonical FieldSpec for F_{p^m}; cached, hence idempotent."""
    return FieldSpec(p, m)


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending; none for n < 2.

    Trial division, by 2 and then the odd numbers up to sqrt(n): 4096
    is enough for any n <= MAX_ORDER, the only sizes it is used for.
    """
    if not isinstance(n, (int, np.integer)):
        raise FieldError(f"{n} is not an integer")
    n = int(n)
    out = []
    r = 2
    while r * r <= n:
        if n % r == 0:
            out.append(r)
            while n % r == 0:
                n //= r
        r += 1 if r == 2 else 2
    if n > 1:
        out.append(n)
    return out


def prime_power(q: int) -> tuple[int, int]:
    """(p, m) with q = p^m; a FieldError unless q is a prime power in [2, MAX_ORDER]."""
    if q > MAX_ORDER:
        raise FieldError(f"field order {q} exceeds {MAX_ORDER}")
    primes = prime_factors(q)
    if len(primes) != 1:
        raise FieldError(f"{q} is not a prime power")
    [p] = primes
    m = 1
    while p ** m < q:
        m += 1
    return p, m


def field_of_order(q: int) -> FieldSpec:
    """The canonical field with exactly q elements."""
    return make_field(*prime_power(q))


def ambient(q: int) -> FieldSpec:
    """The canonical F_{q^2}, for a prime power q."""
    if not isinstance(q, (int, np.integer)):
        # 4.0 == 4 would hit the cached F_16: refuse as prime_power does
        prime_power(q)
    return _ambient(q)


@lru_cache(maxsize=None)
def _ambient(q: int) -> FieldSpec:
    p, m = prime_power(q)
    return make_field(p, 2 * m)


# ---------------------------------------------------------------------------
# subfield structure: norm, trace, the subfield itself
# ---------------------------------------------------------------------------

def _subfield_order(spec: FieldSpec) -> int:
    if spec.m % 2 != 0:
        raise FieldError("ambient field is not a quadratic extension")
    return spec.p ** (spec.m // 2)


def norm_to_subfield(spec: FieldSpec, x: int) -> int:
    """Norm F_{q^2} -> F_q, x |-> x^{q+1}."""
    return spec.pow(x, _subfield_order(spec) + 1)


def trace_to_subfield(spec: FieldSpec, x: int) -> int:
    """Trace F_{q^2} -> F_q, x |-> x^q + x."""
    return spec.add(spec.pow(x, _subfield_order(spec)), x)


def norm_preimages(spec: FieldSpec, s: int) -> list[int]:
    """The q+1 elements y of F_{q^2} with y^{q+1} = s, for nonzero s in F_q."""
    q = _subfield_order(spec)
    if s == 0:
        raise FieldError("norm preimages of zero are not defined")
    if spec.pow(s, q) != s:
        raise FieldError("element is not in the index-2 subfield")
    out = [v for v in range(1, spec.order) if spec.pow(v, q + 1) == s]
    assert len(out) == q + 1
    return out


def subfield_elements(spec: FieldSpec, q: int) -> list[int]:
    """The q elements fixed by x -> x^q, in encoding order (0 first)."""
    p, e = prime_power(q)
    if p != spec.p or spec.m % e != 0:
        raise FieldError(f"F_{q} is not a subfield of F_{spec.order}")
    x = np.arange(spec.order, dtype=np.int64)
    out = x[spec.pow_v(x, q) == x].tolist()
    assert len(out) == q
    return out


def primitive_elements(spec: FieldSpec):
    """All generators of the multiplicative group, in encoding order."""
    n = spec.order - 1
    return (v for v in range(1, spec.order) if spec.element_order(v) == n)
