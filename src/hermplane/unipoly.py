"""Univariate polynomial algebra over a finite field.

Coefficients are stored little endian as integer encodings of field
elements, trimmed so the leading coefficient is nonzero (the zero
polynomial is the empty tuple).  Roots are found by an evaluation scan
over the subfield; the splitting surveys count roots by the fibers of
t -> -(t + 1) / t^d in `splitting` instead.

`factor_degrees` is the distinct-degree factorization of a squarefree
polynomial over its own field F_Q: the product of the irreducible factors
of degree i is gcd(f, t^(Q^i) - t) once the factors of lower degree are
divided out (Lidl-Niederreiter, *Finite Fields*, ch. 4).  The factor
certificate of `plane` reads the degrees of plane curves restricted to
lines from it.
"""

from __future__ import annotations

from .field import FieldError, FieldSpec, subfield_elements


class UniPoly:
    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs):
        vals = [spec.from_int(c) for c in coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        self.spec = spec
        self.coeffs = tuple(vals)

    # -- basics --------------------------------------------------------------

    @property
    def degree(self):
        """Degree, with deg 0 = -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.spec is other.spec
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.spec), self.coeffs))

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)})"

    def _check(self, other):
        if not isinstance(other, UniPoly) or other.spec is not self.spec:
            raise FieldError("mixed-field polynomials")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        self._check(other)
        K = self.spec
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = K.add(out[i], c)
        return UniPoly(K, out)

    def __neg__(self):
        K = self.spec
        return UniPoly(K, [K.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        K = self.spec
        if self.is_zero() or other.is_zero():
            return UniPoly(K, [])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = K.add(out[i + j], K.mul(a, b))
        return UniPoly(K, out)

    def divrem(self, other):
        """(quotient, remainder) with deg remainder < deg other."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        K = self.spec
        r = list(self.coeffs)
        d = other.degree
        lead_inv = K.inv(other.coeffs[-1])
        q = [0] * max(len(r) - d, 0)
        for k in range(len(r) - 1, d - 1, -1):
            if r[k]:
                c = q[k - d] = K.mul(r[k], lead_inv)
                for i, b in enumerate(other.coeffs):
                    r[k - d + i] = K.sub(r[k - d + i], K.mul(c, b))
        return UniPoly(K, q), UniPoly(K, r[:d])

    def __mod__(self, other):
        return self.divrem(other)[1]

    def powmod(self, e: int, m: "UniPoly") -> "UniPoly":
        """self^e mod m by repeated squaring, e >= 0."""
        result = UniPoly.constant(self.spec, 1) % m
        base = self % m
        while e:
            if e & 1:
                result = (result * base) % m
            e >>= 1
            if e:
                base = (base * base) % m
        return result

    def derivative(self):
        """Formal derivative; terms whose exponent the characteristic divides vanish."""
        K = self.spec
        return UniPoly(K, [K.mul(k % K.p, c) for k, c in enumerate(self.coeffs) if k])

    def evaluate(self, x: int) -> int:
        K = self.spec
        acc = 0
        for c in reversed(self.coeffs):
            acc = K.add(K.mul(acc, x), c)
        return acc

    # -- convenience constructors --------------------------------------------

    @staticmethod
    def constant(spec: FieldSpec, c) -> "UniPoly":
        return UniPoly(spec, [c])


def gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic greatest common divisor, by Euclid."""
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not g.is_zero():
        f, g = g, f % g
    K = f.spec
    lead_inv = K.inv(f.coeffs[-1])
    return UniPoly(K, [K.mul(lead_inv, c) for c in f.coeffs])


def is_squarefree(f: UniPoly) -> bool:
    """No repeated factor over the algebraic closure: gcd(f, f') = 1."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    return gcd(f, f.derivative()).degree == 0


def factor_degrees(f: UniPoly) -> list[int]:
    """Degrees of the irreducible factors of a squarefree f over its field, ascending.

    A repeated factor is not detected: check `is_squarefree` first.
    """
    if f.degree < 1:
        raise ValueError("factor_degrees needs a non-constant polynomial")
    K = f.spec
    t = UniPoly(K, [0, 1])
    out = []
    rest, frob, i = f, t, 0  # frob = t^(Q^i) mod rest
    while rest.degree >= 2 * (i + 1):
        i += 1
        frob = frob.powmod(K.order, rest)
        g = gcd(rest, frob - t)
        if g.degree:
            out += [i] * (g.degree // i)
            rest = rest.divrem(g)[0]
            frob = frob % rest
    if rest.degree > 0:
        out.append(rest.degree)
    return out


def roots_in_field(f: UniPoly, q: int) -> list[int]:
    """All distinct roots of f in F_q, by evaluation scan, encoding order."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    return [x for x in subfield_elements(f.spec, q) if not f.evaluate(x)]

