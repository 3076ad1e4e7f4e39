"""Univariate polynomial algebra over a finite field.

Coefficients are stored little endian as integer encodings of field
elements, trimmed so the leading coefficient is nonzero (the zero
polynomial is the empty tuple).  Roots are found by an evaluation scan
over the subfield; the splitting surveys count roots by the fibers of
t -> -(t + 1) / t^d in `splitting` instead.
"""

from __future__ import annotations

from .field import FieldElem, FieldError, FieldSpec, subfield_elements


class UniPoly:
    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs):
        vals = []
        for c in coeffs:
            if isinstance(c, FieldElem):
                if c.spec is not spec:
                    raise FieldError("coefficient from a different field")
                vals.append(c.val)
            else:
                vals.append(int(c) % spec.order if 0 <= int(c) < spec.order else int(c) % spec.p)
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

    def evaluate(self, x) -> FieldElem:
        K = self.spec
        xv = K.elem(x).val
        acc = 0
        for c in reversed(self.coeffs):
            acc = K.add(K.mul(acc, xv), c)
        return FieldElem(K, acc)

    # -- convenience constructors --------------------------------------------

    @staticmethod
    def constant(spec: FieldSpec, c) -> "UniPoly":
        return UniPoly(spec, [spec.elem(c).val])


def roots_in_field(f: UniPoly, q: int) -> list[FieldElem]:
    """All distinct roots of f in F_q, by evaluation scan, encoding order."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    out = []
    for x in subfield_elements(f.spec, q):
        if not f.evaluate(x):
            out.append(x)
    return out

