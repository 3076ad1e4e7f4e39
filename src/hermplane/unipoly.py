"""The squarefree test and the distinct-degree factorization of a
univariate polynomial over its own field F_Q.

A polynomial is a list of integer encodings of field elements, little
endian and trimmed: its last coefficient is nonzero, and the zero
polynomial is empty.  `factor_degrees` is the distinct-degree
factorization of a squarefree polynomial: the product of the irreducible
factors of degree i is gcd(f, t^(Q^i) - t) once the factors of lower
degree are divided out (Lidl-Niederreiter, *Finite Fields*, ch. 4).  The
factor certificate of `plane` reads the degrees of plane curves restricted
to lines from it; no other module uses this one.
"""

from __future__ import annotations

from .field import FieldSpec


def _trim(f) -> list[int]:
    """f as a list without its trailing zeros."""
    f = list(f)
    while f and not f[-1]:
        f.pop()
    return f


def _mul(K: FieldSpec, a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = K.add(out[i + j], K.mul(x, y))
    return out


def _divmod(K: FieldSpec, f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """(quotient, remainder) with deg remainder < deg g."""
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    r = list(f)
    d = len(g) - 1
    lead_inv = K.inv(g[-1])
    q = [0] * max(len(r) - d, 0)
    for k in range(len(r) - 1, d - 1, -1):
        if r[k]:
            c = q[k - d] = K.mul(r[k], lead_inv)
            for i, b in enumerate(g):
                r[k - d + i] = K.sub(r[k - d + i], K.mul(c, b))
    return q, _trim(r[:d])


def _powmod(K: FieldSpec, f: list[int], e: int, m: list[int]) -> list[int]:
    """f^e mod m by repeated squaring, e >= 0."""
    result = _divmod(K, [1], m)[1]
    base = _divmod(K, f, m)[1]
    while e:
        if e & 1:
            result = _divmod(K, _mul(K, result, base), m)[1]
        e >>= 1
        if e:
            base = _divmod(K, _mul(K, base, base), m)[1]
    return result


def _gcd(K: FieldSpec, f: list[int], g: list[int]) -> list[int]:
    """Monic greatest common divisor, by Euclid."""
    if not f and not g:
        raise ValueError("gcd(0, 0) is undefined")
    while g:
        f, g = g, _divmod(K, f, g)[1]
    lead_inv = K.inv(f[-1])
    return [K.mul(lead_inv, c) for c in f]


def _derivative(K: FieldSpec, f: list[int]) -> list[int]:
    """Formal derivative; terms whose exponent the characteristic divides vanish."""
    return _trim(K.mul(k % K.p, c) for k, c in enumerate(f) if k)


def is_squarefree(K: FieldSpec, f: list[int]) -> bool:
    """No repeated factor over the algebraic closure: gcd(f, f') = 1."""
    if not f:
        raise ValueError("zero polynomial")
    return len(_gcd(K, f, _derivative(K, f))) == 1


def factor_degrees(K: FieldSpec, f: list[int]) -> list[int]:
    """Degrees of the irreducible factors of a squarefree f over K, ascending.

    A repeated factor is not detected: check `is_squarefree` first.
    """
    if len(f) < 2:
        raise ValueError("factor_degrees needs a non-constant polynomial")
    out = []
    rest, frob, i = f, [0, 1], 0  # frob = t^(Q^i) mod rest
    while len(rest) - 1 >= 2 * (i + 1):
        i += 1
        frob = _powmod(K, frob, K.order, rest)
        h = frob + [0] * (2 - len(frob))  # frob - t
        h[1] = K.sub(h[1], 1)
        g = _gcd(K, rest, _trim(h))
        if len(g) > 1:
            out += [i] * ((len(g) - 1) // i)
            rest = _divmod(K, rest, g)[0]
            frob = _divmod(K, frob, rest)[1]
    if len(rest) > 1:
        out.append(len(rest) - 1)
    return out
