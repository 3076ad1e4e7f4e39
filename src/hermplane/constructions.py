"""Generators for the explicit curve families meeting the Hermitian curve
in d(q+1) rational points.

Each family fixes its parameters by a deterministic canonical search
(encoding order, first valid witness), records them in a descriptor, and
is measured against the Hermitian model it was designed for: H1 for the
secant-fan / full-point / degree-q / even-half families, H2 for the
odd-half, monomial and sporadic ones.  `build` is the one entry point by
family name, and `measure` pairs a built curve with its descriptor's model;
`hermplane verify` and every family record of the verification matrix go
through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .field import ambient, norm_to_subfield, primitive_elements, subfield_elements
from .plane import TernaryForm, hermitian_model, intersection
from .splitting import fiber_images
from .unipoly import UniPoly


class ConstructionError(ValueError):
    """Parameters outside a family's range of validity."""


@dataclass
class ConstructionDescriptor:
    """A built curve's family, degree and Hermitian model; `parameters`
    maps each name to an element of F_{q^2} (an encoding) or a list of them."""

    family: str
    q: int
    d: int
    parameters: dict = dc_field(default_factory=dict)
    model: str = "H1"

    def to_dict(self):
        spec = ambient(self.q)

        def ser(v):
            return [ser(x) for x in v] if isinstance(v, list) else spec.to_coeffs(v)

        return {
            "family": self.family,
            "q": self.q,
            "d": self.d,
            "model": self.model,
            "parameters": {k: ser(v) for k, v in self.parameters.items()},
        }


# ---------------------------------------------------------------------------
# secant fan: q+1 <= d <= q^2 - q, against H1
# ---------------------------------------------------------------------------

def secant_fan_curve(q: int, d: int):
    """Degree-d curve through d secant lines of H1 concurrent at [1:0:0].

    Picks the d smallest b with b^q + b != 0 and the first alpha making
    alpha * prod(-b_i) a primitive element of F_{q^2}.
    """
    if not q + 1 <= d <= q * q - q:
        raise ConstructionError(f"need q+1 <= d <= q^2-q, got d={d} for q={q}")
    spec = ambient(q)
    bs = []
    for v in range(spec.order):
        if spec.add(spec.pow(v, q), v) != 0:
            bs.append(v)
            if len(bs) == d:
                break
    prod = 1
    for b in bs:
        prod = spec.mul(prod, spec.neg(b))
    n = spec.order - 1
    alpha = None
    for a in range(1, spec.order):
        if spec.element_order(spec.mul(a, prod)) == n:
            alpha = a
            break
    assert alpha is not None
    lines = TernaryForm(spec, 0, {(0, 0, 0): 1})
    for b in bs:
        lines = lines * TernaryForm(spec, 1, {(0, 1, 0): 1, (0, 0, 1): spec.neg(b)})
    h1 = hermitian_model(q, "H1")
    zpad = TernaryForm(spec, d - q - 1, {(0, 0, d - q - 1): 1})
    form = h1 * zpad - lines.scale(alpha)
    desc = ConstructionDescriptor("SecantFan", q, d, {"alpha": alpha, "b": bs}, "H1")
    return desc, form


# ---------------------------------------------------------------------------
# full-point curve of degree q^2 - q + 1, against H1
# ---------------------------------------------------------------------------

def full_point_curve(q: int) -> TernaryForm:
    """The degree q^2-q+1 curve containing every rational point of H1."""
    if q < 2:
        raise ConstructionError("need q >= 2")
    spec = ambient(q)
    d = q * q - q + 1
    base = TernaryForm(spec, q, {(0, q, 0): 1, (0, 1, q - 1): 1})  # Y^q + Y Z^{q-1}
    inner = base ** (q - 1) - TernaryForm(spec, q * q - q, {(0, 0, q * q - q): 1})
    form = TernaryForm(spec, 1, {(1, 0, 0): 1}) * inner
    form = form + TernaryForm(spec, d, {(q + 1, 0, q * q - 2 * q): 1})
    form = form - TernaryForm(spec, d, {(0, q, q * q - 2 * q + 1): 1})
    form = form - TernaryForm(spec, d, {(0, 1, q * q - q): 1})
    return form


# ---------------------------------------------------------------------------
# degree-q curves from pencils of vertical secant lines, against H1
# ---------------------------------------------------------------------------

def secant_pencil_curve(q: int, roots) -> TernaryForm:
    """Y^q + Y Z^{q-1} = Z^q g(X/Z) where g(X) = X^{q+1} - prod(X - a_i).

    `roots` must be q+1 distinct elements of F_{q^2}; the lines X = a_i Z
    are then secants of H1 through its point at infinity.
    """
    spec = ambient(q)
    roots = list(roots)
    if len(roots) != q + 1 or len(set(roots)) != q + 1:
        raise ConstructionError(f"need q+1 distinct roots, got {len(roots)}")
    f = UniPoly.constant(spec, 1)
    for r in roots:
        f = f * UniPoly(spec, [spec.neg(r), 1])
    # g = X^{q+1} - f has degree <= q
    g = UniPoly(spec, [0] * (q + 1) + [1]) - f
    assert g.degree <= q
    terms = {(0, q, 0): 1, (0, 1, q - 1): 1}
    for j in range(g.degree + 1):
        c = g.coeffs[j]
        if c:
            m = (j, 0, q - j)
            terms[m] = spec.sub(terms.get(m, 0), c)
    return TernaryForm(spec, q, terms)


def canonical_degree_q_alpha(q: int) -> int:
    """First alpha outside F_q for which mu_{q-1}, alpha, alpha^2 are distinct."""
    spec = ambient(q)
    for v in range(spec.order):
        if spec.pow(v, q) == v:
            continue  # in F_q
        v2 = spec.mul(v, v)
        if spec.pow(v2, q) == v2:
            continue  # alpha^2 would collide with a root of X^{q-1}-1
        return v
    raise ConstructionError(f"no valid alpha for q={q}")


def degree_q_curve(q: int, alpha: int | None = None) -> TernaryForm:
    """The degree-q curve cut out by f(X) = (X^{q-1}-1)(X-alpha)(X-alpha^2)."""
    if q <= 2:
        raise ConstructionError("need q > 2")
    spec = ambient(q)
    if alpha is None:
        alpha = canonical_degree_q_alpha(q)
    if spec.pow(alpha, q) == alpha:
        raise ConstructionError("alpha must lie outside F_q")
    # the roots of X^{q-1} - 1 are F_q^*
    roots = subfield_elements(spec, q)[1:] + [alpha, spec.mul(alpha, alpha)]
    if len(set(roots)) != q + 1:
        raise ConstructionError("repeated roots: alpha^2 lies on X^{q-1} = 1")
    return secant_pencil_curve(q, roots)


# ---------------------------------------------------------------------------
# degree q/2 for even q, against H1
# ---------------------------------------------------------------------------

def even_half_curve(q: int):
    """Degree q/2 component of the split Artin-Schreier curve (q = 2^e >= 4)."""
    if q < 4 or q & (q - 1):
        raise ConstructionError("need q = 2^e with q >= 4")
    spec = ambient(q)
    alpha = None
    for v in range(spec.order):
        if spec.add(spec.pow(v, q), v) == 1:
            alpha = v
            break
    assert alpha is not None
    h = q // 2
    L = TernaryForm(spec, 1, {(0, 1, 0): 1, (1, 0, 0): spec.pow(alpha, q)})
    # S = L + L^2 + L^4 + ... + L^{q/2} satisfies S^2 + S = L^q + L, so
    # S + X Z^{q/2-1} is one of the two degree-q/2 factors of the split
    # Artin-Schreier curve
    acc = TernaryForm(spec, h, {})
    k = 1
    while k <= h:
        acc = acc + (L**k) * TernaryForm(spec, h - k, {(0, 0, h - k): 1})
        k *= 2
    form = acc - TernaryForm(spec, h, {(1, 0, h - 1): 1})
    desc = ConstructionDescriptor("EvenHalf", q, h, {"alpha": alpha}, "H1")
    return desc, form


# ---------------------------------------------------------------------------
# degree (q+1)/2 for odd q, against H2
# ---------------------------------------------------------------------------

def odd_half_params(q: int):
    """First (alpha, beta, gamma) in (F_q \\ {0})^3 with
    alpha*beta*(alpha^2+1)*(beta^2+1)*(alpha^2+beta^2) != 0 and
    gamma^2+alpha^2+beta^2+1 = 0; None when no such triple exists.

    The alpha^2+beta^2 != 0 condition keeps -beta/alpha away from the
    roots c_i of (alpha^2+1)W^2 + 2 alpha beta W + beta^2+1, so that
    both Y^{(q+1)/2} = -beta - alpha c_i equations have a full set of
    (q+1)/2 solutions."""
    if q % 2 == 0:
        raise ConstructionError("q must be odd")
    spec = ambient(q)
    fq = subfield_elements(spec, q)[1:]
    for a in fq:
        a2 = spec.mul(a, a)
        if not spec.add(a2, 1):
            continue
        for b in fq:
            b2 = spec.mul(b, b)
            if not spec.add(b2, 1) or not spec.add(a2, b2):
                continue
            target = spec.neg(spec.add(spec.add(a2, b2), 1))
            for g in fq:
                if spec.mul(g, g) == target:
                    return a, b, g
    return None


def odd_half_curve(q: int, alpha: int, beta: int) -> TernaryForm:
    if q % 2 == 0:
        raise ConstructionError("q must be odd")
    h = (q + 1) // 2
    return TernaryForm(ambient(q), h, {(h, 0, 0): alpha, (0, h, 0): 1, (0, 0, h): beta})


# ---------------------------------------------------------------------------
# monomial curves X Z^{d-1} = alpha Y^d, against H2
# ---------------------------------------------------------------------------

def monomial_curve(q: int, d: int, alpha: int) -> TernaryForm:
    spec = ambient(q)
    if not alpha:
        raise ConstructionError("alpha must be nonzero")
    if d < 1:
        raise ConstructionError("d must be >= 1")
    return TernaryForm(spec, d, {(1, 0, d - 1): 1, (0, d, 0): spec.neg(alpha)})


def monomial_fast_count(q: int, d: int, alpha: int) -> int:
    """(q+1) * #roots of A t^d + t + 1 in F_q, A = alpha^{q+1}.

    Equals the rational intersection count of the monomial curve with H2.
    The roots are the t in F_q^* whose fiber image is A.
    """
    if not alpha:
        raise ConstructionError("alpha must be nonzero")
    if d < 2:
        raise ConstructionError("d must be >= 2")
    A = norm_to_subfield(ambient(q), alpha)
    return (q + 1) * int(np.count_nonzero(_subfield_fiber_images(q, d) == A))


@lru_cache(maxsize=None)
def _subfield_fiber_images(q: int, d: int) -> np.ndarray:
    """`fiber_images` of F_q^* inside F_{q^2}, read-only."""
    spec = ambient(q)
    units = np.array(subfield_elements(spec, q)[1:], dtype=np.int64)
    images = fiber_images(spec, d, units)
    images.flags.writeable = False
    return images


# ---------------------------------------------------------------------------
# sporadic cubics and quartics, against H2
# ---------------------------------------------------------------------------

_CUBIC_TABLE = {
    3: {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 2, 0): 1, (2, 0, 1): 1, (0, 1, 2): -1},
    4: {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 2, 0): 1, (2, 0, 1): 1, (0, 1, 2): 1,
        (1, 0, 2): 1},
    5: {(3, 0, 0): 1, (0, 0, 3): 1, (0, 2, 1): -1},
    7: {(3, 0, 0): 1, (1, 2, 0): 4, (0, 1, 2): 1},
}


def sporadic_cubic(q: int) -> TernaryForm:
    """The explicit cubic meeting H2 in 3(q+1) points, q in {3,4,5,7}."""
    if q not in _CUBIC_TABLE:
        raise ConstructionError(f"no sporadic cubic for q={q}")
    return TernaryForm(ambient(q), 3, _CUBIC_TABLE[q])


def _quartic_terms(q: int, w: int):
    spec = ambient(q)

    def wp(k):
        return spec.pow(w, k)

    if q == 5:
        return {(3, 1, 0): 1, (0, 2, 2): 2, (0, 0, 4): 1}
    if q == 9:
        # X^4 + Y^3Z - Y^2Z^2 - YZ^3; the variant with +YZ^3 only meets
        # 14 of the 40 target points
        return {(4, 0, 0): 1, (0, 3, 1): 1, (0, 2, 2): -1, (0, 1, 3): -1}
    if q == 11:
        return {(4, 0, 0): 1, (0, 4, 0): -1, (0, 0, 4): spec.neg(wp(16))}
    if q == 13:
        return {(3, 1, 0): 1, (0, 3, 1): 1, (1, 0, 3): 1}
    if q == 17:
        # X^4 + w^54 X^2Y^2 + w^165 YZ^3, absolutely irreducible by
        # Eisenstein at Y: every lower X-coefficient is divisible by Y
        # and the constant term exactly once
        return {(4, 0, 0): 1, (2, 2, 0): wp(54), (0, 1, 3): wp(165)}
    if q == 19:
        return {(4, 0, 0): 1, (0, 4, 0): spec.neg(wp(4)), (0, 0, 4): spec.neg(wp(24))}
    if q == 25:
        return {(2, 2, 0): 1, (2, 0, 2): 1, (0, 2, 2): 1}
    raise ConstructionError(f"no sporadic quartic for q={q}")


def sporadic_quartic(q: int):
    """(omega, quartic) with intersection count 4(q+1) against H2.

    Primitive elements of F_{q^2} are tried in encoding order; the first
    omega whose quartic hits the target is returned.
    """
    if q not in {5, 9, 11, 13, 17, 19, 25}:
        raise ConstructionError(f"no sporadic quartic for q={q}")
    spec = ambient(q)
    h2 = hermitian_model(q, "H2")
    target = 4 * (q + 1)
    seen = set()
    for w in primitive_elements(spec):
        form = TernaryForm(spec, 4, _quartic_terms(q, w))
        key = tuple(sorted(form.canonical().terms.items()))
        if key in seen:
            continue
        seen.add(key)
        if intersection(h2, form).count == target:
            return w, form
    raise ConstructionError(f"no primitive element reaches the target for q={q}")


# ---------------------------------------------------------------------------
# unified entry point for the CLI
# ---------------------------------------------------------------------------

FAMILIES = (
    "secant-fan",
    "full-point",
    "degree-q",
    "even-half",
    "odd-half",
    "monomial",
    "sporadic-cubic",
    "sporadic-quartic",
)


_ALPHA_FAMILIES = ("degree-q", "monomial")


def build(family: str, q: int, d: int | None = None, alpha=None):
    """Build (descriptor, form) for a named family with canonical parameters.

    `alpha`, when a family takes one, is anything `parse_element` reads:
    an encoding, a coefficient list, or text ("w^3", "[1,2]", ...).  An alpha
    for a family that takes none, or a `d` other than the degree of the
    built curve, is a ConstructionError naming the family.
    """
    if family not in FAMILIES:
        raise ConstructionError(f"unknown family {family!r}")
    if alpha is not None and family not in _ALPHA_FAMILIES:
        raise ConstructionError(f"{family} takes no alpha")
    desc, form = _build(family, q, d, alpha)
    if d is not None and d != desc.d:
        raise ConstructionError(f"{family} at q={q} has degree {desc.d}, not d={d}")
    return desc, form


def _build(family: str, q: int, d: int | None, alpha):
    from .serialize import parse_element

    if alpha is not None:
        alpha = parse_element(ambient(q), alpha)
    if family == "secant-fan":
        if d is None:
            raise ConstructionError("secant-fan needs d")
        return secant_fan_curve(q, d)
    if family == "full-point":
        form = full_point_curve(q)
        return ConstructionDescriptor("FullPoint", q, q * q - q + 1, {}, "H1"), form
    if family == "degree-q":
        a = alpha if alpha is not None else canonical_degree_q_alpha(q)
        form = degree_q_curve(q, a)
        return ConstructionDescriptor("DegreeQ", q, q, {"alpha": a}, "H1"), form
    if family == "even-half":
        return even_half_curve(q)
    if family == "odd-half":
        params = odd_half_params(q)
        if params is None:
            raise ConstructionError(f"no valid (alpha, beta, gamma) triple for q={q}")
        a, b, g = params
        form = odd_half_curve(q, a, b)
        desc = ConstructionDescriptor(
            "OddHalf", q, (q + 1) // 2, {"alpha": a, "beta": b, "gamma": g}, "H2"
        )
        return desc, form
    if family == "monomial":
        if d is None:
            raise ConstructionError("monomial needs d")
        if alpha is None:
            raise ConstructionError("monomial needs alpha")
        form = monomial_curve(q, d, alpha)
        return ConstructionDescriptor("Monomial", q, d, {"alpha": alpha}, "H2"), form
    if family == "sporadic-cubic":
        form = sporadic_cubic(q)
        return ConstructionDescriptor("SporadicCubic", q, 3, {}, "H2"), form
    w, form = sporadic_quartic(q)  # sporadic-quartic
    return ConstructionDescriptor("SporadicQuartic", q, 4, {"omega": w}, "H2"), form


def measure(family: str, q: int, d: int | None = None, alpha=None):
    """(descriptor, form, report): `build`, then the intersection of the
    form with the Hermitian model the descriptor names."""
    desc, form = build(family, q, d=d, alpha=alpha)
    return desc, form, intersection(hermitian_model(q, desc.model), form)
