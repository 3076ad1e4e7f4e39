"""Projective plane geometry over F_{q^2}.

Homogeneous ternary forms, Hermitian models, point enumeration,
intersection counts against a Hermitian model, singularity tests and a
factor certificate used as an absolute-irreducibility certifier.

Every evaluation of forms at points goes through one kernel,
`form_values`: sum of c * X^i Y^j Z^k over broadcastable numpy arrays of
coordinate encodings, each term one exp gather in the log domain
(`FieldSpec.monomial_v`).  The form scan of the negative search
(`_zero_hits`) builds its span tables with it: values are linear in the
coefficients, so each canonical form's values at the points are a sum
H[high digits] + L[low digits] of two precomputed rows, and the scan
counts zeros by comparing L with -H, with no field arithmetic per form.
Point counting enumerates P^2(F_{q^2}) as three charts, (x, y, 1) on a
Q x Q grid, (x, 1, 0) and (1, 0, 0); `point_coords` maps enumeration
indices back to coordinates and `point_index` coordinates to indices, so
point subsets (the Hermitian points, the points off a curve, the points
of a line) are evaluated or looked up without building `ProjPoint`s.

The Hermitian points are not found on the grid but by solving the chart
z = 1 (`hermitian_points`): neither model has a term with both X and Y,
so h(x, y, 1) = a(x) + b(y), two kernel calls over F_Q, and the zeros are
the pairs with b(y) = -a(x), read off a stable sort of b.  That is O(q^3)
work against the grid's O(q^4).  `intersection` measures a form against
a Hermitian model, its only first argument, by evaluating the form on
these q^3+1 points; `points_on` of a model, the `hermitian-points` count
and the negative search read the same set.  The full plane
(`evaluate_all`, `zero_mask`) serves every other form and is the
independent count the verification matrix checks the point set against;
it is refused beyond F_{64^2}.

The factor certificate has two parts.  A form whose three partials are
nonzero single terms, powers of X, Y and Z up to order (H1, H2, the
odd-half curves), vanish together only at 0, so the curve has no
singular point over the algebraic closure; a nonsingular plane curve is
absolutely irreducible, because two components would meet in a singular
point.  Every other form goes to the Q^2+Q+1 lines of the plane.  Lines
are the points of the dual plane: line i is aX + bY + cZ = 0 with
(a, b, c) = `point_coords` of i, so points and lines share one
enumeration, and `line_points` parametrizes a line as {A + tB : t in F_Q}
and B.  A restriction to a line factors the way the form does: if f = gh
then f|_L = g|_L h|_L.  So f has a linear factor only where it vanishes
on a whole line.  `vanishing_lines` finds these lines by incidence votes:
the line [a:b:c] passes through P exactly when (a, b, c) lies on the line
with coefficients P, so each zero of f votes for the Q+1 points of its
dual line, and a line vanishes where it has Q+1 votes; the work grows
with the zeros, not with the Q^3 incidences of the plane.  When d <= Q a
factor of degree k makes k a sum of degrees of irreducible factors of
every squarefree restriction f|_L (read off by `unipoly.factor_degrees`).
The degrees the lines cannot exclude are reported open: the certificate
then decides nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .field import FieldElem, FieldError, FieldSpec, ambient
from .unipoly import UniPoly, factor_degrees, is_squarefree

# largest field whose plane `evaluate_all` builds: F_{64^2}, 16.8 M points
_MAX_PLANE_ORDER = 4096

# restrictions interpolated per kernel call while walking the lines
_LINE_BATCH = 32
# usable lines in a row that remove no surviving degree before the walk
# stops; the matrix's certificates close after at most 14 such lines
_LINE_STALL = 256


def monomials(d: int) -> list[tuple[int, int, int]]:
    """Exponent triples (i, j, k) of degree d, X-major (descending lex)."""
    out = []
    for i in range(d, -1, -1):
        for j in range(d - i, -1, -1):
            out.append((i, j, d - i - j))
    return out


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

class TernaryForm:
    """A homogeneous form in X, Y, Z with coefficients in F_{q^2}.

    Coefficients are stored as raw encodings; forms compare equal
    projectively (up to a scalar).  Use ``same_terms`` for exact identity.
    """

    __slots__ = ("field", "degree", "terms")

    def __init__(self, field_spec: FieldSpec, degree: int, terms):
        clean: dict[tuple[int, int, int], int] = {}
        for (i, j, k), c in terms.items():
            if i < 0 or j < 0 or k < 0 or i + j + k != degree:
                raise ValueError(f"exponents {(i, j, k)} do not sum to degree {degree}")
            v = field_spec.from_int(c) if isinstance(c, (int, np.integer)) else field_spec.elem(c).val
            if v:
                clean[(i, j, k)] = v
        self.field = field_spec
        self.degree = degree
        self.terms = clean

    def is_zero(self):
        return not self.terms

    def scale(self, c) -> "TernaryForm":
        K = self.field
        cv = K.elem(c).val
        return TernaryForm(K, self.degree, {m: K.mul(cv, v) for m, v in self.terms.items()})

    def canonical(self) -> "TernaryForm":
        """Scalar-normalized: the least monomial present has coefficient 1."""
        if not self.terms:
            return self
        least = min(self.terms)
        return self.scale(self.field.inv(self.terms[least]))

    def same_terms(self, other: "TernaryForm") -> bool:
        return self.field is other.field and self.terms == other.terms

    def __eq__(self, other):
        if not isinstance(other, TernaryForm):
            return NotImplemented
        if self.field is not other.field or self.degree != other.degree:
            return False
        return self.canonical().terms == other.canonical().terms

    def __hash__(self):
        return hash((id(self.field), self.degree, tuple(sorted(self.canonical().terms.items()))))

    def __add__(self, other):
        if self.field is not other.field or self.degree != other.degree:
            raise FieldError("cannot add forms of different fields or degrees")
        K = self.field
        out = dict(self.terms)
        for m, v in other.terms.items():
            s = K.add(out.get(m, 0), v)
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return TernaryForm(K, self.degree, out)

    def __neg__(self):
        K = self.field
        return TernaryForm(K, self.degree, {m: K.neg(v) for m, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.field is not other.field:
            raise FieldError("mixed-field forms")
        K = self.field
        out: dict[tuple[int, int, int], int] = {}
        for (i1, j1, k1), a in self.terms.items():
            for (i2, j2, k2), b in other.terms.items():
                m = (i1 + i2, j1 + j2, k1 + k2)
                s = K.add(out.get(m, 0), K.mul(a, b))
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return TernaryForm(K, self.degree + other.degree, out)

    def __pow__(self, e: int):
        result = TernaryForm(self.field, 0, {(0, 0, 0): 1})
        for _ in range(e):
            result = result * self
        return result

    def __repr__(self):
        K = self.field
        parts = [
            f"{K.to_coeffs(v)}*X^{i}Y^{j}Z^{k}" for (i, j, k), v in sorted(self.terms.items(), reverse=True)
        ]
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

class ProjPoint:
    """A point of P^2(F_{q^2}), normalized so the leftmost nonzero coordinate is 1."""

    __slots__ = ("spec", "coords")

    def __init__(self, x: FieldElem, y: FieldElem, z: FieldElem):
        spec = x.spec
        if y.spec is not spec or z.spec is not spec:
            raise FieldError("mixed-field coordinates")
        vals = (x.val, y.val, z.val)
        if vals == (0, 0, 0):
            raise ValueError("(0:0:0) is not a projective point")
        first = next(v for v in vals if v)
        inv = spec.inv(first)
        self.spec = spec
        self.coords = tuple(FieldElem(spec, spec.mul(inv, v)) for v in vals)

    def __eq__(self, other):
        return (
            isinstance(other, ProjPoint)
            and self.spec is other.spec
            and tuple(c.val for c in self.coords) == tuple(c.val for c in other.coords)
        )

    def __hash__(self):
        return hash((id(self.spec), tuple(c.val for c in self.coords)))

    def key(self):
        return tuple(c.val for c in self.coords)

    def __repr__(self):
        x, y, z = self.coords
        return f"[{x.coeffs()}:{y.coeffs()}:{z.coeffs()}]"


def point_at_index(spec: FieldSpec, idx: int) -> ProjPoint:
    """The idx-th point of the canonical enumeration."""
    return _proj_points(spec, [idx])[0]


def _proj_points(spec: FieldSpec, idx) -> list[ProjPoint]:
    """The points of enumeration indices idx, built from `point_coords`."""
    coords = zip(*(v.tolist() for v in point_coords(spec.order, idx)))
    return [ProjPoint(*(FieldElem(spec, v) for v in xyz)) for xyz in coords]


def point_coords(Q: int, idx):
    """Coordinate arrays (X, Y, Z) of the idx-th points of the canonical
    enumeration over F_Q, as the chart representatives (x, y, 1), (x, 1, 0)
    and (1, 0, 0) that `evaluate_all` uses; a vectorized `point_at_index`."""
    idx = np.asarray(idx, dtype=np.int64)
    affine = idx < Q * Q
    line = ~affine & (idx < Q * Q + Q)
    X = np.where(affine, idx // Q, np.where(line, idx - Q * Q, 1))
    Y = np.where(affine, idx % Q, line.astype(np.int64))
    return X, Y, affine.astype(np.int64)


def point_index(spec: FieldSpec, X, Y, Z) -> np.ndarray:
    """Enumeration indices of the points (X : Y : Z), no triple all zero;
    the inverse of `point_coords`.  Each point is scaled by the inverse of
    its last nonzero coordinate onto its chart representative."""
    Q = spec.order
    last = np.where(Z != 0, Z, np.where(Y != 0, Y, X))
    inv = spec.pow_v(np.arange(Q), Q - 2)[last]
    x, y = spec.mul_v(X, inv), spec.mul_v(Y, inv)
    return np.where(Z != 0, x * Q + y, np.where(Y != 0, Q * Q + x, Q * Q + Q))


def form_values(spec: FieldSpec, coeffs, monos, X, Y, Z) -> np.ndarray:
    """Sum of c * X^i Y^j Z^k over zip(coeffs, monos), elementwise.

    X, Y, Z are broadcastable arrays (or scalars) of coordinate encodings.
    `coeffs` is a sequence of encodings or an (M, ...) array whose rows
    broadcast against the points, so a batch of forms (rows of
    coefficients) is one call with ``batch.T[:, :, None]``.  A form with
    no terms evaluates to 0.
    """
    points = (X, Y, Z)
    shape = np.broadcast_shapes(*map(np.shape, points), np.shape(coeffs)[1:])
    acc = np.zeros(shape, dtype=np.int64)
    # a scalar zero coordinate with a positive exponent zeroes the whole
    # term; skipping it saves a call on the charts (x, 1, 0), (1, 0, 0) and
    # on the axes of the Hermitian chart solve
    zero = [np.ndim(x) == 0 and x == 0 for x in points]
    for c, m in zip(coeffs, monos):
        if not any(z and e for z, e in zip(zero, m)):
            acc = spec.add_v(acc, spec.monomial_v(c, zip(points, m)))
    return acc


def evaluate_all(f: TernaryForm) -> np.ndarray:
    """Values of f at every point of P^2, in canonical enumeration order.

    Refused with a ValueError, before anything is allocated, over fields
    larger than F_4096 (q = 64): the Q x Q grid over F_{128^2} alone is
    2 GiB per array.
    """
    Q = f.field.order
    if Q > _MAX_PLANE_ORDER:
        q = isqrt(Q)
        name = f"F_{Q} (q = {q})" if q * q == Q else f"F_{Q}"
        raise ValueError(
            f"refusing to evaluate a form at all {Q * Q + Q + 1} points of the "
            f"plane over {name}: full-plane evaluation stops at F_{_MAX_PLANE_ORDER} (q = 64)"
        )
    xs = np.arange(Q, dtype=np.int64)
    monos, coeffs = tuple(f.terms), tuple(f.terms.values())
    charts = ((xs[:, None], xs[None, :], 1), (xs, 1, 0), (1, 0, 0))
    return np.concatenate(
        [form_values(f.field, coeffs, monos, *pt).reshape(-1) for pt in charts]
    )


def zero_mask(f: TernaryForm) -> np.ndarray:
    return evaluate_all(f) == 0


def _rational_points(f: TernaryForm) -> np.ndarray:
    """Enumeration indices of the rational points of f = 0, ascending.

    A Hermitian model reads its cached point set; any other form is
    evaluated on the whole plane.
    """
    variant = _hermitian_variant(f)
    if variant is not None:
        return hermitian_points(isqrt(f.field.order), variant)
    return np.flatnonzero(zero_mask(f))


def points_on(f: TernaryForm) -> list[ProjPoint]:
    """All F_{q^2}-rational points of the curve f = 0."""
    return _proj_points(f.field, _rational_points(f))


# ---------------------------------------------------------------------------
# Hermitian models
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _hermitian_cached(q: int, variant: str) -> TernaryForm:
    spec = ambient(q)
    if variant == "H1":
        terms = {(q + 1, 0, 0): 1, (0, q, 1): -1, (0, 1, q): -1}
    elif variant == "H2":
        terms = {(q + 1, 0, 0): 1, (0, q + 1, 0): 1, (0, 0, q + 1): 1}
    else:
        raise ValueError(f"unknown Hermitian model {variant!r}")
    return TernaryForm(spec, q + 1, terms)


def hermitian_model(q: int, variant: str = "H1") -> TernaryForm:
    """The degree q+1 Hermitian form; H1 is X^{q+1}-Y^qZ-YZ^q, H2 the Fermat model."""
    return _hermitian_cached(q, variant)


def _hermitian_variant(f: TernaryForm) -> str | None:
    """The name ("H1" or "H2") of the Hermitian model f is up to a scalar, or None."""
    Q = f.field.order
    q = isqrt(Q)
    if q * q != Q or f.degree != q + 1:
        return None
    return next((v for v in ("H1", "H2") if f == hermitian_model(q, v)), None)


@lru_cache(maxsize=None)
def hermitian_points(q: int, variant: str = "H1") -> np.ndarray:
    """Enumeration indices of the q^3+1 rational points of a Hermitian model.

    Ascending and read-only; the same set as ``np.flatnonzero(zero_mask(h))``
    in O(q^3) work instead of O(q^4), so it also serves q > 64.
    """
    h = hermitian_model(q, variant)
    spec, Q = h.field, h.field.order
    coeffs, monos = tuple(h.terms.values()), tuple(h.terms)
    t = np.arange(Q, dtype=np.int64)
    # no term has both X and Y, so h(x, y, 1) = a(x) + b(y) with
    # a(x) = h(x, 0, 1) and b(y) = h(0, y, 1) - h(0, 0, 1)
    a = form_values(spec, coeffs, monos, t, 0, 1)
    b = spec.add_v(form_values(spec, coeffs, monos, 0, t, 1), spec.neg_v(a[:1]))
    # group the y by b(y), ascending within a group; row x takes the
    # group of value -a(x), so x * Q + y comes out in enumeration order
    ys = np.argsort(b, kind="stable")
    size = np.bincount(b, minlength=Q)
    want = spec.neg_v(a)
    n = size[want]
    first = np.cumsum(size) - size
    pos = np.arange(n.sum()) + np.repeat(first[want] - (np.cumsum(n) - n), n)
    affine = np.repeat(t * Q, n) + ys[pos]
    rest = Q * Q + np.arange(Q + 1)  # (x, 1, 0) and (1, 0, 0)
    rest = rest[form_values(spec, coeffs, monos, *point_coords(Q, rest)) == 0]
    out = np.concatenate((affine, rest))
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# intersections
# ---------------------------------------------------------------------------

@dataclass
class IntersectionReport:
    q: int
    d: int
    count: int
    points: list | None = None
    degenerate: bool = False


def intersection(
    h: TernaryForm, f: TernaryForm, with_points: bool = False
) -> IntersectionReport:
    """Count the common F_{q^2}-rational points of a Hermitian model h and f.

    f is evaluated only at the q^3+1 points of h (`hermitian_points`);
    f = h up to a scalar is flagged as degenerate.  An h that is not a
    Hermitian model is a ValueError.
    """
    if h.field is not f.field:
        raise FieldError("forms over different fields")
    variant = _hermitian_variant(h)
    if variant is None:
        raise ValueError("the first form of an intersection must be a Hermitian model")
    spec = h.field
    q = isqrt(spec.order)
    idx = hermitian_points(q, variant)
    values = form_values(
        spec, tuple(f.terms.values()), tuple(f.terms), *point_coords(spec.order, idx)
    )
    idx = idx[values == 0]
    report = IntersectionReport(q, f.degree, len(idx), degenerate=(f == h))
    if with_points:
        report.points = _proj_points(spec, idx)
    return report


# ---------------------------------------------------------------------------
# derivatives and singular points
# ---------------------------------------------------------------------------

def partials(f: TernaryForm) -> tuple[TernaryForm, TernaryForm, TernaryForm]:
    """Formal partial derivatives (f_X, f_Y, f_Z) in characteristic p."""
    K = f.field
    out = []
    for axis in range(3):
        terms: dict[tuple[int, int, int], int] = {}
        for (i, j, k), c in f.terms.items():
            e = (i, j, k)[axis]
            v = K.mul(e % K.p, c)
            if v:
                m = list((i, j, k))
                m[axis] -= 1
                terms[tuple(m)] = v
        out.append(TernaryForm(K, max(f.degree - 1, 0), terms))
    return tuple(out)


def has_smooth_rational_point(f: TernaryForm) -> bool:
    """True iff some F_{q^2}-rational point of f is nonsingular."""
    on_curve = zero_mask(f)
    fx, fy, fz = partials(f)
    smooth = on_curve & (
        (evaluate_all(fx) != 0) | (evaluate_all(fy) != 0) | (evaluate_all(fz) != 0)
    )
    return bool(smooth.any())


# ---------------------------------------------------------------------------
# divisibility and the factor certificate
# ---------------------------------------------------------------------------

def divides(g: TernaryForm, f: TernaryForm) -> bool:
    """Exact divisibility of homogeneous forms by leading-term reduction."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero form")
    K = f.field
    glead = max(g.terms)
    glead_inv = K.inv(g.terms[glead])
    r = dict(f.terms)
    while r:
        lead = max(r)
        if any(lead[a] < glead[a] for a in range(3)):
            return False
        shift = tuple(lead[a] - glead[a] for a in range(3))
        factor = K.mul(r[lead], glead_inv)
        for m, v in g.terms.items():
            mm = (m[0] + shift[0], m[1] + shift[1], m[2] + shift[2])
            s = K.sub(r.get(mm, 0), K.mul(factor, v))
            if s:
                r[mm] = s
            else:
                r.pop(mm, None)
    return True


@dataclass
class ReducibilityResult:
    """The outcome of `reducibility_search`: "factor" with a linear factor,
    "irreducible" when the lines exclude every degree 1 .. d/2, or "open"
    with the factor degrees they leave open, which decides nothing."""

    status: str  # "irreducible" | "factor" | "open"
    factor: TernaryForm | None = None
    scanned: int = 0  # candidate factors tested: every line of the plane
    open: tuple[int, ...] = ()  # factor degrees no line restriction excludes


@dataclass
class IrreducibilityStatus:
    status: str  # "absolutely-irreducible" | "reducible" | "undetermined"
    factor: TernaryForm | None = None
    reason: str = ""


# ---------------------------------------------------------------------------
# lines
# ---------------------------------------------------------------------------

def line_count(Q: int) -> int:
    """The number of lines of P^2(F_Q)."""
    return Q * Q + Q + 1


def line_points(spec: FieldSpec, a, b, c):
    """Coordinate arrays (X, Y, Z) of shape (..., Q+1): the points of the
    lines aX + bY + cZ = 0, for coefficients (a, b, c) given as the chart
    representatives of `point_coords`.

    Column 0 is B, column 1 + t is A + tB for t in encoding order, with
    the frame A, B = (1, 0, -a), (0, 1, -b) when c = 1; (1, -a, 0),
    (0, 0, 1) for (a, 1, 0); and (0, 1, 0), (0, 0, 1) for X = 0.
    """
    affine, last = c != 0, (b == 0) & (c == 0)
    na = spec.neg_v(a)
    A = (
        (~last).astype(np.int64),
        np.where(affine, 0, np.where(last, 1, na)),
        np.where(affine, na, 0),
    )
    B = (np.zeros_like(a), affine.astype(np.int64), np.where(affine, spec.neg_v(b), 1))
    t = np.arange(spec.order, dtype=np.int64)
    return tuple(
        np.concatenate((v[..., None], spec.add_v(u[..., None], spec.mul_v(t, v[..., None]))), axis=-1)
        for u, v in zip(A, B)
    )


def line_form(spec: FieldSpec, i: int) -> TernaryForm:
    """The linear form of line i: its coefficients are `point_coords` of i."""
    coeffs = (int(v) for v in point_coords(spec.order, i))
    return TernaryForm(spec, 1, dict(zip(monomials(1), coeffs)))


def vanishing_lines(spec: FieldSpec, monos, batch) -> np.ndarray:
    """(len(batch), Q^2+Q+1) mask: form r vanishes at every point of line l.

    `batch` holds coefficient rows over `monos`.  Each form is evaluated
    once at every point of the plane.  The line [a:b:c] passes through P
    exactly when (a, b, c) lies on the line with coefficients P, so the
    lines through a zero are the points of its dual line (`point_index`
    of `line_points`), listed once per distinct zero of the batch: at most
    (Q^2+Q+1) x (Q+1) indices, what gathering every line costs.  Each
    (form, zero) pair votes for its Q+1 lines, one line of each zero at a
    time, and a line vanishes where it has Q+1 votes.  So the votes of
    one step and the counts have at most as many entries as the
    (len(batch), Q^2+Q+1) zero mask.
    """
    batch = np.asarray(batch, dtype=np.int64)
    Q = spec.order
    n = line_count(Q)  # the plane has as many points as lines
    zero = form_values(spec, batch.T[:, :, None], monos, *point_coords(Q, np.arange(n))) == 0
    forms, points = np.nonzero(zero)
    zeros, which = np.unique(points, return_inverse=True)
    lines = point_index(spec, *line_points(spec, *point_coords(Q, zeros)))
    row = forms * n  # start of each (form, zero) pair's form row in the flat counts
    counts = np.zeros(zero.size, dtype=np.int64)
    for column in lines.T:
        np.add.at(counts, row + column[which], 1)
    return counts.reshape(zero.shape) == Q + 1


def _restrictions(f: TernaryForm, idx) -> np.ndarray:
    """Coefficients (little endian in t) of f(A + tB) on lines idx; d <= Q.

    Row i is c_0 .. c_d with c_d = f(B).  P(t) = f(A + tB) - c_d t^d has
    degree <= d - 1 <= Q - 1, so it is interpolated from its values on F_Q:
    c_0 = P(0) and c_j = -sum_t P(t) t^(Q-1-j) for 1 <= j <= Q - 1, as
    sum_t t^e over F_Q is -1 when Q - 1 divides e > 0 and 0 otherwise.
    """
    spec, d = f.field, f.degree
    Q = spec.order
    coords = line_points(spec, *point_coords(Q, idx))
    values = form_values(spec, tuple(f.terms.values()), tuple(f.terms), *coords)
    t = np.arange(Q, dtype=np.int64)
    lead = values[:, 0]
    P = spec.add_v(values[:, 1:], spec.neg_v(spec.mul_v(lead[:, None], spec.pow_v(t, d))))
    W = np.stack([spec.pow_v(t, Q - 1 - j) for j in range(1, d)], axis=1)
    acc = np.zeros((len(values), d - 1), dtype=np.int64)
    for x in range(Q):
        acc = spec.add_v(acc, spec.mul_v(P[:, x, None], W[x]))
    return np.concatenate((P[:, :1], spec.neg_v(acc), lead[:, None]), axis=1)


def _line_surviving_degrees(f: TernaryForm, levels) -> list[int]:
    """The factor degrees in `levels` that no line restriction excludes; d <= Q.

    A line is used when f|_L is squarefree: g(t) = f(A + tB) squarefree of
    degree d, or of degree d - 1, where B is a simple root and adds one
    linear factor.  Lines are walked in golden-ratio order (line i at the
    fractional part of 0.618... * i), which spreads the lines of each
    batch over the enumeration, until no degree survives or _LINE_STALL
    used lines in a row removed none; the degrees still open are
    returned, so stopping early never certifies anything.
    """
    spec, d = f.field, f.degree
    survivors = set(levels)
    stall = 0
    order = np.argsort(np.arange(line_count(spec.order)) * 0.6180339887498949 % 1, kind="stable")
    for lo in range(0, len(order), _LINE_BATCH):
        if not survivors or stall >= _LINE_STALL:
            break
        for row in _restrictions(f, order[lo : lo + _LINE_BATCH]):
            g = UniPoly(spec, row.tolist())
            if g.degree < d - 1 or not is_squarefree(g):
                continue
            degrees = factor_degrees(g)
            if g.degree < d:
                degrees.append(1)
            sums = 1  # bit k set: k is a sum of some of the degrees
            for e in degrees:
                sums |= sums << e
            kept = {k for k in survivors if sums >> k & 1}
            stall = stall + 1 if kept == survivors else 0
            survivors = kept
            if not survivors or stall >= _LINE_STALL:
                break
    return sorted(survivors)


def _coeff_rows(Q: int, M: int, lead: int, s) -> np.ndarray:
    """Coefficient rows of the canonical forms (lead, s): a 1 at `lead`,
    then the free coefficients as the base-Q digits of s, most significant
    first.

    The digit of a place value Q^k above every index is 0, so only the
    places up to max(s) are decoded; their values fit in int64 with s.
    """
    s = np.asarray(s, dtype=np.int64)
    rows = np.zeros((len(s), M), dtype=np.int64)
    rows[:, lead] = 1
    top = int(s.max(initial=0))
    places = np.array([Q**k for k in range(M - 1 - lead) if Q**k <= top], dtype=np.int64)
    rows[:, M - len(places) :] = s[:, None] // places[::-1] % Q
    return rows


def _zero_hits(spec: FieldSpec, monos, X, Y, Z, chunk: int = 1 << 15):
    """Zero counts of every canonical form over `monos` at the points
    (X, Y, Z), leading index ascending, then the free coefficients as a
    base-Q integer s.

    Yields (lead, offset, hits): hits[i] counts the points where the form
    (lead, offset + i) of `_coeff_rows` vanishes.  Values are linear in
    the coefficients, so with the free digits of s split into high and
    low ones, values(s) = H[high] + L[low]: H sums the rows c * X^i Y^j Z^k
    of the leading 1 and the high digits, L those of the low digits, and
    the form vanishes where L[low] = -H[high].  Each (form, point) is then
    one comparison; L has at most `chunk` rows, and H is built in chunks
    so no comparison exceeds `chunk` forms.
    """
    Q, M = spec.order, len(monos)
    c = np.arange(Q, dtype=np.int64)[:, None]
    # table[m][c]: c times monomial m at every point
    table = [form_values(spec, (c,), (m,), X, Y, Z) for m in monos]
    dtype = np.min_scalar_type(Q - 1)
    for lead in range(M):
        free = M - 1 - lead
        low = 0
        while low < free // 2 and Q ** (low + 1) <= chunk:
            low += 1
        L = np.zeros((1, table[0].shape[1]), dtype=np.int64)
        for m in range(M - low, M):
            L = spec.add_v(L[:, None], table[m][None]).reshape(-1, L.shape[1])
        L = L.astype(dtype)
        high_rows, step = Q ** (free - low), max(1, chunk // len(L))
        for h0 in range(0, high_rows, step):
            # the high digits are canonical rows over the first M - low monomials
            h = _coeff_rows(Q, M - low, lead, np.arange(h0, min(h0 + step, high_rows)))
            H = table[lead][h[:, lead]]
            for m in range(lead + 1, M - low):
                H = spec.add_v(H, table[m][h[:, m]])
            neg = spec.neg_v(H).astype(dtype)
            yield lead, h0 * len(L), np.count_nonzero(L == neg[:, None], axis=2).reshape(-1)


def reducibility_search(f: TernaryForm) -> ReducibilityResult:
    """Certify that f has no factor of degree 1 .. d/2, or return a linear one.

    Linear factors are the lines on which f vanishes: for d <= Q such a
    line divides f, for d > Q each is confirmed with `divides`.  For
    d <= Q, line restrictions exclude factor degrees 2 .. d/2; the degrees
    they leave open, all of 2 .. d/2 when d > Q, are reported as "open".
    A line has no proper factor: it is irreducible, though it vanishes on
    a whole line.
    """
    if f.degree < 1:
        raise ValueError("factor search needs degree >= 1")
    spec, d = f.field, f.degree
    Q = spec.order
    if d == 1:
        return ReducibilityResult("irreducible")
    row = [tuple(f.terms.values())]
    scanned = line_count(Q)
    for i in np.nonzero(vanishing_lines(spec, tuple(f.terms), row)[0])[0]:
        g = line_form(spec, int(i))
        if d <= Q or divides(g, f):
            return ReducibilityResult("factor", g, scanned)
    levels = range(2, d // 2 + 1)
    if d <= Q:
        levels = _line_surviving_degrees(f, levels)
    if levels:
        return ReducibilityResult("open", None, scanned, tuple(levels))
    return ReducibilityResult("irreducible", None, scanned)


def _partials_vanish_only_at_zero(f: TernaryForm) -> bool:
    """True when the partials of f are nonzero single terms c * v^(d-1),
    one for each variable v up to order: they vanish together only at 0."""
    grad, e = partials(f), f.degree - 1
    pure = {(e, 0, 0), (0, e, 0), (0, 0, e)}
    return all(len(g.terms) == 1 for g in grad) and {m for g in grad for m in g.terms} == pure


def absolute_irreducibility_status(f: TernaryForm) -> IrreducibilityStatus:
    """Certify absolute irreducibility.

    Partials that vanish together only at 0 (`_partials_vanish_only_at_zero`)
    leave f no singular point over the algebraic closure, and a nonsingular
    plane curve is absolutely irreducible: two components would meet in a
    singular point.  Otherwise, irreducible over F_{q^2} plus one
    nonsingular rational point certifies absolute irreducibility: a
    geometrically reducible but rationally irreducible form has all its
    rational points on >= 2 conjugate components, hence singular.
    """
    if _partials_vanish_only_at_zero(f):
        return IrreducibilityStatus("absolutely-irreducible")
    res = reducibility_search(f)
    if res.status == "factor":
        return IrreducibilityStatus("reducible", res.factor)
    if res.status == "open":
        label = "degree" if len(res.open) == 1 else "degrees"
        degrees = ", ".join(map(str, res.open))
        return IrreducibilityStatus("undetermined", reason=f"lines left {label} {degrees} open")
    if has_smooth_rational_point(f):
        return IrreducibilityStatus("absolutely-irreducible")
    return IrreducibilityStatus("undetermined", reason="no smooth rational point found")
