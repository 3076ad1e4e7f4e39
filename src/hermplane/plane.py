"""Projective plane geometry over F_{q^2}.

Homogeneous ternary forms, Hermitian models, point enumeration,
intersection counts against a Hermitian model, singularity tests and a
factor certificate used as an absolute-irreducibility certifier.

Every evaluation of forms at points goes through one kernel,
`form_values`: sum of c * X^i Y^j Z^k over broadcastable numpy arrays of
coordinate encodings, each term one exp gather in the log domain
(`FieldSpec.monomial_v`).  A point is its index in the enumeration of
P^2(F_{q^2}) as three charts, (x, y, 1) on a Q x Q grid, (x, 1, 0) and
(1, 0, 0); `point_coords` maps indices back to these coordinates and
`point_index` coordinates to indices.  Every point set (the Hermitian
points, an intersection, the points of a line) is an index array; only
the CLI prints points (`serialize.format_points`).

The Hermitian points are not found on the grid but read off one cached
fiber table per model (`_Fibers`): h(x, y, 1) = a(x) + b(y), so they are
the products a^-1(w) x b^-1(-w) of norm and trace fibers, stacked as rows,
O(q^2) entries for q^3 points.  `_hermitian_blocks` evaluates forms on
runs of rows of about _CHUNK = 2^16 points, so the kernel's int64
temporaries stay near L2 size whatever q is, then on the points at
infinity: two kernel calls for a small form.  A batch of forms
(coefficient rows over one monomial list) is evaluated in the same walk,
all rows per run, with runs shortened so that a run's values stay near
_CHUNK entries.  Its two readers take a Hermitian model as their only
first argument: `intersection` measures one form, and
`intersection_counts` counts the zeros of each row of a batch, which is
how the verification matrix checks the monomial fast count for every
alpha of a (q, d) at once and the negative search re-measures its
witnesses.  `hermitian_point_count` sums the fiber products;
`hermitian_points` lists the points from the same table for
`hermitian-points --emit-points` and the negative search, and
`hermitian_secants` the lines through q+1 of them, for the search's line
test.

Lines are the points of the dual plane: line i is aX + bY + cZ = 0 with
(a, b, c) = `point_coords` of i, so points and lines share one
enumeration, and `line_points` parametrizes a line as {A + tB : t in F_Q}
and B.  The line [a:b:c] passes through P exactly when (a, b, c) lies on
the line with coefficients P, so `lines_through` finds the lines through
k of a set of points by letting each point vote for the Q+1 points of its
dual line.

The factor certificate serves achievers: curves of degree d that meet a
Hermitian model H_q in d(q+1) rational points, as its intersection report
shows.  A form whose three partials are nonzero single terms, powers of
X, Y and Z up to order (H1, H2, the odd-half curves), vanish together
only at 0, so the curve has no singular point over the algebraic
closure; a nonsingular plane curve is absolutely irreducible, because
two components would meet in a singular point.  Every other achiever
goes to the lines.  By Bezout a line factor of an achiever is a secant
of H_q whose q+1 points are all common points (`lines_through` on the
report's points), and `line_factors` decides which of these divide it.
A restriction to a line factors the way the form does: if f = gh then
f|_L = g|_L h|_L, so a factor of degree k makes k a sum of degrees of
irreducible factors of every squarefree restriction f|_L (read off by
`unipoly.factor_degrees`).  The degrees the lines cannot exclude are
reported open: the certificate then decides nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import NamedTuple

import numpy as np

from .field import FieldError, FieldSpec, ambient
from .unipoly import UniPoly, factor_degrees, is_squarefree

# points per block when a form is evaluated on a point set: a block's int64
# arrays are 0.5 MiB, and the few a term holds fit a 4 MiB L2 cache.  Of
# 2^12 .. 2^17, 2^15 and 2^16 evaluated the q = 64 Hermitian points
# fastest
_CHUNK = 1 << 16

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
            v = field_spec.from_int(c)
            if v:
                clean[(i, j, k)] = v
        self.field = field_spec
        self.degree = degree
        self.terms = clean

    def is_zero(self):
        return not self.terms

    def scale(self, c) -> "TernaryForm":
        K = self.field
        cv = K.from_int(c)
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
        if self.terms.keys() != other.terms.keys():
            return False
        if not self.terms:
            return True
        # on one support, f = c g (c != 0) iff f_m g_n = g_m f_n for a fixed n
        K, n = self.field, next(iter(self.terms))
        fn, gn = self.terms[n], other.terms[n]
        return all(K.mul(v, gn) == K.mul(other.terms[m], fn) for m, v in self.terms.items())

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

def point_coords(Q: int, idx):
    """Coordinate arrays (X, Y, Z) of the idx-th points of the canonical
    enumeration over F_Q, as the chart representatives (x, y, 1), (x, 1, 0)
    and (1, 0, 0)."""
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
            spec.add_v(acc, spec.monomial_v(c, zip(points, m)), out=acc)
    return acc


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
    models = ((v, hermitian_model(q, v)) for v in ("H1", "H2"))
    return next((v for v, h in models if f is h or f == h), None)


class _Fibers(NamedTuple):
    """The rational points of a Hermitian model as stacked fiber products.

    Neither model has a term with both X and Y, so h(x, y, 1) = a(x) + b(y)
    and the affine points are the products of the fibers a^-1(w) and
    b^-1(-w), one row r for each w whose two fibers are nonempty: the
    points (X[r, i], Y[r, j], 1) with i < nx[r] and j < ny[r], each fiber
    ascending.  A fiber shorter than its row (only {0}) repeats its last
    point, and `valid` masks the repeats out of a run of rows.  The points
    at infinity are (x, 1, 0) for x in `infinity`, ascending.
    """

    X: np.ndarray
    Y: np.ndarray
    nx: np.ndarray
    ny: np.ndarray
    infinity: np.ndarray

    def valid(self, rows: slice) -> np.ndarray:
        """(rows, m1, m2) mask of the entries of a run of rows that are no repeats."""
        i = np.arange(self.X.shape[1]) < self.nx[rows, None]
        j = np.arange(self.Y.shape[1]) < self.ny[rows, None]
        return i[:, :, None] & j[:, None, :]


def _fiber_rows(values: np.ndarray, size: np.ndarray, w: np.ndarray):
    """(rows, lengths): row r lists the t with values[t] = w[r], ascending
    (a stable sort of `values`), its last one repeated to the longest row;
    `size` is the bincount of `values`."""
    first = np.cumsum(size) - size
    n = size[w]
    pad = np.minimum(np.arange(n.max()), n[:, None] - 1)
    return np.argsort(values, kind="stable")[first[w, None] + pad], n


@lru_cache(maxsize=None)
def _hermitian_fibers(q: int, variant: str) -> _Fibers:
    h = hermitian_model(q, variant)
    spec, Q = h.field, h.field.order
    coeffs, monos = tuple(h.terms.values()), tuple(h.terms)
    t = np.arange(Q, dtype=np.int64)
    # a(x) = h(x, 0, 1) and b(y) = h(0, y, 1) - h(0, 0, 1)
    a = form_values(spec, coeffs, monos, t, 0, 1)
    b = spec.add_v(form_values(spec, coeffs, monos, 0, t, 1), spec.neg_v(a[:1]))
    size_a, size_b = np.bincount(a, minlength=Q), np.bincount(b, minlength=Q)
    w = np.flatnonzero(size_a * size_b[spec.neg_v(t)])
    X, nx = _fiber_rows(a, size_a, w)
    Y, ny = _fiber_rows(b, size_b, spec.neg_v(w))
    # (1, 0, 0) lies on neither model: both have the term X^(q+1)
    infinity = t[form_values(spec, coeffs, monos, t, 1, 0) == 0]
    return _Fibers(X, Y, nx, ny, infinity)


def _fibers_of(h: TernaryForm) -> _Fibers:
    """The fiber table of a Hermitian model h; any other h is a ValueError."""
    variant = _hermitian_variant(h)
    if variant is None:
        raise ValueError("the first form of an intersection must be a Hermitian model")
    return _hermitian_fibers(isqrt(h.field.order), variant)


def hermitian_point_count(q: int, variant: str = "H1") -> int:
    """The number of rational points of a Hermitian model, read off its
    fiber table without listing them."""
    fib = _hermitian_fibers(q, variant)
    return int(fib.nx @ fib.ny) + len(fib.infinity)


@lru_cache(maxsize=None)
def hermitian_points(q: int, variant: str = "H1") -> np.ndarray:
    """Enumeration indices of the q^3+1 rational points of a Hermitian model.

    Ascending and read-only; O(q^3) work, where a scan of the plane is
    O(q^4).
    """
    fib = _hermitian_fibers(q, variant)
    Q = q * q
    # each x lies in one fiber row; x-major, its y come out ascending
    row = np.full(Q, -1)
    row[fib.X] = np.arange(len(fib.X))[:, None]
    x = np.flatnonzero(row >= 0)
    r = row[x]
    keep = np.arange(fib.Y.shape[1]) < fib.ny[r, None]
    out = np.concatenate(((x[:, None] * Q + fib.Y[r])[keep], Q * Q + fib.infinity))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def hermitian_secants(q: int, variant: str = "H1") -> tuple[np.ndarray, np.ndarray]:
    """(lines, on): the line indices of the secants of a Hermitian model,
    ascending, and on[s] the positions in `hermitian_points` of the q+1
    points of secant s, ascending; both read-only.

    A line meets the model in 1 or q+1 rational points, so the secants
    are the lines through q+1 of them (`lines_through`).
    """
    lines, on = lines_through(ambient(q), hermitian_points(q, variant), q + 1)
    lines.flags.writeable = on.flags.writeable = False
    return lines, on


# ---------------------------------------------------------------------------
# intersections
# ---------------------------------------------------------------------------

@dataclass
class IntersectionReport:
    """The common points of a Hermitian model and a curve of degree d over
    F_{q^2}: `points` holds their enumeration indices, ascending, and
    `degenerate` flags a curve that is the model up to a scalar."""

    q: int
    d: int
    count: int
    points: np.ndarray
    degenerate: bool = False


def _hermitian_blocks(fib: _Fibers, spec: FieldSpec, coeffs, monos, size: int):
    """(rows, values) for the points of a fiber table: first runs of rows,
    `rows` a slice of them and values[..., r, i, j] the value at
    (X[r, i], Y[r, j], 1), as many rows as keep a run within `size`
    entries (at least one); then rows None and values[..., i] the value
    at (infinity[i], 1, 0).  The log gathers of a term read rows x
    (m1 + m2) entries, not rows x m1 x m2.  `coeffs` is as for
    `form_values`, with rows that broadcast against a (rows, m1, m2) run.
    """
    X, Y = fib.X, fib.Y
    step = max(1, size // (X.shape[1] * Y.shape[1]))
    for r in range(0, len(X), step):
        rows = slice(r, r + step)
        yield rows, form_values(spec, coeffs, monos, X[rows, :, None], Y[rows, None, :], 1)
    yield None, form_values(spec, coeffs, monos, fib.infinity, 1, 0)


def intersection(h: TernaryForm, f: TernaryForm) -> IntersectionReport:
    """Count the common F_{q^2}-rational points of a Hermitian model h and f.

    f is evaluated only at the q^3+1 points of h, a run of fiber rows of
    about _CHUNK points at a time; f = h up to a scalar is flagged as
    degenerate.  An h that is not a Hermitian model is a ValueError.
    """
    if h.field is not f.field:
        raise FieldError("forms over different fields")
    fib, Q = _fibers_of(h), h.field.order
    coeffs, monos = tuple(f.terms.values()), tuple(f.terms)
    affine = []
    for rows, values in _hermitian_blocks(fib, h.field, coeffs, monos, _CHUNK):
        if rows is None:
            rest = Q * Q + fib.infinity[values == 0]
        else:
            r, i, j = np.nonzero((values == 0) & fib.valid(rows))
            r += rows.start
            affine.append(fib.X[r, i] * Q + fib.Y[r, j])
    idx = np.concatenate((np.sort(np.concatenate(affine)), rest))
    return IntersectionReport(isqrt(Q), f.degree, len(idx), idx, f == h)


def intersection_counts(h: TernaryForm, monos, batch) -> np.ndarray:
    """For each coefficient row of `batch` over `monos`, the number of points
    of the Hermitian model h where that form vanishes.

    All rows are evaluated in one kernel call per run of fiber rows, and a
    run has about _CHUNK // len(batch) points (at least one fiber row), so
    its values stay near _CHUNK entries.  Row r counts as
    ``intersection(h, f_r).count``.
    """
    fib = _fibers_of(h)
    batch = np.asarray(batch, dtype=np.int64).reshape(len(batch), len(monos))
    counts = np.zeros(len(batch), dtype=np.int64)
    if not len(batch):
        return counts
    size = max(1, _CHUNK // len(batch))
    coeffs = batch.T[:, :, None, None, None]
    for rows, values in _hermitian_blocks(fib, h.field, coeffs, monos, size):
        zero = values == 0
        if rows is not None:
            zero &= fib.valid(rows)
        counts += np.count_nonzero(zero, axis=(1, 2, 3))
    return counts


# ---------------------------------------------------------------------------
# derivatives
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
    """The outcome of `reducibility_search`: "factor" with the index of a
    line that divides the form, "irreducible" when the lines exclude every
    degree 1 .. d/2, or "open" with the factor degrees they leave open,
    which decides nothing."""

    status: str  # "irreducible" | "factor" | "open"
    line: int | None = None
    scanned: int = 0  # candidate line factors tested
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


def lines_through(spec: FieldSpec, points, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(lines, on): the lines through exactly k of the points `points`
    (enumeration indices), ascending, and on[s] the positions in `points`
    of the k points of line s, ascending.

    The lines through a point P are the points of its dual line, the line
    with coefficients P (`point_index` of `line_points`): each point votes
    for its Q+1 lines, and the lines with k votes are kept.
    """
    through = point_index(spec, *line_points(spec, *point_coords(spec.order, points)))
    lines, votes = np.unique(through, return_counts=True)
    lines = lines[votes == k]
    point, col = np.nonzero(np.isin(through, lines))
    on = point[np.argsort(through[point, col], kind="stable")].reshape(-1, k)
    return lines, on


def secants_divide(d: int, Q: int) -> bool:
    """Whether every line holding q+1 zeros of a degree-d form over F_Q,
    Q = q^2, divides it: so it does when d <= q, as f|_L then has more
    zeros than its degree and vanishes."""
    return d <= isqrt(Q)


def line_factors(f: TernaryForm, lines) -> np.ndarray:
    """The lines among `lines` that divide f, where each of `lines` holds
    q+1 zeros of f, Q = q^2 and f has degree d < Q.

    When d <= q, every one of them does (`secants_divide`).  Otherwise L
    divides f exactly when f vanishes at its Q+1 points, as Q + 1 > d: one
    `form_values` call on `line_points`.
    """
    spec, lines = f.field, np.asarray(lines, dtype=np.int64)
    Q = spec.order
    if secants_divide(f.degree, Q) or not len(lines):
        return lines
    coords = line_points(spec, *point_coords(Q, lines))
    return lines[~form_values(spec, tuple(f.terms.values()), tuple(f.terms), *coords).any(axis=-1)]


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


@lru_cache(maxsize=None)
def _line_order(Q: int) -> np.ndarray:
    """The lines of P^2(F_Q) in golden-ratio order, line i at the
    fractional part of 0.618... * i; read-only."""
    order = np.argsort(np.arange(line_count(Q)) * 0.6180339887498949 % 1, kind="stable")
    order.flags.writeable = False
    return order


def _line_surviving_degrees(f: TernaryForm, levels) -> list[int]:
    """The factor degrees in `levels` that no line restriction excludes; d <= Q.

    A line is used when f|_L is squarefree: g(t) = f(A + tB) squarefree of
    degree d, or of degree d - 1, where B is a simple root and adds one
    linear factor.  Lines are walked in golden-ratio order (`_line_order`,
    cached per Q), which spreads the lines of each batch over the
    enumeration, until no degree survives or _LINE_STALL
    used lines in a row removed none; the degrees still open are
    returned, so stopping early never certifies anything.
    """
    spec, d = f.field, f.degree
    survivors = set(levels)
    if not survivors:
        return []
    stall = 0
    order = _line_order(spec.order)
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


def reducibility_search(f: TernaryForm, lines) -> ReducibilityResult:
    """Certify that f has no factor of degree 1 .. d/2, or return a linear one.

    `lines` are the candidate line factors: each holds q+1 zeros of f,
    every line factor of f is among them, and d < Q = q^2; for an achiever
    they are the secants whose q+1 Hermitian points are all zeros of it
    (see `absolute_irreducibility_status`).  `line_factors` decides which
    divide f, and line restrictions exclude the factor degrees 2 .. d/2;
    the degrees they leave open are reported as "open".  A line has no
    proper factor: it is irreducible, though it holds its own points.
    """
    if f.degree < 1:
        raise ValueError("factor search needs degree >= 1")
    d = f.degree
    if d == 1:
        return ReducibilityResult("irreducible")
    factors = line_factors(f, lines)
    if len(factors):
        return ReducibilityResult("factor", int(factors[0]), len(lines))
    levels = _line_surviving_degrees(f, range(2, d // 2 + 1))
    if levels:
        return ReducibilityResult("open", None, len(lines), tuple(levels))
    return ReducibilityResult("irreducible", None, len(lines))


def _partials_vanish_only_at_zero(f: TernaryForm) -> bool:
    """True when the partials of f are nonzero single terms c * v^(d-1),
    one for each variable v up to order: they vanish together only at 0."""
    grad, e = partials(f), f.degree - 1
    pure = {(e, 0, 0), (0, e, 0), (0, 0, e)}
    return all(len(g.terms) == 1 for g in grad) and {m for g in grad for m in g.terms} == pure


def absolute_irreducibility_status(f: TernaryForm, report: IntersectionReport) -> IrreducibilityStatus:
    """Certify that an achiever f is absolutely irreducible.

    `report` is the intersection of f with a Hermitian model H_q, and f
    must be an achiever: report.count = d(q+1) for d = deg f, else a
    ValueError.  Then d(q+1) <= q^3 + 1, so d <= q^2 - q + 1 < Q.

    Partials that vanish together only at 0 (`_partials_vanish_only_at_zero`)
    leave f no singular point over the algebraic closure, and a nonsingular
    plane curve is absolutely irreducible: two components would meet in a
    singular point.  This certifies f = H_q (an achiever at q = 2).

    Otherwise the lines decide (`reducibility_search`), by Bezout.  If
    f = L g and g shares no component with H_q, g meets H_q in at most
    (d-1)(q+1) points, so L holds q+1 of the d(q+1) common points: a line
    factor is a secant through q+1 points of the report (`lines_through`).
    If h divides f and f is not h, all q^3 + 1 points are common, so
    d = q^2 - q + 1 with q >= 3, and f has factors of degrees q+1 and
    q^2 - 2q, one of them in 2 .. d/2, which the lines never exclude: such
    an f is never certified.  An f that the lines leave irreducible over
    F_{q^2} shares no component with H_q, so its d(q+1) common points use
    up Bezout's bound: each has intersection multiplicity 1 and is a
    smooth point of f.  A form that is irreducible over F_{q^2} but not
    absolutely has all its rational points on >= 2 conjugate components,
    hence singular: so f is absolutely irreducible.
    """
    d, q = f.degree, report.q
    if report.d != d or report.count != d * (q + 1) or q * q != f.field.order:
        raise ValueError(
            f"not an achiever: a report of degree {report.d} with {report.count} points "
            f"on H_{q} for a degree-{d} curve over F_{f.field.order}"
        )
    if _partials_vanish_only_at_zero(f):
        return IrreducibilityStatus("absolutely-irreducible")
    res = reducibility_search(f, lines_through(f.field, report.points, q + 1)[0])
    if res.status == "factor":
        return IrreducibilityStatus("reducible", line_form(f.field, res.line))
    if res.status == "open":
        label = "degree" if len(res.open) == 1 else "degrees"
        degrees = ", ".join(map(str, res.open))
        return IrreducibilityStatus("undetermined", reason=f"lines left {label} {degrees} open")
    return IrreducibilityStatus("absolutely-irreducible")
