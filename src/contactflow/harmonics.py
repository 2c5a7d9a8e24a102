"""Spectral engine on the Hopf base sphere.

Reeb-invariant functions on S^3 descend to the quotient 2-sphere; this
module carries them as real spherical-harmonic coefficients and supplies
the forward/inverse transforms, tangential derivatives, and the diagonal
operators Delta, D = 1 + Delta, D^-1, Delta^-1.

Basis: Y_l0 = Pbar_l0 / sqrt(2 pi), Y_lm^cos = Pbar_lm cos(m lam)/sqrt(pi),
Y_lm^sin = Pbar_lm sin(m lam)/sqrt(pi), with Pbar normalized so that
int_{-1}^{1} Pbar_lm^2 dx = 1; the basis is orthonormal in L^2(S^2).
Coefficients are stored densely as coeffs[l, L + m], sin components at
negative m.

The M-Laplacian eigenvalue on degree-l pullbacks is
alpha_l = LAPLACE_SCALE * l(l+1) with LAPLACE_SCALE = 2, a constant of the
calibrated metric.  laplace_scale() re-measures it on every call against
the frame-derivative oracle of the geometry module; a test holds the two
equal, and `contactflow calibrate` reports the measured value.

Every transform is two matmuls.  The Legendre step is one kernel pair:
_forward maps coefficients to the per-order sums (a_m, b_m) of the
cos(m lam) and sin(m lam) parts at each colatitude node, and _adjoint is
its transpose.  The plan keeps P, dP and Q in one order-major array
[m, l, tag, j].  A tag picks a table and a kind of longitude row: the
function and d/dtheta take P and dP against the normalized basis rows,
(1/sin) d/dlambda takes Q against their exact lam-derivatives
m (-sin, cos).  A tuple of tags takes one coefficient pack and one
Legendre product against its stacked tables and gives a tag axis
(..., ntag, nlat, nlon), which the adjoint sums over.  The tables vanish
at l < m, so the sum over l is one batched product over all orders, the
order outermost, so that each order's block serves the whole batch while
cached.  The longitude step is a product with the cached rows of the
grid's nlon, m <= L, for any nlon, odd or prime: synthesis sums them
weighted by (a_m, b_m), as a point plan does, and analysis multiplies the
values by their transpose.  Leading axes are batch axes, each slice
bit-for-bit its own call with the same tags; a tag's slice of a tuple
call matches its one-tag call to round-off only, as the matmul's shape
differs.

One table plan holds x = cos theta and the Legendre tables at x, grown to
the largest degree asked and sliced below it; a build loops over degree
and updates all orders at once, O(L) Python steps, writing the three
tables in place in the stacked array.  A grid is a view of a
shared Gauss-Legendre plan, one per nlat in a fixed-size cache, which adds
the nodes' weights and theta, and of a longitude plan, one per nlon, which
holds lam and the rows, grown and sliced like the tables; a fresh grid per
bracket builds neither.  A point plan prepares scattered points, adding
rows that grow with its tables, then evaluates any number of (function,
tag or tuple) pairs on them: a one-shot point set builds its plan per
call, a plan kept for fixed nodes builds its tables once.
All plan arrays are read-only.

quad_inner_M is the scalar pairing int_M u v dmu by quadrature: the
product of two syntheses on SphereGrid.for_integration(deg u + deg v,
max degree), exact for the degree of the product, without Parseval.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import geometry

SQRT_PI = np.sqrt(np.pi)
SQRT_2PI = np.sqrt(2.0 * np.pi)
SQRT_4PI = np.sqrt(4.0 * np.pi)


def legendre_tables(x, L):
    """Normalized associated Legendre tables at abscissas x = cos(theta).

    Returns (P, dP, Q) with shape (L+1, L+1, len(x)):
    P[l, m] = Pbar_lm(x); dP[l, m] = d/dtheta Pbar_lm(cos theta);
    Q[l, m] = Pbar_lm / sin(theta) for m >= 1 (identically zero at m = 0).
    All three use division-free recurrences, so the tables are finite at
    the poles.  They are views of one order-major array [m, l, tag, j],
    tag 0, 1, 2 for P, dP, Q, their common base: the layout the transform
    kernel multiplies by, written in place with no second copy.

    The diagonal m = l is a loop over orders; the sub-diagonal m = l - 1
    is one vectorized step, and the three-term recurrence in l is a loop
    over degrees that updates all orders m <= l - 2 at once.  Every element
    gets the same floating-point operations as an (l, m) loop would give
    it, in O(L) Python steps.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.shape[0]
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    stack = np.zeros((L + 1, L + 1, 3, n))
    P, dP, Q = (stack[:, :, tag].transpose(1, 0, 2) for tag in range(3))

    P[0, 0] = 1.0 / np.sqrt(2.0)
    for m in range(1, L + 1):
        cmm = np.sqrt((2.0 * m + 1.0) / (2.0 * m))
        P[m, m] = cmm * s * P[m - 1, m - 1]
        dP[m, m] = cmm * (x * P[m - 1, m - 1] + s * dP[m - 1, m - 1])
        if m == 1:
            Q[1, 1] = np.sqrt(3.0) / 2.0
        else:
            Q[m, m] = cmm * s * Q[m - 1, m - 1]
    m = np.arange(L)
    c = np.sqrt(2.0 * m + 3.0)[:, None]
    P[m + 1, m] = c * x * P[m, m]
    dP[m + 1, m] = c * (-s * P[m, m] + x * dP[m, m])
    Q[m + 1, m] = c * x * Q[m, m]
    for l in range(2, L + 1):
        m = np.arange(l - 1)
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))[:, None]
        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))[:, None]
        P[l, : l - 1] = a * (x * P[l - 1, : l - 1] - b * P[l - 2, : l - 1])
        dP[l, : l - 1] = a * (-s * P[l - 1, : l - 1] + x * dP[l - 1, : l - 1]
                              - b * dP[l - 2, : l - 1])
        Q[l, : l - 1] = a * (x * Q[l - 1, : l - 1] - b * Q[l - 2, : l - 1])
    return P, dP, Q


def _triangle(L):
    """Mask of the (l, m) slots of coeffs[l, L + m]; row-major, in basis order."""
    return np.abs(np.arange(-L, L + 1)) <= np.arange(L + 1)[:, None]


def _frozen(a):
    a.setflags(write=False)
    return a


class _TablePlan:
    """x = cos(theta) and the Legendre tables at x, the package's one caller
    of legendre_tables.  The tables grow to the largest L asked and are
    sliced for smaller L, bit-for-bit a fresh build's, since P[l, m] depends
    only on lower degrees.  Every array is read-only: plans are shared."""

    def __init__(self, x):
        self.x = _frozen(x)
        self._built = (-1, {})    # (degree, arrays), replaced as one value

    def _build(self, L):
        return {"stack": _frozen(legendre_tables(self.x, L)[0].base)}   # [m, l, tag, j]

    def arrays(self, L):
        """The unsliced arrays, built at a degree >= L."""
        built, data = self._built
        if L > built:
            data = self._build(L)
            self._built = (L, data)
        return data

    def tables(self, L):
        stack = self.arrays(L)["stack"][: L + 1, : L + 1]
        return {k: stack[:, :, t].transpose(1, 0, 2) for t, k in enumerate(("P", "dP", "Q"))}

    def stack(self, L, tables):
        """[m, l, (tag, j)]: the tables at indices `tables` (a slice is a
        view, a list a copy), orders and degrees <= L."""
        stack = self.arrays(L)["stack"][: L + 1, : L + 1, tables]
        return stack.reshape(L + 1, L + 1, -1)


class _GaussPlan(_TablePlan):
    """The table plan of one nlat's Gauss-Legendre nodes, with weights and theta."""

    def __init__(self, nlat):
        x, w = np.polynomial.legendre.leggauss(nlat)
        super().__init__(x)
        self.w, self.theta = _frozen(w), _frozen(np.arccos(x))


@functools.lru_cache(maxsize=32)
def _plan(nlat):
    return _GaussPlan(nlat)


def _longitudes(nlon):
    """The nlon equiangular longitudes 2 pi k / nlon of every grid."""
    return 2.0 * np.pi * np.arange(nlon) / nlon


def _rows(cos, sin):
    """Longitude rows [(m, cos/sin), kind, point] from cos(m lam), sin(m lam)
    [m, point]: kind 0 is the normalized basis row, cos or sin over sqrt(2 pi)
    at m = 0 and over sqrt(pi) above, and kind 1 its lam-derivative,
    m (-sin, cos) over the same norm.  Read-only."""
    m = np.arange(cos.shape[0])[:, None]
    rows = np.stack([cos, -m * sin, sin, m * cos], axis=1)
    rows /= np.where(m == 0, SQRT_2PI, SQRT_PI)[:, :, None]
    return _frozen(rows.reshape(2 * cos.shape[0], 2, cos.shape[1]))


class _LonPlan:
    """One nlon's longitudes and their rows (see _rows), the longitude step
    of every grid transform.  The rows grow to the largest L asked and are
    sliced below it; read-only.

    m lam_k is the longitude lam_(mk mod nlon), so every row entry comes from
    the cos or sin of one of the nlon longitudes, reduced exactly in integers
    rather than from a rounded product m * lam_k."""

    def __init__(self, nlon):
        self.lam = _frozen(_longitudes(nlon))
        self._cos_sin = _frozen(np.stack([np.cos(self.lam), np.sin(self.lam)]))
        self._built = (-1, None)    # (degree, rows), replaced as one value

    def rows(self, L):
        """(2(L+1), 2, nlon): [2m + cos/sin, kind, k], orders m <= L."""
        built, rows = self._built
        if L > built:
            nlon = self.lam.size
            cos, sin = self._cos_sin[:, np.arange(L + 1)[:, None] * np.arange(nlon) % nlon]
            rows = _rows(cos, sin)
            self._built = (L, rows)
        return rows[: 2 * (L + 1)]


@functools.lru_cache(maxsize=32)
def _lon_plan(nlon):
    return _LonPlan(nlon)


class SphereGrid:
    """Gauss-Legendre (colatitude) x equiangular (longitude) grid.

    for_degree(L) builds a grid on which analysis of band-L functions is
    quadrature-exact and synthesis of any degree <= L is alias-free; this
    exceeds the 3/2-rule resolution for quadratic products at the same L.
    x, w, theta and the tables are the read-only arrays of the nlat plan,
    lam and the longitude rows those of the nlon plan.
    """

    def __init__(self, nlat, nlon):
        self.nlat = geometry._positive_count(nlat, "SphereGrid needs nlat")
        self.nlon = geometry._positive_count(nlon, "SphereGrid needs nlon", least=2)
        self._plan = _plan(self.nlat)
        self._lon = _lon_plan(self.nlon)
        self.x, self.w, self.theta = self._plan.x, self._plan.w, self._plan.theta
        self.lam = self._lon.lam

    @classmethod
    def for_degree(cls, L):
        return cls.for_integration(2 * L, L)

    @classmethod
    def for_integration(cls, deg_integrand, deg_synth):
        """Grid integrating degree-deg_integrand spherical polynomials exactly
        while staying alias-free for synthesis up to deg_synth."""
        nlat = deg_integrand // 2 + 1
        nlon = max(deg_integrand + 1, 2 * deg_synth + 2)
        nlon += nlon % 2
        return cls(nlat, nlon)

    def tables(self, L):
        """{"P", "dP", "Q"}: legendre_tables at the nodes, read-only."""
        return self._plan.tables(L)

    def integrate(self, values):
        """Integral over the unit sphere (dOmega)."""
        return float(self.w @ np.sum(values, axis=1)) * (2.0 * np.pi / self.nlon)


@dataclass(frozen=True)
class GridFunction:
    """Point values on a SphereGrid (the pseudo-spectral workspace)."""
    grid: SphereGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.nlat, self.grid.nlon):
            raise ValueError("values shape does not match the grid")
        object.__setattr__(self, "values", v)


# ---------------------------------------------------------------------------
# Laplace spectrum

LAPLACE_SCALE = 2.0


def laplace_scale():
    """Measured eigenvalue scale alpha_l / (l (l+1)); equals LAPLACE_SCALE.

    An oracle, not a cache: every call measures the frame-derivative
    Laplacian on a degree-1 pullback and snaps it to the nearest integer.
    """
    measured = geometry.measure_laplace_eigenvalue_degree1() / 2.0
    snapped = round(measured)
    if abs(measured - snapped) > 1e-6:
        raise RuntimeError(
            "measured Laplace scale %r is not near an integer" % measured)
    return float(snapped)


def eigenvalue(l):
    """alpha_l = LAPLACE_SCALE * l (l+1); l may be an array of degrees."""
    if np.any(np.asarray(l) < 0):
        raise ValueError("eigenvalue needs degrees l >= 0, got %r" % (l,))
    return LAPLACE_SCALE * l * (l + 1.0)


@functools.lru_cache(maxsize=32)
def _alpha_column_of(L):
    """eigenvalue of the degrees 0..L as a read-only column, shared per L."""
    return _frozen(eigenvalue(np.arange(L + 1))[:, None])


# ---------------------------------------------------------------------------

class SpectralFunction:
    """A Reeb-invariant function on S^3 in base spherical-harmonic form.

    coeffs[l, L + m]: cos components at m >= 0, sin components at m < 0.
    The constructor copies its input and every operation returns a new
    object, so no two functions share coefficient storage.
    """

    def __init__(self, coeffs):
        coeffs = np.array(coeffs, dtype=float)
        if coeffs.ndim != 2 or coeffs.shape[1] != 2 * coeffs.shape[0] - 1:
            raise ValueError("coefficient array must have shape (L+1, 2L+1)")
        self.coeffs = coeffs
        self.L = coeffs.shape[0] - 1

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, L):
        return cls(np.zeros((L + 1, 2 * L + 1)))

    @classmethod
    def constant(cls, c):
        f = cls.zeros(0)
        f.coeffs[0, 0] = float(c) * SQRT_4PI
        return f

    @classmethod
    def mode(cls, l, m, value=1.0, L=None):
        """A single basis coefficient (l, m); sin branch for m < 0."""
        if L is None:
            L = l
        if not (0 <= l <= L and -l <= m <= l):
            raise ValueError("mode indices out of range")
        f = cls.zeros(L)
        f.coeffs[l, L + m] = value
        return f

    @classmethod
    def random(cls, L, rng, lmin=0, scale=1.0):
        """Gaussian coefficients over lmin <= l <= L (triangular support)."""
        c = np.zeros((L + 1, 2 * L + 1))
        for l in range(lmin, L + 1):
            c[l, L - l:L + l + 1] = rng.normal(size=2 * l + 1)
        return cls(scale * c)

    @classmethod
    def from_triples(cls, triples, L=None):
        """Build from (l, m, value) triples; each (l, m) at most once."""
        triples = list(triples)
        if L is None:
            L = max((int(l) for l, _, _ in triples), default=0)
        f = cls.zeros(L)
        seen = set()
        for l, m, v in triples:
            l, m = int(l), int(m)
            if not (0 <= l <= L and -l <= m <= l):
                raise ValueError("triple (%d, %d) out of range" % (l, m))
            if (l, m) in seen:
                raise ValueError("triple (%d, %d) given twice" % (l, m))
            seen.add((l, m))
            v = float(v)
            if not np.isfinite(v):
                raise ValueError("triple (%d, %d) value %r is not finite"
                                 % (l, m, v))
            f.coeffs[l, L + m] = v
        return f

    def to_triples(self, drop_tol=0.0):
        l, col = np.nonzero(_triangle(self.L))
        return [(int(a), int(b) - self.L, float(v))
                for a, b, v in zip(l, col, self.coeffs[l, col]) if abs(v) > drop_tol]

    # -- structure ----------------------------------------------------------

    def padded(self, L):
        if L < self.L:
            raise ValueError("cannot pad to a smaller band limit")
        if L == self.L:
            return SpectralFunction(self.coeffs)
        c = np.zeros((L + 1, 2 * L + 1))
        c[: self.L + 1, L - self.L: L + self.L + 1] = self.coeffs
        return SpectralFunction(c)

    def truncated(self, L):
        if L >= self.L:
            return self.padded(L)
        return SpectralFunction(self.coeffs[: L + 1, self.L - L: self.L + L + 1])

    def degree_slice(self, l):
        return self.coeffs[l, self.L - l: self.L + l + 1]

    # -- algebra -------------------------------------------------------------

    def __add__(self, other):
        L = max(self.L, other.L)
        return SpectralFunction(self.padded(L).coeffs + other.padded(L).coeffs)

    def __sub__(self, other):
        L = max(self.L, other.L)
        return SpectralFunction(self.padded(L).coeffs - other.padded(L).coeffs)

    def __mul__(self, c):
        return SpectralFunction(self.coeffs * float(c))

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralFunction(-self.coeffs)

    # -- diagonal operators ---------------------------------------------------

    def _alpha_column(self):
        return _alpha_column_of(self.L)

    def laplacian(self):
        return SpectralFunction(self.coeffs * self._alpha_column())

    def helmholtz(self):
        """D f = (1 + Delta) f."""
        return SpectralFunction(self.coeffs * (1.0 + self._alpha_column()))

    def inverse_helmholtz(self):
        """D^-1 f."""
        return SpectralFunction(self.coeffs / (1.0 + self._alpha_column()))

    def inverse_laplacian(self):
        """Delta^-1 f; defined only on mean-zero input."""
        if not self.mean_zero():
            raise ValueError("inverse_laplacian requires a mean-zero function")
        inv = np.zeros((self.L + 1, 1))
        alpha = self._alpha_column()
        inv[1:] = 1.0 / alpha[1:]
        c = self.coeffs * inv
        c[0, self.L] = 0.0
        return SpectralFunction(c)

    # -- means and norms -------------------------------------------------------

    def mean_M(self):
        """Mean over S^3 with respect to dmu."""
        return float(self.coeffs[0, self.L]) / SQRT_4PI

    def mean_zero(self, tol=1e-12):
        return abs(self.coeffs[0, self.L]) <= tol * max(1.0, self.norm_base())

    def mean_free(self):
        """The projection onto mean-zero functions (degree 0 dropped)."""
        c = self.coeffs.copy()
        c[0, self.L] = 0.0
        return SpectralFunction(c)

    def norm_base(self):
        return float(np.linalg.norm(self.coeffs))

    def norm_M(self):
        """L^2(M) norm: the fibre factor converts base Parseval to M."""
        return np.sqrt(geometry.FIBER_FACTOR) * self.norm_base()

    # -- evaluation -------------------------------------------------------------

    def to_grid(self, grid, deriv=None):
        return GridFunction(grid, synthesize(self, grid, deriv=deriv))

    def evaluate_base(self, theta, lam, deriv=None):
        """Scattered evaluation at colatitude/longitude arrays."""
        return _PointPlan(theta, lam).evaluate([(self, deriv)])[0]

    def pullback(self, q):
        """Values of the Reeb-invariant extension at S^3 points (..., 4)."""
        theta, lam = geometry.hopf_angles(q)
        return self.evaluate_base(theta, lam)


# ---------------------------------------------------------------------------
# transforms

# derivative tag -> (its table in the plan stack, its kind of longitude row):
# the function and d/dtheta multiply P and dP by the basis rows, (1/sin)
# d/dlambda multiplies Q by their lam-derivatives
_DERIVS = {None: (0, 0), "dtheta": (1, 0), "dlambda_over_sin": (2, 1)}
TANGENTIAL = ("dtheta", "dlambda_over_sin")    # the pair every frame derivative needs


def _index(idx):
    """A slice for ascending consecutive indices (a view), else the list (a copy)."""
    span = range(idx[0], idx[0] + len(idx))
    return slice(span.start, span.stop) if list(idx) == list(span) else list(idx)


def _tags(deriv):
    """(table index, row index, ntag, single) of a tag or a non-empty tuple of tags."""
    try:
        return _tags_of(deriv)
    except (KeyError, TypeError, ValueError):     # unknown, unhashable, empty
        raise ValueError("unknown derivative tag %r" % (deriv,)) from None


@functools.lru_cache(maxsize=16)
def _tags_of(deriv):
    single = not isinstance(deriv, tuple)
    tables, rows = zip(*(_DERIVS[tag] for tag in ((deriv,) if single else deriv)))
    return _index(tables), _index(rows), len(tables), single


def _move(a, src, dst):
    """np.moveaxis of one axis, as one transpose: the kernel's hot path."""
    axes = list(range(a.ndim))
    axes.insert(dst % a.ndim, axes.pop(src))
    return a.transpose(axes)


def _by_order(stack, nbatch):
    """stack[m, l, n] with nbatch broadcast axes after m: the order is the
    outermost loop of a kernel matmul, so one order's block of the tables
    serves the whole batch while it is in cache."""
    return stack.reshape(stack.shape[:1] + (1,) * nbatch + stack.shape[1:])


def _forward(coeffs, stack):
    """ab[m, cos/sin, ..., (tag, j)] = sum_l (c_lm^cos, c_lm^sin) stack[m, l, (tag, j)]."""
    L, batch = coeffs.shape[-2] - 1, coeffs.shape[:-2]
    cs = np.zeros((L + 1, 2) + batch + (L + 1,))               # [m, cos/sin, ..., l]
    cs[:, 0] = _move(coeffs[..., L:], -1, 0)
    cs[1:, 1] = _move(coeffs[..., :L][..., ::-1], -1, 0)
    ab = np.empty((L + 1, 2) + batch + stack.shape[-1:])
    np.matmul(_move(cs, 1, -2), _by_order(stack, len(batch)), out=_move(ab, 1, -2))
    return ab


def _adjoint(ab, stack):
    """Transpose of _forward: coefficients from ab[m, ..., (tag, j), cos/sin]."""
    L = stack.shape[0] - 1
    cs = np.matmul(_by_order(stack, ab.ndim - 3), ab)          # [m, ..., l, cos/sin]
    coeffs = np.empty(cs.shape[1:-2] + (L + 1, 2 * L + 1))
    coeffs[..., L:] = _move(cs[..., 0], 0, -1)
    coeffs[..., :L] = _move(cs[1:, ..., 1][::-1], 0, -1)
    return coeffs


class _PointPlan(_TablePlan):
    """The table plan of scattered points (theta, lam), with the longitude
    rows (see _rows), which grow with the tables.  The rows take m lam in
    two parts: lam_hi keeps lam to 26 fractional bits, so m lam_hi is exact,
    and the small m lam_lo enters by angle addition; no rounded product
    m * lam reaches cos or sin, and a row does not depend on the degree
    the plan was grown to."""

    def __init__(self, theta, lam):
        theta, lam = np.broadcast_arrays(np.asarray(theta, float), np.asarray(lam, float))
        self.shape = theta.shape
        super().__init__(np.cos(theta.ravel()))
        self.lam = _frozen(lam.ravel())

    def _build(self, L):
        data = super()._build(L)
        m = np.arange(L + 1)[:, None]
        hi = np.round(self.lam * 2.0 ** 26) / 2.0 ** 26    # m hi exact: m < 2^24, |lam| < 8
        a, b = m * hi, m * (self.lam - hi)
        ca, sa, cb, sb = np.cos(a), np.sin(a), np.cos(b), np.sin(b)
        data["rows"] = _rows(ca * cb - sa * sb, sa * cb + ca * sb)
        return data

    def evaluate(self, pairs):
        """Values of (function, tag) pairs at the points, shaped like theta;
        a tuple of tags adds a leading tag axis, one Legendre product for all."""
        lon = self.arrays(max(f.L for f, _ in pairs))["rows"]
        out = []
        for f, deriv in pairs:
            tables, rows, ntag, single = _tags(deriv)
            n = f.L + 1
            ab = _forward(f.coeffs, self.stack(f.L, tables)).reshape(2 * n, ntag, -1)
            v = np.sum(ab * lon[: 2 * n, rows], axis=0)
            out.append(v.reshape(self.shape if single else (ntag,) + self.shape))
        return out


def _analysis(values, grid, L, deriv):
    """Quadrature pairing of grids (..., nlat, nlon) with deriv(Y_lm), l <= L,
    summed over the tag axis (..., ntag, nlat, nlon) of a tuple of tags."""
    if grid.nlon < 2 * L + 2:
        raise ValueError("grid too coarse in longitude to analyze degree %d" % L)
    tables, rows, ntag, single = _tags(deriv)
    values = np.asarray(values, dtype=float)
    if single:
        values = values[..., None, :, :]
    elif values.ndim < 3 or values.shape[-3] != ntag:
        raise ValueError("values need a tag axis of length %d before (nlat, nlon)" % ntag)
    weights = grid.w * (2.0 * np.pi / grid.nlon)
    lon = grid._lon.rows(L)[:, rows].transpose(1, 2, 0)        # [tag, k, (m, a/b)]
    ab = np.matmul(values, lon)                                # [..., tag, j, (m, a/b)]
    ab *= weights[:, None]
    ab = _move(ab.reshape(ab.shape[:-3] + (-1, L + 1, 2)), -2, 0)
    return _adjoint(ab, grid._plan.stack(L, tables))           # ab: [m, ..., (tag, j), a/b]


def synthesize(f, grid, deriv=None):
    """Values of f (or a tangential derivative) on a SphereGrid.

    f is a SpectralFunction or a stack of coefficient arrays (..., L+1, 2L+1),
    giving values (..., nlat, nlon).  deriv: None for f itself, "dtheta" for
    d/dtheta, "dlambda_over_sin" for (1/sin theta) d/dlambda; the latter two
    are the ingredients of every frame derivative on the base.  A tuple of
    tags gives values (..., ntag, nlat, nlon) from one Legendre product.
    """
    coeffs = f.coeffs if isinstance(f, SpectralFunction) else np.asarray(f, dtype=float)
    if coeffs.ndim < 2 or coeffs.shape[-1] != 2 * coeffs.shape[-2] - 1:
        raise ValueError("coefficient arrays must have shape (..., L+1, 2L+1)")
    L = coeffs.shape[-2] - 1
    if grid.nlon < 2 * L + 2:
        raise ValueError("grid too coarse in longitude for degree %d" % L)
    tables, rows, ntag, single = _tags(deriv)
    ab = _forward(coeffs, grid._plan.stack(L, tables))         # [m, a/b, ..., (tag, j)]
    ab = ab.reshape((2 * (L + 1),) + coeffs.shape[:-2] + (ntag, grid.nlat))
    lon = grid._lon.rows(L)[:, rows].swapaxes(0, 1)            # [tag, (m, a/b), k]
    values = np.matmul(_move(ab, 0, -1), lon)                  # [..., tag, j, k]
    return values[..., 0, :, :] if single else values


def analyze(g, L=None):
    """Project a GridFunction onto the basis up to degree L.

    Exact (to round-off) whenever the underlying function is band-limited
    within the grid's analysis degree.
    """
    grid = g.grid
    if L is None:
        L = grid.nlat - 1
    if grid.nlat < L + 1:
        raise ValueError("grid too coarse in latitude to analyze degree %d" % L)
    return SpectralFunction(_analysis(g.values, grid, L, None))


def adjoint_analyze(values, grid, L, deriv):
    """Coefficient functionals c[l,m] = <values, deriv(Y_lm)>_{S^2}.

    values (..., nlat, nlon) gives coefficients (..., L+1, 2L+1).  deriv is
    "dtheta" or "dlambda_over_sin" (None gives analyze's coefficients); this
    is the quadrature adjoint of the corresponding synthesis, the workhorse
    of integration by parts on the base (no pole terms: the test functions
    carry the sin factors).  A tuple of tags takes values (..., ntag, nlat,
    nlon) and sums the tags' functionals, the adjoint of synthesize with
    the same tuple.
    """
    return _analysis(values, grid, L, deriv)


def product(f, h):
    """Exact pointwise product: band limit grows to f.L + h.L."""
    D = f.L + h.L
    grid = SphereGrid.for_degree(D)
    vals = synthesize(f, grid) * synthesize(h, grid)
    return analyze(GridFunction(grid, vals), D)


def inner_M(f, h):
    """int_M f h dmu = fibre factor times the base Parseval pairing."""
    L = max(f.L, h.L)
    pairing = np.sum(f.padded(L).coeffs * h.padded(L).coeffs)
    return geometry.FIBER_FACTOR * float(pairing)


def quad_inner_M(u, v):
    """int_M u v dmu by grid quadrature (independent of Parseval)."""
    return _quad_inners([(u, v)])[0]


def _quad_inners(pairs):
    """quad_inner_M of each (u, v) pair, bit-for-bit, each on its own grid:
    a grid synthesizes each distinct operand (by identity) once, in one
    stacked call per degree."""
    keys = [(u.L + v.L, max(u.L, v.L)) for u, v in pairs]
    grids = {key: SphereGrid.for_integration(*key) for key in dict.fromkeys(keys)}
    stacks = {}
    for key, pair in zip(keys, pairs):
        for w in pair:
            stacks.setdefault((key, w.L), {})[key, id(w)] = w.coeffs
    vals = {}
    for (key, _), ops in stacks.items():
        vals.update(zip(ops, synthesize(np.stack(list(ops.values())), grids[key])))
    return [geometry.FIBER_FACTOR * grids[key].integrate(vals[key, id(u)] * vals[key, id(v)])
            for key, (u, v) in zip(keys, pairs)]
