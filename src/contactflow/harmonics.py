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
equal, and `contactflow calibrate` reports the measured value.  One cached
record per L holds the (l, m) slot mask and alpha_l, 1 + alpha_l, 1/alpha_l.

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

Every cached plan is a pure function of its key, built once at exactly
its degree and read-only, so a rebuilt plan is bit-identical: _gauss(nlat)
holds the nodes x = cos theta, weights and theta, _gauss_tables(nlat, L)
the stacked Legendre tables at them, _lon_plan(nlon) lam and the rows of
every order the nlon resolves, and _views(nlat, nlon, L, tags) what a
grid transform reads (stack, rows, weights), so a call is its matmuls and
their packing.  The table and view caches hold 256 keys each, above the
69 and 82 that the planes of a degree-cutoff-5 curvature table visit in a
cycle, so a fresh grid per bracket finds its plans warm.  legendre_tables
loops over degree and updates all orders at once, O(L) Python steps, from
coefficient columns cached per L, the P and Q diagonals as running
products.  A point plan builds the tables and rows of scattered points
once, at the largest degree its caller names, then evaluates coefficient
stacks of any degree up to it with synthesize's tags and shapes.

quad_inner_M is the scalar pairing int_M u v dmu by quadrature: the
product of two syntheses on SphereGrid.for_integration(deg u + deg v,
max degree), exact for the degree of the product, without Parseval.
Every stacked call of the package batches its items in one order, _groups'.
"""

from __future__ import annotations

import collections
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import geometry

SQRT_PI = np.sqrt(np.pi)
SQRT_2PI = np.sqrt(2.0 * np.pi)
SQRT_4PI = np.sqrt(4.0 * np.pi)


def legendre_tables(x, L):
    """Normalized associated Legendre tables at abscissas x = cos(theta).

    Returns the order-major array [m, l, tag, j] of shape
    (L+1, L+1, 3, len(x)), the layout the transform kernel multiplies by,
    with tag 0, 1, 2 for P, dP, Q:
    P[l, m] = Pbar_lm(x); dP[l, m] = d/dtheta Pbar_lm(cos theta);
    Q[l, m] = Pbar_lm / sin(theta) for m >= 1 (identically zero at m = 0).
    All three use division-free recurrences, so the tables are finite at
    the poles; the recurrences write them in place, P and Q together.

    The P and Q diagonals m = l are running products of the factors cmm s
    (a product commutes), dP's a loop over orders; the sub-diagonal is one
    vectorized step, and the three-term recurrence in l a loop over degrees
    that updates all orders m <= l - 2 at once.  Every element gets the
    same floating-point operations as an (l, m) loop, in O(L) Python steps.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    cmm, c, ab = _recurrence_columns(L)
    stack = np.zeros((L + 1, L + 1, 3, x.shape[0]))
    T = stack.transpose(1, 0, 2, 3)                 # [l, m, tag, j]
    PQ, dP = T[:, :, ::2], T[:, :, 1:2]             # [l, m, (P, Q), j], [l, m, 1, j]
    PQ[0, 0, 0] = 1.0 / np.sqrt(2.0)
    f = np.repeat(cmm * s, 2, axis=1)               # [m - 1, (P, Q), j]: cmm s
    f[:1, 0] *= PQ[0, 0, 0]
    f[:1, 1] = np.sqrt(3.0) / 2.0
    PQ[range(1, L + 1), range(1, L + 1)] = np.multiply.accumulate(f)
    for m in range(1, L + 1):
        dP[m, m] = cmm[m - 1] * (x * PQ[m - 1, m - 1, :1] + s * dP[m - 1, m - 1])
    m = np.arange(L)
    PQ[m + 1, m] = c * x * PQ[m, m]
    dP[m + 1, m] = c * (-s * PQ[m, m, :1] + x * dP[m, m])
    for l, (a, b) in enumerate(ab, 2):
        PQ[l, : l - 1] = a * (x * PQ[l - 1, : l - 1] - b * PQ[l - 2, : l - 1])
        dP[l, : l - 1] = a * (-s * PQ[l - 1, : l - 1, :1] + x * dP[l - 1, : l - 1]
                              - b * dP[l - 2, : l - 1])
    return stack


@functools.lru_cache(maxsize=32)
def _recurrence_columns(L):
    """legendre_tables' coefficients at degree L, read-only columns [k, 1, 1]:
    cmm (m = 1..L), c (m = 0..L-1), and (a, b) (m <= l - 2) of each l = 2..L."""
    m = np.arange(L + 1)
    cols = [np.sqrt((2.0 * m[1:] + 1.0) / (2.0 * m[1:])), np.sqrt(2.0 * m[:-1] + 3.0)]
    for l in range(2, L + 1):
        k = m[: l - 1]
        cols += [np.sqrt((4.0 * l * l - 1.0) / (l * l - k * k)),
                 np.sqrt(((l - 1.0) ** 2 - k * k) / (4.0 * (l - 1.0) ** 2 - 1.0))]
    cols = [_frozen(v[:, None, None]) for v in cols]
    return cols[0], cols[1], tuple(zip(cols[2::2], cols[3::2]))


def _frozen(a):
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=32)
def _gauss(nlat):
    """(x = cos theta, w, theta) of the nlat Gauss-Legendre nodes, read-only."""
    x, w = np.polynomial.legendre.leggauss(nlat)
    return _frozen(x), _frozen(w), _frozen(np.arccos(x))


@functools.lru_cache(maxsize=256)
def _gauss_tables(nlat, L):
    """legendre_tables [m, l, tag, j] at the nlat Gauss nodes, degree L, read-only."""
    return _frozen(legendre_tables(_gauss(nlat)[0], L))


@functools.lru_cache(maxsize=256)
def _views(nlat, nlon, L, deriv):
    """(stack [m, l, (tag, j)], rows [tag, (m, a/b), k], rows [tag, k, (m, a/b)],
    weights w 2 pi / nlon [j, 1], ntag, single) of a degree-L transform with
    tags deriv on the nlat x nlon grid, read-only."""
    if nlon < 2 * L + 2:
        raise ValueError("grid too coarse in longitude for degree %d" % L)
    tables, rows, ntag, single = _tags(deriv)
    # tags picked by a slice view the tables, by a list copy them
    stack = _gauss_tables(nlat, L)[:, :, tables].reshape(L + 1, L + 1, -1)
    rows = _lon_plan(nlon).rows(L)[:, rows]                 # [(m, a/b), tag, k]
    weights = (_gauss(nlat)[1] * (2.0 * np.pi / nlon))[:, None]
    return (_frozen(stack), _frozen(rows.swapaxes(0, 1)), _frozen(rows.transpose(1, 2, 0)),
            _frozen(weights), ntag, single)


def _grid_views(grid, L, deriv):
    """_views of grid; an unhashable tag, which the cache cannot key, gets
    _tags' ValueError."""
    try:
        return _views(grid.nlat, grid.nlon, L, deriv)
    except TypeError:
        _tags(deriv)
        raise


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
    of every grid transform, read-only.  A transform of degree L needs
    nlon >= 2L + 2, so the rows are built once for every order
    m <= nlon // 2 - 1 and sliced below it.

    m lam_k is the longitude lam_(mk mod nlon), so every row entry comes from
    the cos or sin of one of the nlon longitudes, reduced exactly in integers
    rather than from a rounded product m * lam_k."""

    def __init__(self, nlon):
        self.lam = _frozen(_longitudes(nlon))
        cos_sin = np.stack([np.cos(self.lam), np.sin(self.lam)])
        self._all_rows = _rows(*cos_sin[:, np.arange(nlon // 2)[:, None] * np.arange(nlon) % nlon])

    def rows(self, L):
        """(2(L+1), 2, nlon): [2m + cos/sin, kind, k], orders m <= L."""
        return self._all_rows[: 2 * (L + 1)]


@functools.lru_cache(maxsize=32)
def _lon_plan(nlon):
    return _LonPlan(nlon)


class SphereGrid:
    """Gauss-Legendre (colatitude) x equiangular (longitude) grid.

    for_degree(L) builds a grid on which analysis of band-L functions is
    quadrature-exact and synthesis of any degree <= L is alias-free; this
    exceeds the 3/2-rule resolution for quadratic products at the same L.
    x, w and theta are the read-only arrays of _gauss(nlat), lam that of
    _lon_plan(nlon).
    """

    def __init__(self, nlat, nlon):
        self.nlat = geometry._positive_count(nlat, "SphereGrid needs nlat")
        self.nlon = geometry._positive_count(nlon, "SphereGrid needs nlon", least=2)
        self.x, self.w, self.theta = _gauss(self.nlat)
        self.lam = _lon_plan(self.nlon).lam

    @classmethod
    def for_degree(cls, L):
        L = geometry._positive_count(L, "SphereGrid.for_degree needs L", 0)
        return cls.for_integration(2 * L, L)

    @classmethod
    def for_integration(cls, deg_integrand, deg_synth):
        """Grid integrating degree-deg_integrand spherical polynomials exactly
        while staying alias-free for synthesis up to deg_synth (integers >= 0)."""
        deg_integrand = geometry._positive_count(
            deg_integrand, "SphereGrid.for_integration needs deg_integrand", 0)
        deg_synth = geometry._positive_count(
            deg_synth, "SphereGrid.for_integration needs deg_synth", 0)
        nlat = deg_integrand // 2 + 1
        nlon = max(deg_integrand + 1, 2 * deg_synth + 2)
        nlon += nlon % 2
        return cls(nlat, nlon)

    def integrate(self, values):
        """Integral over the unit sphere (dOmega)."""
        return float(self.w @ np.add.reduce(values, axis=1)) * (2.0 * np.pi / self.nlon)


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
    """alpha_l = LAPLACE_SCALE * l (l+1) of integer degrees l >= 0 or an array."""
    if ((l < 0).any() if isinstance(l, np.ndarray) else    # a bool is no degree
            type(l) is bool or not isinstance(l, (int, np.integer)) or l < 0):
        raise ValueError("eigenvalue needs integer degrees l >= 0, got %r" % (l,))
    return LAPLACE_SCALE * l * (l + 1.0)


_Spectrum = collections.namedtuple("_Spectrum", "slots alpha helmholtz inverse_alpha")


@functools.lru_cache(maxsize=32)
def _spectrum(L):
    """The per-degree tables of band limit L, one read-only record: the mask
    of the (l, m) slots of coeffs[l, L + m] (row-major, in basis order) and
    the columns alpha_l, 1 + alpha_l and 1 / alpha_l (0 at l = 0), l = 0..L."""
    alpha = eigenvalue(np.arange(L + 1))[:, None]
    inverse = np.zeros((L + 1, 1))
    inverse[1:] = 1.0 / alpha[1:]
    slots = np.abs(np.arange(-L, L + 1)) <= np.arange(L + 1)[:, None]
    return _Spectrum(*map(_frozen, (slots, alpha, 1.0 + alpha, inverse)))


@functools.lru_cache(maxsize=32)
def _support_of(L, lmin):
    """(mask, count) of the (l, m) slots of degree lmin <= l <= L; the mask is read-only."""
    support = _spectrum(L).slots & (np.arange(L + 1) >= lmin)[:, None]
    return _frozen(support), int(np.count_nonzero(support))


def _finite(value, name):
    """value as a float: TypeError unless it is a real number, ValueError
    unless it is finite, each naming it."""
    if not isinstance(value, (float, numbers.Real)):    # float first: the ABC check is slow
        raise TypeError("%s must be a real number, got %r" % (name, value))
    value = float(value)
    if not math.isfinite(value):
        raise ValueError("%s must be finite, got %r" % (name, value))
    return value


# ---------------------------------------------------------------------------

class SpectralFunction:
    """A Reeb-invariant function on S^3 in base spherical-harmonic form.

    coeffs[l, L + m]: cos components at m >= 0, sin components at m < 0.
    There are two ways in.  The constructor is for user data: it copies
    the input as a float array, and raises TypeError for complex or
    non-numeric coefficients and ValueError for a wrong shape, a NaN or
    infinite entry, or a nonzero entry at l < |m| (no basis slot).  The
    package's own results (operators, classmethods, analyses, brackets and
    curls) come from _of, which keeps a fresh array as it is, unchecked, so
    a flow that blows up is caught by its norm check.  Either way a function
    owns its coefficients: an array of its own, never a view of a batch,
    that overlaps no other function's, and every operation returns a new
    object.
    """

    __slots__ = ("coeffs", "L")

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs)
        try:    # a copy; same_kind refuses complex (whose imaginary part a float cast drops)
            coeffs = coeffs.astype(float, casting="same_kind")
        except TypeError:
            raise TypeError("coeffs must be a real array, not %s" % coeffs.dtype) from None
        if coeffs.ndim != 2 or coeffs.shape[1] != 2 * coeffs.shape[0] - 1:
            raise ValueError("coefficient array must have shape (L+1, 2L+1)")
        if not np.isfinite(coeffs).all():
            raise ValueError("coeffs must be finite")
        if coeffs[~_support_of(coeffs.shape[0] - 1, 0)[0]].any():
            raise ValueError("coeffs must be zero at l < |m|, outside the basis")
        self.coeffs = coeffs
        self.L = coeffs.shape[0] - 1

    @classmethod
    def _of(cls, coeffs):
        """The trusted way in: a fresh float array (L+1, 2L+1) that owns its
        data and that the caller gives up, kept without a cast, a copy or a
        check."""
        f = object.__new__(cls)
        f.coeffs = coeffs
        f.L = coeffs.shape[0] - 1
        return f

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, L):
        L = geometry._positive_count(L, "zeros needs L", least=0)
        return cls._of(np.zeros((L + 1, 2 * L + 1)))

    @classmethod
    def constant(cls, c):
        return cls._of(np.array([[_finite(c, "constant c") * SQRT_4PI]]))

    @classmethod
    def mode(cls, l, m, value=1.0, L=None):
        """A single basis coefficient (l, m); sin branch for m < 0."""
        return cls.from_triples([(l, m, _finite(value, "mode value"))], L)

    @classmethod
    def random(cls, L, rng, lmin=0, scale=1.0):
        """Gaussian coefficients over lmin <= l <= L (triangular support), one draw."""
        scale = _finite(scale, "random scale")
        L = geometry._positive_count(L, "random needs L", least=0)
        lmin = geometry._positive_count(lmin, "random needs lmin", least=0)
        support, count = _support_of(L, lmin)
        c = np.zeros((L + 1, 2 * L + 1))
        c[support] = rng.normal(size=count)
        if scale != 1.0:    # a product with 1.0 is exact
            c *= scale
        return cls._of(c)

    @classmethod
    def from_triples(cls, triples, L=None):
        """Build from (l, m, value) triples: integers l, m and a finite real value, each
        (l, m) at most once; L defaults to the highest l."""
        checked = []
        for l, m, v in triples:
            try:        # the triple is formatted only for a message
                li = geometry._positive_count(l, "l", least=0)
                checked.append((li, geometry._positive_count(m, "m", least=-li), v))
            except ValueError as e:
                raise ValueError("triple %r needs %s" % ((l, m, v), e)) from None
        if L is None:
            L = max((l for l, _, _ in checked), default=0)
        L = geometry._positive_count(L, "from_triples needs L", least=0)
        f = cls.zeros(L)
        seen = set()
        for l, m, v in checked:
            if not (l <= L and m <= l):
                raise ValueError("triple (%d, %d) out of range for L = %d" % (l, m, L))
            if (l, m) in seen:
                raise ValueError("triple (%d, %d) given twice" % (l, m))
            seen.add((l, m))
            f.coeffs[l, L + m] = _finite(v, "triple (%d, %d) value" % (l, m))
        return f

    def to_triples(self):
        l, col = np.nonzero(_spectrum(self.L).slots)
        return [(int(a), int(b) - self.L, float(v))
                for a, b, v in zip(l, col, self.coeffs[l, col]) if abs(v) > 0.0]

    # -- structure ----------------------------------------------------------

    def padded(self, L):
        L = geometry._positive_count(L, "padded needs L", least=0)
        if L < self.L:
            raise ValueError("cannot pad to a smaller band limit")
        if L == self.L:
            return SpectralFunction._of(self.coeffs.copy())
        return SpectralFunction._of(self._coeffs_at(L))

    def _coeffs_at(self, L):
        """The coefficients at a band limit L >= self.L: zero-padded into a
        new array, or at L = self.L the array itself, only to be read."""
        if L == self.L:
            return self.coeffs
        c = np.zeros((L + 1, 2 * L + 1))
        c[: self.L + 1, L - self.L: L + self.L + 1] = self.coeffs
        return c

    def truncated(self, L):
        L = geometry._positive_count(L, "truncated needs L", least=0)
        if L >= self.L:
            return self.padded(L)
        return SpectralFunction._of(self.coeffs[: L + 1, self.L - L: self.L + L + 1].copy())

    # -- algebra -------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SpectralFunction):
            return NotImplemented
        L = max(self.L, other.L)
        return SpectralFunction._of(self._coeffs_at(L) + other._coeffs_at(L))

    def __sub__(self, other):
        if not isinstance(other, SpectralFunction):
            return NotImplemented
        L = max(self.L, other.L)
        return SpectralFunction._of(self._coeffs_at(L) - other._coeffs_at(L))

    def __mul__(self, c):
        return SpectralFunction._of(self.coeffs * _finite(c, "c"))

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralFunction._of(-self.coeffs)

    # -- diagonal operators ---------------------------------------------------

    def laplacian(self):
        return SpectralFunction._of(self.coeffs * _spectrum(self.L).alpha)

    def helmholtz(self):
        """D f = (1 + Delta) f."""
        return SpectralFunction._of(self.coeffs * _spectrum(self.L).helmholtz)

    def inverse_helmholtz(self):
        """D^-1 f."""
        return SpectralFunction._of(self.coeffs / _spectrum(self.L).helmholtz)

    def inverse_laplacian(self):
        """Delta^-1 f; defined only on mean-zero input."""
        if not self.mean_zero():
            raise ValueError("inverse_laplacian requires a mean-zero function")
        c = self.coeffs * _spectrum(self.L).inverse_alpha
        c[0, self.L] = 0.0
        return SpectralFunction._of(c)

    # -- means and norms -------------------------------------------------------

    def mean_M(self):
        """Mean over S^3 with respect to dmu."""
        return float(self.coeffs[0, self.L]) / SQRT_4PI

    def mean_zero(self):
        c = self.coeffs[0, self.L]
        return c == 0.0 or abs(c) <= 1e-12 * max(1.0, self.norm_base())

    def mean_free(self):
        """The projection onto mean-zero functions (degree 0 dropped)."""
        c = self.coeffs.copy()
        c[0, self.L] = 0.0
        return SpectralFunction._of(c)

    def norm_base(self):
        c = self.coeffs.ravel(order="K")    # np.linalg.norm's steps, without its dispatch
        return math.sqrt(c.dot(c))

    def norm_M(self):
        """L^2(M) norm: the fibre factor converts base Parseval to M."""
        return np.sqrt(geometry.FIBER_FACTOR) * self.norm_base()

    # -- evaluation -------------------------------------------------------------

    def to_grid(self, grid):
        return GridFunction(grid, synthesize(self, grid))

    def evaluate_base(self, theta, lam, deriv=None):
        """Scattered evaluation at colatitude/longitude arrays (finite, or ValueError)."""
        for name, angle in (("theta", theta), ("lam", lam)):
            if not np.all(np.isfinite(angle)):
                raise ValueError("%s must be finite" % name)
        return _PointPlan(theta, lam, self.L).evaluate(self.coeffs, deriv)

    def pullback(self, q):
        """Values of the Reeb-invariant extension at S^3 points (..., 4), or ValueError."""
        theta, lam = geometry.hopf_angles(geometry._unit_points(q, "q"))
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
    single = not isinstance(deriv, tuple)
    try:
        tables, rows = zip(*(_DERIVS[tag] for tag in ((deriv,) if single else deriv)))
    except (KeyError, TypeError, ValueError):     # unknown, unhashable, empty
        raise ValueError("unknown derivative tag %r" % (deriv,)) from None
    return _index(tables), _index(rows), len(tables), single


def _move(a, src, dst):
    """np.moveaxis of one axis, as one transpose: the kernel's hot path."""
    return a.transpose(_moved_axes(a.ndim, src, dst))


@functools.lru_cache(maxsize=64)
def _moved_axes(ndim, src, dst):
    axes = list(range(ndim))
    axes.insert(dst % ndim, axes.pop(src))
    return tuple(axes)


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


class _PointPlan:
    """Scattered points (theta, lam) prepared for evaluation up to degree L:
    the Legendre tables at cos(theta) and the longitude rows (see _rows),
    built once, read-only.  The rows take m lam in two parts: lam_hi keeps
    lam to 26 fractional bits, so m lam_hi is exact, and the small m lam_lo
    enters by angle addition; no rounded product m * lam reaches cos or sin."""

    def __init__(self, theta, lam, L):
        theta, lam = np.broadcast_arrays(np.asarray(theta, float), np.asarray(lam, float))
        self.shape, lam = theta.shape, lam.ravel()
        self.stack = _frozen(legendre_tables(np.cos(theta.ravel()), L))   # [m, l, tag, j]
        m = np.arange(L + 1)[:, None]
        hi = np.round(lam * 2.0 ** 26) / 2.0 ** 26    # m hi exact: m < 2^24, |lam| < 8
        a, b = m * hi, m * (lam - hi)
        ca, sa, cb, sb = np.cos(a), np.sin(a), np.cos(b), np.sin(b)
        self.rows = _rows(ca * cb - sa * sb, sa * cb + ca * sb)

    def evaluate(self, coeffs, deriv=None):
        """Values of a coefficient stack (..., L+1, 2L+1), L at most the
        plan's, at the points, with synthesize's shapes: (..., *shape) for
        one tag, (..., ntag, *shape) for a tuple of tags, from one Legendre
        product.

        A point's values do not depend on the other points of its plan with
        one exception, seen at ~1 ulp: a single tag at a single point is a
        one-column matmul in _forward, which numpy hands to a different
        kernel, so it rounds differently from that point's row of a batch."""
        L, batch = coeffs.shape[-2] - 1, coeffs.shape[:-2]
        tables, rows, ntag, single = _tags(deriv)
        lon = self.rows[: 2 * (L + 1), rows]                    # [(m, a/b), tag, j]
        stack = self.stack[: L + 1, : L + 1, tables].reshape(L + 1, L + 1, -1)
        ab = _forward(coeffs, stack)                           # [m, a/b, ..., (tag, j)]
        ab = ab.reshape((2 * (L + 1),) + batch + lon.shape[1:])
        ab *= lon.reshape(lon.shape[:1] + (1,) * len(batch) + lon.shape[1:])   # ab is fresh
        v = np.add.reduce(ab, axis=0)
        return v.reshape(batch + (self.shape if single else (ntag,) + self.shape))


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
    stack, lon, _, _, ntag, single = _grid_views(grid, L, deriv)
    ab = _forward(coeffs, stack)                               # [m, a/b, ..., (tag, j)]
    ab = ab.reshape((2 * (L + 1),) + coeffs.shape[:-2] + (ntag, grid.nlat))
    values = np.matmul(_move(ab, 0, -1), lon)                  # [..., tag, j, k]
    return values[..., 0, :, :] if single else values


def analyze(g, L):
    """Project a GridFunction onto the basis up to degree L.

    Exact (to round-off) whenever the underlying function is band-limited
    within the grid's analysis degree.
    """
    grid = g.grid
    if grid.nlat < L + 1:
        raise ValueError("grid too coarse in latitude to analyze degree %d" % L)
    return SpectralFunction._of(adjoint_analyze(g.values, grid, L, None))


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
    L = geometry._positive_count(L, "an analysis needs L", least=0)
    stack, _, lon, weights, ntag, single = _grid_views(grid, L, deriv)
    values = np.asarray(values, dtype=float)
    if single:
        values = values[..., None, :, :]
    elif values.ndim < 3 or values.shape[-3] != ntag:
        raise ValueError("values need a tag axis of length %d before (nlat, nlon)" % ntag)
    ab = np.matmul(values, lon)                                # [..., tag, j, (m, a/b)]
    ab *= weights
    ab = _move(ab.reshape(ab.shape[:-3] + (-1, L + 1, 2)), -2, 0)
    return _adjoint(ab, stack)                                 # ab: [m, ..., (tag, j), a/b]


def inner_M(f, h):
    """int_M f h dmu = fibre factor times the base Parseval pairing."""
    try:
        L = max(f.L, h.L)
        pairing = (f._coeffs_at(L) * h._coeffs_at(L)).sum()
    except AttributeError as error:
        raise _operand_error("inner_M", error, f=f, h=h) from None
    return geometry.FIBER_FACTOR * float(pairing)


def quad_inner_M(u, v):
    """int_M u v dmu by grid quadrature (independent of Parseval)."""
    try:
        return _quad_inners([(u, v)])[0]
    except AttributeError as error:
        raise _operand_error("quad_inner_M", error, u=u, v=v) from None


def _operand_error(needs, error, **operands):
    """A TypeError naming the first operand that is not a SpectralFunction, else error."""
    for name, value in operands.items():
        if not isinstance(value, SpectralFunction):
            return TypeError("%s needs %s to be a SpectralFunction, got %r" % (needs, name, value))
    return error


def _quad_inners(pairs):
    """quad_inner_M of each (u, v) pair, bit-for-bit, each on its own grid:
    a grid synthesizes each distinct operand (by identity) of its pairs
    once, in one stacked call per degree."""
    out = [None] * len(pairs)
    for key, idx in _groups((u.L + v.L, max(u.L, v.L)) for u, v in pairs).items():
        grid = SphereGrid.for_integration(*key)
        ops = list({id(w): w for n in idx for w in pairs[n]}.values())
        vals = {}
        for group in _groups(w.L for w in ops).values():
            stack = synthesize(np.array([ops[i].coeffs for i in group]), grid)
            vals.update(zip([id(ops[i]) for i in group], stack))
        for n in idx:
            u, v = pairs[n]
            out[n] = geometry.FIBER_FACTOR * grid.integrate(vals[id(u)] * vals[id(v)])
    return out


def _groups(keys):
    """{key: ascending indices of its items}, the keys in order of first
    appearance: the one batch order of every stacked call."""
    groups = {}
    for n, key in enumerate(keys):
        groups.setdefault(key, []).append(n)
    return groups
