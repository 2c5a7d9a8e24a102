"""Reeb-invariant vector fields on S^3 and their frame components.

Every field in scope here is invariant under the Reeb flow and splits as

    X = a xi + grad u + phi grad w

with Reeb-invariant potentials a, u, w (grad is the g-gradient).  This is
the Hodge-type parametrization actually stored: the frame components of X
in the contact plane are NOT Reeb-invariant functions, because the frame
itself spins at rate 2 along the fibres while the field is carried rigidly;
only the xi-component survives as a function on the base.  The plane
components are therefore exposed as grids over the section lift
q(theta, lam) = exp(i lam/2) exp(k theta/2), on which

    comp_2 = -sqrt2 ((1/sin) d_lam U + d_theta W)
    comp_3 =  sqrt2 (d_theta U - (1/sin) d_lam W)

and the field anywhere on S^3 is carried from them along its fibre,
X(q exp(t i)) = X(q) exp(t i), so X(q) = V(pi q) q with the pure
quaternion V = A pi + (B e_theta + C e_lambda) / sqrt2 at pi(q); at a
section point s the carried frame (pi, e_theta / sqrt2, e_lambda / sqrt2) s
is the unit frame.  _section forms (A, B, C) of many fields for grids and
scattered points alike as one array, from one synthesis per degree of the
stacked xi potentials and one of both tangential derivatives of the
stacked u and w.  A node plan prepares one set of S^3 points: the point
plan of pi(q) and the carried frame.  It then assembles ambient values of
any number of fields as one array, from one _section pass, every value
and derivative from one Legendre table build.
FrameField.evaluate and contact_field_at make a plan per call.

A pairing int_M g(X, Y) dmu needs no S^3 points: g(X, Y) is
Reeb-invariant, so it is integrated on the section lift over the Gauss
grid SphereGrid.for_integration(deg X + deg Y, max degree), where the
unit-frame components are the grids of FrameField.components.

A contact field X_f = f xi - phi grad f is the special case (f, 0, -f).
"""

from __future__ import annotations

import numbers

import numpy as np

from . import geometry
from .geometry import SQRT2
from .harmonics import (
    TANGENTIAL,
    GridFunction,
    SpectralFunction,
    SphereGrid,
    _frozen,
    _finite,
    _PointPlan,
    _groups,
    adjoint_analyze,
    analyze,
    synthesize,
)


def _as_spectral(f, name):
    """f itself, or the constant function of a real number f; TypeError for
    any other f and ValueError for a non-finite one, naming the argument."""
    if isinstance(f, SpectralFunction):
        return f
    if not isinstance(f, (float, numbers.Real)):    # float first: the ABC check is slow
        raise TypeError("%s must be a SpectralFunction or a real number, got %r" % (name, f))
    return SpectralFunction.constant(_finite(f, name))


def _section(at, fields):
    """Section components [field, (A, B, C), ...] on a SphereGrid or at a
    _PointPlan's points, bit for bit each field's own (a stack's slices are
    their own calls' at 2+ points), one stacked evaluation per degree in
    harmonics._groups' order; a degree-0 u or w is zero, not evaluated."""
    evaluate, shape = (((lambda c, deriv: synthesize(c, at, deriv)), (at.nlat, at.nlon))
                       if isinstance(at, SphereGrid) else (at.evaluate, at.shape))

    def by_degree(rows, deriv, out):    # rows: (row of out, coeffs) pairs
        for idx in _groups(len(c) for _, c in rows).values():
            group = [rows[n] for n in idx]
            out[[i for i, _ in group]] = evaluate(np.array([c for _, c in group]), deriv)

    comps = np.empty((len(fields), 3) + shape)
    by_degree(list(enumerate(X.a.coeffs for X in fields)), None, comps[:, 0])
    d = np.zeros((len(fields), 2, 2) + shape)    # [field, u/w, theta/lam, ...]
    uw = [(2 * i + j, f._coeffs_at(max(X.u.L, X.w.L))) for i, X in enumerate(fields)
          for j, f in enumerate((X.u, X.w)) if f.L > 0]
    by_degree(uw, TANGENTIAL, d.reshape((-1, 2) + shape))
    (u_th, u_lm), (w_th, w_lm) = np.moveaxis(d, 0, 2)
    comps[:, 1] = -SQRT2 * (u_lm + w_th)
    comps[:, 2] = SQRT2 * (u_th - w_lm)
    return comps


class _NodePlan:
    """S^3 points q (..., 4) prepared for field evaluation: the point plan
    of pi(q) and the carried frame (pi, e_theta / sqrt2, e_lambda / sqrt2) q
    [3, ..., 4], read-only.  Only the fields change between evaluations on
    one plan."""

    def __init__(self, q):
        q = geometry._unit_points(q, "q")
        pi = geometry.hopf_point(q)
        theta, lam = geometry._sphere_angles(pi)
        self.points = _PointPlan(theta, lam)
        st, ct = np.sin(theta), np.cos(theta)
        sl, cl = np.sin(lam), np.cos(lam)
        V = np.zeros((3,) + q.shape)    # pure quaternions pi, e_theta / sqrt2, e_lambda / sqrt2
        V[0, ..., 1:] = pi
        V[1, ..., 1], V[1, ..., 2], V[1, ..., 3] = -st / SQRT2, ct * cl / SQRT2, ct * sl / SQRT2
        V[2, ..., 2], V[2, ..., 3] = -sl / SQRT2, cl / SQRT2
        self.frame = _frozen(geometry.qmul(V, q))

    def ambient(self, fields):
        """Ambient R^4 values [field, ..., 4] of the fields at the points, their
        section components times the carried frame, summed; the tables grow
        once, to the largest degree, and the fields share one _section pass."""
        self.points.arrays(max(X.degree for X in fields))
        # from 0.0, as sum() starts, so a sum of zeros has sum()'s sign
        return np.add.reduce(_section(self.points, fields)[..., None] * self.frame,
                             axis=1, initial=0.0)


class FrameField:
    """A Reeb-invariant tangent field, stored by its potentials (a, u, w),
    each a SpectralFunction or a real number (a constant)."""

    __slots__ = ("a", "u", "w")

    def __init__(self, a=0.0, u=0.0, w=0.0):
        self.a = a if type(a) is SpectralFunction else _as_spectral(a, "a")
        self.u = u if type(u) is SpectralFunction else _as_spectral(u, "u")
        self.w = w if type(w) is SpectralFunction else _as_spectral(w, "w")

    # -- constructors --------------------------------------------------------

    @classmethod
    def contact(cls, f):
        """X_f = f xi - phi grad f, the contact field of Hamiltonian f."""
        f = _as_spectral(f, "f")
        return cls(f, SpectralFunction.zeros(0), -f)

    @classmethod
    def reeb(cls):
        return cls(SpectralFunction.constant(1.0))

    @classmethod
    def gradient(cls, u):
        return cls(SpectralFunction.zeros(0), _as_spectral(u, "u"))

    @classmethod
    def from_components(cls, A, B, C, L):
        """Recover potentials from section component grids (Hodge split).

        A, B, C: GridFunction triples on a common grid able to analyze
        degree L.  Exact for fields of band limit <= L.
        """
        grid = A.grid
        if B.grid is not grid or C.grid is not grid:
            raise ValueError("component grids must coincide")
        a = analyze(A, L)
        B, C = B.values, C.values
        # <C, dtheta Y> + <-B, dlam Y / sin> and <B, dtheta Y> + <C, dlam Y / sin>
        u, w = adjoint_analyze(np.stack([[C, -B], [B, C]]), grid, L, TANGENTIAL)
        # the derivative functionals vanish at degree 0, as inverse_laplacian needs
        return cls(a, SpectralFunction._of(SQRT2 * u).inverse_laplacian(),
                   SpectralFunction._of(-SQRT2 * w).inverse_laplacian())

    # -- structure ------------------------------------------------------------

    @property
    def degree(self):
        return max(self.a.L, self.u.L, self.w.L)

    def __add__(self, other):
        if not isinstance(other, FrameField):
            return NotImplemented
        return FrameField(self.a + other.a, self.u + other.u, self.w + other.w)

    def __sub__(self, other):
        if not isinstance(other, FrameField):
            return NotImplemented
        return FrameField(self.a - other.a, self.u - other.u, self.w - other.w)

    def __mul__(self, c):
        return FrameField(self.a * c, self.u * c, self.w * c)

    __rmul__ = __mul__

    # -- evaluation -----------------------------------------------------------

    def components(self, grid):
        """Section component grids (A, B, C) in the unit frame (v1, v2, v3)."""
        return tuple(GridFunction(grid, c) for c in _section(grid, [self])[0])

    def evaluate(self, q):
        """Ambient R^4 values of the field at S^3 points (..., 4), carried
        from its section components at pi(q) (see _NodePlan)."""
        return _NodePlan(q).ambient([self])[0]

    # -- differential structure -------------------------------------------------

    def divergence(self):
        """div X = -Delta u (the xi and phi-grad parts are divergence-free)."""
        return -self.u.laplacian()


def contact_field(f):
    return FrameField.contact(f)


def contact_field_at(f, q):
    """Ambient values of X_f at S^3 points (..., 4)."""
    return _NodePlan(q).ambient([FrameField.contact(f)])[0]


def _quad_g_inners_M(pairs):
    """int_M g(X, Y) dmu of each (X, Y) pair by grid quadrature (independent of
    Parseval): one product and component sum of the unit-frame component grids
    per grid, one quadrature per pair."""
    keys = [(X.degree + Y.degree, max(X.degree, Y.degree)) for X, Y in pairs]
    out = [None] * len(pairs)
    for key, idx in _groups(keys).items():
        grid = SphereGrid.for_integration(*key)
        c = _section(grid, [X for n in idx for X in pairs[n]])
        for n, g in zip(idx, np.add.reduce(c[0::2] * c[1::2], axis=1, initial=0.0)):
            out[n] = geometry.FIBER_FACTOR * grid.integrate(g)
    return out
