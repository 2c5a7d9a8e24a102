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

and ambient evaluation anywhere on S^3 goes through the rotation columns
R_i(q) = q i_hat_i conj(q):  v2 f = -sqrt2 R3 . grad_{S^2} F and
v3 f = sqrt2 R2 . grad_{S^2} F for any invariant f, with the angles of
pi(q) read off R1.  The potentials are synthesized as one stack per tag.
A node plan prepares one set of S^3 points: the point plan of pi(q), the
unit frame and the rotation columns from one set of products q i, q j,
q k, and e_theta, e_lambda at pi(q).  It then assembles ambient values of
any number of fields, every value and derivative from one Legendre table
build; a degree-0 u or w has zero derivatives and is not evaluated.
FrameField.evaluate, contact_field_at and invariant_gradient_frame make
a plan per call.

A pairing int_M g(X, Y) dmu needs no S^3 points: g(X, Y) is
Reeb-invariant, so it is integrated on the section lift over the Gauss
grid SphereGrid.for_integration(deg X + deg Y, max degree), where the
unit-frame components are the grids of FrameField.components.

A contact field X_f = f xi - phi grad f is the special case (f, 0, -f).
"""

from __future__ import annotations

import numpy as np

from . import geometry
from .geometry import SQRT2
from .harmonics import (
    GridFunction,
    SpectralFunction,
    SphereGrid,
    _frozen,
    _PointPlan,
    adjoint_analyze,
    analyze,
    synthesize,
)


def _as_spectral(f):
    if isinstance(f, SpectralFunction):
        return f
    return SpectralFunction.constant(float(f))


def invariant_gradient_frame(f, q):
    """(v2 f, v3 f) at S^3 points for a Reeb-invariant f."""
    ((_, v2f, v3f),) = _NodePlan(q).components([FrameField.gradient(f)])
    return v2f, v3f


class _NodePlan:
    """S^3 points q (..., 4) prepared for field evaluation: the point plan
    of pi(q), the unit frame, the rotation columns R2, R3 and the
    spherical unit vectors e_theta, e_lambda at pi(q).  Only the fields
    change between evaluations on one plan; every array is read-only."""

    def __init__(self, q):
        self.frame, (r1, self.r2, self.r3) = geometry._frame_and_columns(q)
        theta, lam = geometry._sphere_angles(r1)
        self.points = _PointPlan(theta, lam)
        st, ct = np.sin(theta), np.cos(theta)
        sl, cl = np.sin(lam), np.cos(lam)
        self.e_th = np.stack([-st, ct * cl, ct * sl], axis=-1)
        self.e_lm = np.stack([np.zeros_like(sl), -sl, cl], axis=-1)
        self.zero = np.zeros(theta.shape)
        for a in (*self.frame, self.r2, self.r3, self.e_th, self.e_lm, self.zero):
            _frozen(a)

    def _v23(self, f, values):
        """(v2 f, v3 f) of a potential from its next two derivative values;
        zero for degree 0, whose derivatives vanish and are not evaluated."""
        if f.L == 0:
            return self.zero, self.zero
        d_theta, d_lam = next(values), next(values)
        grad = d_theta[..., None] * self.e_th + d_lam[..., None] * self.e_lm
        return (-SQRT2 * np.sum(self.r3 * grad, axis=-1),
                SQRT2 * np.sum(self.r2 * grad, axis=-1))

    def components(self, fields):
        """Unit-frame components (c1, c2, c3) of each field, via the global
        rotation-column identities, from one Legendre table build."""
        pairs = []
        for X in fields:
            pairs += [(X.a, None)] + [(f, t) for f in (X.u, X.w) if f.L > 0
                                      for t in ("dtheta", "dlambda_over_sin")]
        values = iter(self.points.evaluate(pairs))
        out = []
        for X in fields:
            av = next(values)
            (u2, u3), (w2, w3) = self._v23(X.u, values), self._v23(X.w, values)
            out.append((av, u2 - w3, u3 + w2))
        return out

    def ambient(self, fields):
        """Ambient R^4 values of each field at the points."""
        v1, v2, v3 = self.frame
        return [c1[..., None] * v1 + c2[..., None] * v2 + c3[..., None] * v3
                for c1, c2, c3 in self.components(fields)]


class FrameField:
    """A Reeb-invariant tangent field, stored by its potentials (a, u, w)."""

    def __init__(self, a=0.0, u=0.0, w=0.0):
        self.a = _as_spectral(a)
        self.u = _as_spectral(u)
        self.w = _as_spectral(w)

    # -- constructors --------------------------------------------------------

    @classmethod
    def contact(cls, f):
        """X_f = f xi - phi grad f, the contact field of Hamiltonian f."""
        f = _as_spectral(f)
        return cls(f, SpectralFunction.zeros(0), -f)

    @classmethod
    def reeb(cls):
        return cls(SpectralFunction.constant(1.0))

    @classmethod
    def gradient(cls, u):
        return cls(SpectralFunction.zeros(0), _as_spectral(u))

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
        BC = np.stack([B.values, C.values])
        th = adjoint_analyze(BC, grid, L, "dtheta")
        lm = adjoint_analyze(BC, grid, L, "dlambda_over_sin")
        # the derivative functionals vanish at degree 0, as inverse_laplacian needs
        u = SpectralFunction(SQRT2 * (th[1] - lm[0])).inverse_laplacian()
        w = SpectralFunction(-SQRT2 * (th[0] + lm[1])).inverse_laplacian()
        return cls(a, u, w)

    # -- structure ------------------------------------------------------------

    @property
    def degree(self):
        return max(self.a.L, self.u.L, self.w.L)

    def __add__(self, other):
        return FrameField(self.a + other.a, self.u + other.u, self.w + other.w)

    def __sub__(self, other):
        return FrameField(self.a - other.a, self.u - other.u, self.w - other.w)

    def __mul__(self, c):
        return FrameField(self.a * c, self.u * c, self.w * c)

    __rmul__ = __mul__

    # -- evaluation -----------------------------------------------------------

    def components(self, grid):
        """Section component grids (A, B, C) in the unit frame (v1, v2, v3)."""
        A = synthesize(self.a, grid)
        L = max(self.u.L, self.w.L)
        uw = np.stack([self.u.padded(L).coeffs, self.w.padded(L).coeffs])
        th = synthesize(uw, grid, deriv="dtheta")
        lm = synthesize(uw, grid, deriv="dlambda_over_sin")
        B = -SQRT2 * (lm[0] + th[1])
        C = SQRT2 * (th[0] - lm[1])
        return (GridFunction(grid, A), GridFunction(grid, B), GridFunction(grid, C))

    def evaluate(self, q):
        """Ambient R^4 values of the field at S^3 points (..., 4)."""
        return _NodePlan(q).ambient([self])[0]

    # -- differential structure -------------------------------------------------

    def divergence(self):
        """div X = -Delta u (the xi and phi-grad parts are divergence-free)."""
        return -self.u.laplacian()

    def g_inner_M(self, other):
        """int_M g(X, Y) dmu for two invariant fields, spectrally.

        Cross terms between the xi, grad, and phi-grad blocks integrate to
        zero; the gradient blocks contribute through the Dirichlet form,
        whose eigenvalue is exactly alpha_l.
        """
        from .harmonics import inner_M

        total = inner_M(self.a, other.a)
        total += inner_M(self.u.laplacian(), other.u)
        total += inner_M(self.w.laplacian(), other.w)
        return total


def contact_field(f):
    return FrameField.contact(f)


def contact_field_at(f, q):
    """Ambient values of X_f at S^3 points (..., 4)."""
    return _NodePlan(q).ambient([FrameField.contact(f)])[0]


def _quad_g_inner_M(X, Y):
    """int_M g(X, Y) dmu of two invariant fields by grid quadrature
    (independent of Parseval): the products of their unit-frame component
    grids on the Gauss grid of their degree pair."""
    grid = SphereGrid.for_integration(X.degree + Y.degree, max(X.degree, Y.degree))
    g = sum(x.values * y.values for x, y in zip(X.components(grid), Y.components(grid)))
    return geometry.FIBER_FACTOR * grid.integrate(g)
