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
v3 f = sqrt2 R2 . grad_{S^2} F for any invariant f.  The potentials are
synthesized as one stack per tag, and every value and derivative needed
at a point set comes from one Legendre table build.

A contact field X_f = f xi - phi grad f is the special case (f, 0, -f).
"""

from __future__ import annotations

import numpy as np

from . import geometry
from .geometry import SQRT2
from .harmonics import (
    GridFunction,
    SpectralFunction,
    _evaluate_at,
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
    _, (v2f,), (v3f,) = _frame_data(q, f, f)
    return v2f, v3f


def _frame_data(q, a, *potentials):
    """a, and (v2 f, v3 f) stacked over the potentials f, at S^3 points from
    one Legendre table build, via the global rotation-column identities."""
    theta, lam = geometry.hopf_angles(q)
    derivs = [(f, t) for f in potentials for t in ("dtheta", "dlambda_over_sin")]
    av, *d = _evaluate_at([(a, None)] + derivs, theta, lam)
    st, ct = np.sin(theta), np.cos(theta)
    sl, cl = np.sin(lam), np.cos(lam)
    e_th = np.stack([-st, ct * cl, ct * sl], axis=-1)
    e_lm = np.stack([np.zeros_like(sl), -sl, cl], axis=-1)
    grad = np.stack(d[::2])[..., None] * e_th + np.stack(d[1::2])[..., None] * e_lm
    _, r2, r3 = geometry.rotation_columns(q)
    return av, -SQRT2 * np.sum(r3 * grad, axis=-1), SQRT2 * np.sum(r2 * grad, axis=-1)


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
        q = np.asarray(q, dtype=float)
        v1, v2, v3 = geometry.unit_frame(q)
        av, (u2, w2), (u3, w3) = _frame_data(q, self.a, self.u, self.w)
        c2 = u2 - w3
        c3 = u3 + w2
        return av[..., None] * v1 + c2[..., None] * v2 + c3[..., None] * v3

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
    """Ambient values of X_f without building a FrameField."""
    q = np.asarray(q, dtype=float)
    v1, v2, v3 = geometry.unit_frame(q)
    fv, (v2f,), (v3f,) = _frame_data(q, f, f)
    return fv[..., None] * v1 + v3f[..., None] * v2 - v2f[..., None] * v3
