"""Euler flow on the contact group in momentum form.

State: the momentum Hamiltonian h = (1 + Delta) f.  Evolution:

    dh/dt = [h, (1 + Delta)^{-1} h],

projected back to the working band limit after each bracket.  The
continuous (truncated) flow conserves the kinetic energy T and, before
truncation effects, the Casimirs I_k = int_M h^k dmu; the integrator is a
plain fixed-step classical 4th-order scheme, so any drift is an O(dt^4)
measurement of the method, not a property being enforced.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import geometry
from .bracket import lagrange_bracket
from .harmonics import SphereGrid, SpectralFunction, SQRT_4PI, inner_M

BLOWUP_THRESHOLD = 1e12


class BlowUpError(RuntimeError):
    """Raised when the coefficient norm exceeds the blow-up threshold."""

    def __init__(self, t, norm):
        super().__init__(
            "flow blew up at t = %r (coefficient norm %.3e)" % (t, norm))
        self.t = t
        self.norm = norm


@dataclass(frozen=True)
class FlowState:
    """The momentum h at time t: h must be a SpectralFunction (TypeError
    otherwise) and t a finite real number (ValueError otherwise)."""
    h: SpectralFunction
    t: float = 0.0

    def __post_init__(self):
        if not isinstance(self.h, SpectralFunction):
            raise TypeError("FlowState needs h to be a SpectralFunction, got %r" % (self.h,))
        if not (isinstance(self.t, numbers.Real) and math.isfinite(self.t)):
            raise ValueError("FlowState needs t to be a finite real number, got %r" % (self.t,))


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    t_end: float
    invariant_sample_stride: int = 1
    k_max: int = 3

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise ValueError("dt must be positive")
        if self.dt > self.t_end:
            raise ValueError("dt must not exceed t_end")
        if not np.isfinite(self.t_end):
            raise ValueError("t_end must be finite")
        n_steps = self.t_end / self.dt
        if abs(n_steps - round(n_steps)) > 1e-9 * n_steps:
            raise ValueError("t_end must be a multiple of dt")
        for name in ("invariant_sample_stride", "k_max"):
            geometry._positive_count(getattr(self, name), "IntegratorConfig needs " + name)


def rhs(h):
    """[h, D^{-1} h], truncated to the band limit of h."""
    return lagrange_bracket(h, h.inverse_helmholtz(), L_out=h.L)


def step(state, dt):
    """One classical RK4 step on the momentum coefficients."""
    h = state.h
    k1 = rhs(h)
    k2 = rhs(h + (0.5 * dt) * k1)
    k3 = rhs(h + (0.5 * dt) * k2)
    k4 = rhs(h + dt * k3)
    h_new = h + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return FlowState(h_new, state.t + dt)


def kinetic_energy(h):
    """T = (1/2) int_M h D^{-1} h dmu (energy of the velocity D^{-1} h)."""
    return 0.5 * inner_M(h, h.inverse_helmholtz())


def casimirs(h, k_max):
    """I_k = int_M h^k dmu for k = 1..k_max, by de-aliased quadrature."""
    out = np.empty(k_max)
    out[0] = geometry.FIBER_FACTOR * h.coeffs[0, h.L] * SQRT_4PI
    grid = SphereGrid.for_integration(k_max * max(h.L, 1), h.L)
    vals = h.to_grid(grid).values
    powers = vals.copy()
    for k in range(2, k_max + 1):
        powers = powers * vals
        out[k - 1] = geometry.FIBER_FACTOR * grid.integrate(powers)
    return out


def stationarity_residual(h):
    """L^2(M) norm of the Euler right side at the working band limit."""
    return rhs(h).norm_M()


@dataclass(frozen=True)
class FlowResult:
    states: list          # sampled FlowStates (stride applied; endpoints kept)
    times: np.ndarray
    energy: np.ndarray    # T at sample times
    casimirs: np.ndarray  # shape (n_samples, k_max)
    coeff_norms: np.ndarray


def evolve(state0, cfg):
    """Integrate to cfg.t_end; returns sampled states plus the invariant log.

    Raises BlowUpError when the coefficient norm passes the threshold
    (with the offending time in the exception), and ValueError before the
    first step when the initial momentum is not finite.
    """
    if not np.all(np.isfinite(state0.h.coeffs)):
        raise ValueError("evolve needs a finite initial momentum state0.h")
    n_steps = int(round(cfg.t_end / cfg.dt))

    def sample(state, norm):
        return state, state.t, kinetic_energy(state.h), casimirs(state.h, cfg.k_max), norm

    state = state0
    samples = [sample(state, state.h.norm_M())]
    for i in range(1, n_steps + 1):
        state = step(state, cfg.dt)
        norm = state.h.norm_M()
        if not np.isfinite(norm) or norm > BLOWUP_THRESHOLD:
            raise BlowUpError(state.t, norm)
        if i % cfg.invariant_sample_stride == 0 or i == n_steps:
            samples.append(sample(state, norm))
    states, *logs = zip(*samples)
    return FlowResult(list(states), *map(np.array, logs))


def relative_drift(series):
    """max |x(t) - x(0)| / max(1, |x(0)|) over a logged series."""
    x0 = series[0]
    return float(np.max(np.abs(series - x0)) / max(1.0, abs(x0)))


def momentum_form_identity_residual(f):
    """L^2(M) residual of [h, D^{-1}h] = [Delta f, f] for h = (1+Delta) f.

    Both sides expand the same Euler right side; checking the identity at
    full product degree guards the momentum/velocity bookkeeping.
    """
    h = f.helmholtz()
    lhs = lagrange_bracket(h, h.inverse_helmholtz())
    rhs_ = lagrange_bracket(f.laplacian(), f)
    return (lhs - rhs_).norm_M()
