"""Sectional curvature of the contact transformation group in both metrics.

Three independent routes are implemented for the right-invariant energy
metric and cross-validated:

  * the general five-term Gauss-type formula assembled from the projected
    covariant derivative (whose Hamiltonian is given by the D-lemma
    Ds = (D[f,h] + [f,Dh] + [h,Df])/2), with all inner products spectral;
  * the direct five-term bracket formula, all mu-integrals evaluated by
    de-aliased grid quadrature;
  * the eigenfunction closed form (for single-degree pairs).

The routes share no bracket or operand, since their agreement is the
check.  Within a route, one dependency level's distinct brackets are one
batched call, bit-for-bit the single brackets, and harmonics._quad_inners
synthesizes each distinct operand once per grid, in harmonics._groups' order.

The structure-constant form carries an unresolved overall sign in its
source.  Matching it against the eigenfunction form fixes STRUCTURAL_SIGN
= +1.  structural_sign() re-runs that match on every call; a test holds the
two equal, and the curvature table's sign column and `contactflow
calibrate` report the measured value.  The bi-invariant metric has the
quarter square formula K = (1/4) int [f,h]^2 dmu >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bracket import (
    StructureConstants,
    _brackets,
    basis_function,
    basis_lm,
    lagrange_bracket,
    structure_constants,
)
from .harmonics import (
    SpectralFunction,
    _quad_inners,
    _support_of,
    eigenvalue,
    quad_inner_M,
)
from .metrics import MetricKind, energy_inner, inner

DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class SectionPlane:
    """A 2-plane spanned by X_f, X_h, orthonormalized in the chosen metric."""
    f: SpectralFunction
    h: SpectralFunction
    kind: MetricKind

    def __post_init__(self):
        object.__setattr__(self, "kind", MetricKind(self.kind))
        nf = np.sqrt(inner(self.kind, self.f, self.f))
        if nf <= DEGENERACY_TOL:
            raise ValueError("degenerate plane: first spanning function is null")
        fhat = self.f * (1.0 / nf)
        proj = inner(self.kind, fhat, self.h)
        h_perp = self.h - proj * fhat
        nh = np.sqrt(max(0.0, inner(self.kind, h_perp, h_perp)))
        if nh <= DEGENERACY_TOL * max(1.0, np.sqrt(inner(self.kind, self.h, self.h))):
            raise ValueError("degenerate plane: spanning functions are parallel")
        object.__setattr__(self, "f", fhat)
        object.__setattr__(self, "h", h_perp * (1.0 / nh))


def k_biinvariant(sigma):
    """Quarter-square curvature of the bi-invariant metric; nonnegative."""
    if sigma.kind is not MetricKind.BI_INVARIANT:
        raise ValueError("k_biinvariant needs a bi-invariant-orthonormal plane")
    b = lagrange_bracket(sigma.f, sigma.h)
    return 0.25 * quad_inner_M(b, b)


@dataclass(frozen=True)
class ProjectedCovariant:
    """Hamiltonians of the projected covariant derivatives.

    s: Hamiltonian of P(nabla_{X_f} X_h); q: Hamiltonian of
    P(nabla_{X_f} X_h + nabla_{X_h} X_f), with Dq = [f, Dh] + [h, Df].
    """
    s: SpectralFunction
    q: SpectralFunction


def projected_covariant(f, h):
    """s and q of (f, h) by the D-lemma, its three brackets one batched call.
    The assembled route batches these brackets with its own instead, and
    takes D s = [f, Df] for a pair (f, f), as [f, f] = 0 exactly."""
    b, fh, hf = _brackets([(f, h), (f, h.helmholtz()), (h, f.helmholtz())])
    s = (0.5 * (b.helmholtz() + fh + hf)).inverse_helmholtz()
    q = (fh + hf).inverse_helmholtz()
    return ProjectedCovariant(s=s, q=q)


def k_right_invariant(sigma, method="direct"):
    """Sectional curvature of the right-invariant metric.

    method="direct": the five-term bracket formula with mu-integrals by
    quadrature.  method="assembled": the general Gauss-type formula with
    the projected covariant derivative terms, all spectral.
    """
    if sigma.kind is not MetricKind.RIGHT_INVARIANT:
        raise ValueError("k_right_invariant needs an energy-orthonormal plane")
    f, h = sigma.f, sigma.h
    if method == "direct":
        lap_f, lap_h = f.laplacian(), h.laplacian()
        b, lf_h, f_lh, ff, hh = _brackets(
            [(f, h), (lap_f, h), (f, lap_h), (f, lap_f), (h, lap_h)])
        t_sym, q_tilde = lf_h + f_lh, f_lh - lf_h
        k = _quad_inners([(b, b), (b, b.laplacian()), (b, t_sym),
                          (ff, hh.inverse_helmholtz()),
                          (q_tilde, q_tilde.inverse_helmholtz())])
        return 0.25 * k[0] - 0.75 * k[1] + 0.5 * k[2] - k[3] + 0.25 * k[4]
    if method != "assembled":
        raise ValueError("unknown method %r" % method)
    Df, Dh = f.helmholtz(), h.helmholtz()
    b, f_Dh, h_Df, f_Df, h_Dh = _brackets(
        [(f, h), (f, Dh), (h, Df), (f, Df), (h, Dh)])
    f_b, h_b = _brackets([(f, b), (h, -1.0 * b)])
    s_ff, s_hh = f_Df.inverse_helmholtz(), h_Dh.inverse_helmholtz()
    q = (f_Dh + h_Df).inverse_helmholtz()
    return (-0.75 * energy_inner(b, b)
            - 0.5 * energy_inner(f_b, h)
            - 0.5 * energy_inner(h_b, f)
            - energy_inner(s_ff, s_hh)
            + 0.25 * energy_inner(q, q))


def _single_degree(f):
    """The unique degree carrying the coefficients, or None if mixed."""
    support, _ = _support_of(f.L, 0)
    degs = np.flatnonzero(np.any((f.coeffs != 0.0) & support, axis=1))
    if len(degs) != 1:
        return None
    return int(degs[0])


def k_eigen(f, h):
    """Eigenfunction curvature formula (right-invariant metric), quadrature.

    f, h must be single-degree; the pair is orthonormalized in the energy
    metric internally (Gram-Schmidt preserves eigenspaces).
    """
    lf, lh = _single_degree(f), _single_degree(h)
    if lf is None or lh is None:
        raise ValueError("k_eigen needs single-degree eigenfunction inputs")
    alpha, beta = eigenvalue(lf), eigenvalue(lh)
    sigma = SectionPlane(f, h, MetricKind.RIGHT_INVARIANT)
    b = lagrange_bracket(sigma.f, sigma.h)
    k = _quad_inners([(b, b.laplacian()), (b, b), (b, b.inverse_helmholtz())])
    return (-0.75 * k[0]
            + 0.25 * (1.0 + 2.0 * (alpha + beta)) * k[1]
            + 0.25 * (alpha - beta) ** 2 * k[2])


# ---------------------------------------------------------------------------
# structure-constant form and its sign oracle

STRUCTURAL_SIGN = 1


def structural_sign():
    """Measured overall sign of the structure-constant curvature form.

    An oracle, not a cache: every call compares the form on the degree-1
    pair (2, 3) of a fresh structure_constants(1) against k_eigen, where
    exactly one sign can match (the value is nonzero).  Raises if neither does.
    """
    reference = k_eigen(basis_function(2), basis_function(3))
    magnitude = _structural_form(structure_constants(1), 2, 3)
    for sign in (1, -1):
        if abs(sign * magnitude - reference) < 1e-8 * max(1.0, abs(reference)):
            return sign
    raise RuntimeError(
        "structure-constant curvature matches k_eigen under neither sign: "
        "sum %r vs reference %r" % (magnitude, reference))


def _structural_form(constants, j, k):
    """The form's sum over the c^i_{jk} of a basis pair, without the sign."""
    i, c = constants._pair(j, k)
    alpha, beta = eigenvalue(basis_lm(j)[0]), eigenvalue(basis_lm(k)[0])
    a_i = eigenvalue(np.floor(np.sqrt(i)))
    terms = c * c * (-0.75 * a_i
                     + 0.25 * (1.0 + 2.0 * (alpha + beta))
                     + 0.25 * (alpha - beta) ** 2 / (1.0 + a_i))
    return float(np.sum(terms)) / ((1.0 + alpha) * (1.0 + beta))


def k_structural(constants, j, k):
    """Curvature of the plane of basis pair (j, k) from structure constants.

    The basis is L^2(M)-orthonormal (the form's own normalization);
    STRUCTURAL_SIGN is applied.  Returns the signed curvature value; a
    pair beyond the table's degree raises ValueError.
    """
    if not isinstance(constants, StructureConstants):
        raise TypeError("k_structural expects a StructureConstants table")
    if j == k:
        raise ValueError("degenerate plane: basis pair (%d, %d) repeats" % (j, k))
    return STRUCTURAL_SIGN * _structural_form(constants, j, k)
