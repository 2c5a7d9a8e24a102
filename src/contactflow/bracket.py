"""Lagrange bracket of contact Hamiltonians and its structure constants.

For Reeb-invariant Hamiltonians the bracket [f, h] = X_f(h) never leaves
the base: [f, h] = (v3 f)(v2 h) - (v2 f)(v3 h), which in section
coordinates is -2 {F, H} with the standard sphere Poisson bracket
{F, H} = (d_theta F (1/sin) d_lam H - (1/sin) d_lam F d_theta H).
The scale -2 is a consequence of the calibrated contact structure and is
measured by the geometry oracle, not assumed (see geometry module).

Brackets of band-limited functions are band-limited by the degree sum D.
Each operand is synthesized at its own degree and the product grid is
sized to the output degree L <= D: a grid integrating degree D + L exactly
projects the bracket exactly (stronger than the 3/2 de-aliasing rule).
At L = D this is for_degree(D); the flow's brackets (L = D/2) get a grid
3/4 as fine each way and Legendre tables of half the degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .fields import contact_field_at
from .harmonics import (
    GridFunction,
    SphereGrid,
    SpectralFunction,
    analyze,
    inner_M,
    synthesize,
)

DROP_TOL = 1e-13


def lagrange_bracket(f, h, L_out=None):
    """[f, h] = X_f(h), exact to the full product degree by default.

    Pass L_out to get the bracket truncated (or zero-padded) to degree
    L_out, as the Euler flow does; identities are tested at full degree.
    """
    D = f.L + h.L
    L = D if L_out is None else min(L_out, D)
    grid = SphereGrid.for_integration(D + L, max(f.L, h.L))
    f_th = synthesize(f, grid, deriv="dtheta")
    f_lm = synthesize(f, grid, deriv="dlambda_over_sin")
    h_th = synthesize(h, grid, deriv="dtheta")
    h_lm = synthesize(h, grid, deriv="dlambda_over_sin")
    vals = -2.0 * (f_th * h_lm - f_lm * h_th)
    out = analyze(GridFunction(grid, vals), L)
    return out if L_out is None else out.padded(L_out)


# ---------------------------------------------------------------------------
# structure constants

def basis_size(L):
    return (L + 1) ** 2


def basis_lm(i):
    """Basis enumeration: i -> (l, m), ordered by degree then by m."""
    l = int(np.floor(np.sqrt(i)))
    return l, i - l * l - l


def basis_index(l, m):
    return l * l + l + m


def basis_function(i, L=None):
    """i-th basis element: the pullback of Y_lm / sqrt(fibre factor),
    orthonormal in L^2(M)."""
    l, m = basis_lm(i)
    return SpectralFunction.mode(l, m, value=1.0 / np.sqrt(geometry.FIBER_FACTOR),
                                 L=L if L is not None else l)


def basis_expansion(b, tol=0.0):
    """(i, c_i) with |c_i| > tol for b = sum_i c_i f_i; degree 0 is skipped."""
    out = []
    for l in range(1, b.L + 1):
        for m in range(-l, l + 1):
            c = b.coeffs[l, b.L + m] * np.sqrt(geometry.FIBER_FACTOR)
            if abs(c) > tol:
                out.append((basis_index(l, m), float(c)))
    return out


@dataclass
class StructureConstants:
    """Sparse c^i_{jk} with [f_j, f_k] = sum_i c^i_{jk} f_i.

    The basis {f_i} is the L^2(M)-orthonormal eigenfunction basis; entries
    below DROP_TOL are dropped.  Only j < k pairs are stored; antisymmetry
    supplies the rest.
    """
    L: int
    entries: dict = field(default_factory=dict)

    def coefficient(self, i, j, k):
        if j == k:
            return 0.0
        sign = 1.0
        if j > k:
            j, k, sign = k, j, -1.0
        for ii, c in self.entries.get((j, k), ()):
            if ii == i:
                return sign * c
        return 0.0

    def row(self, j, k):
        """List of (i, c^i_{jk}) with the antisymmetry sign applied."""
        if j == k:
            return []
        if j > k:
            return [(i, -c) for i, c in self.entries.get((k, j), ())]
        return list(self.entries.get((j, k), ()))

    def iter_rows(self):
        for (j, k) in sorted(self.entries):
            for i, c in self.entries[(j, k)]:
                yield i, j, k, c


def structure_constants(L):
    """All c^i_{jk} = <[f_j, f_k], f_i>_M for basis degrees <= L.

    The bracket of degrees (dj, dk) is resolved exactly, so the selection
    rule degree(i) <= dj + dk holds by construction; coefficients with
    degree(i) > L are retained (they are honest algebra data even though
    they leave the band).
    """
    if L < 1:
        raise ValueError("structure constants need L >= 1")
    n = basis_size(L)
    sc = StructureConstants(L)
    funcs = [basis_function(i) for i in range(n)]
    for j in range(n):
        if basis_lm(j)[0] == 0:
            continue  # bracket with the constant mode vanishes identically
        for k in range(j + 1, n):
            row = basis_expansion(lagrange_bracket(funcs[j], funcs[k]), DROP_TOL)
            if row:
                sc.entries[(j, k)] = row
    return sc


# ---------------------------------------------------------------------------
# verification oracles

def verify_homomorphism(f, h, n_points=8, seed=0, step=geometry.FD_STEP):
    """Max sample-point residual of [X_f, X_h] = X_{[f,h]}.

    The left side is a finite-difference Lie bracket of the ambient field
    evaluations; the right side is the contact field of the spectral
    bracket.  Returns the max Euclidean norm of the difference.
    """
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n_points, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    br = lagrange_bracket(f, h)

    def Xf(pts):
        return contact_field_at(f, pts)

    def Xh(pts):
        return contact_field_at(h, pts)

    right = contact_field_at(br, q)
    resid = 0.0
    for i in range(n_points):
        left = geometry.lie_bracket_fd(Xf, Xh, q[i], step=step)
        resid = max(resid, float(np.linalg.norm(left - right[i])))
    return resid


def jacobi_residual(f, h, k):
    """L^2(M) norm of [f,[h,k]] + [h,[k,f]] + [k,[f,h]] at full degree."""
    s = (lagrange_bracket(f, lagrange_bracket(h, k))
         + lagrange_bracket(h, lagrange_bracket(k, f))
         + lagrange_bracket(k, lagrange_bracket(f, h)))
    return s.norm_M()


def ad_invariance_residual(k, f, h):
    """<[k,f], h>_M + <f, [k,h]>_M; zero by the bi-invariance identity."""
    return inner_M(lagrange_bracket(k, f), h) + inner_M(f, lagrange_bracket(k, h))
