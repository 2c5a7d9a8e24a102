"""Lagrange bracket of contact Hamiltonians and its structure constants.

For Reeb-invariant Hamiltonians the bracket [f, h] = X_f(h) never leaves
the base: [f, h] = (v3 f)(v2 h) - (v2 f)(v3 h), which in section
coordinates is -2 {F, H} with the standard sphere Poisson bracket
{F, H} = (d_theta F (1/sin) d_lam H - (1/sin) d_lam F d_theta H).
The scale -2 is a consequence of the calibrated contact structure and is
measured by the geometry oracle, not assumed (see geometry module).

Brackets of band-limited functions are band-limited by the degree sum D.
The operands are synthesized as one stack, both tangential derivatives in
one call, on a grid sized to the output degree L <= D: a grid integrating
degree D + L exactly projects the bracket exactly (stronger than the 3/2
de-aliasing rule).
At L = D this is for_degree(D); the flow's brackets (L = D/2) get a grid
3/4 as fine each way and Legendre tables of half the degree.  A batch
stacks the operands of the brackets of one (D, max degree), grouped by
harmonics._groups, on the grid and padding each would get alone, so every
bracket is bit-for-bit its own call.  The structure constants synthesize
the whole basis once on for_degree(2L) and are stored as (i, j, k, c) arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import geometry
from .fields import _as_spectral, contact_field_at
from .harmonics import (
    TANGENTIAL,
    SphereGrid,
    SpectralFunction,
    _groups,
    _spectrum,
    adjoint_analyze,
    inner_M,
    synthesize,
)

DROP_TOL = 1e-13


def lagrange_bracket(f, h, L_out=None):
    """[f, h] = X_f(h), exact to the full product degree by default.

    Pass L_out to get the bracket truncated (or zero-padded) to degree
    L_out, as the Euler flow does; identities are tested at full degree.
    A float operand is the constant Hamiltonian of that value.
    """
    return _brackets([(_as_spectral(f, "f"), _as_spectral(h, "h"))], L_out)[0]


def _brackets(pairs, L_out=None):
    """[f, h] of each (f, h) pair, bit-for-bit its own lagrange_bracket:
    the pairs of one (D, L_in) (L follows from D) share that bracket's grid,
    one synthesize call for both derivatives and one analysis."""
    if L_out is not None:
        L_out = geometry._positive_count(L_out, "lagrange_bracket needs L_out", least=0)
    out = [None] * len(pairs)
    for (D, L_in), idx in _groups((f.L + h.L, max(f.L, h.L)) for f, h in pairs).items():
        L = D if L_out is None else min(L_out, D)
        grid = SphereGrid.for_integration(D + L, L_in)
        fh = np.array([[w._coeffs_at(L_in) for w in pairs[n]] for n in idx])
        d = synthesize(fh, grid, deriv=TANGENTIAL)            # [bracket, f/h, tag]
        vals = -2.0 * (d[:, 0, 0] * d[:, 1, 1] - d[:, 0, 1] * d[:, 1, 0])
        for n, c in zip(idx, adjoint_analyze(vals, grid, L, None)):
            b = SpectralFunction._of(c.copy())     # a row of the batch: its own storage
            out[n] = b if L_out in (None, L) else b.padded(L_out)
    return out


# ---------------------------------------------------------------------------
# structure constants

def basis_size(L):
    return (L + 1) ** 2


def basis_lm(i):
    """Basis enumeration: i -> (l, m), ordered by degree then by m."""
    i = geometry._positive_count(i, "a basis index needs i", least=0)
    l = math.isqrt(i)
    return l, i - l * l - l


def basis_index(l, m):
    """The inverse of basis_lm, for integers l >= 0 and |m| <= l (else ValueError)."""
    l = geometry._positive_count(l, "a basis index needs l", least=0)
    m = geometry._positive_count(m, "a basis index needs m", least=-l)
    if m > l:
        raise ValueError("a basis index needs m <= l = %d, got %r" % (l, m))
    return l * l + l + m


def basis_function(i, L=None):
    """i-th basis element: the pullback of Y_lm / sqrt(fibre factor),
    orthonormal in L^2(M)."""
    l, m = basis_lm(i)
    return SpectralFunction.mode(l, m, value=1.0 / np.sqrt(geometry.FIBER_FACTOR), L=L)


@dataclass(frozen=True, eq=False)
class StructureConstants:
    """Sparse c^i_{jk} with [f_j, f_k] = sum_i c^i_{jk} f_i.

    The basis {f_i} is the L^2(M)-orthonormal eigenfunction basis; entries
    with |c| <= DROP_TOL are dropped.  Only j < k pairs are stored, as four
    arrays in (j, k, i) order; antisymmetry supplies the rest.  A pair
    beyond degree L, or with an index that is not an integer (a float such
    as 2.0, or a bool), raises ValueError.  The sorted pair keys j n + k are
    formed once, at construction.
    """
    L: int
    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "_keys", self.j * basis_size(self.L) + self.k)

    def _pair(self, j, k):
        """(i, c) arrays of the pair (j, k), with the antisymmetry sign."""
        n = basis_size(self.L)
        j = geometry._positive_count(j, "a pair lookup needs j", least=0)
        k = geometry._positive_count(k, "a pair lookup needs k", least=0)
        if not (j < n and k < n):
            raise ValueError("pair (%d, %d) beyond degree %d" % (j, k, self.L))
        key = min(j, k) * n + max(j, k)
        lo, hi = np.searchsorted(self._keys, (key, key + 1))
        return self.i[lo:hi], (1.0 if j < k else -1.0) * self.c[lo:hi]

    def coefficient(self, i, j, k):
        return dict(self.row(j, k)).get(i, 0.0)

    def row(self, j, k):
        """List of (i, c^i_{jk}) with the antisymmetry sign applied."""
        return list(zip(*(a.tolist() for a in self._pair(j, k))))

    def iter_rows(self):
        return zip(*(a.tolist() for a in (self.i, self.j, self.k, self.c)))


def structure_constants(L):
    """All c^i_{jk} = <[f_j, f_k], f_i>_M for basis degrees <= L.

    The basis is synthesized once, both tags in one call, on for_degree(2L),
    which resolves every bracket; for each j the brackets with all k > j
    are analyzed in one call.  Kept: |c| > DROP_TOL and 1 <= deg i <=
    deg j + deg k, the exact bracket's selection rule (outside it the grid
    leaves round-off).
    Entries with deg i > L are honest algebra data and are kept.
    """
    L = geometry._positive_count(L, "structure_constants needs L")
    n, D = basis_size(L), 2 * L
    basis = np.stack([basis_function(i, L).coeffs for i in range(n)])
    slots = _spectrum(D).slots
    deg = np.nonzero(slots)[0]
    grid = SphereGrid.for_degree(D)
    d = synthesize(basis, grid, deriv=TANGENTIAL)
    th, lm = d[:, 0], d[:, 1]
    rows = []
    for j in range(1, n - 1):   # brackets with the constant mode j = 0 vanish
        vals = -2.0 * (th[j] * lm[j + 1:] - lm[j] * th[j + 1:])
        c = np.sqrt(geometry.FIBER_FACTOR) * adjoint_analyze(vals, grid, D, None)[:, slots]
        keep = ((np.abs(c) > DROP_TOL) & (deg >= 1)
                & (deg <= deg[j] + deg[j + 1:n, None]))
        kk, ii = np.nonzero(keep)
        rows.append((ii, np.full(ii.size, j), kk + j + 1, c[kk, ii]))
    return StructureConstants(L, *map(np.concatenate, zip(*rows)))


# ---------------------------------------------------------------------------
# verification oracles

def verify_homomorphism(f, h, n_points=8, seed=0):
    """Max sample-point residual of [X_f, X_h] = X_{[f,h]}.

    The left side is a finite-difference Lie bracket of the ambient field
    evaluations, one lie_bracket_fd call over the (n_points, 4) batch; the
    right side is the contact field of the spectral bracket.  Returns the
    max Euclidean norm of the difference.  n_points must be an integer >= 1
    (ValueError otherwise).
    """
    n_points = geometry._positive_count(n_points, "verify_homomorphism needs n_points")
    q = geometry._random_points(np.random.default_rng(seed), n_points)
    Xf, Xh = partial(contact_field_at, f), partial(contact_field_at, h)
    left = geometry.lie_bracket_fd(Xf, Xh, q)
    right = contact_field_at(lagrange_bracket(f, h), q)
    return float(np.max(np.linalg.norm(left - right, axis=-1)))


def jacobi_residual(f, h, k):
    """L^2(M) norm of [f,[h,k]] + [h,[k,f]] + [k,[f,h]] at full degree."""
    s = (lagrange_bracket(f, lagrange_bracket(h, k))
         + lagrange_bracket(h, lagrange_bracket(k, f))
         + lagrange_bracket(k, lagrange_bracket(f, h)))
    return s.norm_M()


def ad_invariance_residual(k, f, h):
    """<[k,f], h>_M + <f, [k,h]>_M; zero by the bi-invariance identity."""
    return inner_M(lagrange_bracket(k, f), h) + inner_M(f, lagrange_bracket(k, h))
