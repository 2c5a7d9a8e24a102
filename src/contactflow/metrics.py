"""The two invariant inner products on contact fields.

Right-invariant energy metric:  (X_f, X_h)_e = int_M g(X_f, X_h) dmu,
which on Hamiltonians equals int_M f (1 + Delta) h dmu.  Bi-invariant
pairing: <X_f, X_h> = int_M f h dmu.  The two are linked by
(X_f, X_h)_e = <X_{f + Delta f}, X_h>.

Both metrics are implemented along two independent paths: a spectral path
(diagonal in the eigenbasis) and a quadrature path (pointwise fields
integrated over S^3); their agreement is one of the package's standing
checks.  The quadrature path integrates on the Gauss grid of the operand
degrees: f h by harmonics.quad_inner_M, as the curvature routes do, and
g(X_f, X_h) from the fields' unit-frame component grids, as dmu_inner
does.  A float operand is read as a constant Hamiltonian.
"""

from __future__ import annotations

import enum

from .fields import _as_spectral, _quad_g_inners_M, contact_field
from .harmonics import inner_M, quad_inner_M


class MetricKind(enum.Enum):
    RIGHT_INVARIANT = "right_invariant_L2"
    BI_INVARIANT = "biinvariant_hamiltonian"


def inner(kind, f, h, method="spectral"):
    """Inner product of the contact fields X_f, X_h in the chosen metric.

    method="spectral" uses Parseval sums; method="quadrature" integrates
    pointwise data over S^3 (the honest path used to cross-check the
    spectral one).
    """
    if not isinstance(kind, MetricKind):
        kind = MetricKind(kind)
    f, h = _as_spectral(f, "f"), _as_spectral(h, "h")
    if method == "spectral":
        if kind is MetricKind.BI_INVARIANT:
            return inner_M(f, h)
        return inner_M(f, h.helmholtz())
    if method != "quadrature":
        raise ValueError("unknown method %r" % method)
    if kind is MetricKind.BI_INVARIANT:
        return quad_inner_M(f, h)
    return _quad_g_inners_M([(contact_field(f), contact_field(h))])[0]


def energy_inner(f, h):
    return inner(MetricKind.RIGHT_INVARIANT, f, h)


def biinvariant_inner(f, h):
    return inner(MetricKind.BI_INVARIANT, f, h)


def metric_relation_residual(f, h):
    """|(X_f, X_h)_e - <X_{f + Delta f}, X_h>| with the two sides computed
    through different pipelines (quadrature of fields vs spectral pairing)."""
    lhs = inner(MetricKind.RIGHT_INVARIANT, f, h, method="quadrature")
    rhs = biinvariant_inner(f + f.laplacian(), h)
    return abs(lhs - rhs)
