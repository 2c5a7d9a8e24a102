import numpy as np
import pytest

from contactflow import flow
from contactflow.harmonics import SpectralFunction, eigenvalue, inner_M
from contactflow.metrics import (
    MetricKind,
    biinvariant_inner,
    energy_inner,
    inner,
    metric_relation_residual,
)
from contactflow.rot3d import dmu_inner


def test_spectral_vs_quadrature_energy():
    rng = np.random.default_rng(0)
    for _ in range(5):
        f = SpectralFunction.random(3, rng)
        h = SpectralFunction.random(3, rng)
        s = inner(MetricKind.RIGHT_INVARIANT, f, h)
        q = inner(MetricKind.RIGHT_INVARIANT, f, h, method="quadrature")
        assert abs(s - q) < 1e-10 * max(1.0, abs(s))


def test_spectral_vs_quadrature_biinvariant():
    rng = np.random.default_rng(1)
    for _ in range(5):
        f = SpectralFunction.random(3, rng)
        h = SpectralFunction.random(3, rng)
        s = inner(MetricKind.BI_INVARIANT, f, h)
        q = inner(MetricKind.BI_INVARIANT, f, h, method="quadrature")
        assert abs(s - q) < 1e-10 * max(1.0, abs(s))


def test_biinvariant_is_flat_pairing():
    rng = np.random.default_rng(2)
    f = SpectralFunction.random(4, rng)
    h = SpectralFunction.random(4, rng)
    assert abs(biinvariant_inner(f, h) - inner_M(f, h)) < 1e-13


def test_energy_weights_eigenmodes():
    # (X_f, X_f)_e on a unit mode is 1 + alpha_l times the flat norm
    for l, m in [(1, 0), (2, -2), (3, 1)]:
        f = SpectralFunction.mode(l, m)
        ratio = energy_inner(f, f) / biinvariant_inner(f, f)
        assert abs(ratio - (1.0 + eigenvalue(l))) < 1e-12


def test_metric_relation_shift():
    rng = np.random.default_rng(3)
    for _ in range(6):
        f = SpectralFunction.random(3, rng)
        h = SpectralFunction.random(3, rng)
        assert metric_relation_residual(f, h) < 1e-10
        # spectral identity: (X_f, X_h)_e = <f + Delta f, h>
        lhs = energy_inner(f, h)
        rhs = biinvariant_inner(f + f.laplacian(), h)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_kinetic_energy_forms_agree():
    rng = np.random.default_rng(4)
    f = SpectralFunction.random(3, rng)
    assert abs(flow.kinetic_energy(f.helmholtz())
               - 0.5 * energy_inner(f, f)) < 1e-11


def test_unknown_method_rejected():
    f = SpectralFunction.constant(1.0)
    with pytest.raises(ValueError):
        inner(MetricKind.BI_INVARIANT, f, f, method="symbolic")


@pytest.mark.parametrize("La, Lb", [(0, 7), (7, 0), (1, 12), (12, 1), (0, 0),
                                    (24, 24), (32, 32)])
def test_quadrature_pairings_match_spectral_at_any_degree_pair(La, Lb):
    # the quadrature grid must integrate degree La + Lb and synthesize
    # max(La, Lb) alias-free in longitude; errors are scaled by the
    # Cauchy-Schwarz bound of each pairing
    rng = np.random.default_rng(La * 100 + Lb)
    f, h = SpectralFunction.random(La, rng), SpectralFunction.random(Lb, rng)
    # rot^-1 X_f pairs as the constant part of f on xi and -3 on the rest
    want = inner_M(SpectralFunction.constant(f.mean_M()) - 3.0 * f.mean_free(), h)
    assert abs(dmu_inner(f, h) - want) < 1e-13 * 3.0 * f.norm_M() * h.norm_M()
    for kind in MetricKind:
        s = inner(kind, f, h)
        q = inner(kind, f, h, method="quadrature")
        assert abs(s - q) < 1e-13 * np.sqrt(inner(kind, f, f) * inner(kind, h, h))


@pytest.mark.parametrize("method", ["spectral", "quadrature"])
def test_inner_takes_float_operands(method):
    h = SpectralFunction.random(3, np.random.default_rng(5))
    one = SpectralFunction.constant(1.0)
    for kind in MetricKind:
        want = inner(kind, one, h, method=method)
        assert inner(kind, 1.0, h, method=method) == want
        assert inner(kind, h, 1.0, method=method) == inner(kind, h, one, method=method)
