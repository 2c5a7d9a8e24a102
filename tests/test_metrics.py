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
