"""Property tests for the transform kernel pair behind synthesize,
analyze, adjoint_analyze and SpectralFunction.evaluate_base."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactflow.harmonics import (
    SQRT_2PI,
    SQRT_PI,
    SpectralFunction,
    SphereGrid,
    adjoint_analyze,
    analyze,
    legendre_tables,
    synthesize,
)

TAGS = (None, "dtheta", "dlambda_over_sin")
band = st.integers(0, 12)
extra = st.integers(0, 3)
seeds = st.integers(0, 2 ** 32 - 1)
fast = settings(max_examples=50, deadline=None)


def reference_values(f, theta, lam, tag):
    """Mode-by-mode sum of the basis functions (or their derivatives)."""
    P, dP, Q = legendre_tables(np.cos(theta), f.L)
    table = {None: P, "dtheta": dP, "dlambda_over_sin": Q}[tag]
    L = f.L
    vals = np.zeros_like(theta)
    for l in range(L + 1):
        for m in range(l + 1):
            a = f.coeffs[l, L + m]
            b = f.coeffs[l, L - m] if m else 0.0
            if tag == "dlambda_over_sin":
                wave = m * (b * np.cos(m * lam) - a * np.sin(m * lam))
            else:
                wave = a * np.cos(m * lam) + b * np.sin(m * lam)
            vals += table[l, m] * wave / (SQRT_PI if m else SQRT_2PI)
    return vals


def grid_for(L, k, integration):
    if integration:
        return SphereGrid.for_integration(2 * L + k, L)
    return SphereGrid.for_degree(L + k)


@fast
@given(L=band, k=extra, integration=st.booleans(), seed=seeds)
@example(L=0, k=0, integration=False, seed=0)
@example(L=0, k=1, integration=True, seed=0)
def test_analyze_inverts_synthesize(L, k, integration, seed):
    f = SpectralFunction.random(L, np.random.default_rng(seed))
    grid = grid_for(L, k, integration)
    back = analyze(f.to_grid(grid), L)
    assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12


@fast
@given(L=band, k=extra, seed=seeds)
@example(L=0, k=0, seed=0)
def test_adjoint_analyze_is_quadrature_adjoint(L, k, seed):
    rng = np.random.default_rng(seed)
    f = SpectralFunction.random(L, rng)
    grid = SphereGrid.for_degree(L + k)
    g = rng.standard_normal((grid.nlat, grid.nlon))
    for tag in TAGS:
        lhs = grid.integrate(synthesize(f, grid, deriv=tag) * g)
        rhs = float(np.sum(f.coeffs * adjoint_analyze(g, grid, L, tag)))
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))


@fast
@given(L=band, k=extra, seed=seeds)
@example(L=0, k=0, seed=0)
def test_synthesize_and_evaluate_base_match_mode_sum(L, k, seed):
    f = SpectralFunction.random(L, np.random.default_rng(seed))
    grid = SphereGrid.for_degree(L + k)
    th, lam = np.meshgrid(grid.theta, grid.lam, indexing="ij")
    for tag in TAGS:
        want = reference_values(f, th.ravel(), lam.ravel(), tag).reshape(th.shape)
        assert np.max(np.abs(synthesize(f, grid, deriv=tag) - want)) < 1e-11
        assert np.max(np.abs(f.evaluate_base(th, lam, deriv=tag) - want)) < 1e-11


def test_unknown_tag_rejected():
    f = SpectralFunction.mode(2, 1)
    grid = SphereGrid.for_degree(2)
    with pytest.raises(ValueError):
        synthesize(f, grid, deriv="dphi")
    with pytest.raises(ValueError):
        adjoint_analyze(np.zeros((grid.nlat, grid.nlon)), grid, 2, "dphi")
    with pytest.raises(ValueError):
        f.evaluate_base(0.3, 0.4, deriv="dphi")
