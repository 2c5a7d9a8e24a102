"""Property tests for the transform kernel pair behind synthesize,
analyze, adjoint_analyze and SpectralFunction.evaluate_base."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactflow.harmonics import (
    SQRT_2PI,
    SQRT_PI,
    GridFunction,
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
@given(L=band, k=extra, seed=seeds, stack=st.integers(1, 3))
@example(L=0, k=0, seed=0, stack=1)
def test_adjoint_analyze_is_quadrature_adjoint(L, k, seed, stack):
    rng = np.random.default_rng(seed)
    f = SpectralFunction.random(L, rng)
    grid = SphereGrid.for_degree(L + k)
    g = rng.standard_normal((stack, 2, grid.nlat, grid.nlon))
    for tag in TAGS:
        lhs = grid.integrate(synthesize(f, grid, deriv=tag) * g[0, 0])
        batch = adjoint_analyze(g, grid, L, tag)
        rhs = float(np.sum(f.coeffs * batch[0, 0]))
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))
        # a stack of grids is bit for bit its slices, one call each
        for idx in np.ndindex(g.shape[:2]):
            assert np.array_equal(batch[idx], adjoint_analyze(g[idx], grid, L, tag))


@fast
@given(L=band, k=extra, seed=seeds, stack=st.integers(1, 3))
@example(L=0, k=0, seed=0, stack=1)
def test_synthesize_and_evaluate_base_match_mode_sum(L, k, seed, stack):
    rng = np.random.default_rng(seed)
    fs = [SpectralFunction.random(L, rng) for _ in range(2 * stack)]
    f = fs[0]
    grid = SphereGrid.for_degree(L + k)
    th, lam = np.meshgrid(grid.theta, grid.lam, indexing="ij")
    coeffs = np.stack([g.coeffs for g in fs]).reshape(stack, 2, L + 1, 2 * L + 1)
    for tag in TAGS:
        want = reference_values(f, th.ravel(), lam.ravel(), tag).reshape(th.shape)
        assert np.max(np.abs(synthesize(f, grid, deriv=tag) - want)) < 1e-11
        assert np.max(np.abs(f.evaluate_base(th, lam, deriv=tag) - want)) < 1e-11
        # a stack of coefficient arrays is bit for bit its slices
        batch = synthesize(coeffs, grid, deriv=tag)
        for idx in np.ndindex(coeffs.shape[:2]):
            one = synthesize(SpectralFunction(coeffs[idx]), grid, deriv=tag)
            assert np.array_equal(batch[idx], one)


@pytest.mark.parametrize("call, nlat, nlon", [
    ("synthesize", 12, 16), ("analyze", 12, 16), ("adjoint_analyze", 12, 16),
    ("synthesize", 5, 10), ("adjoint_analyze", 5, 10)])
def test_grid_too_coarse_in_longitude_rejected(call, nlat, nlon):
    # degree 8 needs nlon >= 18; (5, 10) is for_degree(4)
    L, grid = 8, SphereGrid(nlat, nlon)
    values = np.zeros((nlat, nlon))
    run = {"synthesize": lambda: synthesize(SpectralFunction.zeros(L), grid),
           "analyze": lambda: analyze(GridFunction(grid, values), L),
           "adjoint_analyze": lambda: adjoint_analyze(values, grid, L, "dtheta")}
    with pytest.raises(ValueError, match="grid too coarse in longitude"):
        run[call]()


def test_unknown_tag_rejected():
    f = SpectralFunction.mode(2, 1)
    grid = SphereGrid.for_degree(2)
    with pytest.raises(ValueError):
        synthesize(f, grid, deriv="dphi")
    with pytest.raises(ValueError):
        adjoint_analyze(np.zeros((grid.nlat, grid.nlon)), grid, 2, "dphi")
    with pytest.raises(ValueError):
        f.evaluate_base(0.3, 0.4, deriv="dphi")
