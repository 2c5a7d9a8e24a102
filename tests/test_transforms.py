"""Property tests for the transform kernel pair behind synthesize,
analyze, adjoint_analyze and SpectralFunction.evaluate_base."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactflow import harmonics
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


@pytest.mark.parametrize("nlat, nlon, L", [(7, 13, 5), (9, 31, 8)])
def test_odd_and_prime_nlon_round_trip_and_mode_sum(nlat, nlon, L):
    # the longitude step forms only the orders m <= L, for any nlon
    rng = np.random.default_rng(nlon)
    f = SpectralFunction.random(L, rng)
    grid = SphereGrid(nlat, nlon)
    assert np.max(np.abs(analyze(f.to_grid(grid), L).coeffs - f.coeffs)) < 1e-13
    th, lam = np.meshgrid(grid.theta, grid.lam, indexing="ij")
    for tag in TAGS:
        want = reference_values(f, th.ravel(), lam.ravel(), tag).reshape(th.shape)
        assert np.max(np.abs(synthesize(f, grid, deriv=tag) - want)) < 1e-12


@pytest.mark.parametrize("L", [32, 64])
def test_longitude_step_matches_an_fft_oracle(L):
    # the flow's bracket grid at degree L (49 x 98 at L = 32); the oracle
    # runs the same per-order amplitudes through numpy's real FFT
    rng = np.random.default_rng(L)
    grid = SphereGrid.for_integration(3 * L, L)
    weights = grid.w * (2.0 * np.pi / grid.nlon)
    coeffs = np.stack([SpectralFunction.random(L, rng).coeffs for _ in range(2)])
    values = rng.standard_normal((2, grid.nlat, grid.nlon))
    for tag in TAGS:
        name, R = harmonics._symbol(tag, L)
        table = grid.tables(L)[name]
        C = harmonics._forward(coeffs, table, R)
        C = C[..., 0, :] - 1j * C[..., 1, :]
        C[..., 1:, :] *= 0.5
        want = np.fft.irfft(np.swapaxes(C, -1, -2), n=grid.nlon, axis=-1, norm="forward")
        got = synthesize(coeffs, grid, deriv=tag)
        assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))
        C = np.swapaxes(np.fft.rfft(values, axis=-1)[..., :L + 1], -1, -2) * weights
        want = harmonics._adjoint(np.stack([C.real, -C.imag], axis=-1), table, R)
        got = adjoint_analyze(values, grid, L, tag)
        assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))


def test_longitude_rows_are_read_only_slices_of_one_build():
    harmonics._lon_plan.cache_clear()
    plan = harmonics._lon_plan(31)
    low = plan.rows(5).copy()
    high = plan.rows(14)
    assert high.shape == (30, 31)
    assert np.array_equal(high[:12], low)
    assert np.array_equal(harmonics._LonPlan(31).rows(5), low)
    assert np.shares_memory(plan.rows(5), high)
    m = np.arange(15)[:, None]
    assert np.max(np.abs(high[0::2] - np.cos(m * plan.lam))) < 1e-13
    assert np.max(np.abs(high[1::2] - np.sin(m * plan.lam))) < 1e-13
    a, b = SphereGrid(9, 31), SphereGrid(4, 31)
    assert a.lam is b.lam is plan.lam
    for arr in (high, plan.rows(3), a.lam):
        with pytest.raises(ValueError):
            arr[0] = 1.0
