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
from reference import pdq

TAGS = (None, "dtheta", "dlambda_over_sin")    # in the order of their tables
band = st.integers(0, 12)
extra = st.integers(0, 3)
seeds = st.integers(0, 2 ** 32 - 1)
fast = settings(max_examples=50, deadline=None)


def reference_values(f, theta, lam, tag):
    """Mode-by-mode sum of the basis functions (or their derivatives)."""
    table = pdq(legendre_tables(np.cos(theta), f.L))[TAGS.index(tag)]
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


@pytest.mark.parametrize("L", [-1, 2.5, 3.0, True])
def test_an_analysis_degree_must_be_an_integer(L):
    # -1 used to fail in a reshape and 2.5 in a slice, with numpy's words;
    # warm views of degree 3 do not let 3.0 through
    g = SphereGrid(6, 14)
    analyze(GridFunction(g, np.ones((6, 14))), 3)
    for call in (lambda: analyze(GridFunction(g, np.ones((6, 14))), L),
                 lambda: adjoint_analyze(np.ones((6, 14)), g, L, None)):
        with pytest.raises(ValueError, match="analysis needs L to be an integer >= 0"):
            call()


def test_unknown_tag_rejected():
    f = SpectralFunction.mode(2, 1)
    grid = SphereGrid.for_degree(2)
    # an unknown tag, alone or in a tuple, an empty tuple, an unhashable list
    for deriv in ("dphi", ("dtheta", "dphi"), (), ["dtheta"]):
        with pytest.raises(ValueError, match="unknown derivative tag"):
            synthesize(f, grid, deriv=deriv)
        with pytest.raises(ValueError, match="unknown derivative tag"):
            adjoint_analyze(np.zeros((2, grid.nlat, grid.nlon)), grid, 2, deriv)
        with pytest.raises(ValueError, match="unknown derivative tag"):
            f.evaluate_base(0.3, 0.4, deriv=deriv)


def test_tuple_adjoint_needs_its_tag_axis():
    grid = SphereGrid.for_degree(2)
    for values in (np.zeros((3, grid.nlat, grid.nlon)), np.zeros((grid.nlat, grid.nlon))):
        with pytest.raises(ValueError, match="tag axis of length 2"):
            adjoint_analyze(values, grid, 2, ("dtheta", "dlambda_over_sin"))


tag_tuples = st.lists(st.sampled_from(TAGS), min_size=1, max_size=4).map(tuple)


@fast
@given(L=band, k=extra, seed=seeds, stack=st.integers(1, 3), tags=tag_tuples)
@example(L=0, k=0, seed=0, stack=1, tags=("dtheta", "dlambda_over_sin"))
@example(L=12, k=0, seed=0, stack=2, tags=("dlambda_over_sin", None))
def test_tag_tuples_are_one_kernel_call(L, k, seed, stack, tags):
    # a tuple of tags: each slice is its tag's values, the adjoint sums the
    # tags, a stack is bit for bit its slices, and a slice matches its
    # one-tag call to round-off (the matmul's shape differs, so not bits)
    rng = np.random.default_rng(seed)
    coeffs = np.stack([SpectralFunction.random(L, rng).coeffs for _ in range(stack)])
    f = SpectralFunction(coeffs[0])
    grid = SphereGrid.for_degree(L + k)
    th, lam = np.meshgrid(grid.theta, grid.lam, indexing="ij")
    got = synthesize(coeffs, grid, deriv=tags)
    points = f.evaluate_base(th, lam, deriv=tags)
    assert got.shape == (stack, len(tags), grid.nlat, grid.nlon)
    assert points.shape == (len(tags), grid.nlat, grid.nlon)
    for t, tag in enumerate(tags):
        want = reference_values(f, th.ravel(), lam.ravel(), tag).reshape(th.shape)
        assert np.max(np.abs(got[0, t] - want)) < 1e-11
        assert np.max(np.abs(points[t] - want)) < 1e-11
        one = synthesize(f, grid, deriv=tag)
        assert np.max(np.abs(got[0, t] - one)) <= 1e-15 * max(1.0, np.max(np.abs(one)))
    for idx in range(stack):
        assert np.array_equal(got[idx], synthesize(SpectralFunction(coeffs[idx]), grid, deriv=tags))
    g = rng.standard_normal((stack, len(tags), grid.nlat, grid.nlon))
    batch = adjoint_analyze(g, grid, L, tags)
    lhs = grid.integrate(np.sum(got[0] * g[0], axis=0))
    rhs = float(np.sum(f.coeffs * batch[0]))
    assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))
    for idx in range(stack):
        assert np.array_equal(batch[idx], adjoint_analyze(g[idx], grid, L, tags))


def test_plan_tables_are_views_of_one_stacked_array():
    harmonics._plan.cache_clear()
    grid = SphereGrid(9, 20)
    stack = grid._plan.arrays(6)["stack"]
    assert stack.shape == (7, 7, 3, 9)                   # [m, l, tag, j]
    for t in range(3):
        table = grid._plan.stack(4, slice(t, t + 1))
        assert np.shares_memory(table, stack)
        assert np.array_equal(table, stack[:5, :5, t])
    # the tangential pair is one view of the stack, no copy
    assert np.shares_memory(grid._plan.stack(6, slice(1, 3)), stack)


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
    # runs the same per-order Legendre sums, times each tag's symbol on
    # exp(i m lam), through numpy's real FFT
    rng = np.random.default_rng(L)
    grid = SphereGrid.for_integration(3 * L, L)
    weights = grid.w * (2.0 * np.pi / grid.nlon)
    coeffs = np.stack([SpectralFunction.random(L, rng).coeffs for _ in range(2)])
    values = rng.standard_normal((2, grid.nlat, grid.nlon))
    m = np.arange(L + 1)
    for t, tag in enumerate(TAGS):
        table = grid._plan.stack(L, slice(t, t + 1))               # [m, l, j]
        symbol = (1j * m if tag == "dlambda_over_sin" else 1.0) / np.where(m, SQRT_PI, SQRT_2PI)
        ab = harmonics._forward(coeffs, table)                     # [m, a/b, batch, j]
        C = np.moveaxis(ab[:, 0] - 1j * ab[:, 1], 0, -1) * symbol   # [batch, j, m]
        C[..., 1:] *= 0.5
        want = np.fft.irfft(C, n=grid.nlon, axis=-1, norm="forward")
        got = synthesize(coeffs, grid, deriv=tag)
        assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))
        C = np.fft.rfft(values, axis=-1)[..., :L + 1] * weights[:, None] * np.conj(symbol)
        C = np.moveaxis(C, -1, 0)                                   # [m, batch, j]
        want = harmonics._adjoint(np.stack([C.real, -C.imag], axis=-1), table)
        got = adjoint_analyze(values, grid, L, tag)
        assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))


def test_longitude_rows_are_read_only_slices_of_one_build():
    harmonics._lon_plan.cache_clear()
    plan = harmonics._lon_plan(31)
    low = plan.rows(5).copy()
    high = plan.rows(14)
    assert high.shape == (30, 2, 31)
    assert np.array_equal(high[:12], low)
    assert np.array_equal(harmonics._LonPlan(31).rows(5), low)
    assert np.shares_memory(plan.rows(5), high)
    # normalized basis rows and their lam-derivatives
    m = np.arange(15)[:, None]
    norm = np.where(m, SQRT_PI, SQRT_2PI)
    cos, sin = np.cos(m * plan.lam) / norm, np.sin(m * plan.lam) / norm
    for got, want in [(high[0::2, 0], cos), (high[1::2, 0], sin),
                      (high[0::2, 1], -m * sin), (high[1::2, 1], m * cos)]:
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))
    a, b = SphereGrid(9, 31), SphereGrid(4, 31)
    assert a.lam is b.lam is plan.lam
    for arr in (high, plan.rows(3), a.lam):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_point_rows_match_an_mpmath_oracle():
    # scattered evaluation of single modes at L = 64, so the value is the
    # Legendre factor times cos(m lam) or sin(m lam), or their lam-derivative,
    # over the norm: the rows must hold to round-off at high m, on the
    # bracket grid's longitudes and on random ones
    mpmath = pytest.importorskip("mpmath")
    L, theta = 64, 1.1
    rng = np.random.default_rng(64)
    lam = np.concatenate([SphereGrid.for_integration(3 * L, L).lam,
                          rng.uniform(-np.pi, 2.0 * np.pi, 64)])
    P, _, Q = (t[L] for t in pdq(legendre_tables(np.cos(theta), L)))
    for m in (1, 17, 40, 63, 64):
        with mpmath.workdps(40):       # m * lam exact, then rounded once
            wave = {f: np.array([float(f(m * mpmath.mpf(x)) / mpmath.sqrt(mpmath.pi))
                                 for x in lam]) for f in (mpmath.cos, mpmath.sin)}
        for sign, a, b in ((1, mpmath.cos, mpmath.sin), (-1, mpmath.sin, mpmath.cos)):
            f = SpectralFunction.mode(L, sign * m)
            got = f.evaluate_base(theta, lam)
            assert np.max(np.abs(got - P[m] * wave[a])) <= 1e-15 * abs(P[m, 0])
            # d/dlam cos = -m sin, d/dlam sin = m cos
            got = f.evaluate_base(theta, lam, deriv="dlambda_over_sin")
            want = -sign * m * Q[m] * wave[b]
            assert np.max(np.abs(got - want)) <= 1e-15 * m * abs(Q[m, 0])


@pytest.mark.parametrize("theta, lam, name", [
    (np.nan, 0.4, "theta"),                        # returned NaN
    ([0.3, np.inf], 0.4, "theta"),
    (0.3, np.inf, "lam"),                          # only warned
    (0.3, [0.4, -np.inf, np.nan], "lam"),
])
def test_evaluate_base_rejects_non_finite_angles(theta, lam, name):
    with pytest.raises(ValueError, match="^%s must be finite" % name):
        SpectralFunction.mode(2, 1).evaluate_base(theta, lam)


def memo_transforms(nlat, nlon, L, tags, seed=0):
    """synthesize, adjoint_analyze and analyze of seeded data at degree L with
    tags, on a grid of the cached plans."""
    rng = np.random.default_rng(seed)
    grid = SphereGrid(nlat, nlon)
    ntag = () if tags is None or isinstance(tags, str) else (len(tags),)
    coeffs = np.stack([SpectralFunction.random(L, rng).coeffs for _ in range(2)])
    values = rng.standard_normal((2,) + ntag + (nlat, nlon))
    g = GridFunction(grid, rng.standard_normal((nlat, nlon)))
    return (synthesize(coeffs, grid, deriv=tags), adjoint_analyze(values, grid, L, tags),
            analyze(g, L).coeffs)


def fresh_transforms(*args):
    harmonics._plan.cache_clear()
    return memo_transforms(*args)


def assert_same(got, want):
    assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


@pytest.mark.parametrize("tags", TAGS + (("dtheta", "dlambda_over_sin"),
                                         ("dlambda_over_sin", None)))
def test_plan_held_views_match_a_fresh_plan(tags):
    # a warm grid, a cleared plan cache, and a plan grown past L and read
    # again at L all give the values of a plan built fresh at L
    args = (9, 20, 5, tags)
    want = fresh_transforms(*args)
    assert_same(memo_transforms(*args), want)             # warm
    assert_same(fresh_transforms(*args), want)            # after cache_clear
    memo_transforms(9, 20, 8, tags)                       # grows the tables to 8
    assert_same(memo_transforms(*args), want)


def test_plan_held_views_are_read_only_and_go_with_outgrown_tables():
    harmonics._plan.cache_clear()
    memo_transforms(9, 20, 5, ("dlambda_over_sin", None))   # tables picked by a copy
    memo_transforms(9, 22, 4, harmonics.TANGENTIAL)
    plan = harmonics._plan(9)
    memo = plan._built[1]["views"]
    assert {key[:2] for key in memo} == {(20, 5), (22, 4)}
    arrays = [a for views in memo.values() for a in views if isinstance(a, np.ndarray)]
    assert len(arrays) == 16 and not any(a.flags.writeable for a in arrays)
    memo_transforms(9, 20, 8, None)                         # grows the tables
    assert list(plan._built[1]["views"]) == [(20, 8, None)]


def test_a_warm_grid_resolves_no_plan_stack(monkeypatch):
    grid = SphereGrid(7, 14)
    calls = []
    stack = harmonics._TablePlan.stack

    def counted(self, L, tables):
        calls.append(L)
        return stack(self, L, tables)

    monkeypatch.setattr(harmonics._TablePlan, "stack", counted)
    f = SpectralFunction.random(3, np.random.default_rng(0))
    values = np.ones((2, 7, 14))
    for _ in range(2):
        calls.clear()
        synthesize(f, grid, deriv=harmonics.TANGENTIAL)
        adjoint_analyze(values, grid, 3, harmonics.TANGENTIAL)
        analyze(f.to_grid(grid), 3)
    assert calls == []
