import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactflow import geometry, harmonics
from contactflow.harmonics import (
    SpectralFunction,
    SphereGrid,
    adjoint_analyze,
    analyze,
    eigenvalue,
    inner_M,
    laplace_scale,
    legendre_tables,
    product,
    synthesize,
)

SQRT_4PI = np.sqrt(4.0 * np.pi)


def test_legendre_orthonormality():
    L = 10
    x, w = np.polynomial.legendre.leggauss(L + 1)
    P, dP, Q = legendre_tables(x, L)
    for m in range(L + 1):
        block = P[m:, m]                      # rows l = m..L
        gram = (block * w) @ block.T
        assert np.max(np.abs(gram - np.eye(L + 1 - m))) < 1e-12


def test_round_trip_analysis_synthesis():
    rng = np.random.default_rng(0)
    L = 9
    f = SpectralFunction.random(L, rng)
    grid = SphereGrid.for_degree(L)
    g = f.to_grid(grid)
    back = analyze(g, L)
    assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12


def test_mode_normalization_on_sphere():
    # each mode has unit L^2(S^2) norm under the grid quadrature
    grid = SphereGrid.for_degree(6)
    for (l, m) in [(0, 0), (1, -1), (3, 2), (6, -5)]:
        f = SpectralFunction.mode(l, m)
        vals = synthesize(f, grid)
        assert abs(grid.integrate(vals * vals) - 1.0) < 1e-12


def test_gradient_adjoint_identity():
    # <grad F, grad Y_lm> = l(l+1) F_lm via the two adjoint channels
    rng = np.random.default_rng(1)
    L = 7
    f = SpectralFunction.random(L, rng)
    grid = SphereGrid.for_degree(L)
    f_th = synthesize(f, grid, deriv="dtheta")
    f_lm = synthesize(f, grid, deriv="dlambda_over_sin")
    got = (adjoint_analyze(f_th, grid, L, "dtheta")
           + adjoint_analyze(f_lm, grid, L, "dlambda_over_sin"))
    ll = np.arange(L + 1) * (np.arange(L + 1) + 1.0)
    want = f.coeffs * ll[:, None]
    assert np.max(np.abs(got - want)) < 1e-11


def test_laplacian_matches_frame_second_derivatives():
    # Delta f = -(v1^2 + v2^2 + v3^2) f on invariant functions, by FD
    rng = np.random.default_rng(2)
    f = SpectralFunction.random(3, rng)
    raw = rng.standard_normal(4)
    q = raw / np.linalg.norm(raw)
    fd = -sum(geometry.frame_second_derivative(f, axis, q) for axis in range(3))
    want = f.laplacian().pullback(q)
    assert abs(fd - want) < 1e-8


def test_laplace_scale_snapped():
    assert laplace_scale() == 2.0
    assert eigenvalue(1) == 4.0
    assert eigenvalue(3) == 24.0
    assert eigenvalue(np.arange(3)).tolist() == [0.0, 4.0, 12.0]


def test_eigenvalue_rejects_a_negative_degree():
    for bad in (-1, np.array([0, 2, -3])):
        with pytest.raises(ValueError, match="l >= 0"):
            eigenvalue(bad)
    # the diagonal operators read a shared read-only column, never the check
    col = SpectralFunction.zeros(4)._alpha_column()
    assert col is SpectralFunction.zeros(4)._alpha_column()
    assert not col.flags.writeable
    assert col.ravel().tolist() == eigenvalue(np.arange(5)).tolist()


def test_product_exact_at_degree_sum():
    rng = np.random.default_rng(3)
    f = SpectralFunction.random(3, rng)
    h = SpectralFunction.random(4, rng)
    p = product(f, h)
    grid = SphereGrid.for_degree(9)
    direct = synthesize(f, grid) * synthesize(h, grid)
    assert np.max(np.abs(synthesize(p.padded(9), grid) - direct)) < 1e-11


def test_inner_M_is_quadrature_integral():
    rng = np.random.default_rng(4)
    f = SpectralFunction.random(5, rng)
    h = SpectralFunction.random(5, rng)
    quad = geometry.QuadratureS3.build(7, 14, 2)
    vals = f.pullback(quad.nodes) * h.pullback(quad.nodes)
    want = float(np.dot(quad.weights, vals))
    assert abs(inner_M(f, h) - want) < 1e-10


def test_mean_and_norm_relations():
    f = SpectralFunction.constant(2.5)
    assert abs(f.mean_M() - 2.5) < 1e-14
    assert abs(inner_M(f, f) - 2.5 ** 2 * geometry.VOL_S3) < 1e-10
    g = f.mean_free()
    assert g.norm_base() == 0.0
    assert f.mean_zero() is False or f.mean_zero() == False  # noqa: E712


def test_triples_round_trip_and_slices():
    f = SpectralFunction.from_triples([(0, 0, 1.0), (2, -1, -0.5), (3, 3, 2.0)])
    assert f.L == 3
    assert sorted(f.to_triples()) == [(0, 0, 1.0), (2, -1, -0.5), (3, 3, 2.0)]
    assert np.allclose(f.degree_slice(2), [0.0, -0.5, 0.0, 0.0, 0.0])
    assert f.truncated(1).L == 1
    with pytest.raises(ValueError):
        SpectralFunction.from_triples([(1, 2, 1.0)])
    with pytest.raises(ValueError):
        SpectralFunction.from_triples([(1, 0, np.nan)])


def test_triples_reject_a_repeated_mode():
    with pytest.raises(ValueError, match="twice"):
        SpectralFunction.from_triples([(1, 0, 1.0), (2, 1, 0.5), (1, 0, 2.0)])
    f = SpectralFunction.from_triples([(1, 1, 2.0), (1, -1, 3.0)])
    assert f.to_triples() == [(1, -1, 3.0), (1, 1, 2.0)]


def test_grid_plan_arrays_are_shared_and_read_only():
    a, b = SphereGrid(7, 16), SphereGrid.for_degree(6)
    assert a.x is b.x and a.w is b.w and a.theta is b.theta
    for arr in (a.x, a.w, a.tables(6)["P"], a.tables(3)["dP"], b.tables(5)["Q"]):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_plan_tables_match_a_fresh_build_whatever_came_first():
    harmonics._plan.cache_clear()
    grid = SphereGrid(11, 24)
    for L in (2, 9, 4, 12, 9):
        want = legendre_tables(grid.x, L)
        for name, w in zip(("P", "dP", "Q"), want):
            assert np.array_equal(grid.tables(L)[name], w)


def test_point_plan_values_match_a_fresh_plan_whatever_came_first():
    rng = np.random.default_rng(12)
    theta, lam = rng.uniform(0.0, np.pi, 9), rng.uniform(0.0, 2.0 * np.pi, 9)
    plan = harmonics._PointPlan(theta, lam)
    for L in (2, 9, 4, 12, 9):
        f = SpectralFunction.random(L, rng)
        pairs = [(f, t) for t in (None, "dtheta", "dlambda_over_sin")]
        want = harmonics._PointPlan(theta, lam).evaluate(pairs)
        for got, w in zip(plan.evaluate(pairs), want):
            assert np.array_equal(got, w)


def test_point_plan_builds_once_at_the_largest_degree():
    # pairs in ascending degree would grow a per-pair build at every pair
    from test_bench_hooks import traced_calls

    rng = np.random.default_rng(13)
    theta, lam = rng.uniform(0.0, np.pi, 5), rng.uniform(0.0, 2.0 * np.pi, 5)
    pairs = [(SpectralFunction.random(L, rng), None) for L in (1, 3, 6, 8)]
    calls = traced_calls(lambda: harmonics._PointPlan(theta, lam).evaluate(pairs))
    assert calls["harmonics.legendre_tables"] == 1


@pytest.mark.parametrize("nlat, nlon, name", [
    (3, 4.5, "nlon"), (True, 4, "nlat"), (2.5, 4, "nlat"), (0, 4, "nlat"),
    (3, 1, "nlon"), (3, np.bool_(True), "nlon"), ("3", 4, "nlat")])
def test_sphere_grid_rejects_bad_sizes(nlat, nlon, name):
    with pytest.raises(ValueError, match="SphereGrid needs %s to be an integer" % name):
        SphereGrid(nlat, nlon)


def test_sphere_grid_takes_numpy_integer_sizes():
    grid = SphereGrid(np.int64(3), np.int32(5))
    assert (grid.nlat, grid.nlon) == (3, 5) and type(grid.nlon) is int
    assert grid.lam.shape == (5,)


def test_for_degree_is_the_full_degree_integration_grid():
    for L in range(41):
        a, b = SphereGrid.for_degree(L), SphereGrid.for_integration(2 * L, L)
        assert (a.nlat, a.nlon) == (b.nlat, b.nlon) == (L + 1, 2 * L + 2)


def _legendre_tables_by_mode(x, L):
    """The per-(l, m) loop legendre_tables used before its O(L) recurrence,
    kept verbatim as a bit-for-bit oracle."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.shape[0]
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    P = np.zeros((L + 1, L + 1, n))
    dP = np.zeros((L + 1, L + 1, n))
    Q = np.zeros((L + 1, L + 1, n))

    P[0, 0] = 1.0 / np.sqrt(2.0)
    for m in range(1, L + 1):
        cmm = np.sqrt((2.0 * m + 1.0) / (2.0 * m))
        P[m, m] = cmm * s * P[m - 1, m - 1]
        dP[m, m] = cmm * (x * P[m - 1, m - 1] + s * dP[m - 1, m - 1])
        if m == 1:
            Q[1, 1] = np.sqrt(3.0) / 2.0
        else:
            Q[m, m] = cmm * s * Q[m - 1, m - 1]
    for m in range(0, L + 1):
        if m + 1 <= L:
            c = np.sqrt(2.0 * m + 3.0)
            P[m + 1, m] = c * x * P[m, m]
            dP[m + 1, m] = c * (-s * P[m, m] + x * dP[m, m])
            Q[m + 1, m] = c * x * Q[m, m]
        for l in range(m + 2, L + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            P[l, m] = a * (x * P[l - 1, m] - b * P[l - 2, m])
            dP[l, m] = a * (-s * P[l - 1, m] + x * dP[l - 1, m] - b * dP[l - 2, m])
            Q[l, m] = a * (x * Q[l - 1, m] - b * Q[l - 2, m])
    return P, dP, Q


@settings(max_examples=100, deadline=None)
@given(L=st.integers(0, 40),
       x=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=50),
       poles=st.booleans())
@example(L=0, x=[0.5], poles=True)
@example(L=40, x=[0.0, 0.3, -0.7], poles=True)
def test_legendre_recurrence_matches_the_mode_loop(L, x, poles):
    x = np.array(x)
    if poles:
        x[0], x[-1] = 1.0, -1.0
    for got, want in zip(legendre_tables(x, L), _legendre_tables_by_mode(x, L)):
        assert np.array_equal(got, want)


def test_plan_cache_is_bounded():
    maxsize = harmonics._plan.cache_info().maxsize
    assert maxsize is not None
    for nlat in range(1, maxsize + 3):
        SphereGrid(nlat, 2)
    assert harmonics._plan.cache_info().currsize <= maxsize


def test_spectral_function_owns_its_coefficients():
    c = np.zeros((3, 5))
    f = SpectralFunction(c)
    c[1, 2] = 1.0                      # the caller's array, changed later
    assert f.norm_base() == 0.0
    g = f.padded(f.L)
    g.coeffs[2, 4] = 1.0
    assert f.norm_base() == 0.0
    z = SpectralFunction.zeros(2)      # fresh arrays stay writable
    z.coeffs[1, 2] = 3.0
    assert z.norm_base() == 3.0


def test_inverse_laplacian_domain():
    f = SpectralFunction.constant(1.0)
    with pytest.raises(ValueError):
        f.inverse_laplacian()
    g = SpectralFunction.mode(2, 1)
    back = g.laplacian().inverse_laplacian()
    assert np.max(np.abs(back.coeffs - g.coeffs)) < 1e-14


def test_pullback_matches_section_grid():
    rng = np.random.default_rng(5)
    f = SpectralFunction.random(4, rng)
    grid = SphereGrid.for_degree(4)
    vals = f.to_grid(grid).values
    th, lam = np.meshgrid(grid.theta, grid.lam, indexing="ij")
    pts = geometry.section_lift(th.ravel(), lam.ravel())
    direct = f.pullback(pts).reshape(vals.shape)
    assert np.max(np.abs(direct - vals)) < 1e-12


def test_fiber_invariance_of_pullback():
    # pullbacks are constant along Hopf fibers
    rng = np.random.default_rng(6)
    f = SpectralFunction.random(4, rng)
    raw = rng.standard_normal(4)
    q = raw / np.linalg.norm(raw)
    circle = geometry.quat_circle(q, 0, np.linspace(0.0, 2.0 * np.pi, 9))
    vals = f.pullback(circle)
    assert np.max(np.abs(vals - vals[0])) < 1e-12
