import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactflow import geometry, harmonics
from contactflow.bracket import basis_function, lagrange_bracket, structure_constants
from contactflow.curvature import SectionPlane, k_biinvariant, k_right_invariant
from contactflow.fields import FrameField
from contactflow.harmonics import (
    GridFunction,
    SpectralFunction,
    SphereGrid,
    adjoint_analyze,
    analyze,
    eigenvalue,
    inner_M,
    laplace_scale,
    legendre_tables,
    quad_inner_M,
    synthesize,
)
from contactflow.metrics import MetricKind
from contactflow.rot3d import curl, dmu_inner
from reference import pdq, product, random_coeffs

SQRT_4PI = np.sqrt(4.0 * np.pi)


def test_legendre_orthonormality():
    L = 10
    x, w = np.polynomial.legendre.leggauss(L + 1)
    P, dP, Q = pdq(legendre_tables(x, L))
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


@pytest.mark.parametrize("bad", [1.5, 2.0, True, np.float64(3.0), "2", None])
def test_eigenvalue_needs_an_integer_degree(bad):
    # a scalar degree is checked by plain comparisons; 1.5 used to give 7.5
    with pytest.raises(ValueError, match="integer degrees l >= 0"):
        eigenvalue(bad)


def test_eigenvalue_takes_numpy_integers_and_degree_arrays():
    assert eigenvalue(np.int64(3)) == eigenvalue(3) == 24.0
    assert eigenvalue(np.floor(np.sqrt(np.arange(5)))).tolist() == [0.0, 4.0, 4.0, 4.0, 12.0]
    # the diagonal operators read a shared read-only column, never the check
    col = harmonics._spectrum(4).alpha
    assert col is harmonics._spectrum(4).alpha
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
    assert np.allclose(f.coeffs[2, f.L - 2: f.L + 3], [0.0, -0.5, 0.0, 0.0, 0.0])
    assert f.truncated(1).L == 1
    with pytest.raises(ValueError):
        SpectralFunction.from_triples([(1, 2, 1.0)])
    with pytest.raises(ValueError):
        SpectralFunction.from_triples([(1, 0, np.nan)])


@pytest.mark.parametrize("coeffs", [
    np.array([[1.0 + 2.0j]]),                      # dropped the imaginary part
    np.zeros((2, 3), dtype=np.complex64),
    [[0.5j]],
])
def test_complex_coefficients_are_rejected(coeffs):
    with pytest.raises(TypeError, match="^coeffs must be a real array"):
        SpectralFunction(coeffs)


def test_real_coefficients_are_copied_as_floats():
    for coeffs in ([[2]], np.array([[True]]), np.ones((1, 1), np.float32)):
        f = SpectralFunction(coeffs)
        assert f.coeffs.dtype == float and f.coeffs[0, 0] == float(np.asarray(coeffs)[0, 0])
    c = np.ones((2, 3))
    c[0, [0, 2]] = 0.0                 # (l, m) = (0, +-1) are no basis slots
    assert SpectralFunction(c).coeffs is not c


@pytest.mark.parametrize("slot", [(0, 0), (0, 2), (1, 0), (2, 6)])
def test_coefficients_outside_the_triangle_are_rejected(slot):
    # (l, m) with l < |m| is no basis slot: np.ones((2, 3)) used to read
    # 6 pi in inner_M and 4 pi by quadrature
    c = np.zeros((4, 7))
    c[slot] = 1.0
    for bad in (c, np.ones((2, 3))):
        with pytest.raises(ValueError, match=r"^coeffs must be zero at l < \|m\|"):
            SpectralFunction(bad)
    c[slot] = -0.0
    assert SpectralFunction(c).norm_base() == 0.0


@pytest.mark.parametrize("L", [-1, 1.5, 2.0, True])
def test_truncated_and_padded_need_an_integer_degree(L):
    # truncated(-1) gave a function of degree -1 with a (0, 0) array
    f = SpectralFunction.random(3, np.random.default_rng(0))
    for name in ("truncated", "padded"):
        with pytest.raises(ValueError, match="%s needs L to be an integer >= 0" % name):
            getattr(f, name)(L)
    with pytest.raises(ValueError, match="cannot pad to a smaller band limit"):
        f.padded(2)
    assert f.truncated(np.int64(2)).L == 2 and f.padded(np.int64(4)).L == 4


_RNG = np.random.default_rng(0)


def _plane(kind):
    return SectionPlane(basis_function(2), basis_function(3), kind)


@pytest.mark.parametrize("call, error, name", [
    (lambda f: structure_constants(2.5), ValueError, "L"),
    (lambda f: SpectralFunction.random(2.5, _RNG), ValueError, "L"),
    (lambda f: SpectralFunction.random(-1, _RNG), ValueError, "L"),
    (lambda f: SpectralFunction.zeros(-1), ValueError, "L"),
    (lambda f: SpectralFunction.zeros(2.5), ValueError, "L"),
    (lambda f: geometry.verify_axioms(seed=-1), ValueError, "seed"),
    (lambda f: curl(3), TypeError, "X"),
    (lambda f: curl([3]), TypeError, "X"),
    (lambda f: curl([FrameField.reeb(), 3]), TypeError, "X"),
    (lambda f: inner_M(f, 3), TypeError, "h"),
    (lambda f: inner_M(None, f), TypeError, "f"),
    (lambda f: quad_inner_M(f, 3), TypeError, "v"),
    (lambda f: quad_inner_M([1.0], f), TypeError, "u"),
])
def test_bad_arguments_raise_errors_that_name_them(call, error, name):
    # each used to raise numpy's or Python's words, naming no argument
    f = SpectralFunction.random(2, np.random.default_rng(1))
    with pytest.raises(error, match=r"needs %s to be" % name):
        call(f)


@pytest.mark.parametrize("call, error, match", [
    # a scalar operand: was float()'s words, or "constant c" for any argument
    (lambda f: FrameField("x"), TypeError, "^a must be a SpectralFunction or a real number"),
    (lambda f: FrameField(f, None), TypeError, "^u must be a SpectralFunction"),
    (lambda f: FrameField(np.inf), ValueError, "^a must be finite"),
    (lambda f: FrameField(f, f, -np.inf), ValueError, "^w must be finite"),
    (lambda f: FrameField.contact(1j), TypeError, "^f must be"),
    (lambda f: FrameField.gradient(np.nan), ValueError, "^u must be finite"),
    (lambda f: lagrange_bracket("x", f), TypeError, "^f must be"),
    (lambda f: lagrange_bracket(f, np.nan), ValueError, "^h must be finite"),
    (lambda f: dmu_inner("x", f), TypeError, "^f must be"),
    (lambda f: dmu_inner(f, [1.0]), TypeError, "^h must be"),
    # a non-integer degree or order: was truncated by int()
    (lambda f: SpectralFunction.from_triples([(1.5, 0, 1.0)]), ValueError,
     r"^triple \(1.5, 0, 1.0\) needs l to be an integer >= 0, got 1.5"),
    (lambda f: SpectralFunction.from_triples([(2, 0.5, 1.0)]), ValueError,
     r"^triple \(2, 0.5, 1.0\) needs m to be an integer >= -2"),
    (lambda f: SpectralFunction.from_triples([(True, 0, 1.0)]), ValueError, "needs l"),
    # a triple's value: was float()'s words, or any numeric string
    (lambda f: SpectralFunction.from_triples([(1, 0, "x")]), TypeError,
     r"^triple \(1, 0\) value must be a real number, got 'x'"),
    (lambda f: SpectralFunction.from_triples([(1, 0, 1j)]), TypeError,
     r"^triple \(1, 0\) value must be a real number, got 1j"),
    # the lowest degree of a draw: was rounded up, or read as 0
    (lambda f: SpectralFunction.random(3, np.random.default_rng(0), lmin=2.5), ValueError,
     "^random needs lmin to be an integer >= 0, got 2.5"),
    (lambda f: SpectralFunction.random(3, np.random.default_rng(0), lmin=-1), ValueError,
     "^random needs lmin to be an integer >= 0, got -1"),
    (lambda f: SpectralFunction.random(3, np.random.default_rng(0), lmin=True), ValueError,
     "^random needs lmin"),
    # operator misuse: was an AttributeError, float()'s words or NaN coefficients
    (lambda f: f + 1.0, TypeError, "unsupported operand"),
    (lambda f: f - "x", TypeError, "unsupported operand"),
    (lambda f: f * "x", TypeError, "^c must be a real number"),
    (lambda f: 1j * f, TypeError, "^c must be a real number"),
    (lambda f: f * np.nan, ValueError, "^c must be finite"),
    (lambda f: FrameField(f) * np.inf, ValueError, "^c must be finite"),
    (lambda f: FrameField(1.0) + 1.0, TypeError, "unsupported operand"),
    (lambda f: FrameField(f) - None, TypeError, "unsupported operand"),
    # grid degrees: was a message about the derived nlat, or a grid
    (lambda f: SphereGrid.for_degree(2.5), ValueError,
     "^SphereGrid.for_degree needs L to be an integer >= 0, got 2.5"),
    (lambda f: SphereGrid.for_integration(-3, 2), ValueError, "needs deg_integrand"),
    (lambda f: SphereGrid.for_integration(4, True), ValueError, "needs deg_synth"),
    # shape and plane checks that no other test reaches
    (lambda f: GridFunction(SphereGrid.for_degree(2), np.zeros((2, 2))), ValueError,
     "^values shape does not match the grid"),
    (lambda f: SpectralFunction(np.zeros((2, 2))), ValueError,
     r"^coefficient array must have shape \(L\+1, 2L\+1\)"),
    (lambda f: synthesize(np.zeros(3), SphereGrid.for_degree(2)), ValueError,
     r"^coefficient arrays must have shape \(\.\.\., L\+1, 2L\+1\)"),
    (lambda f: analyze(f.to_grid(SphereGrid.for_degree(2)), 50), ValueError,
     "^grid too coarse in latitude to analyze degree 50"),
    (lambda f: k_biinvariant(_plane(MetricKind.RIGHT_INVARIANT)), ValueError,
     "^k_biinvariant needs a bi-invariant-orthonormal plane"),
    (lambda f: k_right_invariant(_plane(MetricKind.BI_INVARIANT)), ValueError,
     "^k_right_invariant needs an energy-orthonormal plane"),
    (lambda f: k_right_invariant(_plane(MetricKind.RIGHT_INVARIANT), "bogus"), ValueError,
     "^unknown method 'bogus'"),
    (lambda f: FrameField.from_components(f.to_grid(SphereGrid.for_degree(2)),
                                          f.to_grid(SphereGrid.for_degree(3)),
                                          f.to_grid(SphereGrid.for_degree(2)), 2),
     ValueError, "^component grids must coincide"),
])
def test_misused_operands_raise_errors_that_name_them(call, error, match):
    f = SpectralFunction.random(2, np.random.default_rng(1))
    with pytest.raises(error, match=match):
        call(f)


@pytest.mark.parametrize("args, kwargs, match", [
    ((2, 0.5), {"L": 3}, r"^triple \(2, 0.5, 1.0\) needs m"),    # was numpy's IndexError
    ((1.5, 0), {}, r"^triple \(1.5, 0, 1.0\) needs l"),         # blamed "zeros needs L"
    ((True, 0), {}, "needs l"),
    ((2, 3), {}, r"^triple \(2, 3\) out of range"),
    ((3, 0), {"L": 2}, r"^triple \(3, 0\) out of range for L = 2"),
    ((1, 0), {"L": 2.5},                                        # blamed "zeros needs L"
     "^from_triples needs L to be an integer >= 0, got 2.5"),
], ids=["m-0.5", "l-1.5", "l-True", "m-above-l", "l-above-L", "L-2.5"])
def test_mode_checks_its_indices_as_a_triple(args, kwargs, match):
    with pytest.raises(ValueError, match=match):
        SpectralFunction.mode(*args, **kwargs)


def test_triples_reject_a_repeated_mode():
    with pytest.raises(ValueError, match="twice"):
        SpectralFunction.from_triples([(1, 0, 1.0), (2, 1, 0.5), (1, 0, 2.0)])
    f = SpectralFunction.from_triples([(1, 1, 2.0), (1, -1, 3.0)])
    assert f.to_triples() == [(1, -1, 3.0), (1, 1, 2.0)]


@pytest.mark.parametrize("L", [0, 1, 2, 5, 12, 32])
def test_random_draws_once_as_the_per_degree_loop(L):
    # one normal draw scattered in degree order: the coefficients and the
    # generator state after the call are the per-degree loop's
    for seed in range(20):
        for lmin in sorted({0, 1, L}):
            for scale in (1.0, 0.25):
                rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = SpectralFunction.random(L, rng, lmin=lmin, scale=scale)
                assert np.array_equal(got.coeffs, random_coeffs(L, want_rng, lmin, scale))
                assert rng.bit_generator.state == want_rng.bit_generator.state


def test_grid_plan_arrays_are_shared_and_read_only():
    a, b = SphereGrid(7, 16), SphereGrid.for_degree(6)
    assert a.x is b.x and a.w is b.w and a.theta is b.theta
    for arr in (a.x, a.w, a._plan.arrays(6)["stack"], a._plan.stack(3, slice(1, 2)),
                b._plan.stack(5, slice(0, 3))):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_plan_tables_match_a_fresh_build_whatever_came_first():
    harmonics._plan.cache_clear()
    grid = SphereGrid(11, 24)
    for L in (2, 9, 4, 12, 9):
        got = grid._plan.arrays(L)["stack"][: L + 1, : L + 1]
        assert np.array_equal(got, legendre_tables(grid.x, L))


def test_point_plan_values_match_a_fresh_plan_whatever_came_first():
    rng = np.random.default_rng(12)
    theta, lam = rng.uniform(0.0, np.pi, 9), rng.uniform(0.0, 2.0 * np.pi, 9)
    plan = harmonics._PointPlan(theta, lam)
    for L in (2, 9, 4, 12, 9):
        coeffs = np.stack([SpectralFunction.random(L, rng).coeffs for _ in range(2)])
        for deriv in (None, "dtheta", "dlambda_over_sin", harmonics.TANGENTIAL):
            want = harmonics._PointPlan(theta, lam).evaluate(coeffs, deriv)
            assert np.array_equal(plan.evaluate(coeffs, deriv), want)


def test_point_plan_builds_once_at_the_largest_degree():
    # fields in ascending degree would grow a per-field build at every field
    from test_bench_hooks import traced_calls

    from contactflow.fields import FrameField, _NodePlan

    rng = np.random.default_rng(13)
    q = rng.standard_normal((5, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    fields = [FrameField(*(SpectralFunction.random(L, rng) for _ in range(3)))
              for L in (1, 3, 6, 8)]
    calls = traced_calls(lambda: _NodePlan(q).ambient(fields))
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
    for got, want in zip(pdq(legendre_tables(x, L)), _legendre_tables_by_mode(x, L)):
        assert np.array_equal(got, want)


def test_recurrence_columns_are_cached_and_read_only():
    assert harmonics._recurrence_columns.cache_info().maxsize is not None
    cmm, c, ab = harmonics._recurrence_columns(6)
    assert harmonics._recurrence_columns(6)[0] is cmm and len(ab) == 5
    for column in (cmm, c, *(v for pair in ab for v in pair)):
        with pytest.raises(ValueError):
            column.flat[0] = 1.0


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
