import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactflow import fields, geometry, harmonics
from contactflow.fields import FrameField, contact_field, contact_field_at
from contactflow.harmonics import SpectralFunction, SphereGrid, synthesize
from contactflow.rot3d import _dmu_fields, dmu_inner
from reference import carried_frame, g_inner_M, section


def unit_points(rng, n):
    raw = rng.standard_normal((n, 4))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def test_contact_field_evaluate_matches_pointwise():
    rng = np.random.default_rng(0)
    f = SpectralFunction.random(4, rng)
    pts = unit_points(rng, 30)
    X = contact_field(f)
    assert np.max(np.abs(X.evaluate(pts) - contact_field_at(f, pts))) < 1e-12


def test_contact_field_theta_recovers_hamiltonian():
    rng = np.random.default_rng(1)
    f = SpectralFunction.random(3, rng)
    pts = unit_points(rng, 30)
    vals = geometry.theta_form(pts, contact_field_at(f, pts))
    assert np.max(np.abs(vals - f.pullback(pts))) < 1e-12


def test_field_sum_adds_potentials_and_values():
    rng = np.random.default_rng(21)
    X = FrameField(*(SpectralFunction.random(L, rng) for L in (3, 1, 4)))
    Y = FrameField(*(SpectralFunction.random(L, rng) for L in (2, 5, 0)))
    Z = X + Y
    for name in "auw":
        assert np.array_equal(getattr(Z, name).coeffs,
                              (getattr(X, name) + getattr(Y, name)).coeffs)
    pts = unit_points(rng, 12)
    want = X.evaluate(pts) + Y.evaluate(pts)
    assert np.max(np.abs(Z.evaluate(pts) - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


def test_fields_are_tangent():
    rng = np.random.default_rng(2)
    X = FrameField(SpectralFunction.random(3, rng),
                   SpectralFunction.random(3, rng),
                   SpectralFunction.random(3, rng))
    pts = unit_points(rng, 20)
    vals = X.evaluate(pts)
    assert np.max(np.abs(np.sum(pts * vals, axis=-1))) < 1e-12


def test_invariant_gradient_frame_vs_fd():
    rng = np.random.default_rng(3)
    f = SpectralFunction.random(4, rng)
    q = unit_points(rng, 1)[0]
    c = geometry.frame_components(q, FrameField.gradient(f).evaluate(q))
    v2f, v3f = c[..., 1], c[..., 2]
    assert abs(v2f - geometry.frame_derivative(f, 1, q)) < 1e-10
    assert abs(v3f - geometry.frame_derivative(f, 2, q)) < 1e-10
    assert abs(geometry.frame_derivative(f, 0, q)) < 1e-10  # Reeb-invariant


def test_from_components_round_trip():
    rng = np.random.default_rng(4)
    L = 5
    X = FrameField(SpectralFunction.random(L, rng),
                   SpectralFunction.random(L, rng, lmin=1),
                   SpectralFunction.random(L, rng, lmin=1))
    grid = SphereGrid.for_degree(L)
    A, B, C = X.components(grid)
    Y = FrameField.from_components(A, B, C, L)
    assert (X.a - Y.a).norm_M() < 1e-12
    assert (X.u - Y.u).norm_M() < 1e-12
    assert (X.w - Y.w).norm_M() < 1e-12


def test_potential_gauge_is_mean_free():
    # constants in u, w produce the zero field; recovery is mean-free
    rng = np.random.default_rng(5)
    L = 3
    u = SpectralFunction.random(L, rng, lmin=1)
    X = FrameField(0.0, u + SpectralFunction.constant(7.0), 0.0)
    grid = SphereGrid.for_degree(L)
    Y = FrameField.from_components(*X.components(grid), L)
    assert (Y.u - u).norm_M() < 1e-12
    assert Y.w.norm_M() < 1e-12


def test_divergence_spectral():
    rng = np.random.default_rng(6)
    u = SpectralFunction.random(3, rng, lmin=1)
    X = FrameField(SpectralFunction.random(3, rng), u,
                   SpectralFunction.random(3, rng))
    div = X.divergence()
    assert (div + u.laplacian()).norm_M() < 1e-14


def test_g_inner_M_matches_quadrature():
    rng = np.random.default_rng(7)
    X = FrameField(SpectralFunction.random(3, rng),
                   SpectralFunction.random(3, rng, lmin=1),
                   SpectralFunction.random(3, rng, lmin=1))
    Y = FrameField(SpectralFunction.random(3, rng),
                   SpectralFunction.random(3, rng, lmin=1),
                   SpectralFunction.random(3, rng, lmin=1))
    quad = geometry.QuadratureS3.build(8, 16, 2)
    vals = geometry.metric(quad.nodes, X.evaluate(quad.nodes),
                           Y.evaluate(quad.nodes))
    want = float(np.dot(quad.weights, vals))
    # the grid field pairing, on the section lift alone, against the
    # fibre-sampling oracle
    assert abs(fields._quad_g_inners_M([(X, Y)])[0] - want) < 1e-9
    # QuadratureS3.build stays uncached and writable
    again = geometry.QuadratureS3.build(8, 16, 2)
    assert again.nodes is not quad.nodes and again.nodes.flags.writeable


def _drawn_field(rng, kind):
    """A Reeb field, a constant or zero field, or potentials of degrees kind."""
    if kind == "reeb":
        return FrameField.reeb()
    if kind == "constant":
        return FrameField(float(rng.normal()), float(rng.normal()), float(rng.normal()))
    return FrameField(*(SpectralFunction.random(L, rng) for L in kind))


_KINDS = st.one_of(st.sampled_from(["reeb", "constant"]),
                   st.tuples(*(st.integers(0, 4),) * 3))


@settings(max_examples=40, deadline=None)
@given(kinds=st.lists(st.tuples(_KINDS, _KINDS), min_size=1, max_size=6),
       hamiltonians=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batched_pairings_are_each_pairs_own(kinds, hamiltonians, seed):
    # one batch over several grids and degrees, with dmu_inner's pairs among
    # them: each value is bit for bit its own pairing's
    rng = np.random.default_rng(seed)
    pairs = [tuple(_drawn_field(rng, k) for k in pair) for pair in kinds]
    fh = [tuple(SpectralFunction.random(L, rng) for L in degrees) for degrees in hamiltonians]
    got = fields._quad_g_inners_M(pairs + [_dmu_fields(f, h) for f, h in fh])
    for (X, Y), value in zip(pairs, got):
        assert value == fields._quad_g_inners_M([(X, Y)])[0] == g_inner_M(X, Y)
    for (f, h), value in zip(fh, got[len(pairs):]):
        assert value == dmu_inner(f, h) == g_inner_M(*_dmu_fields(f, h))


@settings(max_examples=40, deadline=None)
@given(degrees=st.lists(st.tuples(*(st.sampled_from([0, 1, 3, 6]),) * 3), min_size=1, max_size=6),
       n=st.integers(2, 9), seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_section_values_are_the_per_field_formulas(degrees, n, seed):
    # the one-array section components, on a grid and at the points of a
    # point plan of pi(q), the ambient values built from them and the batched
    # pairings are bit for bit each field's (each pair's) own
    rng = np.random.default_rng(seed)
    fs = [FrameField(*(SpectralFunction.random(L, rng) for L in d)) for d in degrees]
    grid = SphereGrid.for_degree(max(X.degree for X in fs))
    raw = rng.standard_normal((n, 4))
    q = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    points = harmonics._PointPlan(*geometry.hopf_angles(q), max(X.degree for X in fs))
    for at, evaluate in ((grid, lambda c, deriv: synthesize(c, grid, deriv)),
                         (points, points.evaluate)):
        got = fields._section(at, fs)
        assert got.shape == (len(fs), 3) + section(evaluate, fs)[0][0].shape
        for comps, want in zip(got, section(evaluate, fs)):
            assert all(np.array_equal(c, w) for c, w in zip(comps, want))
    for v, want in zip(fields._ambient(q, fs), section(points.evaluate, fs)):
        assert np.array_equal(v, sum(c[..., None] * e for c, e in zip(want, carried_frame(q))))
    pairs = list(zip(fs, fs[::-1]))
    assert fields._quad_g_inners_M(pairs) == [fields._quad_g_inners_M([p])[0] for p in pairs]


@pytest.mark.parametrize("degrees", [(3, 5, 2), (0, 4, 0), (2, 0, 3), (0, 0, 0), (4, 1, 1)])
def test_component_grids_are_frame_components_on_the_section_lift(degrees):
    # the identity the grid pairings rest on: at the nodes of a grid, the
    # component grids of an invariant field are its g-components in the
    # unit frame at the section lift q(theta, lam), to round-off
    rng = np.random.default_rng(sum(degrees))
    X = FrameField(*(SpectralFunction.random(L, rng) for L in degrees))
    grid = SphereGrid.for_integration(2 * X.degree + 1, X.degree)
    q = geometry.section_lift(*np.meshgrid(grid.theta, grid.lam, indexing="ij"))
    want = geometry.frame_components(q, X.evaluate(q))
    scale = max(1.0, np.max(np.abs(want)))
    for i, got in enumerate(X.components(grid)):
        assert np.max(np.abs(got.values - want[..., i])) < 1e-13 * scale


def test_reeb_and_gradient_constructors():
    reeb = FrameField.reeb()
    rng = np.random.default_rng(8)
    pts = unit_points(rng, 10)
    v1 = geometry.unit_frame(pts)[0]
    assert np.max(np.abs(reeb.evaluate(pts) - v1)) < 1e-12
    u = SpectralFunction.random(3, rng, lmin=1)
    grad = FrameField.gradient(u)
    assert grad.a.norm_M() == 0.0 and grad.w.norm_M() == 0.0


def test_xi_component_of_contact_field_is_its_hamiltonian():
    rng = np.random.default_rng(9)
    f = SpectralFunction.random(3, rng)
    X = contact_field(f)
    pts = unit_points(rng, 8)
    comp0 = geometry.frame_components(pts, X.evaluate(pts))[:, 0]
    assert np.max(np.abs(comp0 - f.pullback(pts))) < 1e-12


_POLES = np.array([[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
                   [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, -1.0, 0.0]])


@settings(max_examples=40, deadline=None)
@given(degrees=st.tuples(*[st.integers(0, 12)] * 3), n=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_evaluated_fields_are_reeb_invariant(degrees, n, seed):
    # X(q exp(t i)) = X(q) exp(t i), the identity that carries a field from
    # its section components; the Hopf poles (the first four points) have
    # no longitude of their own
    rng = np.random.default_rng(seed)
    X = FrameField(*(SpectralFunction.random(L, rng) for L in degrees))
    q = np.concatenate([_POLES, unit_points(rng, n)])
    t = rng.uniform(0.0, 2.0 * np.pi, q.shape[0])
    want = geometry.quat_circle(X.evaluate(q), 0, t)
    got = X.evaluate(geometry.quat_circle(q, 0, t))
    scale = max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_a_point_alone_matches_its_batch_row_to_round_off():
    # a single tag at a single point is a one-column matmul, which rounds
    # differently from a batch (~1 ulp); the bound pins that difference
    rng = np.random.default_rng(25)
    X = FrameField(*(SpectralFunction.random(12, rng) for _ in range(3)))
    q = unit_points(rng, 9)
    batch = X.evaluate(q)
    scale = max(1.0, np.max(np.abs(batch)))
    for p, row in zip(q, batch):
        assert np.max(np.abs(X.evaluate(p) - row)) <= 1e-15 * scale
