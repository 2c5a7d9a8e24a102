import numpy as np
import pytest

from contactflow import fields, geometry
from contactflow.fields import (
    FrameField,
    contact_field,
    contact_field_at,
    invariant_gradient_frame,
)
from contactflow.harmonics import SpectralFunction, SphereGrid
from contactflow.metrics import MetricKind, inner
from contactflow.rot3d import dmu_inner


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
    v2f, v3f = invariant_gradient_frame(f, q)
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
    assert abs(X.g_inner_M(Y) - want) < 1e-9


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


def _pairings(f, h):
    """dmu_inner, both quadrature inner kinds and the ambient values of
    three fields on the quadrature nodes of the degree pair (f.L, h.L)."""
    quad, nodes = fields._quadrature(f.L, h.L)
    Xs = [contact_field(f), FrameField(f, h, 0.5 * f), FrameField(0.0, h, 0.0)]
    return ([dmu_inner(f, h)]
            + [inner(kind, f, h, method="quadrature") for kind in MetricKind]
            + nodes.ambient(Xs) + fields._NodePlan(quad.nodes).ambient(Xs))


def test_cached_quadrature_matches_a_cold_one_whatever_came_first():
    # the node plan synthesizes on a Gauss grid whose shared tables grow to
    # the largest degree seen and are sliced for smaller ones
    rng = np.random.default_rng(10)
    degrees = [(1, 1), (3, 3), (1, 5), (2, 2), (5, 1), (3, 3), (0, 2)]
    draws = [(SpectralFunction.random(a, rng), SpectralFunction.random(b, rng, lmin=1))
             for a, b in degrees]
    cold = []
    for f, h in draws:
        fields._quadrature.cache_clear()
        cold.append(_pairings(f, h))
    fields._quadrature.cache_clear()
    for (f, h), want in zip(draws, cold):
        got = _pairings(f, h)
        assert len(got) == len(want) == 9
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        # grid synthesis and the one-shot scattered evaluation at the same
        # nodes agree to round-off
        for a, b in zip(got[3:6], got[6:]):
            assert np.max(np.abs(a - b)) < 1e-13 * max(1.0, np.max(np.abs(b)))


def test_quadrature_is_shared_by_both_orders_of_a_degree_pair():
    rng = np.random.default_rng(14)
    f, h = SpectralFunction.random(3, rng), SpectralFunction.random(5, rng)
    cold = []
    for a, b in ((f, h), (h, f)):
        fields._quadrature.cache_clear()
        cold.append(dmu_inner(a, b))
    fields._quadrature.cache_clear()
    warm = [dmu_inner(f, h), dmu_inner(h, f)]
    info = fields._quadrature.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert fields._quadrature(5, 3) is fields._quadrature(3, 5)
    # one plan for both orders gives each pairing the bits of its own plan
    assert warm == cold


def test_quadrature_plans_are_read_only_and_bounded():
    rng = np.random.default_rng(11)
    fields._quadrature.cache_clear()
    quad, nodes = fields._quadrature(3, 3)
    nodes.ambient([FrameField(*(SpectralFunction.random(3, rng) for _ in range(3)))])
    grid = nodes.points.grid
    data = grid.tables(3)
    assert set(data) == {"P", "dP", "Q"}
    for arr in (quad.nodes, quad.weights, *nodes.frame, nodes.r2, nodes.r3,
                nodes.e_th, nodes.e_lm, nodes.zero, grid.x, grid.w, grid.theta,
                grid.lam, *data.values()):
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0
    assert fields._quadrature(3, 3)[1] is nodes
    # QuadratureS3.build itself stays uncached and writable
    fresh = geometry.QuadratureS3.build(4, 8, 2)
    assert fresh.nodes.flags.writeable and fresh.nodes is not quad.nodes
    bound = fields._quadrature.cache_info().maxsize
    for deg in range(bound + 3):
        fields._quadrature(deg, 1)
    assert fields._quadrature.cache_info().currsize == bound
