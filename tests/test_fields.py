import numpy as np
import pytest

from contactflow import geometry
from contactflow.fields import (
    FrameField,
    contact_field,
    contact_field_at,
    invariant_gradient_frame,
)
from contactflow.harmonics import SpectralFunction, SphereGrid


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
