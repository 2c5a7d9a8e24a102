from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from contactflow import geometry
from contactflow.fields import FrameField, contact_field_at
from contactflow.geometry import (
    QuadratureS3,
    VOL_S3,
    directional_derivative,
    dtheta_form,
    frame_components,
    frame_derivative,
    frame_second_derivative,
    hodge_star_1form,
    hodge_star_2form,
    lie_bracket_fd,
    metric,
    phi_map,
    qmul,
    theta_form,
    unit_frame,
    verify_axioms,
)
from contactflow.harmonics import SpectralFunction
from contactflow.rot3d import curl_fd, divergence_fd
from reference import frame_stencil


def unit_points(rng, n):
    raw = rng.standard_normal((n, 4))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def test_axiom_suite_small_sample():
    report = verify_axioms(n_points=100, seed=0, tol=1e-10)
    assert len(report) == 14
    for check in report:
        assert check.passed, "%s residual %g" % (check.property_id,
                                                 check.max_residual)


@pytest.mark.parametrize("n_points", [0, -3, 2.5, True])
def test_axiom_suite_rejects_a_bad_sample_size(n_points):
    with pytest.raises(ValueError, match="verify_axioms needs n_points to be an integer >= 1"):
        verify_axioms(n_points=n_points)


def test_frame_is_orthonormal_for_g():
    rng = np.random.default_rng(1)
    pts = unit_points(rng, 40)
    v1, v2, v3 = unit_frame(pts)
    frame = (v1, v2, v3)
    for i in range(3):
        for j in range(3):
            got = metric(pts, frame[i], frame[j])
            want = 1.0 if i == j else 0.0
            assert np.max(np.abs(got - want)) < 1e-12


def test_theta_of_frame_and_tangency():
    rng = np.random.default_rng(2)
    pts = unit_points(rng, 30)
    v1, v2, v3 = unit_frame(pts)
    assert np.max(np.abs(theta_form(pts, v1) - 1.0)) < 1e-12
    assert np.max(np.abs(theta_form(pts, v2))) < 1e-12
    assert np.max(np.abs(theta_form(pts, v3))) < 1e-12
    # frame vectors are tangent to the sphere
    for v in (v1, v2, v3):
        assert np.max(np.abs(np.sum(pts * v, axis=-1))) < 1e-12


def test_dtheta_compatibility_with_phi():
    # dtheta(X, Y) = g(X, phi Y) pointwise for random tangent vectors
    rng = np.random.default_rng(3)
    pts = unit_points(rng, 25)
    X = rng.standard_normal(pts.shape)
    Y = rng.standard_normal(pts.shape)
    X -= np.sum(pts * X, axis=-1, keepdims=True) * pts
    Y -= np.sum(pts * Y, axis=-1, keepdims=True) * pts
    lhs = dtheta_form(pts, X, Y)
    rhs = metric(pts, X, phi_map(pts, Y))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_phi_squared_is_reflector():
    rng = np.random.default_rng(4)
    pts = unit_points(rng, 25)
    X = rng.standard_normal(pts.shape)
    X -= np.sum(pts * X, axis=-1, keepdims=True) * pts
    v1 = unit_frame(pts)[0]
    got = phi_map(pts, phi_map(pts, X))
    want = -X + theta_form(pts, X)[..., None] * v1
    assert np.max(np.abs(got - want)) < 1e-12


def test_frame_components_round_trip():
    rng = np.random.default_rng(5)
    pts = unit_points(rng, 20)
    X = rng.standard_normal(pts.shape)
    X -= np.sum(pts * X, axis=-1, keepdims=True) * pts
    comps = frame_components(pts, X)
    v1, v2, v3 = unit_frame(pts)
    back = (comps[..., 0:1] * v1 + comps[..., 1:2] * v2 + comps[..., 2:3] * v3)
    assert np.max(np.abs(back - X)) < 1e-12


def test_hodge_star_round_trip():
    rng = np.random.default_rng(6)
    w = rng.standard_normal(3)
    assert np.allclose(hodge_star_2form(hodge_star_1form(w)), w)
    assert np.allclose(hodge_star_1form(hodge_star_2form(w)), w)


def test_quadrature_volume_and_oscillation():
    quad = QuadratureS3.build(6, 12, 4)
    assert abs(np.sum(quad.weights) - VOL_S3) < 1e-10
    # an odd coordinate function integrates to zero
    val = float(np.dot(quad.weights, quad.nodes[:, 2]))
    assert abs(val) < 1e-12


def test_quadrature_nodes_are_the_grid_plans_gauss_nodes():
    # the quadrature reads x, w and theta from the shared Gauss plan; its
    # nodes and weights are bit-for-bit a direct leggauss build
    for nlat, nlon, nfib in ((1, 2, 1), (6, 12, 4), (13, 26, 2)):
        x, w = np.polynomial.legendre.leggauss(nlat)
        lam = 2.0 * np.pi * np.arange(nlon) / nlon
        psi = 2.0 * np.pi * np.arange(nfib) / nfib
        th_g, lm_g, ps_g = np.meshgrid(np.arccos(x), lam, psi, indexing="ij")
        nodes = geometry.quat_circle(
            geometry.section_lift(th_g.ravel(), lm_g.ravel()), 0, ps_g.ravel())
        weights = 0.5 * np.repeat(w, nlon * nfib) * (2.0 * np.pi / nlon) * (2.0 * np.pi / nfib)
        quad = QuadratureS3.build(nlat, nlon, nfib)
        assert np.array_equal(quad.nodes, nodes)
        assert np.array_equal(quad.weights, weights)


@pytest.mark.parametrize("sizes", [(3, 4, -2), (0, 4, 2), (3, 0, 2), (3, 4, 0),
                                   (True, 4, 2), (3, 4, np.bool_(True)),
                                   (3.0, 4, 2), (3, 4.5, 2), ("3", 4, 2)])
def test_quadrature_rejects_bad_sizes(sizes):
    # an empty rule would integrate everything to 0.0
    with pytest.raises(ValueError, match="QuadratureS3.build needs n[a-z]+ to be an integer >= 1"):
        QuadratureS3.build(*sizes)


def test_quadrature_takes_numpy_integers():
    quad = QuadratureS3.build(np.int64(3), np.int32(4), np.int64(1))
    assert quad.nodes.shape == (12, 4)
    assert abs(np.sum(quad.weights) - VOL_S3) < 1e-12


def test_frame_derivative_on_linear_function():
    # f(q) = q . e has v_i f = (q ihat_i / speed_i) . e exactly
    rng = np.random.default_rng(7)
    e = rng.standard_normal(4)
    q = unit_points(rng, 1)[0]
    f = lambda p: np.asarray(p) @ e
    v1, v2, v3 = unit_frame(q)
    for axis, v in enumerate((v1, v2, v3)):
        got = frame_derivative(f, axis, q)
        want = float(v @ e)
        assert abs(got - want) < 1e-10


_F = SpectralFunction.mode(3, 1)
_Q = np.array([0.5, 0.5, 0.5, 0.5])
_V = np.array([0.5, -0.5, 0.5, -0.5])     # a tangent at _Q


@pytest.mark.parametrize("call, name", [
    (lambda: frame_derivative(_F, 1, np.zeros(4)), "p"),              # returned 3.3e-15
    (lambda: frame_second_derivative(_F, 2, 2.0 * _Q), "p"),          # returned a value
    (lambda: directional_derivative(_F, [np.nan, 0.0, 0.0, 1.0], _V), "q"),   # NaN
    (lambda: lie_bracket_fd(partial(contact_field_at, _F), partial(contact_field_at, _F),
                            [_Q, (1.0 + 1e-11) * _Q]), "q"),
    (lambda: frame_derivative(_F, 0, np.zeros(3)), "p"),
    (lambda: _F.pullback(2.0 * _Q), "q"),                              # returned a value
    (lambda: _F.pullback([_Q, [np.nan, 0.0, 0.0, 1.0]]), "q"),         # returned NaN
    (lambda: directional_derivative(_F, _Q, _Q), "v"),                 # returned a value
    (lambda: directional_derivative(_F, _Q, _Q + unit_frame(_Q)[1]), "v"),
], ids=["frame_derivative-zero", "frame_second_derivative-2q",
        "directional_derivative-nan", "lie_bracket_fd-off-by-1e-11", "frame_derivative-3-vector",
        "pullback-2q", "pullback-nan", "directional_derivative-v-is-q",
        "directional_derivative-v-is-q-plus-v2"])
def test_finite_difference_points_off_the_sphere_are_rejected(call, name):
    with pytest.raises(ValueError, match="^%s must be" % name):
        call()


@settings(max_examples=30, deadline=None)
@given(L=st.integers(0, 8), n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_one_axis_stencils_are_the_per_axis_reference(L, n, seed):
    # the stencil helper serves several axes from one evaluation; its
    # one-axis case is bit for bit one evaluation on that axis's circle
    rng = np.random.default_rng(seed)
    f = SpectralFunction.random(L, rng)
    q = unit_points(rng, n)
    for p in (q, q[0]):
        for axis in range(3):
            assert np.array_equal(frame_derivative(f, axis, p), frame_stencil(f, axis, p))
            assert np.array_equal(frame_second_derivative(f, axis, p),
                                  frame_stencil(f, axis, p, geometry._FD2_W, 2))
        for axis, d in enumerate(geometry._frame_stencil(f, range(3), p)):
            assert np.array_equal(d, frame_derivative(f, axis, p))


@settings(max_examples=30, deadline=None)
@given(degrees=st.lists(st.integers(0, 8), min_size=3, max_size=3), n=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stencils_are_the_nine_offset_reference(degrees, n, seed):
    # the first-derivative stencils leave out their centre of weight 0; their
    # sums start from the integer 0, so no partial sum is -0.0 and dropping
    # the 0 * f(centre) term leaves every finite result bit for bit as it was
    rng = np.random.default_rng(seed)
    f, h, g = (SpectralFunction.random(L, rng) for L in degrees)
    X, Y = FrameField(f, h, g), FrameField.contact(h)
    q = unit_points(rng, n)
    v = rng.standard_normal(q.shape)
    v -= np.sum(v * q, axis=-1, keepdims=True) * q
    for p, t in ((q, v), (q[0], v[0])):
        for axis in range(3):
            assert np.array_equal(frame_derivative(f, axis, p), frame_stencil(f, axis, p))
        assert np.array_equal(directional_derivative(f, p, t),
                              reference.circle_derivative(f.pullback, p, t))
        assert np.array_equal(lie_bracket_fd(X.evaluate, Y.evaluate, p),
                              reference.lie_bracket_fd(X.evaluate, Y.evaluate, p))
    for fields in (X, [X, Y]):
        assert np.array_equal(divergence_fd(fields, q), reference.divergence_fd(fields, q))
    if n > 1:    # at one point, curl_fd's own value is a row of its stencil's batch
        assert np.array_equal(curl_fd(X, q), reference.curl_fd(X, q))


def test_a_first_derivative_does_not_evaluate_its_centre():
    # f is NaN at the points themselves: the first-derivative stencils, whose
    # centre weight is 0, no longer read it; the second derivative still does
    p = unit_points(np.random.default_rng(12), 3)
    f = lambda q: np.where(np.all(q == p, axis=-1), np.nan, geometry.hopf_point(q)[..., 0])
    for axis in range(3):
        assert np.all(np.isfinite(frame_derivative(f, axis, p)))
        assert np.all(np.isnan(frame_second_derivative(f, axis, p)))
    assert np.all(np.isfinite(directional_derivative(f, p, unit_frame(p)[1])))


def test_unit_frame_bracket_relations():
    # [v1,v2] = 2 v3, [v2,v3] = v1, [v3,v1] = 2 v2 at a random point
    rng = np.random.default_rng(8)
    q = unit_points(rng, 1)[0]

    def field(axis):
        return lambda p: unit_frame(np.asarray(p))[axis]

    b12 = lie_bracket_fd(field(0), field(1), q)
    b23 = lie_bracket_fd(field(1), field(2), q)
    b31 = lie_bracket_fd(field(2), field(0), q)
    v1, v2, v3 = unit_frame(q)
    assert np.max(np.abs(b12 - 2.0 * v3)) < 1e-9
    assert np.max(np.abs(b23 - v1)) < 1e-9
    assert np.max(np.abs(b31 - 2.0 * v2)) < 1e-9


def test_stencils_take_point_batches():
    # a (6, 4) batch gives each point's single-point value; one point (4,)
    # gives a scalar (a (4,) vector for the bracket)
    rng = np.random.default_rng(9)
    q = unit_points(rng, 6)
    f = SpectralFunction.random(3, rng)
    h = SpectralFunction.random(2, rng)
    v = rng.standard_normal(q.shape)
    v -= np.sum(v * q, axis=-1, keepdims=True) * q
    for deriv in (frame_derivative, frame_second_derivative):
        for axis in range(3):
            got = deriv(f, axis, q)
            assert got.shape == (6,) and np.shape(deriv(f, axis, q[0])) == ()
            assert np.max(np.abs(got - [deriv(f, axis, p) for p in q])) < 1e-13
    got = directional_derivative(f, q, v)
    assert got.shape == (6,) and np.shape(directional_derivative(f, q[0], v[0])) == ()
    want = [directional_derivative(f, p, t) for p, t in zip(q, v)]
    assert np.max(np.abs(got - want)) < 1e-13
    X, Y = partial(contact_field_at, f), partial(contact_field_at, h)
    got = lie_bracket_fd(X, Y, q)
    assert got.shape == (6, 4) and lie_bracket_fd(X, Y, q[0]).shape == (4,)
    assert np.max(np.abs(got - [lie_bracket_fd(X, Y, p) for p in q])) < 1e-13


@pytest.mark.filterwarnings("error")
def test_zero_tangent_in_a_batch_gives_zero():
    # X and Y both vanish at q[2], so [X, Y](q[2]) = 0: both circle
    # derivatives there run along a zero tangent
    rng = np.random.default_rng(10)
    q = unit_points(rng, 6)
    f = SpectralFunction.random(3, rng)
    v = unit_frame(q)[1]
    v[2] = 0.0
    got = directional_derivative(f, q, v)
    assert got[2] == 0.0 and np.all(np.isfinite(got))
    assert np.all(got[[0, 1, 3, 4, 5]] != 0.0)
    s = lambda p: np.asarray(p)[..., :1] - q[2, 0]
    X = lambda p: s(p) * unit_frame(p)[1]
    Y = lambda p: s(p) * unit_frame(p)[2]
    got = lie_bracket_fd(X, Y, q)
    assert np.all(np.isfinite(got)) and np.all(got[2] == 0.0)
    assert np.max(np.abs(got - [lie_bracket_fd(X, Y, p) for p in q])) < 1e-13


def test_zero_tangent_stencil_stays_on_the_sphere():
    # a zero tangent's stencil is copies of q, which a field evaluation
    # accepts; it ran on cos(t) q, off S^3, where contact_field_at raised
    rng = np.random.default_rng(11)
    q = unit_points(rng, 3)
    s = lambda p: np.asarray(p)[..., :1] - q[1, 0]
    X = lambda p: s(p) * unit_frame(p)[1]
    Y = partial(contact_field_at, SpectralFunction.random(3, rng))
    got = lie_bracket_fd(X, Y, q)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - [lie_bracket_fd(X, Y, p) for p in q])) < 1e-13


def test_metric_from_a_given_qi_is_the_metric():
    rng = np.random.default_rng(13)
    q = unit_points(rng, 7)
    u, v = rng.standard_normal((2, 7, 4))
    qi = qmul(q, np.broadcast_to([0.0, 1.0, 0.0, 0.0], q.shape))
    got = metric(q, u, v)
    assert np.array_equal(got, 2.0 * np.sum(u * v, axis=-1)
                          - theta_form(q, u) * theta_form(q, v))
    # the unit frame's v1 is that product, bit for bit, and v2, v3 are
    # q j / sqrt2 and q k / sqrt2 with the bits of qmul
    assert np.array_equal(unit_frame(q)[0], qi)
    for e, v in zip(np.eye(4)[2:], unit_frame(q)[1:]):
        assert np.array_equal(v, qmul(q, np.broadcast_to(e, q.shape)) / geometry.SQRT2)
