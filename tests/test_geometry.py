import numpy as np

from contactflow.geometry import (
    QuadratureS3,
    VOL_S3,
    dtheta_form,
    frame_components,
    frame_derivative,
    hodge_star_1form,
    hodge_star_2form,
    lie_bracket_fd,
    metric,
    phi_map,
    theta_form,
    unit_frame,
    verify_axioms,
)


def unit_points(rng, n):
    raw = rng.standard_normal((n, 4))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def test_axiom_suite_small_sample():
    report = verify_axioms(n_points=100, seed=0, tol=1e-10)
    assert len(report) == 14
    for check in report:
        assert check.passed, "%s residual %g" % (check.property_id,
                                                 check.max_residual)


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

