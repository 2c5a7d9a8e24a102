"""Pointwise contact-metric geometry of the unit 3-sphere.

S^3 is the group of unit quaternions. The left-invariant frame is
e_i(q) = q * i_hat_i for i_hat = (i, j, k); the Reeb field is xi = e1,
whose flow q -> q exp(t i) traverses the Hopf fibres with period 2 pi.

All sign and scale conventions below were fixed by calibration: they are
the unique choices (up to relabeling) for which the full contact-metric
axiom suite, the curl normalization rot xi = xi, and the curl/contact-field
identities hold simultaneously with a classical exterior derivative
(no 1/2 factor on 2-forms).  The calibrated structure:

    theta(v)   = <v, q i>                       (Euclidean R^4 pairing)
    g(u, v)    = 2 <u, v> - theta(u) theta(v)   (fibres unit, planes doubled)
    phi(v)     = -v i - theta(v) q              (right quaternion product)
    d theta(X, Y) = X theta(Y) - Y theta(X) - theta([X, Y])
    mu = theta ^ d theta,  orienting (v1, v3, v2) positively,

with unit frame v1 = e1, v2 = e2/sqrt(2), v3 = e3/sqrt(2) and Lie brackets
[v1,v2] = 2 v3, [v2,v3] = v1, [v3,v1] = 2 v2 (finite-difference verified).
The Hopf projection pi(q) = q i conj(q) identifies Reeb-invariant functions
with functions on the unit 2-sphere; integration satisfies
int_M (F o pi) dmu = pi * int_{S^2} F dOmega and vol(S^3) = 4 pi^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FIBER_FACTOR = np.pi          # int_M (F o pi) dmu = FIBER_FACTOR * int_{S2} F dOmega
VOL_S3 = 4.0 * np.pi ** 2     # total mu-volume
SQRT2 = np.sqrt(2.0)

_IQ = np.array([0.0, 1.0, 0.0, 0.0])
_JQ = np.array([0.0, 0.0, 1.0, 0.0])
_KQ = np.array([0.0, 0.0, 0.0, 1.0])
_IMAG = (_IQ, _JQ, _KQ)

# 8th-order central first/second difference weights (offsets -4..4)
_FD1_W = np.array([3.0, -32.0, 168.0, -672.0, 0.0, 672.0, -168.0, 32.0, -3.0]) / 840.0
_FD2_W = np.array([-9.0, 128.0, -1008.0, 8064.0, -14350.0,
                   8064.0, -1008.0, 128.0, -9.0]) / 5040.0
_FD_OFFSETS = np.arange(-4.0, 5.0)
FD_STEP = 1e-2


def qmul(a, b):
    """Quaternion product, vectorized over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w1, x1, y1, z1 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    w2, x2, y2, z2 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ], axis=-1)


def qconj(a):
    return np.asarray(a, dtype=float) * np.array([1.0, -1.0, -1.0, -1.0])


def quat_circle(q, axis, t):
    """Point q * exp(t * i_hat_axis): the one-parameter quaternion circle."""
    t = np.asarray(t, dtype=float)
    u = np.zeros(t.shape + (4,))
    u[..., 0] = np.cos(t)
    u[..., 1 + axis] = np.sin(t)
    return qmul(q, u)


def hopf_point(q):
    """Hopf projection pi(q) = q i conj(q), as a point of S^2 in R^3."""
    q = np.asarray(q, dtype=float)
    return qmul(qmul(q, np.broadcast_to(_IQ, q.shape)), qconj(q))[..., 1:]


def hopf_angles(q):
    """Colatitude/longitude of pi(q), pole on the first axis."""
    x = hopf_point(q)
    theta = np.arccos(np.clip(x[..., 0], -1.0, 1.0))
    lam = np.arctan2(x[..., 2], x[..., 1])
    return theta, lam


def section_lift(theta, lam):
    """A quaternion over (theta, lam): pi(lift) = (cos th, sin th cos lm, sin th sin lm)."""
    theta = np.asarray(theta, dtype=float)
    lam = np.asarray(lam, dtype=float)
    half_l = 0.5 * lam
    half_t = 0.5 * theta
    a = np.stack([np.cos(half_l), np.sin(half_l),
                  np.zeros_like(half_l), np.zeros_like(half_l)], axis=-1)
    b = np.stack([np.cos(half_t), np.zeros_like(half_t),
                  np.zeros_like(half_t), np.sin(half_t)], axis=-1)
    return qmul(a, b)


def rotation_columns(q):
    """Columns (R1, R2, R3) of the rotation v -> q v conj(q) on Im H = R^3.

    R1 = pi(q); on the section lift R2, R3 are the spherical unit vectors
    e_theta, e_lambda at pi(q).
    """
    q = np.asarray(q, dtype=float)
    qc = qconj(q)
    r1 = qmul(qmul(q, np.broadcast_to(_IQ, q.shape)), qc)[..., 1:]
    r2 = qmul(qmul(q, np.broadcast_to(_JQ, q.shape)), qc)[..., 1:]
    r3 = qmul(qmul(q, np.broadcast_to(_KQ, q.shape)), qc)[..., 1:]
    return r1, r2, r3


def unit_frame(q):
    """g-orthonormal frame (v1, v2, v3) = (q i, q j / sqrt2, q k / sqrt2)."""
    q = np.asarray(q, dtype=float)
    v1 = qmul(q, np.broadcast_to(_IQ, q.shape))
    v2 = qmul(q, np.broadcast_to(_JQ, q.shape)) / SQRT2
    v3 = qmul(q, np.broadcast_to(_KQ, q.shape)) / SQRT2
    return v1, v2, v3


def theta_form(q, v):
    """Contact form: theta(v) = <v, q i>."""
    return np.sum(np.asarray(v) * qmul(q, np.broadcast_to(_IQ, np.shape(q))), axis=-1)


def metric(q, u, v):
    """Associated metric g(u, v) = 2 <u, v> - theta(u) theta(v)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return 2.0 * np.sum(u * v, axis=-1) - theta_form(q, u) * theta_form(q, v)


def phi_map(q, v):
    """Affinor phi(v) = -v i - theta(v) q; rotates the contact plane, kills xi."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    return -qmul(v, np.broadcast_to(_IQ, v.shape)) - theta_form(q, v)[..., None] * q


def frame_components(q, v):
    """g-components of a tangent vector in the unit frame."""
    v1, v2, v3 = unit_frame(q)
    v = np.asarray(v, dtype=float)
    c1 = np.sum(v * v1, axis=-1)
    c2 = 2.0 * np.sum(v * v2, axis=-1)
    c3 = 2.0 * np.sum(v * v3, axis=-1)
    return np.stack([c1, c2, c3], axis=-1)


def from_frame_components(q, c):
    v1, v2, v3 = unit_frame(q)
    c = np.asarray(c, dtype=float)
    return c[..., 0:1] * v1 + c[..., 1:2] * v2 + c[..., 2:3] * v3


def dtheta_form(q, u, v):
    """Exterior derivative of theta (classical convention, no 1/2 factor).

    In unit-frame components: d theta(X, Y) = -(x2 y3 - x3 y2).
    """
    cu = frame_components(q, u)
    cv = frame_components(q, v)
    return -(cu[..., 1] * cv[..., 2] - cu[..., 2] * cv[..., 1])


def volume_form(q, u, v, w):
    """mu = theta ^ d theta evaluated on three tangent vectors."""
    cu = frame_components(q, u)
    cv = frame_components(q, v)
    cw = frame_components(q, w)
    return -np.linalg.det(np.stack([cu, cv, cw], axis=-2))


def cross(q, u, v):
    """Metric cross product: g(u x v, w) = mu(u, v, w)."""
    cu = frame_components(q, u)
    cv = frame_components(q, v)
    return from_frame_components(q, -np.cross(cu, cv))


def hodge_star_1form(w):
    """Star of a 1-form given by unit-frame components; returns 2-form components
    W_i = (*omega)(v_j, v_k), (i,j,k) cyclic."""
    return -np.asarray(w, dtype=float)


def hodge_star_2form(W):
    """Star of a 2-form given by cyclic components; returns 1-form components."""
    return -np.asarray(W, dtype=float)


# ---------------------------------------------------------------------------
# finite differences along the exact quaternion circles

def _pullback(f):
    """f as a callable on quaternions: a SpectralFunction's pullback, or f."""
    return f.pullback if hasattr(f, "pullback") else f


def _stencil(F, pts, weights):
    """sum_k weights[k] F(pts[k]) over the leading stencil axis of pts, added
    in offset order, so a point's value does not depend on its batch."""
    return sum(w * v for w, v in zip(weights, F(pts)))


def _frame_stencil(f, axis, p, step, weights, order):
    speed = 1.0 if axis == 0 else SQRT2
    p = np.asarray(p, dtype=float)
    t = (_FD_OFFSETS * step / speed).reshape((-1,) + (1,) * (p.ndim - 1))
    return _stencil(_pullback(f), quat_circle(p, axis, t), weights) / step ** order


def frame_derivative(f, axis, p, step=FD_STEP):
    """Derivative of f along the unit frame field v_axis at points p (..., 4).

    f may be any callable taking quaternions (..., 4) -> values; the result
    has p's batch shape, then f's value shape (a scalar for one point (4,)
    and scalar f).  axis is 0, 1, 2 for v1 = xi, v2, v3.  Eighth-order central
    differences along the exact circle p * exp(t i_hat / speed), where v2, v3
    have speed sqrt(2).
    """
    return _frame_stencil(f, axis, p, step, _FD1_W, 1)


def frame_second_derivative(f, axis, p, step=FD_STEP):
    """Second derivative along v_axis (same stencil and batch conventions)."""
    return _frame_stencil(f, axis, p, step, _FD2_W, 2)


def _circle_derivative(F, q, v, step):
    """Derivative of F at points q along tangents v (..., 4), on the great
    circle toward v; a zero tangent gets a zero direction and derivative 0."""
    v = np.asarray(v, dtype=float)
    nv = np.linalg.norm(v, axis=-1)
    u = np.divide(v, nv[..., None], out=np.zeros_like(v), where=nv[..., None] > 0)
    ts = (_FD_OFFSETS * step).reshape((-1,) + (1,) * v.ndim)
    d = _stencil(F, np.cos(ts) * q + np.sin(ts) * u, _FD1_W) / step
    return d * nv.reshape(nv.shape + (1,) * (d.ndim - nv.ndim))


def directional_derivative(f, q, v, step=FD_STEP):
    """Derivative of f at points q along tangents v (..., 4), via great circles."""
    return _circle_derivative(_pullback(f), q, v, step)


def lie_bracket_fd(X, Y, q, step=FD_STEP):
    """[X, Y] at points q (..., 4) of tangent fields, by central differences.

    X, Y: callables (..., 4) -> (..., 4) returning tangent vectors.
    """
    q = np.asarray(q, dtype=float)
    return (_circle_derivative(Y, q, X(q), step)
            - _circle_derivative(X, q, Y(q), step))


def measure_laplace_eigenvalue_degree1(seed=7):
    """Oracle: Laplace eigenvalue on a degree-1 Hopf pullback.

    Lap f = -(v2^2 + v3^2) f for Reeb-invariant f, measured by frame finite
    differences on f = x1 o pi at a generic point.  Calibration gives 4.
    """
    rng = np.random.default_rng(seed)
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    f = lambda qq: hopf_point(qq)[..., 0]
    val = -(frame_second_derivative(f, 1, q) + frame_second_derivative(f, 2, q))
    return val / f(q)


def measure_bracket_scale(seed=7):
    """Oracle: scale s in [f, h] = s * {F, H}_{S^2} on degree-1 pullbacks.

    [f, h] = (v3 f)(v2 h) - (v2 f)(v3 h) by frame finite differences, against
    the unit-sphere Poisson bracket {x1, x3} = -x2.  Calibration gives -2.
    """
    rng = np.random.default_rng(seed)
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    f = lambda qq: hopf_point(qq)[..., 0]
    h = lambda qq: hopf_point(qq)[..., 2]
    br = (frame_derivative(f, 2, q) * frame_derivative(h, 1, q)
          - frame_derivative(f, 1, q) * frame_derivative(h, 2, q))
    return br / (-hopf_point(q)[1])


# ---------------------------------------------------------------------------
# axiom verification

_AXIOM_DESCRIPTIONS = {
    1: "g(X, xi) = theta(X)",
    2: "phi^2 = -I + theta (x) xi",
    3: "d theta(X, Y) = g(X, phi Y)",
    4: "g(xi, xi) = 1",
    5: "contact plane E = Ker theta is g-orthogonal to xi",
    6: "phi xi = 0 and phi maps E to E",
    7: "phi is g-skew and squares to -I on E",
    8: "d theta(phi X, phi Y) = d theta(X, Y)",
    9: "g(X, Y) = theta(X) theta(Y) + d theta(phi X, Y)",
    10: "theta ^ d theta is the Riemannian volume element",
    11: "d theta(phi X, X) = 1 for unit X in E",
    12: "(phi X, X, xi) is a positively oriented unit triple",
    13: "phi X = X x xi",
    14: "*theta = d theta and *d theta = theta",
}


@dataclass(frozen=True)
class AxiomCheck:
    property_id: int
    description: str
    max_residual: float
    tolerance: float
    passed: bool


def _random_points(rng, n):
    q = rng.normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def _random_tangents(rng, q):
    v = rng.normal(size=q.shape)
    v -= np.sum(v * q, axis=-1, keepdims=True) * q
    return v


def verify_axioms(n_points=1000, seed=0, tol=1e-10):
    """Check the 14 contact-metric-structure properties at random points.

    Returns a list of AxiomCheck records, one per property, each carrying the
    max residual over the sample.  Everything is evaluated from the calibrated
    closed forms; the frame bracket relations feeding d theta are validated
    separately by finite differences (see tests).
    """
    rng = np.random.default_rng(seed)
    q = _random_points(rng, n_points)
    X = _random_tangents(rng, q)
    Y = _random_tangents(rng, q)
    xi = qmul(q, np.broadcast_to(_IQ, q.shape))
    thX = theta_form(q, X)
    phiX = phi_map(q, X)
    phiY = phi_map(q, Y)

    res = {}
    res[1] = np.abs(metric(q, X, xi) - thX)
    res[2] = np.linalg.norm(phi_map(q, phiX) + X - thX[:, None] * xi, axis=-1)
    res[3] = np.abs(dtheta_form(q, X, Y) - metric(q, X, phiY))
    res[4] = np.abs(metric(q, xi, xi) - 1.0)
    XE = X - thX[:, None] * xi
    res[5] = np.abs(metric(q, XE, xi))
    res[6] = np.maximum(np.linalg.norm(phi_map(q, xi), axis=-1),
                        np.abs(theta_form(q, phiX)))
    res[7] = np.maximum(np.abs(metric(q, phiX, Y) + metric(q, X, phiY)),
                        np.linalg.norm(phi_map(q, phi_map(q, XE)) + XE, axis=-1))
    res[8] = np.abs(dtheta_form(q, phiX, phiY) - dtheta_form(q, X, Y))
    res[9] = np.abs(metric(q, X, Y) - thX * theta_form(q, Y) - dtheta_form(q, phiX, Y))

    # positively oriented g-orthonormal triples: (v1, v3, v2) rotated by a
    # random SO(3) recombination
    v1, v2, v3 = unit_frame(q)
    basis = np.stack([v1, v3, v2], axis=1)
    rot = _random_rotations(rng, n_points)
    triple = np.einsum("nab,nbk->nak", rot, basis)
    res[10] = np.abs(volume_form(q, triple[:, 0], triple[:, 1], triple[:, 2]) - 1.0)

    XE_unit = XE / np.sqrt(metric(q, XE, XE))[:, None]
    phiXE = phi_map(q, XE_unit)
    res[11] = np.abs(dtheta_form(q, phiXE, XE_unit) - 1.0)
    res[12] = np.abs(volume_form(q, phiXE, XE_unit, xi) - 1.0)
    res[13] = np.linalg.norm(phiX - cross(q, X, xi), axis=-1)

    th_c = np.zeros((n_points, 3))
    th_c[:, 0] = 1.0
    dth_W = np.zeros((n_points, 3))
    dth_W[:, 0] = dtheta_form(q, v2, v3)
    dth_W[:, 1] = dtheta_form(q, v3, v1)
    dth_W[:, 2] = dtheta_form(q, v1, v2)
    res[14] = np.maximum(np.max(np.abs(hodge_star_1form(th_c) - dth_W), axis=-1),
                         np.max(np.abs(hodge_star_2form(dth_W) - th_c), axis=-1))

    report = []
    for pid in range(1, 15):
        m = float(np.max(res[pid]))
        report.append(AxiomCheck(pid, _AXIOM_DESCRIPTIONS[pid], m, tol, m < tol))
    return report


def _random_rotations(rng, n):
    """Uniform-ish SO(3) samples via quaternions."""
    u = rng.normal(size=(n, 4))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    w, x, y, z = u[:, 0], u[:, 1], u[:, 2], u[:, 3]
    rot = np.empty((n, 3, 3))
    rot[:, 0, 0] = 1 - 2 * (y * y + z * z)
    rot[:, 0, 1] = 2 * (x * y - w * z)
    rot[:, 0, 2] = 2 * (x * z + w * y)
    rot[:, 1, 0] = 2 * (x * y + w * z)
    rot[:, 1, 1] = 1 - 2 * (x * x + z * z)
    rot[:, 1, 2] = 2 * (y * z - w * x)
    rot[:, 2, 0] = 2 * (x * z - w * y)
    rot[:, 2, 1] = 2 * (y * z + w * x)
    rot[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return rot


# ---------------------------------------------------------------------------
# quadrature

@dataclass(frozen=True)
class QuadratureS3:
    """Product quadrature over S^3 in Hopf coordinates.

    Exact for Reeb-invariant integrands whose base part is a spherical
    polynomial of degree <= 2*nlat - 1 (Gauss-Legendre in colatitude,
    trapezoid in longitude and fibre angle).  Weights sum to vol(S^3).
    """
    nodes: np.ndarray    # (N, 4)
    weights: np.ndarray  # (N,)

    @classmethod
    def build(cls, nlat=12, nlon=24, nfib=8):
        x, w = np.polynomial.legendre.leggauss(nlat)
        theta = np.arccos(x)
        lam = 2.0 * np.pi * np.arange(nlon) / nlon
        psi = 2.0 * np.pi * np.arange(nfib) / nfib
        th_g, lm_g, ps_g = np.meshgrid(theta, lam, psi, indexing="ij")
        base = section_lift(th_g.ravel(), lm_g.ravel())
        nodes = quat_circle(base, 0, ps_g.ravel())
        w_g = np.broadcast_to(w[:, None, None], th_g.shape).ravel()
        weights = 0.5 * w_g * (2.0 * np.pi / nlon) * (2.0 * np.pi / nfib)
        return cls(nodes, weights)

    def integrate(self, f):
        return float(np.dot(self.weights, _pullback(f)(self.nodes)))

