"""Reference computations that several test modules compare against."""

import numpy as np

from contactflow import geometry, rot3d
from contactflow.fields import FrameField
from contactflow.harmonics import (
    TANGENTIAL,
    GridFunction,
    SpectralFunction,
    SphereGrid,
    adjoint_analyze,
    analyze,
    eigenvalue,
    synthesize,
)


def product(f, h):
    """Exact pointwise product: band limit grows to f.L + h.L."""
    D = f.L + h.L
    grid = SphereGrid.for_degree(D)
    vals = synthesize(f, grid) * synthesize(h, grid)
    return analyze(GridFunction(grid, vals), D)


def pdq(stack):
    """(P, dP, Q), each indexed [l, m, j], from legendre_tables' [m, l, tag, j]."""
    return tuple(stack[:, :, tag].transpose(1, 0, 2) for tag in range(3))


def random_coeffs(L, rng, lmin=0, scale=1.0):
    """SpectralFunction.random's coefficients, one draw per degree."""
    c = np.zeros((L + 1, 2 * L + 1))
    for l in range(lmin, L + 1):
        c[l, L - l:L + l + 1] = rng.normal(size=2 * l + 1)
    return scale * c


def padded_coeffs(c, L):
    """A coefficient array c zero-padded to degree L >= its own."""
    l0 = c.shape[0] - 1
    out = np.zeros((L + 1, 2 * L + 1))
    out[: l0 + 1, L - l0: L + l0 + 1] = c
    return out


def operations(f, h, c, L):
    """{name: result} of SpectralFunction's operations on f, h, a scalar c
    and a degree L, by plain array arithmetic and the validating
    constructor: inverse_laplacian of the mean-free part of f, and
    mode(L, -L, value=c, L=L)."""
    D = max(f.L, h.L)
    alpha = eigenvalue(np.arange(f.L + 1))[:, None]
    free = f.coeffs.copy()
    free[0, f.L] = 0.0
    inv = np.zeros((f.L + 1, 1))
    inv[1:] = 1.0 / alpha[1:]
    mode = np.zeros((L + 1, 2 * L + 1))
    mode[L, 0] = float(c)
    out = {"add": padded_coeffs(f.coeffs, D) + padded_coeffs(h.coeffs, D),
           "sub": padded_coeffs(f.coeffs, D) - padded_coeffs(h.coeffs, D),
           "mul": f.coeffs * float(c),
           "rmul": f.coeffs * float(c),
           "neg": -f.coeffs,
           "padded": padded_coeffs(f.coeffs, max(L, f.L)),
           "truncated": (f.coeffs[: L + 1, f.L - L: f.L + L + 1] if L < f.L
                         else padded_coeffs(f.coeffs, L)),
           "laplacian": f.coeffs * alpha,
           "helmholtz": f.coeffs * (1.0 + alpha),
           "inverse_helmholtz": f.coeffs / (1.0 + alpha),
           "inverse_laplacian": free * inv,
           "mean_free": free,
           "zeros": np.zeros((L + 1, 2 * L + 1)),
           "constant": np.full((1, 1), float(c) * np.sqrt(4.0 * np.pi)),
           "mode": mode}
    return {name: SpectralFunction(a) for name, a in out.items()}


def bracket(f, h, L_out=None):
    """lagrange_bracket of one pair from its own syntheses of f and h on
    the bracket's grid, by the validating constructor."""
    D, L_in = f.L + h.L, max(f.L, h.L)
    L = D if L_out is None else min(L_out, D)
    grid = SphereGrid.for_integration(D + L, L_in)
    (f_th, f_lm), (h_th, h_lm) = (synthesize(padded_coeffs(w.coeffs, L_in), grid, TANGENTIAL)
                                  for w in (f, h))
    c = adjoint_analyze(-2.0 * (f_th * h_lm - f_lm * h_th), grid, L, None)
    return SpectralFunction(c if L_out in (None, L) else padded_coeffs(c, L_out))


def section(evaluate, fields):
    """fields._section of each field alone, as a list of (A, B, C): its own
    evaluate(coeffs, deriv) of a, and of both tangential derivatives of u and
    w at their common degree (zeros for a degree-0 potential), then
    B = -sqrt2 (u_lam + w_theta) and C = sqrt2 (u_theta - w_lam)."""
    out = []
    for X in fields:
        a = evaluate(X.a.coeffs, None)
        (u_th, u_lm), (w_th, w_lm) = (
            evaluate(f._coeffs_at(max(X.u.L, X.w.L)), TANGENTIAL) if f.L > 0
            else np.zeros((2,) + a.shape) for f in (X.u, X.w))
        out.append((a, -geometry.SQRT2 * (u_lm + w_th), geometry.SQRT2 * (u_th - w_lm)))
    return out


def carried_frame(q):
    """The carried frame (pi, e_theta / sqrt2, e_lambda / sqrt2) q [3, ..., 4]
    at unit quaternions q (..., 4), by fields._ambient's operations."""
    pi = geometry.hopf_point(q)
    theta, lam = geometry._sphere_angles(pi)
    st, ct, sl, cl = np.sin(theta), np.cos(theta), np.sin(lam), np.cos(lam)
    s2 = geometry.SQRT2
    V = np.zeros((3,) + q.shape)
    V[0, ..., 1:] = pi
    V[1, ..., 1], V[1, ..., 2], V[1, ..., 3] = -st / s2, ct * cl / s2, ct * sl / s2
    V[2, ..., 2], V[2, ..., 3] = -sl / s2, cl / s2
    return geometry.qmul(V, q)


def g_inner_M(X, Y):
    """int_M g(X, Y) dmu of one pair, from both fields' component grids on
    the Gauss grid of their degree pair."""
    grid = SphereGrid.for_integration(X.degree + Y.degree, max(X.degree, Y.degree))
    g = sum(x.values * y.values for x, y in zip(X.components(grid), Y.components(grid)))
    return geometry.FIBER_FACTOR * grid.integrate(g)


def frame_stencil(f, axis, p, weights=geometry._FD1_W, order=1):
    """A frame derivative from one evaluation of f on the stencil circle of
    one axis alone, at all nine offsets, a centre of weight 0 included."""
    speed = 1.0 if axis == 0 else geometry.SQRT2
    t = (geometry._FD_OFFSETS * geometry.FD_STEP / speed).reshape((-1,) + (1,) * (p.ndim - 1))
    F = f.pullback if hasattr(f, "pullback") else f
    values = F(geometry.quat_circle(p, axis, t))
    return sum(w * v for w, v in zip(weights, values)) / geometry.FD_STEP ** order


def circle_derivative(F, q, v):
    """geometry._circle_derivative on all nine offsets, the centre of
    weight 0 included."""
    nv = np.linalg.norm(v, axis=-1)
    u = np.divide(v, nv[..., None], out=np.zeros_like(v), where=nv[..., None] > 0)
    ts = (geometry._FD_OFFSETS * geometry.FD_STEP).reshape((-1,) + (1,) * v.ndim)
    c = np.where(nv[..., None] > 0, np.cos(ts), 1.0)
    d = sum(w * x for w, x in zip(geometry._FD1_W, F(c * q + np.sin(ts) * u))) / geometry.FD_STEP
    return d * nv.reshape(nv.shape + (1,) * (d.ndim - nv.ndim))


def lie_bracket_fd(X, Y, q):
    """geometry.lie_bracket_fd from nine-offset circle derivatives."""
    return circle_derivative(Y, q, X(q)) - circle_derivative(X, q, Y(q))


def qmul(a, b):
    """geometry.qmul's component expressions, stacked."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    w1, x1, y1, z1 = (a[..., i] for i in range(4))
    w2, x2, y2, z2 = (b[..., i] for i in range(4))
    return np.stack([w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                     w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                     w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                     w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2], axis=-1)


def divergence_fd(X, points):
    """rot3d.divergence_fd composed of one stencil evaluation per axis."""
    comps = rot3d._frame_components(X)
    return sum(frame_stencil(comps, i, points)[..., i] for i in range(3))


def curl_fd(X, points):
    """rot3d.curl_fd composed of one stencil evaluation per axis and one at
    the points themselves."""
    comps = rot3d._frame_components(X)
    d = [frame_stencil(comps, i, points) for i in range(3)]
    x = comps(points)
    c1 = x[..., 0] - (d[1][..., 2] - d[2][..., 1])
    c2 = 2.0 * x[..., 1] - (d[2][..., 0] - d[0][..., 2])
    c3 = 2.0 * x[..., 2] - (d[0][..., 1] - d[1][..., 0])
    return geometry.from_frame_components(points, np.stack([c1, c2, c3], axis=-1))


def curl(X):
    """rot3d.curl of one field alone: its component grids on the grid of its
    degree, one analysis of A and one adjoint of (B, C)."""
    L = X.degree
    grid = SphereGrid.for_degree(L)
    A, B, C = X.components(grid)
    a_spec = analyze(A, L)
    adj = adjoint_analyze(np.stack([B.values, C.values]), grid, L, TANGENTIAL)
    free = a_spec.coeffs.copy()
    free[0, L] = 0.0
    return FrameField(SpectralFunction(a_spec.coeffs - geometry.SQRT2 * adj), 0.0,
                      SpectralFunction(free))
