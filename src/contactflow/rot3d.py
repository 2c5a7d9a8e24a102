"""Curl on the contact 3-sphere and the volume-preserving pairing.

rot is the operator with omega_{rot X} = * d omega_X for the calibrated
metric, orientation, and volume mu = theta ^ dtheta.  Three routes coexist:

  * curl(X): the production path, which reads the frame-component grids of
    X over the section and recovers the curl's potentials by adjoint
    quadrature (gradient parts drop out exactly, as curl annihilates them);
  * contact_curl(f) / curl_inverse_contact(f): closed forms on contact
    fields, rot X_f = (f - Delta f) xi + phi grad f and its right inverse
    rot^-1 X_f = -f xi + 2 phi grad(Delta^-1 f);
  * curl_fd(X, points): a finite-difference oracle built only on frame
    derivatives of the metric components at a batch of points (..., 4),
    sharing no code with the spectral path; divergence_fd, its divergence
    twin, also takes a sequence of fields.

The pairing <X_f, X_h> = int g(rot^-1 X_f, X_h) dmu makes the fields of
mean-zero Hamiltonians a negative-definite block: the ratio against the
flat Hamiltonian pairing is exactly -3.  The Reeb field itself is a fixed
point of rot, so its pairing branch returns the volume of the sphere.  The
pairing is the field pairing of metrics.inner's quadrature path, on the
unit-frame component grids of its two fields.  rot_report evaluates every
residual on one node plan of its check points.
"""

from __future__ import annotations

import numpy as np

from . import geometry
from .fields import FrameField, _as_spectral, _NodePlan, _quad_g_inner_M, contact_field
from .geometry import SQRT2
from .harmonics import (
    TANGENTIAL,
    SpectralFunction,
    SphereGrid,
    adjoint_analyze,
    analyze,
)


def curl(X, L_out=None):
    """Curl of an invariant field from its component data.

    The xi-component of rot X picks up the plane components through the
    adjoint of the surface gradient; the phi-grad potential of rot X is the
    mean-free part of the xi-component of X.  Exact for band limit <= L_out.
    """
    L = X.degree if L_out is None else L_out
    grid = SphereGrid.for_degree(max(X.degree, L))
    A, B, C = X.components(grid)
    a_spec = analyze(A, L)
    adj = adjoint_analyze(np.stack([B.values, C.values]), grid, L, TANGENTIAL)
    a_new = SpectralFunction(a_spec.coeffs - SQRT2 * adj)
    w_new = a_spec.mean_free()
    return FrameField(a_new, 0.0, w_new)


def contact_curl(f):
    """Closed form rot X_f = (f - Delta f) xi + phi grad f."""
    f = _as_spectral(f)
    return FrameField(f - f.laplacian(), 0.0, f.mean_free())


def curl_inverse_contact(f):
    """The divergence-free field with rot = X_f, for mean-zero f.

    Returns -f xi + 2 phi grad(Delta^-1 f).  The mean-zero restriction is
    structural: constants are handled by the fixed point rot xi = xi.
    """
    f = _as_spectral(f)
    if not f.mean_zero():
        raise ValueError("curl_inverse_contact needs a mean-zero Hamiltonian")
    return FrameField(-1.0 * f, 0.0, 2.0 * f.inverse_laplacian())


def _frame_components(X):
    """q -> g(X(q), v_i(q)), i = 1..3, stacked last; (..., fields, 3) for a sequence."""
    if isinstance(X, FrameField):
        return lambda q: geometry.frame_components(q, X.evaluate(q))
    return lambda q: geometry.frame_components(
        q[..., None, :], np.stack(_NodePlan(q).ambient(X), axis=-2))


def curl_fd(X, points, step=geometry.FD_STEP):
    """Finite-difference curl oracle at quaternion points (..., 4), ambient values.

    Uses only the frame formulas
        (rot X)_1 = x_1 - (v2 x_3 - v3 x_2)
        (rot X)_2 = 2 x_2 - (v3 x_1 - v1 x_3)
        (rot X)_3 = 2 x_3 - (v1 x_2 - v2 x_1)
    on the metric components x_i = g(X, v_i), one stencil call per axis v_i.
    """
    points = np.asarray(points, dtype=float)
    comps = _frame_components(X)
    d = [geometry.frame_derivative(comps, i, points, step=step) for i in range(3)]
    x = comps(points)
    c1 = x[..., 0] - (d[1][..., 2] - d[2][..., 1])
    c2 = 2.0 * x[..., 1] - (d[2][..., 0] - d[0][..., 2])
    c3 = 2.0 * x[..., 2] - (d[0][..., 1] - d[1][..., 0])
    return geometry.from_frame_components(points, np.stack([c1, c2, c3], axis=-1))


def divergence_fd(X, points, step=geometry.FD_STEP):
    """Finite-difference divergence oracle at points (..., 4): div X = sum_i v_i(x_i).

    The unit frame is divergence-free (unimodularity), so no frame terms.
    X is a FrameField, or a sequence of them evaluated together on one node
    plan per stencil point set, which adds a trailing field axis.
    """
    points = np.asarray(points, dtype=float)
    comps = _frame_components(X)
    return sum(geometry.frame_derivative(comps, i, points, step=step)[..., i]
               for i in range(3))


def dmu_inner(f, h):
    """Volume-preserving pairing int g(rot^-1 X_f, X_h) dmu, by quadrature.

    The Hamiltonian f splits as constant + mean-zero; the constant rides on
    the fixed point rot xi = xi, the rest through the closed-form inverse.
    g(rot^-1 X_f, X_h) is integrated from the two fields' unit-frame
    component grids on the Gauss grid of their degrees.
    """
    f, h = _as_spectral(f), _as_spectral(h)
    c = f.mean_M()
    f0 = f.mean_free()
    if f0.norm_M() <= 1e-15 * max(1.0, abs(c)):
        pre = FrameField(SpectralFunction.constant(c), 0.0, 0.0)
    else:
        pre = FrameField(SpectralFunction.constant(c) - f0, 0.0,
                         2.0 * f0.inverse_laplacian())
    return _quad_g_inner_M(pre, contact_field(h))


# ---------------------------------------------------------------------------
# verification suite

def _ambient_residual(X, Y, plan):
    return float(np.max(np.linalg.norm(plan.ambient([X - Y])[0], axis=-1)))


def rot_report(L=6, seed=0, n_pairs=100, n_points=40):
    """Run the curl identity suite on one node plan of the check points (and
    one divergence_fd call for all five inverse fields); a list of named
    residual checks."""
    from .metrics import biinvariant_inner

    L, n_pairs, n_points = (geometry._positive_count(n, "rot_report needs " + name)
                            for n, name in ((L, "L"), (n_pairs, "n_pairs"),
                                            (n_points, "n_points")))
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n_points, 4))
    pts = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    plan = _NodePlan(pts)
    checks = []

    def add(name, residual, tol):
        checks.append({"name": name, "max_residual": float(residual),
                       "tolerance": float(tol), "passed": bool(residual < tol)})

    # fixed point of rot at calibration points
    reeb = FrameField.reeb()
    add("reeb_field_fixed_point", _ambient_residual(curl(reeb), reeb, plan), 1e-8)

    # closed-form contact curl against the production path
    res_cf = 0.0
    res_grad = 0.0
    for _ in range(5):
        f = SpectralFunction.random(L, rng)
        res_cf = max(res_cf, _ambient_residual(curl(contact_field(f)),
                                               contact_curl(f), plan))
        u = SpectralFunction.random(L, rng)
        gz = curl(FrameField.gradient(u))
        res_grad = max(res_grad, _ambient_residual(gz, FrameField(0.0, 0.0, 0.0), plan))
    add("contact_curl_closed_form", res_cf, 1e-6)
    add("gradient_fields_curl_free", res_grad, 1e-6)

    # right inverse: rot(rot^-1 X_f) = X_f on mean-zero Hamiltonians
    res_rt = 0.0
    Ys = []
    for _ in range(5):
        f0 = SpectralFunction.random(L, rng, lmin=1)
        Ys.append(curl_inverse_contact(f0))
        res_rt = max(res_rt, _ambient_residual(curl(Ys[-1]), contact_field(f0), plan))
    res_div = float(np.max(np.abs(divergence_fd(Ys, pts[:8]))))
    add("inverse_round_trip", res_rt, 1e-6)
    add("inverse_divergence_free", res_div, 1e-6)

    # pairing ratio against the flat Hamiltonian pairing: exactly -3
    res_ratio = 0.0
    used = 0
    while used < n_pairs:
        f0 = SpectralFunction.random(L, rng, lmin=1)
        h0 = SpectralFunction.random(L, rng, lmin=1)
        denom = biinvariant_inner(f0, h0)
        if abs(denom) <= 1e-8:
            continue
        res_ratio = max(res_ratio, abs(dmu_inner(f0, h0) / denom + 3.0))
        used += 1
    add("pairing_ratio_minus_three", res_ratio, 1e-8)

    # both bi-invariant pairings give the Reeb field the volume of S^3
    one = SpectralFunction.constant(1.0)
    res_vol = max(abs(dmu_inner(one, one) - geometry.VOL_S3),
                  abs(biinvariant_inner(one, one) - geometry.VOL_S3))
    add("reeb_norm_is_volume", res_vol, 1e-8)

    return checks
