"""Curl on the contact 3-sphere and the volume-preserving pairing.

rot is the operator with omega_{rot X} = * d omega_X for the calibrated
metric, orientation, and volume mu = theta ^ dtheta.  Three routes coexist:

  * curl(X): the production path, which reads the frame-component grids of
    X over the section and recovers the curl's potentials, at the degree of
    X, by adjoint quadrature (gradient parts drop out exactly, as curl
    annihilates them); a sequence of fields takes one pass per degree;
  * contact_curl(f) / curl_inverse_contact(f): closed forms on contact
    fields, rot X_f = (f - Delta f) xi + phi grad f and its right inverse
    rot^-1 X_f = -f xi + 2 phi grad(Delta^-1 f);
  * curl_fd(X, points): a finite-difference oracle built only on frame
    derivatives of the metric components at a batch of points (..., 4),
    sharing no code with the spectral path; divergence_fd, its divergence
    twin, also takes a sequence of fields; each evaluates them in one
    fields._ambient pass on the stencil circles of all three axes (see
    geometry._frame_stencil).

The pairing <X_f, X_h> = int g(rot^-1 X_f, X_h) dmu makes the fields of
mean-zero Hamiltonians a negative-definite block: the ratio against the
flat Hamiltonian pairing is exactly -3.  The Reeb field itself is a fixed
point of rot, so its pairing branch returns the volume of the sphere.  The
pairing is the field pairing of metrics.inner's quadrature path, on the
unit-frame component grids of its two fields.  rot_report takes all its
curls in one call, evaluates all their residuals in one _ambient pass at
its check points, and integrates all pairings in one batch.
"""

from __future__ import annotations

import numpy as np

from . import geometry
from .fields import (
    FrameField,
    _as_spectral,
    _ambient,
    _quad_g_inners_M,
    _section,
    contact_field,
)
from .geometry import SQRT2
from .harmonics import (
    SQRT_4PI,
    TANGENTIAL,
    SpectralFunction,
    SphereGrid,
    _groups,
    adjoint_analyze,
)


def curl(X):
    """Curl of an invariant field from its component data; for a sequence
    of fields, the list of their curls.

    The xi-component of rot X picks up the plane components through the
    adjoint of the surface gradient; the phi-grad potential of rot X is the
    mean-free part of the xi-component of X.  Exact: rot X has the degree
    of X.  The fields of one degree, grouped by harmonics._groups, share
    one component pass on its grid, one stacked analysis of their A grids
    and one stacked adjoint of their (B, C) grids.
    """
    fields = list(X) if np.iterable(X) else [X]
    if not all(isinstance(Y, FrameField) for Y in fields):
        raise TypeError("curl needs X to be a FrameField or a sequence of them, got %r" % (X,))
    out = [None] * len(fields)
    for L, idx in _groups(Y.degree for Y in fields).items():
        grid = SphereGrid.for_degree(L)
        comps = _section(grid, [fields[i] for i in idx])        # [field, (A, B, C), j, k]
        a_spec = adjoint_analyze(comps[:, 0], grid, L, None)
        a_new = a_spec - SQRT2 * adjoint_analyze(comps[:, 1:], grid, L, TANGENTIAL)
        for i, a, a_curl in zip(idx, a_spec, a_new):
            # rows of the batch: a_curl is copied, mean_free copies a
            out[i] = FrameField(SpectralFunction._of(a_curl.copy()), 0.0,
                                SpectralFunction._of(a).mean_free())
    return out[0] if isinstance(X, FrameField) else out


def contact_curl(f):
    """Closed form rot X_f = (f - Delta f) xi + phi grad f."""
    f = _as_spectral(f, "f")
    return FrameField(f - f.laplacian(), 0.0, f.mean_free())


def curl_inverse_contact(f):
    """The divergence-free field with rot = X_f, for mean-zero f.

    Returns -f xi + 2 phi grad(Delta^-1 f).  The mean-zero restriction is
    structural: constants are handled by the fixed point rot xi = xi.
    """
    f = _as_spectral(f, "f")
    if not f.mean_zero():
        raise ValueError("curl_inverse_contact needs a mean-zero Hamiltonian")
    return FrameField(-1.0 * f, 0.0, 2.0 * f.inverse_laplacian())


def _frame_components(X):
    """q -> g(X(q), v_i(q)), i = 1..3, stacked last; (..., fields, 3) for a sequence."""
    if isinstance(X, FrameField):
        return lambda q: geometry.frame_components(q, X.evaluate(q))
    return lambda q: geometry.frame_components(
        q[..., None, :], np.moveaxis(_ambient(q, X), 0, -2))


def curl_fd(X, points):
    """Finite-difference curl oracle at quaternion points (..., 4), ambient values.

    Uses only the frame formulas
        (rot X)_1 = x_1 - (v2 x_3 - v3 x_2)
        (rot X)_2 = 2 x_2 - (v3 x_1 - v1 x_3)
        (rot X)_3 = 2 x_3 - (v1 x_2 - v2 x_1)
    on the metric components x_i = g(X, v_i), all from one evaluation.
    points must be unit quaternions (ValueError otherwise).
    """
    points = geometry._unit_points(points, "points")
    *d, x = geometry._frame_stencil(_frame_components(X), range(3), points, at_p=True)
    c1 = x[..., 0] - (d[1][..., 2] - d[2][..., 1])
    c2 = 2.0 * x[..., 1] - (d[2][..., 0] - d[0][..., 2])
    c3 = 2.0 * x[..., 2] - (d[0][..., 1] - d[1][..., 0])
    return geometry.from_frame_components(points, np.stack([c1, c2, c3], axis=-1))


def divergence_fd(X, points):
    """Finite-difference divergence oracle at points (..., 4): div X = sum_i v_i(x_i).

    The unit frame is divergence-free (unimodularity), so no frame terms.
    X is a FrameField, or a sequence of them evaluated together, which adds
    a trailing field axis.  points must be unit quaternions (ValueError
    otherwise).
    """
    points = geometry._unit_points(points, "points")
    d = geometry._frame_stencil(_frame_components(X), range(3), points)
    return sum(d[i][..., i] for i in range(3))


def dmu_inner(f, h):
    """Volume-preserving pairing int g(rot^-1 X_f, X_h) dmu, by quadrature.

    The Hamiltonian f splits as constant + mean-zero; the constant rides on
    the fixed point rot xi = xi, the rest through the closed-form inverse.
    g(rot^-1 X_f, X_h) is integrated from the two fields' unit-frame
    component grids on the Gauss grid of their degrees.
    """
    return _quad_g_inners_M([_dmu_fields(f, h)])[0]


def _dmu_fields(f, h):
    """The field pair (rot^-1 X_f, X_h) that dmu_inner(f, h) integrates."""
    f, h = _as_spectral(f, "f"), _as_spectral(h, "h")
    c = f.mean_M()
    f0 = f.mean_free()
    if f0.norm_M() <= 1e-15 * max(1.0, abs(c)):
        return FrameField(SpectralFunction.constant(c)), contact_field(h)
    # constant(c) - f0 and 2.0 * Delta^-1 f0, by the same operations on fresh arrays
    a = 0.0 - f0.coeffs
    a[0, f.L] = c * SQRT_4PI
    w = f0.inverse_laplacian()
    w.coeffs *= 2.0
    return FrameField(SpectralFunction._of(a), 0.0, w), contact_field(h)


# ---------------------------------------------------------------------------
# verification suite

def _ambient_residuals(pairs, pts):
    """max over the S^3 points pts of |rot X - Y| for each (X, Y) pair: one
    curl call for all X and one evaluation pass for all differences."""
    diffs = [Z - Y for Z, (_, Y) in zip(curl([X for X, _ in pairs]), pairs)]
    return np.linalg.norm(_ambient(pts, diffs), axis=-1).reshape(len(diffs), -1).max(1).tolist()


def rot_report(L=6, seed=0, n_pairs=100, n_points=40):
    """Run the curl identity suite: one curl call for its 16 fields, one
    evaluation pass for their residuals at the check points, one
    divergence_fd call for the five inverse fields and one batch for the
    pairings; a list of named residual checks."""
    from .metrics import biinvariant_inner

    L, n_pairs, n_points = (geometry._positive_count(n, "rot_report needs " + name)
                            for n, name in ((L, "L"), (n_pairs, "n_pairs"),
                                            (n_points, "n_points")))
    rng = np.random.default_rng(seed)
    pts = geometry._random_points(rng, n_points)
    checks = []

    def add(name, residual, tol):
        checks.append({"name": name, "max_residual": float(residual),
                       "tolerance": float(tol), "passed": bool(residual < tol)})

    # rot X against its closed form Y: the fixed point xi, contact fields,
    # curl-free gradients and the right inverse rot(rot^-1 X_f) = X_f on
    # mean-zero Hamiltonians; every curl in one call, every residual in one pass
    reeb, zero = FrameField.reeb(), FrameField(0.0, 0.0, 0.0)
    contact, gradient, inverse = [], [], []
    for _ in range(5):
        f = SpectralFunction.random(L, rng)
        contact.append((contact_field(f), contact_curl(f)))
        u = SpectralFunction.random(L, rng)
        gradient.append((FrameField.gradient(u), zero))
    for _ in range(5):
        f0 = SpectralFunction.random(L, rng, lmin=1)
        inverse.append((curl_inverse_contact(f0), contact_field(f0)))
    suite = [("reeb_field_fixed_point", 1e-8, [(reeb, reeb)]),
             ("contact_curl_closed_form", 1e-6, contact),
             ("gradient_fields_curl_free", 1e-6, gradient),
             ("inverse_round_trip", 1e-6, inverse)]
    residuals = iter(_ambient_residuals([p for _, _, ps in suite for p in ps], pts))
    for name, tol, ps in suite:
        add(name, np.max([next(residuals) for _ in ps]), tol)     # a NaN fails the check
    res_div = float(np.max(np.abs(divergence_fd([Y for Y, _ in inverse], pts[:8]))))
    add("inverse_divergence_free", res_div, 1e-6)

    # pairing ratio against the flat Hamiltonian pairing: exactly -3; one batch after the draws
    pairs = []
    while len(pairs) < n_pairs:
        f0 = SpectralFunction.random(L, rng, lmin=1)
        h0 = SpectralFunction.random(L, rng, lmin=1)
        denom = biinvariant_inner(f0, h0)
        if abs(denom) <= 1e-8:
            continue
        pairs.append((_dmu_fields(f0, h0), denom))
    one = SpectralFunction.constant(1.0)
    *values, reeb_value = _quad_g_inners_M([p for p, _ in pairs] + [_dmu_fields(one, one)])
    res_ratio = max([0.0] + [abs(value / denom + 3.0) for value, (_, denom) in zip(values, pairs)])
    add("pairing_ratio_minus_three", res_ratio, 1e-8)

    # both bi-invariant pairings give the Reeb field the volume of S^3
    res_vol = max(abs(reeb_value - geometry.VOL_S3),
                  abs(biinvariant_inner(one, one) - geometry.VOL_S3))
    add("reeb_norm_is_volume", res_vol, 1e-8)

    return checks
