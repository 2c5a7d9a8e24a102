import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactflow import geometry
from contactflow.fields import FrameField, _ambient, contact_field, contact_field_at
from contactflow.harmonics import SpectralFunction
from contactflow.metrics import biinvariant_inner
from contactflow.rot3d import (
    _ambient_residuals,
    contact_curl,
    curl,
    curl_fd,
    curl_inverse_contact,
    divergence_fd,
    dmu_inner,
    rot_report,
)
import reference


def unit_points(rng, n):
    raw = rng.standard_normal((n, 4))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def test_reeb_is_fixed_point():
    reeb = FrameField.reeb()
    out = curl(reeb)
    assert (out.a - reeb.a).norm_M() < 1e-13
    assert out.u.norm_M() < 1e-13 and out.w.norm_M() < 1e-13


def test_production_curl_matches_closed_form():
    rng = np.random.default_rng(0)
    f = SpectralFunction.random(4, rng)
    got = curl(contact_field(f))
    want = contact_curl(f)
    assert (got.a - want.a).norm_M() < 1e-12
    assert (got.w - want.w).norm_M() < 1e-12
    assert got.u.norm_M() < 1e-13


def _fields(draw_degrees, rng):
    return [FrameField(*(SpectralFunction.random(L, rng) for L in degrees))
            for degrees in draw_degrees]


@settings(max_examples=40, deadline=None)
@given(degrees=st.lists(st.tuples(*[st.integers(0, 7)] * 3), min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_curl_of_a_sequence_is_each_fields_own(degrees, seed):
    # mixed degrees, degree 0 among them: fields of one degree share one
    # component pass and stacked analyses, each curl bit for bit its own
    # per-field formula
    fields = _fields(degrees, np.random.default_rng(seed))
    got = curl(fields)
    assert isinstance(got, list) and len(got) == len(fields)
    for X, Z in zip(fields, got):
        want = reference.curl(X)
        for out in (Z, curl(X)):
            for name in "auw":
                a, b = getattr(out, name).coeffs, getattr(want, name).coeffs
                assert a.shape == b.shape and np.array_equal(a, b)


@settings(max_examples=30, deadline=None)
@given(degrees=st.lists(st.tuples(*[st.integers(0, 9)] * 3), min_size=1, max_size=6),
       n=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_one_pass_ambient_is_each_fields_own(degrees, n, seed):
    # at 2+ points a field's slice of the stacked evaluation is its own
    # evaluation, bit for bit
    rng = np.random.default_rng(seed)
    fields = _fields(degrees, rng)
    pts = unit_points(rng, n)
    got = _ambient(pts, fields)
    for X, v in zip(fields, got):
        assert np.array_equal(v, X.evaluate(pts))


@pytest.mark.parametrize("workload_seed", [3, 104729])
def test_rot_report_passes_on_the_benchmark_item_seeds(workload_seed):
    # perfbench's rot_suite draws one rng.integers(2**31) seed per item from
    # its workload seed; its first 40 items, replayed here, must each give
    # seven passed checks
    rng = np.random.default_rng(workload_seed)
    for _ in range(40):
        checks = rot_report(L=12, seed=int(rng.integers(2 ** 31)), n_pairs=20)
        assert len(checks) == 7 and all(c["passed"] for c in checks)


def test_curl_fd_oracle_agrees():
    rng = np.random.default_rng(1)
    pts = unit_points(rng, 6)
    X = FrameField(SpectralFunction.random(3, rng),
                   SpectralFunction.random(3, rng, lmin=1),
                   SpectralFunction.random(3, rng, lmin=1))
    spectral = curl(X).evaluate(pts)
    fd = curl_fd(X, pts)
    assert np.max(np.linalg.norm(spectral - fd, axis=-1)) < 1e-9


def test_gradient_fields_are_curl_free():
    rng = np.random.default_rng(2)
    u = SpectralFunction.random(4, rng, lmin=1)
    out = curl(FrameField.gradient(u))
    assert out.a.norm_M() < 1e-12
    assert out.u.norm_M() < 1e-13 and out.w.norm_M() < 1e-13


def test_inverse_round_trip():
    rng = np.random.default_rng(3)
    f0 = SpectralFunction.random(4, rng, lmin=1)
    Y = curl_inverse_contact(f0)
    back = curl(Y)
    X = contact_field(f0)
    assert (back.a - X.a).norm_M() < 1e-12
    assert (back.w - X.w.mean_free()).norm_M() < 1e-12


def test_inverse_is_divergence_free():
    rng = np.random.default_rng(4)
    f0 = SpectralFunction.random(3, rng, lmin=1)
    Y = curl_inverse_contact(f0)
    assert Y.divergence().norm_M() < 1e-14
    pts = unit_points(rng, 4)
    assert np.max(np.abs(divergence_fd(Y, pts))) < 1e-8


def test_single_point_oracles_keep_the_batch_convention():
    # one point (4,) gives a scalar divergence and a (4,) curl: bit for bit
    # the row of a one-point batch, and within round-off of a larger batch,
    # whose field evaluations may sum in another order
    rng = np.random.default_rng(7)
    pts = unit_points(rng, 5)
    Y = curl_inverse_contact(SpectralFunction.random(3, rng, lmin=1))
    X = FrameField(*(SpectralFunction.random(3, rng) for _ in range(3)))
    div, rot = divergence_fd(Y, pts), curl_fd(X, pts)
    assert div.shape == (5,) and rot.shape == (5, 4)
    for i in (0, 3):
        d, c = divergence_fd(Y, pts[i]), curl_fd(X, pts[i])
        assert d.shape == () and c.shape == (4,)
        assert np.array_equal(d, divergence_fd(Y, pts[i:i + 1])[0])
        assert np.array_equal(c, curl_fd(X, pts[i:i + 1])[0])
        assert abs(d - div[i]) < 1e-13 and np.max(np.abs(c - rot[i])) < 1e-13


@settings(max_examples=30, deadline=None)
@given(degrees=st.lists(st.integers(1, 13), min_size=1, max_size=5),
       n=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_divergence_is_each_fields_own(degrees, n, seed):
    # a sequence of fields shares one evaluation per stencil point set; each
    # slice of the trailing field axis is bit-for-bit the field's own call
    rng = np.random.default_rng(seed)
    Ys = [curl_inverse_contact(SpectralFunction.random(L, rng, lmin=1)) for L in degrees]
    pts = unit_points(rng, n)
    got = divergence_fd(Ys, pts)
    assert got.shape == (n, len(Ys))
    for i, Y in enumerate(Ys):
        assert np.array_equal(got[..., i], divergence_fd(Y, pts))


def test_stacked_divergence_peak_memory():
    # five rot_suite fields on the stencil circles of 8 points: a peak of
    # ~1.55 MB with the point kernel's in-place product, ~2.00 MB when it
    # allocates a second array of its stacked [m, a/b, field, tag, point] product
    rng = np.random.default_rng(0)
    Ys = [curl_inverse_contact(SpectralFunction.random(12, rng, lmin=1)) for _ in range(5)]
    pts = unit_points(rng, 8)
    divergence_fd(Ys, pts)
    tracemalloc.start()
    try:
        divergence_fd(Ys, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75e6


@settings(max_examples=30, deadline=None)
@given(degrees=st.lists(st.integers(0, 8), min_size=3, max_size=3),
       n=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_one_plan_oracles_are_the_per_axis_reference(degrees, n, seed):
    # one evaluation on the stencil circles of all three axes is bit for bit
    # one evaluation per axis; curl_fd's points join the stencil's plan, so
    # at one point they are the row of a batch, which a one-point
    # evaluation rounds differently (~1 ulp; see harmonics._PointPlan.evaluate)
    rng = np.random.default_rng(seed)
    X = FrameField(*(SpectralFunction.random(L, rng) for L in degrees))
    Y = curl_inverse_contact(SpectralFunction.random(max(degrees) + 1, rng, lmin=1))
    pts = unit_points(rng, n)
    for fields in (X, [X, Y]):
        assert np.array_equal(divergence_fd(fields, pts), reference.divergence_fd(fields, pts))
    if n > 1:
        assert np.array_equal(curl_fd(X, pts), reference.curl_fd(X, pts))
    else:
        assert np.max(np.abs(curl_fd(X, pts) - reference.curl_fd(X, pts))) < 1e-13


def test_residuals_on_a_shared_plan_match_fresh_evaluations():
    # one pass evaluates degrees 0, 7 and 3 on one point plan built at degree 7
    rng = np.random.default_rng(8)
    pts = unit_points(rng, 10)
    reeb = FrameField.reeb()
    pairs = [(reeb, reeb)]
    for L in (7, 3):
        f = SpectralFunction.random(L, rng)
        pairs.append((contact_field(f), contact_curl(f)))
    want = []
    for X, Y in pairs:
        fresh = (curl(X) - Y).evaluate(pts)
        want.append(np.max(np.linalg.norm(fresh, axis=-1)))
    assert _ambient_residuals(pairs, pts) == want


_FIELD = FrameField(SpectralFunction.mode(2, 1), SpectralFunction.mode(1, 0),
                    SpectralFunction.mode(3, -2))
_Q = np.array([0.5, 0.5, 0.5, 0.5])


@pytest.mark.parametrize("call, name", [
    (lambda: curl_fd(_FIELD, np.zeros(3)), "points"),         # was an IndexError
    (lambda: curl_fd(_FIELD, np.zeros(4)), "points"),         # returned zeros
    (lambda: divergence_fd(_FIELD, 2.0 * _Q), "points"),      # returned a value
    (lambda: contact_field_at(SpectralFunction.mode(2, 1), 2.0 * _Q), "q"),
    (lambda: _FIELD.evaluate([_Q, [np.nan, 0.0, 0.0, 1.0]]), "q"),   # returned NaN
    (lambda: divergence_fd([_FIELD], [_Q, (1.0 + 1e-11) * _Q]), "points"),
], ids=["curl_fd-3-vector", "curl_fd-zero", "divergence_fd-2q", "contact_field_at-2q",
        "evaluate-nan", "divergence_fd-sequence-off-by-1e-11"])
def test_points_off_the_sphere_are_rejected(call, name):
    with pytest.raises(ValueError, match="^%s must be" % name):
        call()


def test_inverse_rejects_nonzero_mean():
    f = SpectralFunction.constant(1.0) + SpectralFunction.mode(1, 0)
    with pytest.raises(ValueError):
        curl_inverse_contact(f)


def test_pairing_ratio_minus_three():
    rng = np.random.default_rng(5)
    for _ in range(6):
        f0 = SpectralFunction.random(3, rng, lmin=1)
        h0 = SpectralFunction.random(3, rng, lmin=1)
        denom = biinvariant_inner(f0, h0)
        if abs(denom) <= 1e-8:
            continue
        assert abs(dmu_inner(f0, h0) / denom + 3.0) < 1e-10


def test_pairing_is_symmetric_on_mean_zero():
    rng = np.random.default_rng(6)
    f0 = SpectralFunction.random(3, rng, lmin=1)
    h0 = SpectralFunction.random(3, rng, lmin=1)
    assert abs(dmu_inner(f0, h0) - dmu_inner(h0, f0)) < 1e-10


def test_reeb_pairing_is_volume():
    one = SpectralFunction.constant(1.0)
    assert abs(dmu_inner(one, one) - geometry.VOL_S3) < 1e-10
    assert abs(biinvariant_inner(one, one) - geometry.VOL_S3) < 1e-10
    # mixed constant/mean-zero branch: xi is Dmu-orthogonal to X_h
    h0 = SpectralFunction.mode(2, 1)
    assert abs(dmu_inner(one, h0)) < 1e-10


def test_report_all_pass():
    rep = rot_report(L=4, seed=1, n_pairs=10, n_points=12)
    assert len(rep) == 7
    for check in rep:
        assert check["passed"], check
        assert check["max_residual"] < check["tolerance"]


@pytest.mark.parametrize("kwargs", [{"L": 0}, {"n_pairs": 0}, {"n_points": 0},
                                    {"L": -1, "n_pairs": -5}])
def test_report_rejects_empty_samples(kwargs):
    # at L = 0 no mean-zero Hamiltonian is nonzero, so the pairing sampler
    # would never finish; with no pairs or points a check checks nothing
    with pytest.raises(ValueError, match="rot_report needs"):
        rot_report(**kwargs)


@pytest.mark.parametrize("kwargs", [{"L": True}, {"n_pairs": 2.5}, {"n_points": 3.0},
                                    {"L": np.float64(4)}, {"n_pairs": "3"}])
def test_report_rejects_non_integer_sizes(kwargs):
    # n_pairs = 2.5 used to run 3 pairings and L = True to run as L = 1
    with pytest.raises(ValueError, match="rot_report needs"):
        rot_report(**kwargs)


def test_report_takes_numpy_integers():
    rep = rot_report(L=np.int64(3), seed=2, n_pairs=np.int64(2), n_points=np.int32(6))
    assert [c["passed"] for c in rep] == [True] * 7
