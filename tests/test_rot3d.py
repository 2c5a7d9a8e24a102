import numpy as np
import pytest

from contactflow import geometry
from contactflow.fields import FrameField, contact_field
from contactflow.harmonics import SpectralFunction
from contactflow.metrics import biinvariant_inner
from contactflow.rot3d import (
    contact_curl,
    curl,
    curl_fd,
    curl_inverse_contact,
    divergence_fd,
    dmu_inner,
    rot_report,
)


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
