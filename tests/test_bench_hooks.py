"""The benchmark's tracer must reach every traced name at every import
site; a renamed or deleted target would otherwise only show up as a
crashed traced benchmark run.  Its call-site check also counts grid
builds against brackets, which only holds while every bracket still
constructs its grid.  The same spans count Legendre table builds per
scattered point set, including the finite-difference oracles' stencils."""

import sys
from pathlib import Path

import numpy as np

from contactflow import flow
from contactflow.fields import FrameField, contact_field_at
from contactflow.harmonics import SpectralFunction
from contactflow.rot3d import curl_fd, curl_inverse_contact, divergence_fd

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def make_tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing.Tracer()


def traced_calls(run):
    """{span name: calls} of one traced run()."""
    tracer = make_tracer()
    try:
        tracer.install()
        run()
    finally:
        tracer.uninstall()
    return {name: row[0] for name, row in tracer.summary().items()}


def test_tracer_reaches_every_call_site():
    tracer = make_tracer()
    try:
        tracer.install()
        assert tracer.missed_sites() == []
    finally:
        tracer.uninstall()


def test_flow_step_builds_a_grid_per_bracket():
    # a cache above SphereGrid.__init__ (memoized grids) would drop the
    # grid_build spans below the bracket count
    h = SpectralFunction.random(6, np.random.default_rng(0), lmin=1)
    calls = traced_calls(lambda: flow.step(flow.FlowState(h), 1e-3))
    assert calls["bracket.lagrange_bracket"] == 4
    assert calls["harmonics.grid_build"] >= 4


def test_one_legendre_build_per_point_set():
    rng = np.random.default_rng(1)
    q = rng.standard_normal((7, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    f, u, w = (SpectralFunction.random(L, rng) for L in (3, 5, 2))
    X = FrameField(f, u, w)
    assert traced_calls(lambda: X.evaluate(q))["harmonics.legendre_tables"] == 1
    calls = traced_calls(lambda: contact_field_at(f, q))
    assert calls["harmonics.legendre_tables"] == 1
    # the finite-difference oracles: one field evaluation per stencil call
    # (one per frame axis), and curl_fd one more at the points themselves
    pts = rng.standard_normal((8, 4))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    Y = curl_inverse_contact(u.mean_free())
    calls = traced_calls(lambda: divergence_fd(Y, pts))
    assert calls["harmonics.legendre_tables"] == 3
    assert calls["geometry.frame_derivative"] == 3
    calls = traced_calls(lambda: curl_fd(X, pts))
    assert calls["harmonics.legendre_tables"] == 4
