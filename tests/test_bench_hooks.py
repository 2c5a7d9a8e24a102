"""The benchmark's tracer must reach every traced name at every import
site; a renamed or deleted target would otherwise only show up as a
crashed traced benchmark run.  Its call-site check also counts grid
builds against brackets, which only holds while every bracket still
constructs its grid.  The same spans count Legendre table builds per
scattered point set, also when several fields share one set and in the
finite-difference oracles' stencils (one set for all three frame axes),
and show that a pairing by quadrature evaluates no S^3 point: it
synthesizes its operands on the Gauss grid of its degree pair, whose
shared tables a warm pairing does not rebuild, and that the curl suite
prepares each of its point sets once, takes its curls in one call whose
transforms do not grow with the number of fields, and integrates its
pairings in one batch.
The curvature routes batch their brackets and quadrature operands: one
synthesize call per grid, not per bracket, and one for both tangential
derivatives, not one per derivative.  The package builds its own results
without the validating SpectralFunction constructor, which is for user
data: a flow step, a curvature plane and the curl suite call it never."""

import sys
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np

import contactflow as cf
from contactflow import flow, geometry, harmonics
from contactflow.fields import FrameField, contact_field_at
from contactflow.harmonics import SpectralFunction
from contactflow.metrics import MetricKind, inner
from contactflow.rot3d import (
    curl,
    curl_fd,
    curl_inverse_contact,
    divergence_fd,
    dmu_inner,
    rot_report,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def make_tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing.Tracer()


def traced(run):
    """The tracer after one traced run()."""
    tracer = make_tracer()
    try:
        tracer.install()
        run()
    finally:
        tracer.uninstall()
    return tracer


def traced_calls(run):
    """{span name: calls} of one traced run()."""
    return {name: row[0] for name, row in traced(run).summary().items()}


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


def curvature_plane(f, h):
    """The curvature routes of the plane of (f, h), as the table runs them."""
    sig_bi = cf.SectionPlane(f, h, MetricKind.BI_INVARIANT)
    sig_e = cf.SectionPlane(f, h, MetricKind.RIGHT_INVARIANT)
    cf.k_biinvariant(sig_bi)
    cf.k_right_invariant(sig_e, "direct")
    cf.k_right_invariant(sig_e, "assembled")
    cf.k_eigen(f, h)


def test_curvature_plane_batches_its_transforms():
    # plane (3, 10), degrees 1 and 3: each route's brackets fall into up to
    # three (D, L, L_in) groups of one grid and one synthesize call for both
    # derivatives, and its pairings synthesize each operand degree once per
    # grid -- 15 calls on 14 grids and 10 analyses (one call per tag made 25;
    # one call per tag, bracket and operand made 60 on 30 grids)
    f, h = cf.basis_function(3), cf.basis_function(10)
    calls = traced_calls(partial(curvature_plane, f, h))
    assert calls["harmonics.synthesize"] == 15
    assert calls["harmonics.grid_build"] == 14
    assert calls["harmonics.adjoint_analyze"] == 10
    assert calls.get("harmonics.analyze", 0) == 0


def test_one_legendre_build_per_point_set():
    rng = np.random.default_rng(1)
    q = rng.standard_normal((7, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    f, u, w = (SpectralFunction.random(L, rng) for L in (3, 5, 2))
    X = FrameField(f, u, w)
    calls = traced_calls(lambda: X.evaluate(q))
    assert calls["harmonics.legendre_tables"] == 1
    # pi(q) = q i conj(q) (2) and the carried frame (pi, e_theta, e_lambda) q (1)
    assert calls["geometry.qmul"] == 3
    calls = traced_calls(lambda: contact_field_at(f, q))
    assert calls["harmonics.legendre_tables"] == 1
    # a pairing of degrees 3 and 5 grows its grid's shared tables once per
    # rising operand degree, and builds nothing when they are warm
    pairings = [lambda: dmu_inner(f.mean_free(), u.mean_free())]
    pairings += [partial(inner, kind, f, u, method="quadrature") for kind in MetricKind]
    for pairing in pairings:
        harmonics._plan.cache_clear()
        calls = traced_calls(pairing)
        assert calls["harmonics.legendre_tables"] == 2
        calls = traced_calls(pairing)
        assert calls.get("harmonics.legendre_tables", 0) == 0
        assert calls.get("geometry.QuadratureS3.build", 0) == 0
    # the finite-difference oracles: one field evaluation for the stencil
    # circles of all three frame axes, with curl_fd's points themselves
    pts = rng.standard_normal((8, 4))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    Y = curl_inverse_contact(u.mean_free())
    calls = traced_calls(lambda: divergence_fd(Y, pts))
    assert calls["harmonics.legendre_tables"] == 1
    assert calls.get("geometry.frame_derivative", 0) == 0
    calls = traced_calls(lambda: curl_fd(X, pts))
    assert calls["harmonics.legendre_tables"] == 1


def test_rot_report_prepares_each_point_set_once():
    # one node plan for the check points (built once, at L, by the one
    # residual pass) and one for the stencil circles of all 3 axes of the
    # single divergence call; curls and pairings use warm grid plans
    rot_report(L=4, seed=0, n_pairs=3, n_points=12)
    calls = traced_calls(lambda: rot_report(L=4, seed=1, n_pairs=3, n_points=12))
    assert calls["harmonics.legendre_tables"] == 2
    assert calls.get("geometry.frame_derivative", 0) == 0
    assert calls["rot3d.divergence_fd"] == 1
    # 3 per node plan (2) and 1 per stencil circle (3); the unit frame of
    # each stencil's metric components permutes q and multiplies nothing
    assert calls["geometry.qmul"] == 9


def test_rot_report_pairs_in_one_batch():
    # all pairings, and the Reeb pairing, share one synthesize call per grid
    # and degree, so more pairs make no more calls
    calls = [traced_calls(lambda: rot_report(L=4, seed=1, n_pairs=n, n_points=12))
             for n in (3, 30)]
    assert calls[0]["harmonics.synthesize"] == calls[1]["harmonics.synthesize"]


def calls_under(tracer, name):
    """{span name: calls} of the spans directly under the spans called name."""
    inside = {i for i, n in enumerate(tracer.names) if n == name}
    return Counter(n for n, p in zip(tracer.names, tracer.parent) if p in inside)


def test_curl_suite_transforms_do_not_grow_with_its_fields():
    # rot_report's 16 curls are one curl call: per field degree (the Reeb
    # field's 0 and L) one grid, one component pass and two stacked
    # analyses; the pass synthesizes each degree of the xi potentials (0
    # and L at degree L, for the gradient fields) and of the u and w, which
    # at degree 0 are not synthesized: 4 synthesize and 4 adjoint_analyze
    # calls, where a curl call per field made 31 and 32 (16 of them analyze)
    tracer = traced(lambda: rot_report(L=4, seed=1, n_pairs=3, n_points=12))
    assert calls_under(tracer, "rot3d.curl") == {"harmonics.grid_build": 2,
                                                 "harmonics.synthesize": 4,
                                                 "harmonics.adjoint_analyze": 4}
    assert tracer.summary()["rot3d.curl"][0] == 1
    rng = np.random.default_rng(4)
    for n in (1, 16):
        fields = [FrameField(*(SpectralFunction.random(5, rng) for _ in range(3)))
                  for _ in range(n)]
        calls = traced_calls(lambda: curl(fields))
        assert calls["harmonics.synthesize"] == calls["harmonics.adjoint_analyze"] == 2
        assert calls.get("harmonics.analyze", 0) == 0


def test_warm_pairing_synthesizes_on_its_gauss_grid():
    # a rot_suite pairing at L = 12 on the 13 x 26 Gauss grid, with no
    # Legendre table, quadrature build or quaternion product: the scalar
    # pairing synthesizes its stacked operands once, a field pairing takes
    # the component grids of both fields in 2 synthesize calls: the xi
    # potentials, and both derivatives of the stacked u and w
    rng = np.random.default_rng(3)
    f, h = (SpectralFunction.random(12, rng, lmin=1) for _ in range(2))
    pairings = [(1, partial(inner, MetricKind.BI_INVARIANT, f, h, method="quadrature")),
                (2, partial(inner, MetricKind.RIGHT_INVARIANT, f, h, method="quadrature")),
                (2, lambda: dmu_inner(f, h))]
    for n_synth, pairing in pairings:
        pairing()
        tracer = traced(pairing)
        calls = {name: row[0] for name, row in tracer.summary().items()}
        assert calls.get("harmonics.legendre_tables", 0) == 0
        assert calls.get("geometry.QuadratureS3.build", 0) == 0
        assert calls.get("geometry.qmul", 0) == 0
        assert calls["harmonics.synthesize"] == n_synth
        assert tracer.grid_keys == {(13, 26)}


def test_metric_takes_qi_from_the_plan():
    rng = np.random.default_rng(2)
    q = rng.standard_normal((5, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    u, v = rng.standard_normal((2, 5, 4))
    calls = traced_calls(lambda: geometry.metric(q, u, v))
    assert calls["geometry.qmul"] == 1
    # a pairing forms no q i at all: it reads unit-frame components off grids
    f, h = (SpectralFunction.random(3, rng, lmin=1) for _ in range(2))
    pairings = [lambda: dmu_inner(f, h)]
    pairings += [partial(inner, kind, f, h, method="quadrature") for kind in MetricKind]
    for pairing in pairings:
        pairing()
        assert traced_calls(pairing).get("geometry.qmul", 0) == 0


def test_hot_paths_skip_the_validating_constructor(monkeypatch):
    # 35 calls per flow step at L = 8, 111 per curvature plane and 593 per
    # rot_report(L=12, n_pairs=20) before the package built its own
    # results with SpectralFunction._of
    calls = []
    init = SpectralFunction.__init__
    monkeypatch.setattr(SpectralFunction, "__init__",
                        lambda self, coeffs: calls.append(1) or init(self, coeffs))

    def count(run):
        calls.clear()
        run()
        return len(calls)

    h = SpectralFunction.random(8, np.random.default_rng(0), lmin=1)
    assert count(lambda: flow.step(flow.FlowState(h), 1e-3)) == 0
    f, g = cf.basis_function(3), cf.basis_function(10)
    assert count(partial(curvature_plane, f, g)) == 0
    assert count(lambda: rot_report(L=12, n_pairs=20)) == 0
    assert count(lambda: SpectralFunction(h.coeffs)) == 1     # the wrapper counts
