"""The benchmark's tracer must reach every traced name at every import
site; a renamed or deleted target would otherwise only show up as a
crashed traced benchmark run.  Its call-site check also counts grid
builds against brackets, which only holds while every bracket still
constructs its grid.  The same spans count Legendre table builds per
scattered point set, also when several fields share one set and in the
finite-difference oracles' stencils, and show that a pairing by
quadrature evaluates no S^3 point: it synthesizes its operands on the
Gauss grid of its degree pair, whose shared tables a warm pairing does
not rebuild, and that the curl suite prepares each of its point sets
once.
The curvature routes batch their brackets and quadrature operands: one
synthesize call per grid, not per bracket, and one for both tangential
derivatives, not one per derivative."""

import sys
from functools import partial
from pathlib import Path

import numpy as np

import contactflow as cf
from contactflow import flow, geometry, harmonics
from contactflow.fields import FrameField, contact_field_at
from contactflow.harmonics import SpectralFunction
from contactflow.metrics import MetricKind, inner
from contactflow.rot3d import (
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


def test_curvature_plane_batches_its_transforms():
    # plane (3, 10), degrees 1 and 3: each route's brackets fall into up to
    # three (D, L, L_in) groups of one grid and one synthesize call for both
    # derivatives, and its pairings synthesize each operand degree once per
    # grid -- 15 calls on 14 grids and 10 analyses (one call per tag made 25;
    # one call per tag, bracket and operand made 60 on 30 grids)
    f, h = cf.basis_function(3), cf.basis_function(10)

    def plane():
        sig_bi = cf.SectionPlane(f, h, MetricKind.BI_INVARIANT)
        sig_e = cf.SectionPlane(f, h, MetricKind.RIGHT_INVARIANT)
        cf.k_biinvariant(sig_bi)
        cf.k_right_invariant(sig_e, "direct")
        cf.k_right_invariant(sig_e, "assembled")
        cf.k_eigen(f, h)

    calls = traced_calls(plane)
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
    # q i, q j, q k (3) serve the unit frame and, times conj(q), the
    # rotation columns (3); pi(q) is their R1
    assert calls["geometry.qmul"] == 6
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


def test_rot_report_prepares_each_point_set_once():
    # one node plan for the check points (a degree-0 build grown to L) and
    # one for each of the 3 stencil point sets of the single divergence
    # call; the pairings synthesize on warm grid plans and build nothing
    rot_report(L=4, seed=0, n_pairs=3, n_points=12)
    calls = traced_calls(lambda: rot_report(L=4, seed=1, n_pairs=3, n_points=12))
    assert calls["harmonics.legendre_tables"] == 5
    assert calls["geometry.frame_derivative"] == 3
    assert calls["rot3d.divergence_fd"] == 1
    # 6 per node plan (4), 1 per stencil circle (3) and 3 for the unit
    # frame of each stencil's metric components (3)
    assert calls["geometry.qmul"] == 36


def test_warm_pairing_synthesizes_on_its_gauss_grid():
    # a rot_suite pairing at L = 12 on the 13 x 26 Gauss grid, with no
    # Legendre table, quadrature build or quaternion product: the scalar
    # pairing synthesizes its stacked operands once, a field pairing takes
    # the component grids of both fields, 2 synthesize calls each: the xi
    # potential, and both derivatives of the stacked u and w
    rng = np.random.default_rng(3)
    f, h = (SpectralFunction.random(12, rng, lmin=1) for _ in range(2))
    pairings = [(1, partial(inner, MetricKind.BI_INVARIANT, f, h, method="quadrature")),
                (4, partial(inner, MetricKind.RIGHT_INVARIANT, f, h, method="quadrature")),
                (4, lambda: dmu_inner(f, h))]
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
