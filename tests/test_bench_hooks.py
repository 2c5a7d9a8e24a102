"""The benchmark's tracer must reach every traced name at every import
site; a renamed or deleted target would otherwise only show up as a
crashed traced benchmark run.  Its call-site check also counts grid
builds against brackets, which only holds while every bracket still
constructs its grid."""

import sys
from pathlib import Path

import numpy as np

from contactflow import flow
from contactflow.harmonics import SpectralFunction

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def make_tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing.Tracer()


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
    tracer = make_tracer()
    try:
        tracer.install()
        flow.step(flow.FlowState(h), 1e-3)
    finally:
        tracer.uninstall()
    calls = {name: row[0] for name, row in tracer.summary().items()}
    assert calls["bracket.lagrange_bracket"] == 4
    assert calls["harmonics.grid_build"] >= 4
