"""The benchmark's three workloads, written against contactflow's public API.

Each workload is built from a seed (`__init__` is part of set-up) and then
driven by the worker loop:

    prepare()   work of the timed run that belongs to no single item
    item()      one unit of work; only this is timed per item
    check(out)  the item's output check; False records a failed item

Calls go through module attributes (`cf.x`, `cfflow.x`) looked up at call
time, so the tracing shim sees them.  Tolerances are the acceptance suite's.
"""

from __future__ import annotations

import numpy as np

import contactflow as cf
from contactflow import flow as cfflow

DRIFT_TOL = 1e-6          # criterion 6
ROUTE_TOL = 1e-8          # criteria 8 and 9


class Flow:
    """Euler-Arnold flow at L = 32; one item is one RK4 step.

    The start momentum has the criterion-6 shape: a degree <= 2 field scaled
    to norm_M = 15, through helmholtz(), padded to 32, plus a 1e-3 tail on
    every degree 1..32.  The trajectory restarts from it every SEGMENT
    steps, so the work per item does not depend on how far a run gets.
    """

    L = 32
    DT = 1e-3
    K_MAX = 3
    STRIDE = 10
    SEGMENT = 100

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        base = cf.SpectralFunction.random(2, rng, lmin=1)
        f = base * (15.0 / base.norm_M())
        tail = cf.SpectralFunction.random(self.L, rng, lmin=1, scale=1e-3)
        self.h0 = f.helmholtz().padded(self.L) + tail
        self.state = None
        self.steps = 0
        self.energy_drift = 0.0
        self.casimir_drift = 0.0

    def _invariants(self, h):
        return cfflow.kinetic_energy(h), cfflow.casimirs(h, self.K_MAX)

    def prepare(self):
        if self.state is None or self.steps == self.SEGMENT:
            self.state = cf.FlowState(self.h0, 0.0)
            self.steps = 0
            self.T0, self.I0 = self._invariants(self.h0)

    def item(self):
        self.state = cfflow.step(self.state, self.DT)
        self.steps += 1
        return self.state

    def check(self, state):
        norm = state.h.norm_M()
        if not np.isfinite(norm) or norm > cfflow.BLOWUP_THRESHOLD:
            self.state = None          # what evolve() reports as BlowUpError
            return False
        if self.steps % self.STRIDE:
            return True
        T, I = self._invariants(state.h)
        dT = cfflow.relative_drift(np.array([self.T0, T]))
        dI = max(cfflow.relative_drift(np.array([self.I0[k], I[k]]))
                 for k in (1, 2))
        self.energy_drift = max(self.energy_drift, dT)
        self.casimir_drift = max(self.casimir_drift, dI)
        return dT < DRIFT_TOL and dI < DRIFT_TOL

    def accuracy(self):
        return {"flow.energy_drift": self.energy_drift,
                "flow.casimir_drift": self.casimir_drift}


class CurvatureTable:
    """The `contactflow curvature --degree-cutoff 3` table; one item is one
    basis plane through all five routes.  structure_constants(3) is rebuilt
    at the start of every pass over the 120 planes, inside the timed run.
    The seed fixes the order in which the planes are visited.
    """

    CUTOFF = 3

    def __init__(self, seed):
        n = cf.basis_size(self.CUTOFF)
        pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
        order = np.random.default_rng(seed).permutation(len(pairs))
        self.pairs = [pairs[i] for i in order]
        self.basis = [cf.basis_function(i) for i in range(n)]
        self.pos = len(self.pairs)
        self.table = None
        self.gap_max = 0.0

    def prepare(self):
        if self.pos == len(self.pairs):
            self.table = cf.structure_constants(self.CUTOFF)
            self.pos = 0

    def item(self):
        j, k = self.pairs[self.pos]
        self.pos += 1
        f, h = self.basis[j], self.basis[k]
        sig_bi = cf.SectionPlane(f, h, cf.MetricKind.BI_INVARIANT)
        sig_e = cf.SectionPlane(f, h, cf.MetricKind.RIGHT_INVARIANT)
        return (cf.k_biinvariant(sig_bi),
                cf.k_right_invariant(sig_e, "direct"),
                cf.k_right_invariant(sig_e, "assembled"),
                cf.k_eigen(f, h),
                cf.k_structural(self.table, j, k))

    def check(self, out):
        k_bi, *routes = out
        gap = max(routes) - min(routes)
        self.gap_max = max(self.gap_max, gap)
        return k_bi >= 0.0 and gap < ROUTE_TOL

    def accuracy(self):
        return {"curvature.route_gap_max": self.gap_max}


class RotSuite:
    """One item is one rot_report(L=12, seed=s_i, n_pairs=20); the per-item
    seeds s_i are drawn from the workload seed."""

    L = 12
    N_PAIRS = 20

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.item_seed = None
        self.worst = 0.0

    def prepare(self):
        self.item_seed = int(self.rng.integers(2 ** 31))

    def item(self):
        return cf.rot_report(L=self.L, seed=self.item_seed, n_pairs=self.N_PAIRS)

    def check(self, checks):
        self.worst = max([self.worst] + [c["max_residual"] / c["tolerance"]
                                         for c in checks])
        return len(checks) == 7 and all(c["passed"] for c in checks)

    def accuracy(self):
        return {"rot3d.worst_residual_over_tol": self.worst}


WORKLOADS = {"flow": Flow, "curvature_table": CurvatureTable, "rot_suite": RotSuite}
