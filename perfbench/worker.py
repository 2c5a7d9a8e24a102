"""One workload run in a fresh process; started by run.py, never by hand.

Set-up (import contactflow from the checkout's src/, the first-call
calibrations laplace_scale() and structural_sign(), and the workload's
seeded inputs) ends at the monotonic time reported as "ready".  With
--setup-only the process times the reference kernel and exits there.
Otherwise it runs items until --seconds have passed, timing the reference
kernel after every item, and prints one JSON line of results; with
--trace 1 the calls are traced and per-layer figures are added.

Times are normalized to host speed: a time t measured while the reference
kernel took r ms is reported as t * REF_MS / r.  On a shared host whose
speed swings by 1.5-2x over seconds to minutes this removes most of the
swing (30-second windows of the flow and rot_suite workloads: spread of
the median item time 0.04-0.19 raw, 0.01-0.04 normalized); raw figures
go out alongside.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
ROUNDTRIP_L = (32, 64, 128)
REF_MS = 1.6    # reference_kernel() on an uncontended 2-vCPU Xeon VM
REF_WINDOW = 2  # an item's speed factor is the median over items i-2 .. i+2


def reference_kernel(n=32, npts=64):
    """A fixed three-term recurrence over small numpy rows, the same mix of
    interpreter and numpy work as the transforms.  Timed next to every item
    and after set-up, it measures how fast the host runs at that moment;
    run.py divides the workload's times by it.  Never change it: every
    figure ever reported is relative to it."""
    x = np.linspace(-0.99, 0.99, npts)
    s = np.sqrt(1.0 - x * x)
    P = np.zeros((n, n, npts))
    P[0, 0] = 0.7
    for m in range(1, n):
        P[m, m] = 0.9 * s * P[m - 1, m - 1]
    for m in range(n - 1):
        P[m + 1, m] = 1.1 * x * P[m, m]
        for l in range(m + 2, n):
            P[l, m] = 1.01 * (x * P[l - 1, m] - 0.5 * P[l - 2, m])
    return float(P.sum())


def time_reference(clock):
    t0 = clock()
    reference_kernel()
    return (clock() - t0) * 1e3


def speed_factors(ref_ms):
    """REF_MS over a running median of the reference times, per item."""
    return [REF_MS / statistics.median(ref_ms[max(0, i - REF_WINDOW): i + REF_WINDOW + 1])
            for i in range(len(ref_ms))]


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for path in libs:
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def roundtrip_errors(cf, seed):
    """max |analyze(synthesize(f)) - f| over seeded N(0,1) coefficients."""
    rng = np.random.default_rng(seed)
    out = {}
    for L in ROUNDTRIP_L:
        f = cf.SpectralFunction.random(L, rng)
        back = cf.analyze(f.to_grid(cf.SphereGrid.for_degree(L)), L)
        out["harmonics.roundtrip_err.L%d" % L] = float(np.max(np.abs(back.coeffs - f.coeffs)))
    return out


def layer_figures(tracer, items, speed):
    """Per-item figures from the spans: <span>.calls, .ms (inclusive) and
    .self_ms, the times scaled by the host speed factor like item times."""
    n = max(items, 1)
    out = {}
    for name, (calls, incl, own) in tracer.summary().items():
        out[name + ".calls"] = calls / n
        out[name + ".ms"] = incl * 1e3 * speed / n
        out[name + ".self_ms"] = own * 1e3 * speed / n
    builds = out.get("harmonics.grid_build.calls", 0.0) * n
    out["harmonics.grid_builds"] = builds / n
    out["harmonics.grid_distinct_frac"] = len(tracer.grid_keys) / max(builds, 1)
    out["harmonics.legendre_tables.bytes_computed"] = tracer.table_bytes / n
    out["harmonics.evaluate_base.points"] = tracer.points / n
    return out


def callsite_problems(workload, layers, items):
    """Counts that only hold when every import site of a name is traced."""
    brackets = layers.get("bracket.lagrange_bracket.calls", 0.0) * items
    problems = []
    if workload == "flow":
        if brackets != 4 * items:
            problems.append("flow: %d brackets for %d RK4 steps, expected 4 each"
                            % (brackets, items))
        if layers["harmonics.grid_builds"] * items < brackets:
            problems.append("flow: fewer grid builds than brackets")
    if workload == "rot_suite" and brackets != 0:
        problems.append("rot_suite: %d brackets, expected none" % brackets)
    return problems


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out", default=None)
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import contactflow as cf
    from contactflow.harmonics import laplace_scale

    if Path(cf.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit("contactflow was imported from %s, not from %s" % (cf.__file__, SRC))
    laplace_scale()
    cf.structural_sign()
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed)
    ready = time.monotonic()
    clock = time.perf_counter
    setup_speed = REF_MS / statistics.median(time_reference(clock) for _ in range(5))
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_speed": setup_speed}))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install(extra_modules=[workloads])

    item_ms, iter_ms, ref_ms = [], [], []
    failed = 0
    t_start = clock()
    deadline = t_start + args.seconds
    while clock() < deadline:
        t_iter = t0 = t1 = clock()
        try:
            wl.prepare()
            t0 = clock()
            out = wl.item()
            t1 = clock()
            ok = bool(wl.check(out))
        except Exception:
            traceback.print_exc()
            t1 = clock()
            ok = False
        iter_ms.append((clock() - t_iter) * 1e3)
        item_ms.append((t1 - t0) * 1e3)
        ref_ms.append(time_reference(clock))
        failed += not ok
    wall = clock() - t_start

    speed = speed_factors(ref_ms)
    result = {
        "ready": ready,
        "setup_speed": setup_speed,
        "items": len(item_ms),
        "failed": failed,
        "item_ms": [t * f for t, f in zip(item_ms, speed)],
        "run_s": sum(t * f for t, f in zip(iter_ms, speed)) / 1e3,
        "raw": {"wall_s": wall, "item_ms.p50": statistics.median(item_ms),
                "ref_ms.p50": statistics.median(ref_ms)},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy": wl.accuracy(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        missed = tracer.missed_sites(extra_modules=[workloads])
        tracer.uninstall()
        layers = layer_figures(tracer, len(item_ms), statistics.median(speed))
        problems = ["untraced binding: " + m for m in missed]
        problems += callsite_problems(args.workload, layers, len(item_ms))
        layers.update(roundtrip_errors(cf, args.seed))
        result["layers"] = layers
        result["callsite_problems"] = problems
        result["top_self_ms"] = sorted(
            ((round(v, 4), k[:-len(".self_ms")]) for k, v in layers.items()
             if k.endswith(".self_ms")), reverse=True)[:8]
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
