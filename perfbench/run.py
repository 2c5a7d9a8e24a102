"""contactflow benchmark: one workload run, all metrics on the last stdout line.

    python3 perfbench/run.py --workload {flow,curvature_table,rot_suite} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is imported from the
checkout's src/.  This process never imports contactflow: every
measurement runs in a fresh worker process (perfbench/worker.py), one at a
time, with one BLAS/OpenMP thread (see BLAS_THREADS), because
laplace_scale() and structural_sign() cache their results in module
globals and a second run in one process would see neither their cost nor
a fresh peak RSS.

--trace 0 prints the end-to-end metrics: items_per_s, item_ms.p50,
setup_s (median over SETUP_RUNS fresh processes, from spawn to the first
item ready) and peak_rss_mb, times normalized to host speed by the
worker's reference kernel (raw figures go to the run record).  --trace 1 prints the per-layer metrics of
perfbench/layers.py: half the time runs untraced, half traced (their
throughput ratio is the tracing overhead), then the workload's CLI
command runs twice as a subprocess and must print byte-identical stdout.
Spans of the traced half go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("flow", "curvature_table", "rot_suite")
SETUP_RUNS = 11
HELD_OUT_SEED = 104729    # reserved for confirming claims; never tune on it
TAIL_BEYOND = 10          # the tail percentile keeps this many items above it
# One BLAS/OpenMP thread, below the nproc cap: the workloads make many small
# gemv calls, and a second OpenBLAS thread spins a whole CPU between them.
# On a 2-vCPU VM that made RK4 steps no faster and, in contended phases,
# up to twice as slow (600 ms against 300 ms with one thread).
BLAS_THREADS = 1

# The workload's CLI command at a small fixed size (seed appended where used).
CLI = {
    "flow": ("evolve", ["evolve", "--L", "8", "--dt", "1e-3", "--t-end", "0.05"], True),
    "curvature_table": ("curvature", ["curvature", "--degree-cutoff", "2"], False),
    "rot_suite": ("rot", ["rot", "--L", "4"], True),
}


def worker_env():
    env = dict(os.environ)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_worker(env, timeout, *args):
    """Run one worker to completion; its JSON result plus the spawn time."""
    spawn = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER), *map(str, args)],
                          stdout=subprocess.PIPE, env=env, cwd=ROOT,
                          timeout=timeout, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: worker %s exited with %d" % (list(args), proc.returncode))
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawn
    return result


def tail(item_ms):
    """(value, percentile) of the highest percentile with TAIL_BEYOND items
    above it; the maximum when there are too few items."""
    s = sorted(item_ms)
    r = len(s) - TAIL_BEYOND - 1 if len(s) > TAIL_BEYOND else len(s) - 1
    return s[r], 100.0 * (r + 1) / len(s)


def time_cli(workload, seed, env):
    """Wall time of the workload's CLI command, and whether a rerun printed
    byte-identical stdout with exit status 0."""
    name, argv, seeded = CLI[workload]
    cmd = [sys.executable, "-m", "contactflow.cli", *argv]
    if seeded:
        cmd += ["--seed", str(seed)]
    walls, outs = [], []
    for _ in range(2):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, env=env, cwd=ROOT, timeout=120)
        walls.append(time.perf_counter() - t0)
        outs.append((proc.returncode, proc.stdout))
    ok = outs[0] == outs[1] and outs[0][0] == 0
    if not ok:
        sys.stderr.write("perfbench: `%s` is not deterministic or failed\n" % " ".join(argv))
    return name, walls[0], ok


def end_to_end(args, env, timeout):
    setups = [run_worker(env, timeout, "--workload", args.workload, "--seed", args.seed,
                         "--setup-only")
              for _ in range(SETUP_RUNS - 1)]
    run = run_worker(env, timeout, "--workload", args.workload, "--seed", args.seed,
                     "--seconds", args.seconds)
    setups.append(run)
    metrics = {
        "items_per_s": (run["items"] / run["run_s"], "1/s"),
        "item_ms.p50": (statistics.median(run["item_ms"]), "ms"),
        "setup_s": (statistics.median(r["setup_s"] * r["setup_speed"] for r in setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    value, pct = tail(run["item_ms"])
    record = {"item_ms.tail": value, "item_ms.tail_pct": pct,
              "raw": dict(run["raw"], items_per_s=run["items"] / run["raw"]["wall_s"],
                          setup_s=[r["setup_s"] for r in setups])}
    return [run], metrics, record, True


def per_layer(args, env, timeout):
    half = args.seconds / 2.0
    common = ("--workload", args.workload, "--seed", args.seed, "--seconds", half)
    plain = run_worker(env, timeout, *common)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / ("spans-%s-seed%d.csv.gz" % (args.workload, args.seed))
    traced = run_worker(env, timeout, *common, "--trace", 1, "--spans-out", spans)
    cli_name, cli_wall, cli_ok = time_cli(args.workload, args.seed, env)

    values = dict(traced["layers"])
    values.update(traced["accuracy"])
    values["cli.%s.wall_s" % cli_name] = cli_wall
    values["run.item_ms.tail"], values["run.item_ms.tail_pct"] = tail(plain["item_ms"])
    attempted = plain["items"] + traced["items"]
    values["run.failed_frac"] = (plain["failed"] + traced["failed"]) / attempted
    values["trace.overhead_frac"] = 1.0 - ((traced["items"] / traced["run_s"])
                                           / (plain["items"] / plain["run_s"]))
    problems = traced["callsite_problems"]
    for p in problems:
        sys.stderr.write("perfbench: call-site check: %s\n" % p)
    values["trace.callsite_check"] = 0.0 if problems else 1.0
    metrics = {name: (float(values.get(name, 0.0)), unit)
               for name, unit, _, _ in PER_LAYER}
    record = {"spans": str(spans.relative_to(ROOT)), "raw": traced["raw"],
              "top_self_ms_per_item": traced["top_self_ms"],
              "callsite_problems": problems}
    return [plain, traced], metrics, record, cli_ok


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "contactflow" / "__init__.py").is_file():
        sys.exit("perfbench: no contactflow source under %s" % (ROOT / "src"))

    env = worker_env()
    timeout = args.seconds + 60.0
    measure = per_layer if args.trace else end_to_end
    runs, metrics, record, outputs_ok = measure(args, env, timeout)

    attempted = sum(r["items"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    record.update({
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": runs[-1]["blas_threads"],
        "python": platform.python_version(), "numpy": runs[-1]["numpy"],
        "items": [r["items"] for r in runs],
    })
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": outputs_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
