"""Command-line surface: reproducible runs of every verification suite.

Subcommands: axioms, brackets, curvature, evolve, rot, calibrate.  A flat
key=value config file may supply any flag; its values are checked exactly
like the matching flags, and explicit flags win.  `evolve` needs t_end to
be a multiple of dt.  Output is deterministic for a fixed config and a
fixed BLAS thread count: floats are serialized with repr, JSON keys are
sorted, no timestamps.  Another thread count may sum large matrix products
in another order, which can change the last bits of a value (evolve's
Casimir columns at L >= 48).

Each subcommand returns its CSV header, its CSV rows and its JSON document;
`main` renders the one --format asks for and writes it to --out or stdout.

Exit status: 0 success; 1 a check failed (the failing residual is named on
stderr) or the flow blew up; 2 a usage or config error, reported on stderr
before anything is computed or written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import geometry
from .bracket import basis_function, basis_size, structure_constants
from .curvature import (
    SectionPlane,
    k_biinvariant,
    k_eigen,
    k_right_invariant,
    k_structural,
    structural_sign,
)
from .flow import BlowUpError, FlowState, IntegratorConfig, evolve
from .harmonics import SpectralFunction, laplace_scale
from .metrics import MetricKind
from .rot3d import rot_report

_JSON_BY_DEFAULT = ("axioms", "rot", "calibrate")  # the others default to CSV


def _checked(name, convert, ok):
    """argparse type: convert(text), rejected unless ok(value).  argparse
    reports a rejection as "invalid <name> value" and exits 2."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise ValueError(text)
        return value
    parse.__name__ = name
    return parse


def _at_least(lo):
    return _checked("integer >= %d" % lo, int, lambda v: v >= lo)


_positive = _checked("positive finite float", float,
                     lambda v: 0.0 < v < float("inf"))
_format = _checked("format (csv or json)", str, lambda v: v in ("csv", "json"))


def _momentum(text):
    """argparse type: 'l,m,value;l,m,value;...' as a SpectralFunction; empty
    text is no --init (evolve then draws a random momentum from --seed)."""
    if not text:
        return None
    try:
        return SpectralFunction.from_triples(
            (int(l), int(m), float(v))
            for l, m, v in (part.split(",") for part in text.split(";")
                            if part.strip()))
    except ValueError as e:
        raise argparse.ArgumentTypeError(
            "bad triples %r (want 'l,m,value;...'): %s" % (text, e))


def build_parser():
    p = argparse.ArgumentParser(
        prog="contactflow",
        description="Contact transformation group of the 3-sphere: "
                    "verification suites and flows.")
    p.add_argument("command", nargs="?", choices=COMMANDS,
                   help="one of %s" % (", ".join(COMMANDS)))
    p.add_argument("--L", type=_at_least(1), default=6, help="band limit (>= 1)")
    p.add_argument("--seed", type=_at_least(0), default=0, help="RNG seed (>= 0)")
    p.add_argument("--dt", type=_positive, default=1e-3, help="time step (evolve)")
    p.add_argument("--t-end", type=_positive, default=1.0,
                   help="final time, a multiple of dt (evolve)")
    p.add_argument("--k-max", type=_at_least(1), default=3,
                   help="highest Casimir power I_k tracked (evolve)")
    p.add_argument("--degree-cutoff", type=_at_least(1), default=2,
                   help="basis degree cutoff for the curvature table")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", type=_format, default=None, help="csv or json")
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--n-points", type=_at_least(1), default=1000,
                   help="sample points for the axiom suite")
    p.add_argument("--tol", type=_positive, default=1e-10,
                   help="tolerance for the axiom suite")
    p.add_argument("--init", type=_momentum, default=None,
                   help="initial momentum, 'l,m,value;l,m,value;...' (evolve)")
    p.add_argument("--snapshot-every", type=_at_least(0), default=0,
                   help="full-state JSON snapshot stride in steps; also "
                        "thins the invariant rows to every N-th step and "
                        "the last (evolve)")
    return p


def load_config_file(path, parser, keys):
    """The file's key = value pairs as raw strings; keys must be in `keys`."""
    cfg = {}
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        parser.error("cannot read config file: %s" % e)
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            parser.error("malformed config line: %r" % line)
        key, value = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key == "config" or key not in keys:
            parser.error("unknown config key: %r" % key)
        cfg[key] = value
    return cfg


def parse_args(argv=None):
    """Parse and check a command line and its --config file; run nothing.

    Config values become parser defaults, so they pass through the same
    types as flags and explicit flags win.  Every usage or config error
    exits 2 here, before anything is computed or written.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        parser.set_defaults(**load_config_file(args.config, parser, vars(args)))
        args = parser.parse_args(argv)
    if args.command is None:
        parser.error("missing command (one of %s)" % ", ".join(COMMANDS))
    if args.format is None:
        args.format = "json" if args.command in _JSON_BY_DEFAULT else "csv"
    if args.out and (os.path.isdir(args.out) or not os.access(
            os.path.dirname(os.path.abspath(args.out)), os.W_OK)):
        parser.error("cannot write --out %r" % args.out)
    if args.command == "evolve":
        if args.snapshot_every and args.format == "csv" and not args.out:
            parser.error("--snapshot-every with csv output needs --out")
        try:
            args.integrator = IntegratorConfig(
                dt=args.dt, t_end=args.t_end,
                invariant_sample_stride=args.snapshot_every or 1,
                k_max=args.k_max)
        except ValueError as e:
            parser.error(str(e))
    return args


# ---------------------------------------------------------------------------
# serialization helpers (deterministic: repr floats, sorted JSON keys)

def render_csv(header, rows):
    lines = [",".join(header)]
    lines += [",".join(repr(x) if isinstance(x, float) else str(x) for x in row)
              for row in rows]
    return "\n".join(lines) + "\n"


def render_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _check_table(checks):
    """A verification suite's (header, rows, doc)."""
    return (("name", "max_residual", "tolerance", "passed"),
            [(c["name"], c["max_residual"], c["tolerance"], c["passed"])
             for c in checks],
            {"checks": checks, "passed": all(c["passed"] for c in checks)})


def fail_checks(checks):
    """Exit 1 naming every failing residual, if any failed."""
    bad = [c for c in checks if not c["passed"]]
    for c in bad:
        sys.stderr.write("check failed: %s residual %s exceeds tolerance %s\n"
                         % (c["name"], repr(c["max_residual"]),
                            repr(c["tolerance"])))
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# subcommands

def cmd_axioms(args):
    report = geometry.verify_axioms(n_points=args.n_points, seed=args.seed,
                                    tol=args.tol)
    checks = [{"name": c.property_id, "description": c.description,
               "max_residual": float(c.max_residual),
               "tolerance": float(c.tolerance), "passed": bool(c.passed)}
              for c in report]
    return _check_table(checks)


def cmd_brackets(args):
    table = structure_constants(args.L)
    rows = list(table.iter_rows())
    return (("i", "j", "k", "value"), rows,
            {"L": args.L, "entries": [{"i": i, "j": j, "k": k, "value": v}
                                      for i, j, k, v in rows]})


def cmd_curvature(args):
    cutoff = args.degree_cutoff
    table = structure_constants(cutoff)
    sign = structural_sign()
    n = basis_size(cutoff)
    rows = []
    for j in range(n):
        for k in range(j + 1, n):
            f, h = basis_function(j), basis_function(k)
            sig_bi = SectionPlane(f, h, MetricKind.BI_INVARIANT)
            sig_e = SectionPlane(f, h, MetricKind.RIGHT_INVARIANT)
            rows.append((j, k,
                         k_biinvariant(sig_bi),
                         k_right_invariant(sig_e, "direct"),
                         k_right_invariant(sig_e, "assembled"),
                         k_eigen(f, h),
                         k_structural(table, j, k),
                         sign))
    header = ("j", "k", "K_biinv", "K_right", "K_right_assembled",
              "K_eigen", "K_structural", "sign_flag")
    return header, rows, {"rows": [dict(zip(header, r)) for r in rows]}


def _initial_momentum(args):
    if args.init is not None:
        return args.init.padded(max(args.L, args.init.L))
    rng = np.random.default_rng(args.seed)
    base = SpectralFunction.random(min(2, args.L), rng, lmin=1)
    return base.helmholtz().padded(args.L)


def cmd_evolve(args):
    result = evolve(FlowState(_initial_momentum(args), 0.0), args.integrator)
    header = (["t", "T"] + ["I_%d" % k for k in range(1, args.k_max + 1)]
              + ["coeff_norm"])
    rows = np.column_stack([result.times, result.energy, result.casimirs,
                            result.coeff_norms]).tolist()
    doc = {"columns": header, "rows": rows}
    if args.snapshot_every:
        doc["snapshots"] = [{"t": st.t, "coefficients": st.h.to_triples()}
                            for st in result.states]
        if args.format == "csv":  # csv keeps the snapshots in a side file
            with open(args.out + ".snapshots.json", "w") as fh:
                fh.write(render_json({"snapshots": doc["snapshots"]}))
    return header, rows, doc


def cmd_rot(args):
    return _check_table(rot_report(L=args.L, seed=args.seed))


def cmd_calibrate(args):
    grid_scale = laplace_scale()
    q0 = np.array([1.0, 0.0, 0.0, 0.0])
    e2 = np.array([0.0, 0.0, 1.0, 0.0])
    e3 = np.array([0.0, 0.0, 0.0, 1.0])
    def snap(x):
        # calibration constants are exact integers; strip arithmetic noise
        return float(np.round(x)) if abs(x - np.round(x)) < 1e-9 else float(x)

    constants = {
        "d_factor": snap(geometry.dtheta_form(q0, e2, e3)),
        "orientation_sign": float(np.sign(geometry.volume_form(
            q0, *geometry.unit_frame(q0)))),
        "alpha_1": float(grid_scale * 1 * 2),
        "bracket_scale": snap(geometry.measure_bracket_scale()),
        "laplace_scale": float(grid_scale),
        "volume_S3": geometry.VOL_S3,
        "fiber_factor": geometry.FIBER_FACTOR,
        "structural_sign": float(structural_sign()),
    }
    return ("constant", "value"), sorted(constants.items()), constants


COMMANDS = dict(axioms=cmd_axioms, brackets=cmd_brackets, curvature=cmd_curvature,
                evolve=cmd_evolve, rot=cmd_rot, calibrate=cmd_calibrate)


def main(argv=None):
    args = parse_args(argv)
    try:
        header, rows, doc = COMMANDS[args.command](args)
    except BlowUpError as e:
        sys.stderr.write("flow blow-up at t=%s\n" % repr(e.t))
        return 1
    text = render_csv(header, rows) if args.format == "csv" else render_json(doc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return fail_checks(doc.get("checks", []))


if __name__ == "__main__":
    sys.exit(main())
