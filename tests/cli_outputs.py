"""Record what a fixed list of CLI invocations prints and writes.

    python tests/cli_outputs.py SRC_DIR OUT_DIR

runs `python -m contactflow.cli` from SRC_DIR on each case below, with
OPENBLAS_NUM_THREADS=1, and writes, per case, OUT_DIR/<case>/ holding
stdout, stderr, exit (the exit status) and a copy of every file the run
wrote (--out and the evolve snapshot side file).  Paths to the run's
scratch directory are written as "<tmp>" so two runs compare.  Run it on
two checkouts and `diff -r` the output directories: any difference is a
change of CLI behaviour.  pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

# (case name, argv); "{tmp}" becomes the case's scratch directory
CASES = [
    ("axioms_json", ["axioms", "--n-points", "40", "--seed", "3"]),
    ("axioms_csv", ["axioms", "--n-points", "40", "--format", "csv"]),
    ("axioms_fail", ["axioms", "--n-points", "20", "--tol", "1e-30"]),
    ("brackets_csv", ["brackets", "--L", "2"]),
    ("brackets_json", ["brackets", "--L", "2", "--format", "json"]),
    ("curvature_csv", ["curvature", "--degree-cutoff", "1"]),
    ("curvature_json", ["curvature", "--degree-cutoff", "1", "--format", "json"]),
    ("curvature_cutoff5_csv", ["curvature", "--degree-cutoff", "5"]),
    ("brackets_L8_csv", ["brackets", "--L", "8"]),
    ("evolve_csv", ["evolve", "--L", "3", "--dt", "0.01", "--t-end", "0.03",
                    "--init", "1,0,1.0;2,1,0.25", "--k-max", "2"]),
    ("evolve_json", ["evolve", "--L", "3", "--dt", "0.01", "--t-end", "0.03",
                     "--format", "json"]),
    ("evolve_snap_json", ["evolve", "--L", "3", "--dt", "0.01", "--t-end", "0.03",
                          "--snapshot-every", "2", "--format", "json"]),
    ("evolve_snap_csv_out", ["evolve", "--L", "3", "--dt", "0.01", "--t-end", "0.03",
                             "--init", "1,0,1.0;2,1,0.25", "--snapshot-every", "2",
                             "--out", "{tmp}/run.csv"]),
    ("evolve_blowup", ["evolve", "--L", "4", "--dt", "0.5", "--t-end", "50",
                       "--init", "1,0,50;2,1,40;3,2,30"]),
    ("rot_json", ["rot", "--L", "3", "--seed", "5"]),
    ("rot_csv", ["rot", "--L", "3", "--format", "csv"]),
    ("rot_out", ["rot", "--L", "3", "--out", "{tmp}/rot.json"]),
    ("rot_L12_json", ["rot", "--L", "12"]),
    ("calibrate_json", ["calibrate"]),
    ("calibrate_csv", ["calibrate", "--format", "csv"]),
    ("calibrate_out", ["calibrate", "--format", "csv", "--out", "{tmp}/cal.csv"]),
    ("usage_unknown_command", ["frobnicate"]),
    ("usage_missing_command", []),
    ("usage_bad_init", ["evolve", "--init", "5,9,1.0"]),
    ("usage_unwritable_out", ["calibrate", "--out", "{tmp}/missing/x.json"]),
]


def run_case(src, out_dir, name, argv):
    case_dir = os.path.join(out_dir, name)
    os.makedirs(case_dir)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.path.abspath(src))
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, "-m", "contactflow.cli"] + [a.format(tmp=tmp) for a in argv],
            capture_output=True, text=True, env=env, timeout=300)
        for stream, text in (("stdout", proc.stdout), ("stderr", proc.stderr),
                             ("exit", "%d\n" % proc.returncode)):
            with open(os.path.join(case_dir, stream), "w") as fh:
                fh.write(text.replace(tmp, "<tmp>"))
        for written in sorted(os.listdir(tmp)):
            shutil.copy(os.path.join(tmp, written), os.path.join(case_dir, "file." + written))


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    src, out_dir = argv
    if os.path.exists(out_dir):
        sys.exit("%s exists; give a new directory" % out_dir)
    for name, case in CASES:
        run_case(src, out_dir, name, case)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
