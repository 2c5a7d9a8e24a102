import json
import subprocess
import sys

import pytest

from contactflow import cli

CLI = [sys.executable, "-m", "contactflow.cli"]


def run_cli(args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kw)


def test_calibrate_constants():
    r = run_cli(["calibrate"])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["d_factor"] == -2.0
    assert doc["orientation_sign"] == -1.0
    assert doc["alpha_1"] == 4.0
    assert doc["bracket_scale"] == -2.0
    assert doc["structural_sign"] == 1.0


def test_axioms_json_report():
    r = run_cli(["axioms", "--n-points", "40", "--seed", "3"])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["passed"] is True
    assert len(doc["checks"]) == 14
    for check in doc["checks"]:
        assert check["max_residual"] < check["tolerance"]


def test_axioms_failure_exit_code_names_residual():
    r = run_cli(["axioms", "--n-points", "20", "--tol", "1e-30"])
    assert r.returncode == 1
    assert "check failed" in r.stderr
    assert "residual" in r.stderr


def test_brackets_csv_schema():
    r = run_cli(["brackets", "--L", "1"])
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "i,j,k,value"
    assert len(lines) == 4  # three degree-1 entries
    i, j, k, v = lines[1].split(",")
    assert int(j) < int(k)


def test_curvature_table_columns():
    r = run_cli(["curvature", "--degree-cutoff", "1"])
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == ("j,k,K_biinv,K_right,K_right_assembled,"
                        "K_eigen,K_structural,sign_flag")
    assert len(lines) == 1 + 6  # pairs from 4 basis functions


def test_evolve_csv_and_snapshots(tmp_path):
    out = tmp_path / "run.csv"
    r = run_cli(["evolve", "--L", "3", "--dt", "0.01", "--t-end", "0.03",
                 "--init", "1,0,1.0;2,1,0.25", "--k-max", "2",
                 "--snapshot-every", "2", "--out", str(out)])
    assert r.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,T,I_1,I_2,coeff_norm"
    snaps = json.loads((tmp_path / "run.csv.snapshots.json").read_text())
    assert snaps["snapshots"][0]["t"] == 0.0
    assert [1, 0, 1.0] in [list(x) for x in snaps["snapshots"][0]["coefficients"]]


def test_rot_report_subcommand():
    r = run_cli(["rot", "--L", "3", "--seed", "5"])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert "reeb_field_fixed_point" in names
    assert "pairing_ratio_minus_three" in names


def test_determinism_byte_identical():
    a = run_cli(["rot", "--L", "3", "--seed", "9"])
    b = run_cli(["rot", "--L", "3", "--seed", "9"])
    assert a.stdout == b.stdout and a.returncode == b.returncode


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = calibrate\nformat = json\n")
    a = run_cli(["--config", str(cfg)])
    assert a.returncode == 0
    assert json.loads(a.stdout)["alpha_1"] == 4.0
    b = run_cli(["--config", str(cfg), "--format", "csv"])
    assert b.stdout.splitlines()[0] == "constant,value"


def test_usage_errors_exit_two(tmp_path):
    assert run_cli(["frobnicate"]).returncode == 2
    assert run_cli([]).returncode == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery_key = 1\n")
    assert run_cli(["rot", "--config", str(bad)]).returncode == 2
    assert run_cli(["evolve", "--dt", "-1", "--init", "1,0,1.0"]).returncode == 2
    assert run_cli(["axioms", "--L", "0"]).returncode == 2


# (argv, config file text or None): each is rejected with exit 2, nothing on
# stdout and no traceback, before any flow step or output file
BAD_INPUT = [
    (["evolve", "--dt", "2", "--t-end", "1"], None),
    (["evolve", "--k-max", "0"], None),
    (["evolve", "--init", "5,9,1.0"], None),
    (["evolve", "--init", "1,0,nan"], None),
    (["evolve", "--init", "1,0"], None),
    (["evolve", "--init", "a,0,1"], None),
    (["evolve", "--t-end", "0.01", "--init", "1,0,1;1,0,2"], None),
    (["evolve", "--dt", "0.003", "--t-end", "0.01"], None),
    (["evolve", "--dt", "nan"], None),
    (["evolve", "--dt", "inf", "--t-end", "inf"], None),
    (["evolve", "--t-end", "0.01", "--snapshot-every", "-3"], None),
    (["evolve", "--t-end", "0.01", "--snapshot-every", "1"], None),
    (["axioms", "--n-points", "0"], None),
    (["curvature", "--degree-cutoff", "0"], None),
    (["rot", "--seed", "-1"], None),
    (["calibrate", "--out", "/nonexistent/dir/x.json"], None),
    ([], "command = brackets\nL = 0\n"),
    ([], "command = calibrate\nformat = xml\n"),
    ([], "command = evolve\ndt = -1\n"),
]


@pytest.mark.parametrize("argv,config", BAD_INPUT,
                         ids=[" ".join(a) or c.splitlines()[-1]
                              for a, c in BAD_INPUT])
def test_bad_input_rejected_at_boundary(tmp_path, argv, config):
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    r = run_cli(argv, timeout=60)
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""
    assert "Traceback" not in r.stderr
    assert r.stderr.strip()


def test_out_file_matches_stdout(tmp_path):
    out = tmp_path / "cal.json"
    a = run_cli(["calibrate"])
    b = run_cli(["calibrate", "--out", str(out)])
    assert b.returncode == 0 and b.stdout == ""
    assert out.read_text() == a.stdout


CHECKS_HEADER = "name,max_residual,tolerance,passed"
# (argv, CSV header, JSON top-level keys), each subcommand at a small size
OUTPUTS = [
    (["brackets", "--L", "1"], "i,j,k,value", ["L", "entries"]),
    (["curvature", "--degree-cutoff", "1"],
     "j,k,K_biinv,K_right,K_right_assembled,K_eigen,K_structural,sign_flag", ["rows"]),
    (["evolve", "--L", "2", "--dt", "0.01", "--t-end", "0.02"],
     "t,T,I_1,I_2,I_3,coeff_norm", ["columns", "rows"]),
    (["rot", "--L", "3"], CHECKS_HEADER, ["checks", "passed"]),
    (["axioms", "--n-points", "20"], CHECKS_HEADER, ["checks", "passed"]),
    (["calibrate"], "constant,value",
     ["alpha_1", "bracket_scale", "d_factor", "fiber_factor", "laplace_scale",
      "orientation_sign", "structural_sign", "volume_S3"]),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv, header, keys", OUTPUTS, ids=[a[0] for a, _, _ in OUTPUTS])
def test_main_renders_each_command_in_both_formats(capsys, argv, header, keys, fmt):
    assert cli.main(argv + ["--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if fmt == "csv":
        assert out.splitlines()[0] == header
    else:
        assert sorted(json.loads(out)) == keys


def test_main_exits_one_on_a_failed_check_or_a_blow_up(capsys):
    argv = ["axioms", "--n-points", "20", "--tol", "1e-30", "--format", "csv"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == CHECKS_HEADER      # the table is written first
    assert err.startswith("check failed: 1 residual ")
    argv = ["evolve", "--L", "4", "--dt", "0.5", "--t-end", "50",
            "--init", "1,0,50;2,1,40;3,2,30"]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", "flow blow-up at t=1.0\n")
