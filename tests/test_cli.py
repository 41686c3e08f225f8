"""End-to-end command-line behavior: configs, exit codes, reports,
determinism of the written artifacts."""

import csv
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bmstab
import bmstab.cli as cli

SMALL_CONFIG = {
    "schema_version": 1,
    "checks": [
        {"kind": "moment_identities",
         "params": {"n": 2, "R": 1.0, "measure": {"kind": "gaussian"}}},
        {"kind": "ball_dilation",
         "params": {"n": 2, "R": 1.0, "measure": {"kind": "exp_power",
                                                  "p": 3}}},
        {"kind": "shift_counterexample",
         "params": {"t": 0.3, "resolution": 128}},
    ],
}


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_run_small_config_exit_zero(tmp_path, capsys):
    rc = cli.main(["run", "--config", write_config(tmp_path, SMALL_CONFIG),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "[XFAIL]" in out  # the shifted disk is an expected failure
    assert "3 checks, 3 passed, 0 failed" in out
    assert (tmp_path / "out" / "report.csv").is_file()
    assert (tmp_path / "out" / "report.json").is_file()


def test_run_failing_check_exit_two(tmp_path, capsys):
    cfg = {"schema_version": 1,
           "checks": [{"kind": "polygon_agreement",
                       "params": {"n": 2, "resolution": 128,
                                  "base": {"type": "constant", "value": 1.0},
                                  "polygon_directions": 90}}]}
    rc = cli.main(["run", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    out = capsys.readouterr().out
    assert "[FAIL]" in out
    assert "1 failed" in out


@pytest.mark.parametrize("cfg,needle", [
    ({"schema_version": 2, "checks": [{"kind": "ball_dilation"}]},
     "schema_version"),
    ({"schema_version": 1, "checks": []}, "non-empty"),
    ({"schema_version": 1, "checks": [{"kind": "sharpened_sobolev"}]},
     "unknown kind"),
    ({"schema_version": 1,
      "checks": [{"kind": "scan_dim_bm", "params": {"eps_fracs": [1.5]}}]},
     "fractions of the validity radius"),
], ids=["schema", "empty", "unknown-kind", "eps-frac-range"])
def test_run_config_errors_exit_one(tmp_path, capsys, cfg, needle):
    rc = cli.main(["run", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert needle in err


def test_unknown_kind_error_lists_known_kinds(tmp_path, capsys):
    cfg = {"schema_version": 1, "checks": [{"kind": "nope"}]}
    cli.main(["run", "--config", write_config(tmp_path, cfg),
              "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert "ball_dilation" in err and "scan_log_bm" in err


def test_run_missing_config_exit_one(tmp_path, capsys):
    rc = cli.main(["run", "--config", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "cannot read config" in capsys.readouterr().err


def test_run_invalid_json_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = cli.main(["run", "--config", str(bad),
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_run_eps_abs_beyond_radius_exit_one(tmp_path, capsys):
    cfg = {"schema_version": 1,
           "checks": [{"kind": "scan_dim_bm",
                       "params": {"n": 2, "R": 1.0, "resolution": 96,
                                  "measure": {"kind": "gaussian"},
                                  "psi": {"type": "second_harmonic"},
                                  "psi_name": "second_harmonic",
                                  "eps_abs": [5.0]}}]}
    rc = cli.main(["run", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "validity radius" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# report artifacts
# ---------------------------------------------------------------------------

def test_csv_report_shape(tmp_path, capsys):
    cli.main(["run", "--config", write_config(tmp_path, SMALL_CONFIG),
              "--out", str(tmp_path / "out")])
    capsys.readouterr()
    with open(tmp_path / "out" / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert list(rows[0].keys()) == cli.CSV_FIELDS
    kinds = [r["kind"] for r in rows]
    assert kinds == ["moment_identities", "ball_dilation",
                     "shift_counterexample"]
    assert all(r["passed"] == "True" for r in rows)
    assert rows[2]["expected_failure"] == "True"
    # margins round-trip as floats
    assert float(rows[2]["margin"]) == pytest.approx(-0.011582012964913346)


def test_json_report_schema(tmp_path, capsys):
    cli.main(["run", "--config", write_config(tmp_path, SMALL_CONFIG),
              "--out", str(tmp_path / "out")])
    capsys.readouterr()
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["schema_version"] == 1
    assert payload["package_version"] == cli.__version__
    assert payload["summary"] == {"total": 3, "passed": 3, "failed": 0,
                                  "expected_failures": 1}
    assert len(payload["checks"]) == 3
    entry = payload["checks"][0]
    for key in ("check_id", "kind", "margin", "tol", "passed", "params",
                "details", "oracle_diff"):
        assert key in entry
    # every value must be plain JSON after numpy conversion
    json.dumps(payload)


def test_reports_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    cli.main(["run", "--config", cfg, "--out", str(tmp_path / "a"), "--svg"])
    cli.main(["run", "--config", cfg, "--out", str(tmp_path / "b"), "--svg"])
    capsys.readouterr()
    a_csv = (tmp_path / "a" / "report.csv").read_bytes()
    b_csv = (tmp_path / "b" / "report.csv").read_bytes()
    assert a_csv == b_csv
    a_svg = (tmp_path / "a" / "margins.svg").read_bytes()
    b_svg = (tmp_path / "b" / "margins.svg").read_bytes()
    assert a_svg == b_svg
    # JSON identical except the "created" timestamp line
    strip = lambda t: re.sub(r'"created": "[^"]*"', '"created": "-"', t)
    a_json = strip((tmp_path / "a" / "report.json").read_text())
    b_json = strip((tmp_path / "b" / "report.json").read_text())
    assert a_json == b_json


def test_svg_report_contents(tmp_path, capsys):
    cli.main(["run", "--config", write_config(tmp_path, SMALL_CONFIG),
              "--out", str(tmp_path / "out"), "--svg"])
    capsys.readouterr()
    svg = (tmp_path / "out" / "margins.svg").read_text()
    assert svg.startswith("<svg ")
    assert svg.count("<rect ") == 3
    assert "#2a8f4e" in svg  # pass bars
    assert "#d69408" in svg  # expected-failure bar
    assert "moment_identities" in svg


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_list_checks(capsys):
    rc = cli.main(["list-checks"])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 14
    names = {l.split()[0] for l in lines}
    assert names == set(cli.CHECKS)


def test_demo_shift_table(tmp_path, capsys):
    rc = cli.main(["demo-shift", "--t", "0.3", "--resolution", "128",
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[XFAIL]" in out
    assert "area deficit" in out
    assert re.search(r"^\s*0\.3\s+3\.105\d+\s+3\.105\d+\s+3\.105\d+",
                     out, re.M)


def test_verify_identities_battery(tmp_path, capsys):
    rc = cli.main(["verify-identities", "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "39 checks, 39 passed, 0 failed" in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == cli.__version__


# ---------------------------------------------------------------------------
# config helpers
# ---------------------------------------------------------------------------

def test_default_config_is_valid():
    cfg = cli.default_config()
    assert cli.validate_config(cfg) is cfg
    assert len(cfg["checks"]) > 100
    kinds = {c["kind"] for c in cfg["checks"]}
    assert kinds <= set(cli.CHECKS)
    # the default battery exercises every registered check kind
    assert kinds == set(cli.CHECKS)


@pytest.fixture(scope="module")
def first_battery_results():
    # the result of the first default-battery item of each kind
    first = {}
    for item in cli.default_battery():
        first.setdefault(item["kind"], item["params"])
    return {kind: cli.run_check(kind, params)
            for kind, params in first.items()}


def test_every_check_kind_is_cross_checked(first_battery_results):
    # no check without an oracle: the first battery item of each kind
    # reports an oracle_diff, or is an "le" residual whose margin is itself
    # the cross-check
    assert set(first_battery_results) == set(cli.CHECKS)
    for kind, res in first_battery_results.items():
        assert (res.oracle_diff is not None
                or res.details["sense"] == "le"), kind


# kind -> (recorded sense, the words of its docstring that state the sense)
SENSE_STATEMENTS = {
    "dim_bm_infinitesimal": ("ge", "g''(0) g(0) >= 0"),
    "log_bm_infinitesimal": ("ge", "g''_mult(0) g(0) >= 0"),
    "dim_bm_decomposition": ("ge", "margin = B2 - B1 >= 0"),
    "ball_dilation": ("ge", "G''(R) G(R) <= (1 - 1/n) G'(R)^2"),
    "logbm_ball_form": ("ge", "<= f^2 (I0/|S|)^2"),
    "scan_dim_bm": ("ge", "is at least the chord value"),
    "scan_log_bm": ("ge", "dominates the chord"),
    "shift_counterexample": ("ge", "area(K_2))/2 >= 0 fails"),
    "cone_inequality": ("ge", "<= int <Q^{-1} grad psi, grad psi> / h"),
    "mc_agreement": ("ge", "margin is the z-score gap 4 - |z|"),
    "polygon_agreement": ("le", "the polygon is larger by O(1/m^2)"),
    "moment_identities": ("le", "Residuals of"),
    "divergence_identities": ("le", "residual"),
    "second_variation_routes": ("le", "Agreement of"),
}


def test_every_check_records_the_sense_of_its_statement(first_battery_results):
    assert set(SENSE_STATEMENTS) == set(cli.CHECKS)
    for kind, (sense, statement) in SENSE_STATEMENTS.items():
        doc = " ".join(cli.CHECKS[kind].__doc__.split())
        assert statement in doc, kind
        assert first_battery_results[kind].details["sense"] == sense, kind


def test_identity_battery_is_valid():
    cfg = {"schema_version": 1, "checks": cli.identity_battery()}
    cli.validate_config(cfg)
    assert len(cfg["checks"]) == 39


def test_validate_config_rejects_non_dict():
    with pytest.raises(cli.ConfigError):
        cli.validate_config([1, 2])
    with pytest.raises(cli.ConfigError):
        cli.validate_config({"schema_version": 1, "checks": [
            {"kind": "ball_dilation", "params": 7}]})


def test_thread_cap_env(monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("BM_STABILITY_THREADS", "3")
    importlib.reload(bmstab)
    try:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            assert os.environ[var] == "3"
    finally:
        monkeypatch.undo()
        importlib.reload(bmstab)


def test_thread_cap_applies_on_package_import():
    # the cap must be in place before numpy loads, i.e. by `import bmstab`
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    env["BM_STABILITY_THREADS"] = "1"
    src = str(Path(bmstab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = "import bmstab, os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.strip()
    assert out == "1"
