"""End-to-end command-line behavior: configs, exit codes, reports,
determinism of the written artifacts."""

import csv
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
import time
import weakref
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import pytest

import bmstab
import bmstab.cli as cli
import bmstab.inequalities as inequalities
import bmstab.measures as measures
import bmstab.sphere as sphere
from bmstab.sphere import PolynomialSF

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


GAUSS_SECOND_2D = {"n": 2, "R": 1.0, "resolution": 160,
                   "measure": {"kind": "gaussian"},
                   "psi": {"type": "second_harmonic"},
                   "psi_name": "second_harmonic"}
MC_GAUSS_2D = {"n": 2, "R": 1.0, "resolution": 32,
               "measure": {"kind": "gaussian"}, "mc_samples": 4096}
LEB_FIRST_2D = {"n": 2, "R": 1.0, "resolution": 64,
                "measure": {"kind": "lebesgue"},
                "psi": {"type": "first_harmonic"},
                "psi_name": "first_harmonic"}
UNIT_DISK = {"type": "constant", "value": 1.0}

# parameter-level errors, (id, kind, params, needle): bmstab run --config,
# run_check and rerun refuse each with the same message
PARAM_ERRORS = [
    ("eps-frac-range", "scan_dim_bm", {"eps_fracs": [1.5]},
     "fractions of the validity radius"),
    ("lambda-range", "scan_dim_bm", {"lambdas": [-1, 0.5]},
     "combination weights"),
    ("eps-fracs-scalar", "scan_dim_bm", {"eps_fracs": 0.5},
     "eps_fracs must be a non-empty list of finite numbers"),
    ("eps-fracs-null", "scan_dim_bm", {"eps_fracs": None},
     "eps_fracs must be a non-empty list of finite numbers"),
    ("eps-fracs-string", "scan_dim_bm", {"eps_fracs": ["x"]},
     "eps_fracs must be a non-empty list of finite numbers"),
    ("eps-abs-scalar", "scan_dim_bm", {"eps_abs": 0.01},
     "eps_abs must be a non-empty list of finite numbers"),
    ("eps-abs-nan", "scan_dim_bm", {"eps_abs": [0.01, float("nan")]},
     "eps_abs must be a non-empty list of finite numbers"),
    ("lambdas-scalar", "scan_dim_bm", {"lambdas": 0.5},
     "lambdas must be a non-empty list of finite numbers"),
    ("lambdas-empty", "scan_dim_bm", {"lambdas": []},
     "lambdas must be a non-empty list of finite numbers"),
    ("eps-fracs-one-size", "scan_dim_bm", {"eps_fracs": [0.5]},
     "eps_fracs needs two distinct sizes"),
    ("eps-abs-repeated-size", "scan_dim_bm", {"eps_abs": [0.01, 0.01]},
     "eps_abs needs two distinct sizes"),
    ("lambdas-endpoints-only", "scan_dim_bm", {"lambdas": [0.0, 1.0]},
     "lambdas needs a weight strictly inside (0, 1)"),
    ("n-string", "scan_dim_bm",
     {"n": "x", "psi": {"type": "second_harmonic"}},
     "n must be a positive integer"),
    ("R-string", "ball_dilation",
     {"n": 2, "R": "1", "measure": {"kind": "gaussian"}},
     "R must be a positive finite number"),
    ("resolution-float", "dim_bm_infinitesimal",
     {"n": 2, "R": 1.0, "resolution": 16.0, "measure": {"kind": "gaussian"},
      "psi": {"type": "second_harmonic"}},
     "resolution must be a positive integer"),
    ("mc-samples-zero", "mc_agreement",
     {"n": 2, "R": 1.0, "resolution": 32, "measure": {"kind": "gaussian"},
      "mc_samples": 0},
     "mc_samples must be a positive integer"),
    ("mc-samples-negative", "mc_agreement",
     {"n": 2, "R": 1.0, "resolution": 32, "measure": {"kind": "gaussian"},
      "mc_samples": -3},
     "mc_samples must be a positive integer"),
    ("mc-samples-float", "mc_agreement",
     {"n": 2, "R": 1.0, "resolution": 32, "measure": {"kind": "gaussian"},
      "mc_samples": 1.5},
     "mc_samples must be a positive integer"),
    ("tol", "polygon_agreement",
     {"n": 2, "resolution": 160, "base": {"type": "constant", "value": 1.0},
      "polygon_directions": 8, "tol": 1.0},
     "tol cannot be set"),
    # full parameter sets: without the rules, each of these computes
    ("polygon-n-3", "polygon_agreement",
     {"n": 3, "resolution": 160, "base": UNIT_DISK},
     "polygon_agreement is planar: n must be 2"),
    ("eps-fracs-and-abs", "scan_dim_bm",
     {**GAUSS_SECOND_2D, "eps_abs": [0.01, 0.02], "eps_fracs": [-0.9, 0.9]},
     "give eps_fracs or eps_abs, not both"),
    ("R-and-base", "mc_agreement", {**MC_GAUSS_2D, "R": 5.0,
                                    "base": UNIT_DISK},
     "give R or base, not both"),
    ("polygon-directions-string", "polygon_agreement",
     {"n": 2, "resolution": 160, "base": {"type": "constant", "value": 1.0},
      "polygon_directions": "720"},
     "polygon_directions must be a positive integer"),
    ("eps-fracs-beyond-radius", "scan_dim_bm",
     {**GAUSS_SECOND_2D, "eps_fracs": [-2, 2]},
     "fractions of the validity radius"),
    ("seed-float", "mc_agreement", {**MC_GAUSS_2D, "seed": 1.5},
     "seed must be a non-negative integer"),
    ("seed-string", "mc_agreement", {**MC_GAUSS_2D, "seed": "7"},
     "seed must be a non-negative integer"),
    ("seed-bool", "mc_agreement", {**MC_GAUSS_2D, "seed": True},
     "seed must be a non-negative integer"),
    ("seed-negative", "shift_counterexample",
     {"t": 0.3, "resolution": 64, "mc_samples": 4096, "seed": -1},
     "seed must be a non-negative integer"),
    ("t-string", "shift_counterexample", {"t": "0.3", "resolution": 64},
     "t must be a number in (0, 1)"),
    ("t-one", "shift_counterexample", {"t": 1, "resolution": 64},
     "t must be a number in (0, 1)"),
    ("t-nan", "shift_counterexample", {"t": float("nan"), "resolution": 64},
     "t must be a number in (0, 1)"),
    # a key the kind's check does not read, and a psi_name that would put
    # whitespace in the check id
    ("lambdas-misspelt", "scan_dim_bm", {**GAUSS_SECOND_2D, "lamdas": [0.5]},
     "unknown key 'lamdas' for scan_dim_bm (accepted: R, base, eps_abs, "
     "eps_fracs, lambdas, measure, n, psi, psi_name, resolution)"),
    ("family-dim-scan", "scan_dim_bm",
     {**GAUSS_SECOND_2D, "family": "multiplicative"},
     "unknown key 'family' for scan_dim_bm"),
    ("family-log-scan", "scan_log_bm",
     {**GAUSS_SECOND_2D, "family": "multiplicative"},
     "unknown key 'family' for scan_log_bm"),
    ("expect-failure-shift", "shift_counterexample",
     {"t": 0.3, "resolution": 64, "expect_failure": True},
     "unknown key 'expect_failure' for shift_counterexample"),
    # expected failures follow psi's parity, and the shifted disk's closed
    # form is for Lebesgue area: no key sets either
    ("expect-failure-log-bm", "log_bm_infinitesimal",
     {**LEB_FIRST_2D, "expect_failure": True},
     "unknown key 'expect_failure' for log_bm_infinitesimal"),
    ("expect-failure-log-scan", "scan_log_bm",
     {**LEB_FIRST_2D, "expect_failure": True},
     "unknown key 'expect_failure' for scan_log_bm"),
    ("expect-failure-cone", "cone_inequality",
     {"n": 2, "resolution": 64, "base": UNIT_DISK,
      "psi": {"type": "first_harmonic"}, "expect_failure": True},
     "unknown key 'expect_failure' for cone_inequality"),
    ("measure-shift", "shift_counterexample",
     {"t": 0.3, "resolution": 64, "measure": {"kind": "lebesgue"}},
     "unknown key 'measure' for shift_counterexample"),
    ("psi-name-space", "scan_dim_bm",
     {**GAUSS_SECOND_2D, "psi_name": "second harmonic"},
     "psi_name must be a non-empty string without whitespace"),
    ("psi-name-empty", "dim_bm_infinitesimal",
     {**GAUSS_SECOND_2D, "psi_name": ""},
     "psi_name must be a non-empty string without whitespace"),
    ("psi-name-number", "cone_inequality",
     {"n": 2, "resolution": 160, "psi": {"type": "second_harmonic"},
      "psi_name": 2},
     "psi_name must be a non-empty string without whitespace"),
]


def _one_check(kind, params):
    return {"schema_version": 1,
            "checks": [{"kind": kind, "params": params}]}


@pytest.mark.parametrize("cfg,needle", [
    pytest.param({"schema_version": 2, "checks": [{"kind": "ball_dilation"}]},
                 "schema_version", id="schema"),
    pytest.param({"schema_version": 1, "checks": []}, "non-empty",
                 id="empty"),
    pytest.param({"schema_version": 1,
                  "checks": [{"kind": "sharpened_sobolev"}]},
                 "unknown kind", id="unknown-kind"),
    pytest.param(_one_check("moment_identities",
                            {"n": 2, "measure": {"kind": "gaussian"}}),
                 "missing parameter 'R'", id="missing-R"),
] + [pytest.param(_one_check(kind, params), needle, id=case)
     for case, kind, params, needle in PARAM_ERRORS])
def test_run_config_errors_exit_one(tmp_path, capsys, cfg, needle):
    rc = cli.main(["run", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert needle in err


@pytest.mark.parametrize("kind,params,needle",
                         [case[1:] for case in PARAM_ERRORS],
                         ids=[case[0] for case in PARAM_ERRORS])
def test_library_calls_refuse_what_the_cli_refuses(monkeypatch, kind, params,
                                                   needle):
    # run_check and rerun apply the same rules, before the check computes
    def computed(_params):
        raise AssertionError(f"{kind} ran on invalid params")

    monkeypatch.setitem(bmstab.CHECKS, kind, computed)
    with pytest.raises(ValueError, match=re.escape(needle)):
        bmstab.run_check(kind, params)
    with pytest.raises(ValueError, match=re.escape(needle)):
        bmstab.rerun({"kind": kind, "params": params})


def test_bad_check_stops_the_run_before_any_check(tmp_path, capsys):
    cfg = cli.default_config()
    cfg["checks"].append({"kind": "polygon_agreement",
                          "params": {"n": 2, "resolution": 160,
                                     "base": {"type": "constant",
                                              "value": 1.0},
                                     "tol": 1.0}})
    rc = cli.main(["run", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    captured = capsys.readouterr()
    assert "[PASS]" not in captured.out
    last = len(cfg["checks"]) - 1
    assert f"checks[{last}]: tol cannot be set" in captured.err
    assert not (tmp_path / "out").exists()
    # execute validates the whole config itself, for library callers too
    lines = []
    with pytest.raises(cli.ConfigError, match="tol cannot be set"):
        cli.execute(cfg, log=lines.append)
    assert lines == []


def test_shift_measure_stops_the_run_before_any_check(tmp_path, capsys):
    # at the shifted disk a measure used to fail only when the check ran,
    # after the checks before it had run and logged
    cfg = {"schema_version": 1, "checks": [
        SMALL_CONFIG["checks"][0],
        {"kind": "shift_counterexample",
         "params": {"t": 0.3, "resolution": 64,
                    "measure": {"kind": "gaussian"}}}]}
    rc = cli.main(["run", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "checks[1]: unknown key 'measure'" in captured.err
    assert not (tmp_path / "out").exists()


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
                                  "eps_abs": [0.01, 5.0]}}]}
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


def test_json_summary_counts_statuses(tmp_path):
    def result(passed, expected_failure):
        return bmstab.CheckResult("c", "k", 2, "lebesgue", 0.0, 0.0,
                                  passed, expected_failure=expected_failure)

    results = [result(True, False), result(True, True), result(False, True)]
    cli.write_json(tmp_path / "report.json", results)
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["summary"] == {"total": 3, "passed": 2, "failed": 1,
                                  "expected_failures": 1}
    # each record holds every CheckResult field, and nothing else
    fields = {f.name for f in dataclasses.fields(bmstab.CheckResult)}
    assert all(set(c) == fields for c in payload["checks"])


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


def test_svg_escapes_labels(tmp_path, capsys):
    # markup characters in an id, and an id long enough to be cut: the
    # label is escaped after the cut, so no entity is cut in half
    checks = [{"kind": "moment_identities",
               "params": {"n": 2, "R": 1.0, "measure": {"kind": "gaussian"},
                          "psi_name": name}}
              for name in ("a<b&c", "&" * 40)]
    cfg = {"schema_version": 1, "checks": checks}
    rc = cli.main(["run", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "out"), "--svg"])
    assert rc == 0
    capsys.readouterr()
    root = ET.parse(tmp_path / "out" / "margins.svg").getroot()
    labels = {t.text for t in root.iter("{http://www.w3.org/2000/svg}text")}
    prefix = "moment_identities|n=2|R=1.0|measure=gaussian|psi_name="
    assert prefix + "a<b&c" in labels
    assert (prefix + "&" * 40)[:59] + "..." in labels


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_list_checks(capsys):
    rc = cli.main(["list-checks"])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 11
    names = {l.split()[0] for l in lines}
    assert names == set(cli.CHECKS)


def test_demo_shift_table(tmp_path, capsys):
    rc = cli.main(["demo-shift", "--t", "0.3", "--resolution", "128",
                   "--out", str(tmp_path / "out"), "--svg"])
    assert rc == 0
    assert (tmp_path / "out" / "report.csv").is_file()
    ET.parse(tmp_path / "out" / "margins.svg")
    out = capsys.readouterr().out
    assert "[XFAIL]" in out
    assert "area deficit" in out
    assert re.search(r"^\s*0\.3\s+3\.105\d+\s+3\.105\d+\s+3\.105\d+",
                     out, re.M)


def test_verify_identities_battery(tmp_path, capsys):
    rc = cli.main(["verify-identities", "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "27 checks, 27 passed, 0 failed" in out


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
    "ball_dilation": ("ge", "G''(R) G(R) <= (1 - 1/n) G'(R)^2"),
    "scan_dim_bm": ("ge", "is at least the chord value"),
    "scan_log_bm": ("ge", "dominates the chord"),
    "shift_counterexample": ("ge", "area(K_2))/2 >= 0 fails"),
    "cone_inequality": ("ge", "<= int <Q^{-1} grad psi, grad psi> / h"),
    "mc_agreement": ("ge", "margin is the z-score gap 4 - |z|"),
    "polygon_agreement": ("le", "the polygon is larger by O(1/m^2)"),
    "moment_identities": ("le", "Residuals of"),
    "divergence_identities": ("le", "residual"),
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
    assert len(cfg["checks"]) == 27


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


@pytest.fixture(scope="module")
def battery_results():
    return cli.execute(cli.default_config(), log=lambda *a: None)


def battery_build_counts():
    """One default-battery execute: for the support functions ("sf") and
    the measures that its checks name by spec, (built, requested, distinct
    specs requested); for PolynomialSF.d2_ext0, (evaluated, called)."""
    counts, specs = Counter(), set()

    def request(spec, n=None):
        specs.add((json.dumps(spec, sort_keys=True), n))
        return "measure requested" if n is None else "sf requested"

    def counting(real, key):
        def wrapper(*args):
            counts[key(*args)] += 1
            return real(*args)
        return wrapper

    patches = [(inequalities, "_built", request),
               (inequalities, "sf_from_spec", lambda *a: "sf built"),
               (measures, "measure_from_spec", lambda *a: "measure built"),
               (PolynomialSF, "d2_ext0", lambda *a: "d2_ext0 called"),
               (PolynomialSF, "_bundle", lambda *a: "d2_ext0 evaluated")]
    reals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, key in patches:
            setattr(owner, name, counting(getattr(owner, name), key))
        cli.execute(cli.default_config(), log=lambda *a: None)
    finally:
        for owner, name, real in reals:
            setattr(owner, name, real)
    distinct = Counter("measure" if n is None else "sf" for _, n in specs)
    out = {k: (counts[f"{k} built"], counts[f"{k} requested"], distinct[k])
           for k in ("sf", "measure")}
    out["d2_ext0"] = (counts["d2_ext0 evaluated"], counts["d2_ext0 called"])
    return out


def test_battery_builds_each_spec_once():
    counts = battery_build_counts()
    for key in ("sf", "measure"):
        built, requested, distinct = counts[key]
        assert built == distinct < requested, key
    evaluated, called = counts["d2_ext0"]
    assert 0 < evaluated < called


def battery_kind_seconds():
    """Wall seconds per check kind in one default-battery execute, timed
    from execute's log lines: each check from the previous line to its own,
    the first from the call."""
    seconds = Counter()

    def log(line):
        now = time.perf_counter()
        # "[PASS] kind|params  margin=..."
        seconds[line.split()[1].split("|")[0]] += now - last[0]
        last[0] = now

    last = [time.perf_counter()]
    cli.execute(cli.default_config(), log=log)
    return dict(seconds)


def test_battery_kind_seconds_cover_every_kind():
    seconds = battery_kind_seconds()
    assert set(seconds) == {c["kind"] for c in cli.default_battery()}
    assert all(t > 0 for t in seconds.values())


def test_battery_rows_match_checks_run_alone(battery_results):
    # a run's shared objects change no report cell
    items = cli.default_battery()
    assert len(items) == len(battery_results)
    for item, res in zip(items, battery_results):
        alone = cli.run_check(item["kind"], item["params"])
        assert alone.to_row() == res.to_row(), res.check_id


def test_no_built_object_outlives_a_run(monkeypatch):
    # the second run validates as many measure profiles as the first, so it
    # built them again; all that the first run's table held is gone
    validations, refs = [], []
    real = measures._validate_profile

    def counting(*args):
        validations[-1] += 1
        return real(*args)

    def log(_line):
        refs.extend(map(weakref.ref, inequalities._TABLE.get().values()))

    monkeypatch.setattr(measures, "_validate_profile", counting)
    for _ in range(2):
        validations.append(0)
        cli.execute(cli.default_config(), log=log)
        assert inequalities._TABLE.get() is None
        assert sphere._KEPT.get() is None
        assert refs and all(r() is None for r in refs)
    assert validations[0] == validations[1] > 0


def test_battery_margins_match_reference(battery_results):
    # tests/data/battery_margins.json holds the default battery's margins and
    # pass flags from per-scale radial quadrature with per-parameter
    # curvature matrices; the Chebyshev radial profile and the s-polynomial
    # family kernel may move a margin by rounding only
    ref = json.loads((Path(__file__).parent / "data" / "battery_margins.json")
                     .read_text())
    assert [r.check_id for r in battery_results] == [c for c, _, _ in ref]
    for res, (cid, margin, passed) in zip(battery_results, ref):
        assert res.passed == passed, cid
        assert abs(res.margin - margin) <= 1e-12 * max(1.0, abs(margin)), cid


def test_battery_infinitesimal_oracles_agree():
    # the 42 infinitesimal rows of the default battery: the closed form at
    # the ball against the family kernel's g''(0)
    items = [c for c in cli.default_battery()
             if c["kind"] in ("dim_bm_infinitesimal", "log_bm_infinitesimal")]
    assert len(items) == 42
    for item in items:
        res = cli.run_check(item["kind"], item["params"])
        assert res.oracle_diff <= 1e-10, res.check_id


def test_battery_check_ids_are_unique(battery_results):
    ids = [r.check_id for r in battery_results]
    assert len(ids) == 115
    assert len(set(ids)) == len(ids)
    # the run log's second field is the id
    assert all(len(cid.split()) == 1 for cid in ids)


def test_battery_dim_scans_report_their_slack(battery_results):
    # distinct members at 0 < lambda < 1: not the rounding noise of a member
    # compared with itself
    scans = [r for r in battery_results if r.kind == "scan_dim_bm"]
    assert len(scans) == 4
    for r in scans:
        assert r.margin > 1e-5, r.check_id
        assert r.oracle_diff == 0.0, r.check_id


def test_scan_rows_hold_their_worst_combination(battery_results):
    for r in battery_results:
        row = r.to_row()
        cells = [row["eps1"], row["eps2"], row["lambda"]]
        if r.kind.startswith("scan_"):
            w = r.details["worst"]
            assert cells == [repr(w["eps1"]), repr(w["eps2"]),
                             repr(w["lambda"])], r.check_id
        else:
            assert cells == ["", "", ""], r.check_id
