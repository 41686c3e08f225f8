"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q

They run every workload on tiny inputs through run.py and check that the
output names every metric in BENCHMARK.json, and they show that each
correctness check rejects a deliberately wrong reference value."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import references as ref  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_names_every_metric(workload, trace):
    out = _run(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1
    # the only failing operations are the first_harmonic certificates at
    # n = 3, two of the twenty scans of a round
    share = 0.1 if workload == "family_scan" else 0.0
    assert out["failed"] == share * out["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in out["metrics"].items()}
    for name, m in out["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                           WORKLOADS[0], "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


# ---------------------------------------------------------------------------
# references are right, and the checks reject wrong ones
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,f", [("lebesgue", lambda r: 1.0 + 0 * r),
                                    ("gaussian", lambda r: np.exp(-r * r / 2)),
                                    ("exp_power1", lambda r: np.exp(-r))])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_ball_closed_forms_match_a_radial_integral(kind, f, n):
    R = 1.3
    r = np.linspace(0.0, R, 200_001)
    y = r ** (n - 1) * f(r)
    area = 2 * math.pi ** (n / 2) / math.gamma(n / 2)
    num = area * float(np.sum((y[1:] + y[:-1]) / 2) * (r[1] - r[0]))
    assert ref.ball_measure(kind, n, R) == pytest.approx(num, rel=1e-9)


def test_planar_and_shifted_references():
    assert ref.bump_measure("lebesgue", 0.1) == pytest.approx(0.985 * math.pi, rel=1e-13)
    assert ref.bump_measure("gaussian", 0.0) == pytest.approx(
        ref.ball_measure("gaussian", 2, 1.0), rel=1e-13)
    assert ref.shifted_ball_exp1(1e-4) == pytest.approx(
        ref.ball_measure("exp_power1", 3, 1.0), rel=1e-6)


def test_check_close_rejects_a_wrong_reference():
    good = ref.ball_measure("gaussian", 3, 1.2)
    assert ref.check_close("g", good, good, 1e-10) == []
    assert ref.check_close("g", good, good * (1 + 1e-8), 1e-10)


def test_check_concave_rejects_slight_convexity():
    s = np.linspace(-1, 1, 101)
    assert ref.check_concave("c", s, 1 - s ** 2) == []
    assert ref.check_concave("c", s, 2 + s) == []
    assert ref.check_concave("c", s, 2 + s + 1e-6 * s ** 2)


def test_check_mc_rejects_a_reference_five_errors_away():
    assert ref.check_mc("m", 1.0, 0.01, 1.03) == []
    assert ref.check_mc("m", 1.0, 0.01, 1.05)
    assert ref.check_mc("m", math.pi, 0.0, math.pi + 1e-6)


def test_check_scan_margins_rejects_nonzero_endpoints_and_negative_margins():
    assert ref.check_scan_margins("s", -1e-16, 0.0) == []
    assert ref.check_scan_margins("s", -1e-9, 0.0)
    assert ref.check_scan_margins("s", 0.0, 1e-300)


def test_net_finds_the_first_harmonic_gap():
    for n in (2, 3):
        U = ref.direction_net(n)
        psi = ref.harmonic_values("first_harmonic", U)
        ones = np.ones(len(U))
        assert ref.positive_on_net(ones, psi, 0.999) > 0
        assert ref.positive_on_net(ones, psi, 1.000297) < 0
        assert ref.positive_on_net(ones, psi, 1.000297, multiplicative=True) > 0


def test_check_identical_rejects_different_reports():
    assert ref.check_identical("r", b"a,b\n", b"a,b\n") == []
    assert ref.check_identical("r", b"a,b\n", b"a,c\n")


# ---------------------------------------------------------------------------
# each workload's verification rejects a wrong reference
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def smoke_rounds():
    import workloads
    out = {}
    for name in ("battery", "family_scan", "dense_sweep", "mc_oracle"):
        wl = workloads.WORKLOADS[name](3, smoke=True)
        wl.setup()
        rounds = [wl.run_round() for _ in range(wl.min_rounds)]
        out[name] = (wl, rounds)
    return out


def _scaled(monkeypatch, name, factor):
    orig = getattr(ref, name)
    monkeypatch.setattr(ref, name, lambda *a: orig(*a) * factor)


@pytest.mark.parametrize("workload,reference,factor", [
    ("battery", "ball_measure", 1 + 1e-7),
    ("battery", "shifted_disk_mean_area", 1 + 1e-6),
    ("family_scan", "ball_measure", 1 + 1e-8),
    ("dense_sweep", "ball_measure", 1 + 1e-8),
    ("mc_oracle", "bump_measure", 1.05),
    ("mc_oracle", "shifted_ball_exp1", 1.05),
])
def test_workload_rejects_a_wrong_reference(smoke_rounds, monkeypatch,
                                            workload, reference, factor):
    wl, rounds = smoke_rounds[workload]
    assert wl.verify(rounds)[0] == []
    _scaled(monkeypatch, reference, factor)
    assert wl.verify(rounds)[0]


def test_family_scan_rejects_a_wrong_radius_and_counts_the_gap(smoke_rounds, monkeypatch):
    wl, rounds = smoke_rounds["family_scan"]
    assert wl.verify(rounds)[1] == 2 * len(rounds)
    monkeypatch.setattr(ref, "CURVATURE_FLOOR", 0.06)
    assert wl.verify(rounds)[0]
