"""The check registry: margins, oracle cross-checks, expected failures, and
bitwise reproducibility."""

import dataclasses
import math

import numpy as np
import pytest

from bmstab import measures, oracles
from bmstab.bodies import PerturbationFamily
from bmstab.cli import default_battery
from bmstab.funcspecs import sf_from_spec
from bmstab.inequalities import (CHECKS, DEFAULT_MARGIN_TOL, CheckResult,
                                 _result, rerun, run_check)
from bmstab.measures import ball_measure, measure_from_spec
from bmstab.sphere import build_grid, integrate, sf_mul, sphere_area

GAU = {"kind": "gaussian"}
LEB = {"kind": "lebesgue"}
EP1 = {"kind": "exp_power", "p": 1}
EP3 = {"kind": "exp_power", "p": 3}

SECOND = {"type": "second_harmonic"}
FIRST = {"type": "first_harmonic"}
CONST = {"type": "constant", "value": 1.0}
RAND = {"type": "random_even", "seed": 20240817, "amplitude": 1.0}


def test_registry_contents():
    assert len(CHECKS) == 11
    for kind, fn in CHECKS.items():
        assert callable(fn)
        assert fn.__doc__, f"{kind} has no docstring"


def test_run_check_unknown_kind():
    with pytest.raises(KeyError):
        run_check("sharpened_sobolev", {})


def test_run_check_rejects_tol():
    # each kind fixes its tolerance: a failing check cannot be relaxed into
    # a pass, and a stored result carrying tol cannot be rerun
    params = {"n": 2, "resolution": 160,
              "base": {"type": "constant", "value": 1.0},
              "polygon_directions": 8}
    res = run_check("polygon_agreement", params)
    assert not res.passed and res.tol == 1e-4
    assert res.margin > 0.1                     # the 8-gon's excess
    for kind in CHECKS:
        with pytest.raises(ValueError, match="tol cannot be set"):
            run_check(kind, {**params, "tol": 1.0})
    with pytest.raises(ValueError, match="tol cannot be set"):
        rerun({"kind": "polygon_agreement", "params": {**params, "tol": 1.0}})


# ---------------------------------------------------------------------------
# infinitesimal inequalities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("measure", [LEB, GAU, EP3],
                         ids=["lebesgue", "gaussian", "exp_power3"])
@pytest.mark.parametrize("psi,psi_name", [(CONST, "constant"),
                                          (FIRST, "first_harmonic"),
                                          (SECOND, "second_harmonic"),
                                          (RAND, "random_even")])
def test_dim_bm_infinitesimal_holds(measure, psi, psi_name):
    res = run_check("dim_bm_infinitesimal",
                    {"n": 2, "R": 1.0, "measure": measure, "resolution": 160,
                     "psi": psi, "psi_name": psi_name})
    assert res.passed
    assert res.margin >= -DEFAULT_MARGIN_TOL
    assert res.oracle_diff < 1e-10  # the family kernel's g''(0)
    assert res.details["sense"] == "ge"


def test_infinitesimal_checks_search_no_validity_radius(monkeypatch):
    # both checks read the family's derivatives at s = 0, which lies inside
    # every radius: they must pass, and read the same, with the radius
    # predicate unavailable
    params = [(kind, {"n": n, "R": 1.0, "measure": GAU,
                      "resolution": 160 if n == 2 else 16, "psi": SECOND,
                      "psi_name": "second_harmonic"})
              for kind in ("dim_bm_infinitesimal", "log_bm_infinitesimal")
              for n in (2, 3)]
    before = [run_check(kind, p) for kind, p in params]

    def no_radius(self, bound):
        raise AssertionError("validity radius searched")

    monkeypatch.setattr(PerturbationFamily, "_valid_on", no_radius)
    for (kind, p), ref in zip(params, before):
        res = run_check(kind, p)
        assert res.passed, res.check_id
        assert res.margin == ref.margin, res.check_id
        assert res.oracle_diff == ref.oracle_diff, res.check_id


@pytest.mark.parametrize("R", [0.0, -1.0])
@pytest.mark.parametrize("kind", ["dim_bm_infinitesimal",
                                  "log_bm_infinitesimal"])
def test_infinitesimal_checks_reject_nonpositive_radius(kind, R):
    with pytest.raises(ValueError, match="R must be a positive finite number"):
        run_check(kind, {"n": 2, "R": R, "measure": GAU, "resolution": 32,
                         "psi": SECOND})


def test_dim_bm_equality_for_homothety():
    # lebesgue + direction proportional to the support function: the
    # dimensional margin collapses to zero exactly
    res = run_check("dim_bm_infinitesimal",
                    {"n": 3, "R": 1.3, "measure": LEB, "resolution": 16,
                     "psi": {"type": "constant", "value": 1.3},
                     "psi_name": "proportional"})
    assert res.passed
    assert abs(res.margin) <= 1e-10


@pytest.mark.parametrize("n,resolution", [(2, 160), (3, 16)])
@pytest.mark.parametrize("psi,l", [(FIRST, 1), (SECOND, 2)],
                         ids=["first_harmonic", "second_harmonic"])
@pytest.mark.parametrize("R", [0.8, 1.0])
def test_dim_bm_margin_at_lebesgue_ball_closed_form(n, resolution, psi, l, R):
    # margin = -n (g^{1/n})''/g^{1/n}; at a Lebesgue ball g'(0) = 0 and
    # g''(0) = R^{n-2} ((n-1) - l(l+n-2)) int psi^2 for a degree-l harmonic,
    # with g(0) = |S| R^n / n: zero along translations (l = 1)
    res = run_check("dim_bm_infinitesimal",
                    {"n": n, "R": R, "measure": LEB, "resolution": resolution,
                     "psi": psi, "psi_name": f"degree_{l}"})
    grid = build_grid(n, resolution)
    psi_sf = sf_from_spec(psi, n)
    I2 = integrate(sf_mul(psi_sf, psi_sf), grid)
    want = n * (l * (l + n - 2) - (n - 1)) * I2 / (sphere_area(n) * R * R)
    assert res.margin == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert res.passed


@pytest.mark.parametrize("measure", [GAU, EP1],
                         ids=["gaussian", "exp_power1"])
def test_log_bm_infinitesimal_even(measure):
    res = run_check("log_bm_infinitesimal",
                    {"n": 2, "R": 1.0, "measure": measure, "resolution": 160,
                     "psi": SECOND, "psi_name": "second_harmonic"})
    assert res.passed
    assert res.margin >= -DEFAULT_MARGIN_TOL


def test_log_bm_odd_direction_is_expected_failure():
    # the statement is for even directions: psi's parity sets the expected
    # failure, and no config key can
    params = {"n": 2, "R": 1.0, "measure": LEB, "resolution": 160,
              "psi": FIRST, "psi_name": "first_harmonic"}
    res = run_check("log_bm_infinitesimal", params)
    assert res.passed and res.expected_failure and res.status == "XFAIL"
    # lebesgue + first harmonic: the normalized margin is exactly -1
    assert res.margin == pytest.approx(-1.0, abs=1e-10)
    with pytest.raises(ValueError, match="unknown key 'expect_failure'"):
        run_check("log_bm_infinitesimal", {**params, "expect_failure": True})


@pytest.mark.parametrize("kind,measure,psi,status,ball_form_margin", [
    ("log_bm_infinitesimal", LEB, FIRST, "XFAIL", -0.25),
    ("scan_log_bm", LEB, FIRST, "XFAIL", None),
    # neither even nor odd is not even either
    ("log_bm_infinitesimal", LEB,
     {"type": "sum", "parts": [[1.0, SECOND], [1e-3, FIRST]]}, "FAIL", None),
], ids=["ball-form-odd", "log-scan-odd", "log-bm-mixed"])
def test_expected_failure_follows_psi_parity(kind, measure, psi, status,
                                             ball_form_margin):
    res = run_check(kind, {"n": 2, "R": 1.0, "measure": measure,
                           "resolution": 64, "psi": psi})
    assert res.expected_failure
    assert res.details["psi_parity"] != "even"
    assert res.status == status
    if ball_form_margin is not None:
        d = res.details
        assert d["rhs"] - d["lhs"] == pytest.approx(ball_form_margin,
                                                    abs=1e-10)


def _battery_rows(kind):
    return [c for c in default_battery() if c["kind"] == kind]


def _ball_scale(p):
    return sphere_area(p["n"]) ** 2 * p["R"] ** (2 * p["n"] - 2)


def test_dim_bm_decomposition_identity():
    # the 24 dim_bm_infinitesimal rows of the default battery: B2 - B1 is
    # the raw margin over |S|^2 R^{2n-2}
    items = _battery_rows("dim_bm_infinitesimal")
    assert len(items) == 24
    for item in items:
        p = item["params"]
        res = run_check(item["kind"], p)
        d = res.details
        lhs, rhs = d["B1"], d["B2"]
        bound = 1e-11 * max(abs(lhs), abs(rhs), 1.0)
        assert abs((rhs - lhs) - d["raw_margin"] / _ball_scale(p)) <= bound, \
            res.check_id


def test_logbm_ball_form_fields():
    # the 18 log_bm_infinitesimal rows of the default battery: rhs - lhs
    # is the raw margin over |S|^2 R^{2n-2}
    items = _battery_rows("log_bm_infinitesimal")
    assert len(items) == 18
    for item in items:
        p = item["params"]
        res = run_check(item["kind"], p)
        d = res.details
        lhs, rhs = d["lhs"], d["rhs"]
        raw = d["g1"] ** 2 - d["g2_mult"] * d["g0"]
        bound = 1e-11 * max(abs(lhs), abs(rhs), 1.0)
        assert abs((rhs - lhs) - raw / _ball_scale(p)) <= bound, res.check_id
    # the sufficient condition for the oscillation part: the second
    # harmonic's spectral gap 2n, and the Gaussian profile ratio above 1/n
    res = run_check("log_bm_infinitesimal",
                    {"n": 2, "R": 0.8, "measure": GAU, "resolution": 160,
                     "psi": SECOND, "psi_name": "second_harmonic"})
    assert res.passed
    d = res.details
    assert d["rayleigh_osc"] == pytest.approx(4.0, abs=1e-10)
    assert d["sufficient_condition"] is True
    assert d["psi_parity"] == "even"


# ---------------------------------------------------------------------------
# dilations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("measure", [LEB, GAU, EP3],
                         ids=["lebesgue", "gaussian", "exp_power3"])
def test_ball_dilation(n, measure):
    for R in (0.7, 1.0, 1.5):
        res = run_check("ball_dilation", {"n": n, "R": R, "measure": measure})
        assert res.passed, (n, measure, R, res.margin)
        assert res.margin >= -DEFAULT_MARGIN_TOL


def test_ball_dilation_gaussian_flat_point():
    # at R = sqrt(n-1) the gaussian growth G''(R) vanishes identically
    res = run_check("ball_dilation", {"n": 2, "R": 1.0, "measure": GAU})
    assert abs(res.details["G2"]) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("measure", [LEB, GAU, EP3],
                         ids=["lebesgue", "gaussian", "exp_power3"])
def test_ball_dilation_stencil_matches_ball_measure(monkeypatch, n, measure):
    # the oracle fits each Richardson stencil in one radial_profile call;
    # every stencil value is the per-scale ball_measure up to rounding
    stencils = []

    def spy(real):
        def wrapper(fn, *args, **kwargs):
            def values(pts):
                out = fn(pts)
                stencils.append((pts, np.array(out)))
                return out
            return real(values, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(oracles, "central_derivative",
                        spy(oracles.central_derivative))
    mu = measure_from_spec(measure)
    for R in (0.7, 1.0, 1.5):
        stencils.clear()
        run_check("ball_dilation", {"n": n, "R": R, "measure": measure})
        assert [pts.size for pts, _ in stencils] == [4, 5]    # both steps
        for pts, got in stencils:
            want = np.array([ball_measure(mu, r, n) for r in pts])
            assert np.max(np.abs(got - want) / want) <= 1e-13, (R, pts)


def test_ball_dilation_work_counts(monkeypatch):
    # G is one single-scale moments call; each oracle stencil is one
    # radial_profile call over all its scales (4 and 5), besides the one
    # radial_profile call inside moments
    calls = {"moments": 0, "scales": []}

    def count_moments(real):
        def wrapper(*args):
            calls["moments"] += 1
            return real(*args)
        return wrapper

    def count_scales(real):
        def wrapper(measure, D, n, *args, **kwargs):
            calls["scales"].append(np.size(D))
            return real(measure, D, n, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(measures, "moments", count_moments(measures.moments))
    monkeypatch.setattr(measures, "radial_profile",
                        count_scales(measures.radial_profile))
    run_check("ball_dilation", {"n": 3, "R": 1.0, "measure": EP3})
    assert calls == {"moments": 1, "scales": [1, 4, 5]}


# ---------------------------------------------------------------------------
# scans along families
# ---------------------------------------------------------------------------

def test_scan_dim_bm_endpoints_exact():
    res = run_check("scan_dim_bm",
                    {"n": 2, "R": 1.0, "measure": GAU, "resolution": 160,
                     "psi": SECOND, "psi_name": "second_harmonic"})
    assert res.passed
    assert res.details["combos"] == 75  # 15 distinct pairs x 5 lambdas
    assert res.oracle_diff == 0.0  # lambda in {0,1} margins are exact
    assert res.margin >= -1e-12


def test_scan_dim_bm_eps_abs_and_radius_guard():
    params = {"n": 2, "R": 1.0, "measure": GAU, "resolution": 96,
              "psi": SECOND, "psi_name": "second_harmonic",
              "eps_abs": [0.01, 0.02], "lambdas": [0.0, 0.5, 1.0]}
    res = run_check("scan_dim_bm", params)
    assert res.passed
    # one pair of distinct members: the margin is the slack at lambda = 1/2,
    # not the zero of lambda in {0, 1}
    assert res.details["combos"] == 3
    assert res.details["worst"] == {"eps1": 0.01, "eps2": 0.02, "lambda": 0.5}
    assert res.margin > 1e-9
    assert res.oracle_diff == 0.0
    with pytest.raises(ValueError, match="validity radius"):
        run_check("scan_dim_bm", {**params, "eps_abs": [0.01, 2.0]})


def test_scan_log_bm_multiplicative():
    res = run_check("scan_log_bm",
                    {"n": 2, "R": 1.0, "measure": GAU, "resolution": 160,
                     "psi": RAND, "psi_name": "random_even"})
    assert res.passed
    assert res.oracle_diff == 0.0  # endpoint margins are exact
    assert res.margin >= -1e-12


# ---------------------------------------------------------------------------
# negative demonstrations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t,closed,margin", [
    (0.3, 3.1054165869780426, -0.011582012964913346),
    (0.6, 2.9845130209103035, -0.05129329438755059),
])
def test_shift_counterexample_frozen_values(t, closed, margin):
    res = run_check("shift_counterexample", {"t": t, "resolution": 256})
    assert res.passed and res.expected_failure
    want_closed = math.pi - (math.pi / 4) * (1 - math.sqrt(1 - t * t))
    assert res.details["area_closed_form"] == pytest.approx(want_closed,
                                                            rel=1e-14)
    assert res.details["area_geometric_mean"] == pytest.approx(closed,
                                                               rel=1e-10)
    assert res.margin == pytest.approx(margin, abs=1e-12)
    assert res.details["area_geometric_mean"] < math.pi  # strictly loses area
    assert abs(res.details["area_polygon"]
               - res.details["area_geometric_mean"]) < 1e-4


def test_shift_counterexample_monte_carlo_oracle():
    res = run_check("shift_counterexample", {"t": 0.3, "resolution": 256,
                                             "mc_samples": 1 << 16})
    assert res.passed and "area_mc" in res.details
    assert abs(res.details["mc_z"]) <= 4.0


def test_shift_counterexample_rejects_bad_t():
    with pytest.raises(ValueError):
        run_check("shift_counterexample", {"t": 1.2, "resolution": 128})


def test_cone_inequality_disk_exact_values():
    base = {"type": "constant", "value": 1.0}
    res = run_check("cone_inequality",
                    {"n": 2, "resolution": 160, "base": base,
                     "psi": CONST, "psi_name": "constant"})
    assert res.passed
    assert abs(res.margin) < 1e-12  # equality at constant directions
    res = run_check("cone_inequality",
                    {"n": 2, "resolution": 160, "base": base,
                     "psi": SECOND, "psi_name": "second_harmonic"})
    assert res.passed
    assert res.margin == pytest.approx(1.0, abs=1e-10)
    assert res.details["weight_total"] == pytest.approx(1.0, abs=1e-10)
    assert res.details["cs_margin"] >= -1e-12
    assert res.details["weak_margin"] >= res.margin - 1e-12


def test_cone_inequality_odd_direction_fails():
    res = run_check("cone_inequality",
                    {"n": 2, "resolution": 160,
                     "base": {"type": "constant", "value": 1.0},
                     "psi": {"type": "cos_harmonic", "k": 1},
                     "psi_name": "first_harmonic"})
    assert res.passed and res.expected_failure
    assert res.margin == pytest.approx(-0.5, abs=1e-8)


# ---------------------------------------------------------------------------
# oracle-agreement checks
# ---------------------------------------------------------------------------

def test_mc_agreement_check():
    res = run_check("mc_agreement",
                    {"n": 2, "resolution": 160, "measure": GAU,
                     "base": {"type": "sum", "parts": [
                         [1.0, {"type": "constant", "value": 1.0}],
                         [0.1, {"type": "second_harmonic"}]]},
                     "mc_samples": 1 << 16, "seed": 2024})
    assert res.passed
    assert res.margin > 0.0  # 4 - |z|
    assert res.details["mc_stderr"] > 0.0


def test_mc_agreement_zero_stderr_compares_values(monkeypatch):
    # with standard error 0 the z-score is undefined; the estimate must
    # still agree with the quadrature value (McEstimate.agrees_with)
    import bmstab.oracles as oracles_module
    real = oracles_module.mc_measure

    def doubled(measure, body, **kw):
        est = real(measure, body, **kw)
        return dataclasses.replace(est, value=2.0 * est.value, stderr=0.0)

    monkeypatch.setattr(oracles_module, "mc_measure", doubled)
    res = run_check("mc_agreement",
                    {"n": 2, "resolution": 160, "measure": GAU,
                     "base": {"type": "constant", "value": 1.0},
                     "mc_samples": 1 << 12, "seed": 2024})
    assert res.margin == 4.0 and res.details["mc_stderr"] == 0.0
    assert not res.passed


def test_polygon_agreement_pass_and_fail():
    base = {"type": "constant", "value": 1.0}
    res = run_check("polygon_agreement",
                    {"n": 2, "resolution": 160, "base": base,
                     "polygon_directions": 720})
    assert res.passed
    assert 0.0 <= res.margin <= 1e-4
    res90 = run_check("polygon_agreement",
                      {"n": 2, "resolution": 160, "base": base,
                       "polygon_directions": 90})
    assert not res90.passed  # the 90-gon excess exceeds the binding 1e-4


# ---------------------------------------------------------------------------
# identity batteries
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("measure", [LEB, GAU, EP1, EP3],
                         ids=["lebesgue", "gaussian", "exp_power1",
                              "exp_power3"])
def test_moment_identities_check(measure):
    for n in (2, 3, 4):
        for R in (0.5, 1.0, 2.0):
            res = run_check("moment_identities",
                            {"n": n, "R": R, "measure": measure})
            assert res.passed
            assert res.margin < 1e-10


def test_divergence_identities_check():
    res = run_check("divergence_identities",
                    {"n": 3, "resolution": 16,
                     "base": {"type": "poly",
                              "terms": [[[0, 0, 0], 1.0], [[1, 1, 0], 0.15]]},
                     "psi": FIRST, "omega": SECOND})
    assert res.passed
    assert res.margin < 1e-11


# ---------------------------------------------------------------------------
# result plumbing
# ---------------------------------------------------------------------------

def test_rerun_is_bitwise_reproducible():
    res = run_check("dim_bm_infinitesimal",
                    {"n": 2, "R": 1.0, "measure": GAU, "resolution": 128,
                     "psi": SECOND, "psi_name": "second_harmonic"})
    again = rerun(res)
    assert again.check_id == res.check_id
    assert again.margin == res.margin
    assert again.oracle_diff == res.oracle_diff


def test_to_row_shape():
    res = run_check("moment_identities", {"n": 2, "R": 1.0, "measure": GAU})
    row = res.to_row()
    assert list(row.keys()) == ["check_id", "kind", "n", "R", "measure",
                                "eps1", "eps2", "lambda", "margin", "tol",
                                "passed", "expected_failure", "oracle_diff",
                                "seed"]
    assert row["kind"] == "moment_identities"
    assert row["measure"] == "gaussian"
    # floats serialized via repr round-trip exactly
    assert float(row["margin"]) == res.margin


def test_check_id_stable():
    res = run_check("moment_identities", {"n": 2, "R": 1.0, "measure": GAU})
    assert res.check_id == "moment_identities|n=2|R=1.0|measure=gaussian"
    assert isinstance(res, CheckResult)
    # a measure by its full name, as in the measure column; a base by type
    ep1 = run_check("moment_identities",
                    {"n": 2, "R": 1.0, "measure": {"kind": "exp_power",
                                                   "p": 1}})
    assert ep1.measure == "exp_power(p=1.0)"
    assert ep1.check_id == ("moment_identities|n=2|R=1.0"
                            "|measure=exp_power(p=1.0)")
    poly = run_check("polygon_agreement",
                     {"n": 2, "resolution": 64,
                      "base": {"type": "constant", "value": 1.0}})
    assert poly.check_id == ("polygon_agreement|n=2|base=constant"
                             "|resolution=64")


@pytest.mark.parametrize("sense,expected_failure,want", [
    ("ge", False, [False, True, True, True]),
    ("le", False, [True, True, True, False]),
    ("ge", True, [True, True, False, False]),
    ("le", True, [True, True, False, False]),
], ids=["ge", "le", "expected_failure_ge", "expected_failure_le"])
def test_pass_rule_truth_table(sense, expected_failure, want):
    tol = 0.25
    params = {"n": 2, "R": 1.0}
    for margin, ok in zip((-2 * tol, -tol, tol, 2 * tol), want):
        res = _result("probe", params, 2, "lebesgue", margin, tol, sense,
                      expected_failure=expected_failure)
        assert res.passed is ok, (margin, sense, expected_failure)
        assert res.status == ("FAIL" if not ok else
                              "XFAIL" if expected_failure else "PASS")
        assert res.check_id == "probe|n=2|R=1.0"
        assert res.kind == "probe"
        assert res.details["sense"] == sense
        # a failed further condition fails the check whatever the margin
        assert _result("probe", params, 2, "lebesgue", margin, tol, sense,
                       expected_failure=expected_failure,
                       extra_ok=False).passed is False
