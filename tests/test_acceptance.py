"""Acceptance gate: one test per advertised guarantee, each printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance here is load-bearing; none may be loosened to make a red
criterion green.  Expected failures (the shifted-disk demonstration, the
odd-direction cone check) assert that the failure *materializes*."""

import math
import time

import numpy as np
import pytest

import bmstab as bm
from bmstab.inequalities import run_check
from bmstab.measures import moment_identities
from bmstab.oracles import mc_measure
from bmstab.sphere import det_poly, poincare_ratio, split_mean
from bmstab.variation import (cheng_yau_residual, cofactor_field,
                              ibp_residuals, second_cofactor_field)

LEB = {"kind": "lebesgue"}
GAU = {"kind": "gaussian"}
EP1 = {"kind": "exp_power", "p": 1}
EP3 = {"kind": "exp_power", "p": 3}

EPS_ABS = [0.0125, 0.025, 0.0375, 0.05]
LAMBDAS = [i / 20 for i in range(21)]


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def grid2():
    return bm.build_grid(2, 160)


@pytest.fixture(scope="module")
def grid3():
    return bm.build_grid(3, 24)


def unit_ball_sf(n, R=1.0):
    return bm.sf_from_spec({"type": "constant", "value": R}, n)


# ---------------------------------------------------------------------------

def test_criterion_01_measure_closed_forms():
    """Quadrature measure of balls vs closed forms, < 1 s per case."""
    cases = [
        (LEB, 2, lambda R: math.pi * R * R, 1e-10),
        (LEB, 3, lambda R: (4.0 / 3.0) * math.pi * R ** 3, 1e-10),
        (GAU, 2, lambda R: 2 * math.pi * (1 - math.exp(-R * R / 2)), 1e-8),
    ]
    worst_rel, worst_time = 0.0, 0.0
    for spec, n, exact, rtol in cases:
        meas = bm.measure_from_spec(spec)
        for R in (0.5, 1.0, 2.0):
            t0 = time.perf_counter()
            grid = bm.build_grid(n, 64)
            body = bm.body_from_support(unit_ball_sf(n, R), grid)
            got = bm.measure_of_body(meas, body)
            dt = time.perf_counter() - t0
            rel = abs(got - exact(R)) / abs(exact(R))
            assert rel < rtol, (spec, n, R, rel)
            assert dt < 1.0, (spec, n, R, dt)
            worst_rel = max(worst_rel, rel)
            worst_time = max(worst_time, dt)
    report(1, True, f"ball measures match closed forms "
                    f"(worst rel {worst_rel:.2e}, worst time {worst_time:.2f}s)")


def test_criterion_02_moment_identities():
    """Radial-moment recombination residuals below 1e-8 everywhere."""
    worst = 0.0
    for spec in (GAU, EP1, EP3, LEB):
        meas = bm.measure_from_spec(spec)
        for R in (0.5, 1.0, 2.0):
            for n in (2, 3, 4):
                r1, r2 = moment_identities(meas, R, n)
                worst = max(worst, r1, r2)
    report(2, worst < 1e-8,
           f"36 measure/R/n combinations, worst residual {worst:.2e}")


def test_criterion_03_variation_vs_finite_differences(grid2, grid3):
    """Closed-form first/second variation at the ball vs finite differences
    of the quadrature measure map; both second-variation routes agree.

    Comparison is |analytic - fd| <= 1e-5 * max(|analytic|, |fd|) + 1e-8.
    The absolute floor sits an order of magnitude above the differencing
    roundoff at the prescribed step (~2e-9 for values of this scale) and
    well below its truncation bound, so it only absorbs oracle noise at
    genuinely vanishing derivatives (the gaussian flat radius) and cannot
    mask a formula error."""
    worst_fd, worst_routes = 0.0, 0.0
    for grid in (grid2, grid3):
        n = grid.n
        hb = unit_ball_sf(n)
        for spec in (LEB, GAU, EP1):
            meas = bm.measure_from_spec(spec)
            for name, _psi_spec, psi in bm.direction_suite(n):
                fam = bm.make_family("additive", hb, psi, grid)
                f = lambda ss: [bm.measure_of_body(meas, fam.body_at(s))
                                for s in ss]
                var = bm.variation_at_ball(meas, 1.0, psi, grid)
                for order, analytic in ((1, var.g1), (2, var.g2)):
                    fd = bm.central_derivative(f, 0.0, order=order,
                                               step=1e-3)
                    err = abs(analytic - fd)
                    bound = 1e-5 * max(abs(analytic), abs(fd)) + 1e-8
                    assert err <= bound, (n, spec, name, order, err, bound)
                    worst_fd = max(worst_fd,
                                   err / max(abs(analytic), abs(fd), 1.0))
                d = var.route_gap
                scale = max(1.0, abs(var.g2))
                assert d <= 1e-10 * scale, (n, spec, name, d)
                worst_routes = max(worst_routes, d / scale)
    report(3, True, f"48 derivative comparisons, worst FD rel {worst_fd:.2e}; "
                    f"route agreement {worst_routes:.2e}")


def cofactor_identity_residuals(Q):
    """Max residuals of the two homogeneity identities over a matrix stack."""
    Q = np.asarray(Q, dtype=float)
    N = Q.shape[1]
    C = cofactor_field(Q)
    C2 = second_cofactor_field(Q)
    det = det_poly([Q])[0]
    r1 = np.max(np.abs(np.einsum("mij,mij->m", C, Q) - N * det))
    r2 = np.max(np.abs(np.einsum("mijkl,mkl->mij", C2, Q) - (N - 1) * C))
    return float(r1), float(r2)


def test_criterion_04_cofactor_algebra():
    """Cofactor homogeneity identities on random matrices; divergence-free
    rows and integration-by-parts symmetry, with quadrature error decaying
    under grid refinement."""
    rng = np.random.default_rng(20240818)
    worst = 0.0
    for N in (2, 3, 4, 5, 6):
        A = rng.standard_normal((200, N, N))
        A = A + np.swapaxes(A, 1, 2)
        scale = np.max(np.abs(A)) ** (N - 1)
        r1, r2 = cofactor_identity_residuals(A)
        assert max(r1, r2) < 1e-12 * max(scale, 1.0), (N, r1, r2)
        worst = max(worst, max(r1, r2) / max(scale, 1.0))

    # pointwise divergence residual at the working resolution
    h = bm.sf_from_spec({"type": "sum", "parts": [
        [1.0, {"type": "constant", "value": 1.0}],
        [0.12, {"type": "second_harmonic"}],
        [0.05, {"type": "poly", "terms": [[[1, 1, 0], 1.0]]}]]}, 3)
    psi = bm.sf_from_spec({"type": "first_harmonic"}, 3)
    omega = bm.sf_from_spec({"type": "second_harmonic"}, 3)
    g48 = bm.build_grid(3, 48)
    cy = cheng_yau_residual(h, g48)
    i1, i2 = ibp_residuals(h, psi, omega, g48)
    assert cy < 1e-6 and i1 < 1e-6 and i2 < 1e-6, (cy, i1, i2)

    # decay under refinement: derivatives are analytic, so the divergence
    # residual sits at rounding level on every grid; the quadrature-backed
    # integral symmetry is where discretization error lives.  A degree-16+
    # integrand is under-resolved at 6 nodes and exactly integrated from 12.
    hp = bm.sf_from_spec({"type": "sum", "parts": [
        [1.0, {"type": "constant", "value": 1.0}],
        [0.05, {"type": "poly", "terms": [[[2, 2, 2], 1.0]]}]]}, 3)
    pp = bm.sf_from_spec({"type": "poly", "terms": [[[4, 4, 0], 1.0]]}, 3)
    op = bm.sf_from_spec({"type": "poly", "terms": [[[0, 0, 8], 1.0]]}, 3)
    seq = []
    for res in (6, 8, 12, 48):
        gr = bm.build_grid(3, res)
        seq.append(max(ibp_residuals(hp, pp, op, gr)))
        assert cheng_yau_residual(hp, gr) < 1e-10
    assert seq[0] > 1e-4          # visibly under-resolved
    assert seq[1] < seq[0]        # refinement helps
    assert seq[2] < 1e-12 and seq[3] < 1e-12   # exact past the degree
    report(4, True,
           f"1000 matrices worst homogeneity {worst:.2e}; res-48 residuals "
           f"cy={cy:.2e} ibp=({i1:.2e},{i2:.2e}); refinement "
           + "->".join(f"{v:.1e}" for v in seq))


def test_criterion_05_spectral_facts(grid2, grid3):
    """Rayleigh quotients: n-1 on linear harmonics, 2n on quadratic ones,
    and >= 2n for generic even zero-mean directions."""
    for grid in (grid2, grid3):
        n = grid.n
        for i in range(n):
            coeffs = [0.0] * n
            coeffs[i] = 1.0
            lin = bm.sf_from_spec({"type": "linear", "coeffs": coeffs}, n)
            assert abs(poincare_ratio(lin, grid) - (n - 1)) < 1e-8
        quad = bm.sf_from_spec({"type": "second_harmonic"}, n)
        assert abs(poincare_ratio(quad, grid) - 2 * n) < 1e-8
        if n >= 3:
            mixed = bm.sf_from_spec(
                {"type": "poly", "terms": [[[1, 1, 0], 1.0]]}, n)
            assert abs(poincare_ratio(mixed, grid) - 2 * n) < 1e-8
        for seed in range(11, 21):
            psi = bm.sf_from_spec(
                {"type": "random_even", "seed": seed, "amplitude": 1.0}, n)
            _, osc = split_mean(psi, grid)
            assert poincare_ratio(osc, grid) >= 2 * n - 1e-8, (n, seed)
    report(5, True, "harmonic ratios exact; 20 random even zero-mean "
                    "directions all at or above the quadratic eigenvalue")


def test_criterion_06_dimensional_concavity_scan():
    """Dimensional inequality along additive families: every margin across
    the full scan grid is nonnegative (within 1e-10), under 60 s total."""
    t0 = time.perf_counter()
    worst = math.inf
    count = 0
    for spec in (GAU, EP1):
        for n in (2, 3):
            for name, psi_spec, _ in bm.direction_suite(n):
                res = run_check("scan_dim_bm", {
                    "n": n, "R": 1.0, "measure": spec, "resolution": 64,
                    "psi": psi_spec, "psi_name": name,
                    "eps_abs": EPS_ABS, "lambdas": LAMBDAS})
                assert res.passed
                assert res.margin >= -1e-10, (spec, n, name, res.margin)
                worst = min(worst, res.margin)
                count += res.details["combos"]
    dt = time.perf_counter() - t0
    report(6, dt < 60.0,
           f"{count} scan points all nonnegative (worst {worst:+.2e}) "
           f"in {dt:.1f}s")


def test_criterion_07_log_concavity_scan():
    """Log inequality along multiplicative families built from a fixed even
    log-speed: every margin nonnegative (within 1e-10)."""
    phi_log = {"type": "scale", "factor": 0.3,
               "inner": {"type": "second_harmonic"}}
    worst = math.inf
    count = 0
    for spec in (GAU, EP1):
        for n in (2, 3):
            res = run_check("scan_log_bm", {
                "n": n, "R": 1.0, "measure": spec, "resolution": 64,
                "psi": phi_log, "psi_name": "0.3*second_harmonic",
                "eps_abs": EPS_ABS, "lambdas": LAMBDAS})
            assert res.passed
            assert res.margin >= -1e-10, (spec, n, res.margin)
            worst = min(worst, res.margin)
            count += res.details["combos"]
    report(7, True, f"{count} scan points all nonnegative (worst {worst:+.2e})")


def test_criterion_08_equality_pins():
    """Exact equality cases: homothetic perturbations under volume, and
    constant directions in the normalized-cone inequality."""
    worst = 0.0
    for n, R, resolution in ((2, 0.8, 160), (2, 1.0, 160), (3, 1.3, 24)):
        res = run_check("dim_bm_infinitesimal", {
            "n": n, "R": R, "measure": LEB, "resolution": resolution,
            "psi": {"type": "constant", "value": R},
            "psi_name": "proportional"})
        assert abs(res.margin) <= 1e-10, (n, R, res.margin)
        worst = max(worst, abs(res.margin))
    for n, resolution in ((2, 160), (3, 24)):
        res = run_check("cone_inequality", {
            "n": n, "resolution": resolution,
            "base": {"type": "constant", "value": 1.0},
            "psi": {"type": "constant", "value": 1.0},
            "psi_name": "constant"})
        assert abs(res.margin) <= 1e-10, (n, res.margin)
        worst = max(worst, abs(res.margin))
    report(8, True, f"five equality configurations, worst |margin| {worst:.2e}")


def test_criterion_09_negative_demonstrations():
    """The geometric mean of a disk and its translate loses area (polygon
    oracle agreeing with quadrature), and an odd direction breaks the cone
    inequality by exactly one half."""
    res = run_check("shift_counterexample", {"t": 0.3, "resolution": 256})
    assert res.passed and res.expected_failure
    area = res.details["area_geometric_mean"]
    assert area < math.pi
    gap = abs(res.details["area_polygon"] - area)
    assert gap <= 1e-4
    cone = run_check("cone_inequality", {
        "n": 2, "resolution": 160,
        "base": {"type": "constant", "value": 1.0},
        "psi": {"type": "cos_harmonic", "k": 1},
        "psi_name": "first_harmonic"})
    assert cone.passed and cone.expected_failure
    assert abs(cone.margin - (-0.5)) <= 1e-8
    report(9, True,
           f"geometric-mean area {area:.6f} < pi (oracle gap {gap:.1e}); "
           f"odd-direction margin {cone.margin:+.9f}")


def test_criterion_10_monte_carlo_agreement():
    """A million-sample Monte Carlo oracle agrees with quadrature within
    four standard errors on the body/measure suite; fixed seeds are
    bitwise reproducible."""
    g2 = bm.build_grid(2, 96)
    g3 = bm.build_grid(3, 10)
    disk = bm.body_from_support(unit_ball_sf(2), g2)
    bump = bm.body_from_support(bm.sf_from_spec(
        {"type": "sum", "parts": [
            [1.0, {"type": "constant", "value": 1.0}],
            [0.1, {"type": "second_harmonic"}]]}, 2), g2)
    ball3 = bm.body_from_support(unit_ball_sf(3), g3)
    shift3 = bm.body_from_support(bm.sf_from_spec(
        {"type": "sum", "parts": [
            [1.0, {"type": "constant", "value": 1.0}],
            [0.15, {"type": "first_harmonic"}]]}, 3), g3)
    # disk/lebesgue puts all but a sliver of its samples inside, so it
    # checks little beyond the disk-area constant; bump/lebesgue (area
    # 0.985 pi in closed form) tests the Lebesgue route with a real
    # error bar
    suite = [("disk/lebesgue", disk, bm.make_measure("lebesgue")),
             ("bump/gaussian", bump, bm.make_measure("gaussian")),
             ("ball3/exp1", ball3, bm.make_measure("exp_power", p=1)),
             ("shift3/exp1", shift3, bm.make_measure("exp_power", p=1)),
             ("bump/lebesgue", bump, bm.make_measure("lebesgue"))]
    zs = []
    estimates = {}
    for name, body, meas in suite:
        ref = bm.measure_of_body(meas, body)
        est = mc_measure(meas, body, n_samples=1 << 20, seed=2024)
        assert est.samples >= 10 ** 6
        assert est.agrees_with(ref), (name, est.value, ref, est.stderr)
        zs.append(abs(est.value - ref) / est.stderr if est.stderr else 0.0)
        estimates[name] = est
    bump_area = estimates["bump/lebesgue"]
    assert bump_area.stderr > 0
    assert bump_area.agrees_with(0.985 * math.pi)
    again = mc_measure(bm.make_measure("gaussian"), bump,
                       n_samples=1 << 20, seed=2024)
    prior = estimates["bump/gaussian"]
    assert again.value == prior.value and again.stderr == prior.stderr
    report(10, True, "five suite estimates within 4 SE "
                     f"(|z| = {', '.join(f'{z:.2f}' for z in zs)}); "
                     "identical seeds bitwise identical")
