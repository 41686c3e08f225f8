"""The four workloads: inputs made from the seed, the timed operations, and
the checks of their outputs against `references`.

A workload object is used in three steps.  `setup()` builds what the timed
part needs (grids, measures, bodies, families); `run_round()` runs every
operation once and returns one record per operation; `verify(rounds)` checks
the outputs of all rounds and returns (errors, failed operations).
Every round runs the same operations, so the share of failed operations is
the same in every run."""

import copy
import hashlib
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from bmstab import bodies, cli, inequalities, measures, oracles, sphere
from bmstab.funcspecs import direction_suite, sf_from_spec

import references as ref

OUT = Path(__file__).resolve().parent / "out"

LEB = {"kind": "lebesgue"}
GAU = {"kind": "gaussian"}
EP1 = {"kind": "exp_power", "p": 1}


def _closed_form_kind(spec):
    return "exp_power1" if spec["kind"] == "exp_power" else spec["kind"]


def derived_seed(seed, label):
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def _unit_ball(n):
    return sf_from_spec({"type": "constant", "value": 1.0}, n)


class Op:
    """One timed operation: its name, its wall time and what it returned."""
    __slots__ = ("name", "seconds", "out")

    def __init__(self, name, seconds, out):
        self.name, self.seconds, self.out = name, seconds, out


def _timed(name, fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return Op(name, time.perf_counter() - t0, out)


# ---------------------------------------------------------------------------
# battery: the `bmstab run` default battery
# ---------------------------------------------------------------------------

class Battery:
    """The default battery through cli.validate_config, cli.execute and the
    report writers.  The seed replaces the random_even direction seeds and
    the Monte Carlo seeds.  Two passes are needed to compare report.csv."""

    name = "battery"
    min_rounds = 2

    def __init__(self, seed, smoke=False):
        checks = cli.default_battery()
        if smoke:
            seen, small = set(), []
            for item in checks:
                p = item["params"]
                if item["kind"] not in seen and p.get("n", 2) == 2:
                    seen.add(item["kind"])
                    small.append(item)
            checks = small
        even_seed = derived_seed(seed, "random_even")
        for i, item in enumerate(checks):
            p = item["params"]
            if p.get("psi", {}).get("type") == "random_even":
                p["psi"] = dict(p["psi"], seed=even_seed)
            if item["kind"] == "mc_agreement":
                p["seed"] = derived_seed(seed, f"mc{i}")
        self.cfg = {"schema_version": cli.SCHEMA_VERSION, "checks": checks}
        self.reports = []

    def setup(self):
        # checks take their grids from a cache that lives as long as the
        # process: fill it here so that every pass times the same work
        for item in self.cfg["checks"]:
            p = item["params"]
            if "resolution" in p:
                inequalities._grid(p.get("n", 2), p["resolution"])
        OUT.mkdir(exist_ok=True)

    def run_round(self):
        outdir = Path(tempfile.mkdtemp(prefix="battery-", dir=OUT))
        try:
            ops = []

            def log(line):
                # execute() logs each check as it finishes: time between lines
                now = time.perf_counter()
                ops.append(Op(line.split()[1], now - last[0], None))
                last[0] = now

            cfg = cli.validate_config(copy.deepcopy(self.cfg))
            last = [time.perf_counter()]
            results = cli.execute(cfg, log=log)
            cli.write_csv(outdir / "report.csv", results)
            cli.write_json(outdir / "report.json", results)
            self.reports.append((outdir / "report.csv").read_bytes())
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        for op, res in zip(ops, results):
            op.out = res
        return ops

    def verify(self, rounds):
        errors = []
        for later in self.reports[1:]:
            errors += ref.check_identical("report.csv", self.reports[0], later)
        for rnd in rounds:
            results = [op.out for op in rnd]
            errors += [f"{r.check_id}: check failed (margin {r.margin:+.3e})"
                       for r in results if not r.passed]
            if not any(r.expected_failure for r in results):
                errors.append("no expected failure in the battery")
            for r in results:
                errors += self._closed_forms(r)
        return errors, 0

    @staticmethod
    def _closed_forms(r):
        if r.kind == "ball_dilation" and r.params["measure"]["kind"] in ("lebesgue", "gaussian"):
            want = ref.ball_measure(r.params["measure"]["kind"], r.n, r.R)
            return ref.check_close(f"{r.check_id} G", r.details["G"], want, 1e-9)
        if r.kind == "shift_counterexample":
            out = ref.check_close(f"{r.check_id} area", r.details["area_geometric_mean"],
                                  ref.shifted_disk_mean_area(r.params["t"]), 1e-8)
            if not r.margin < 0:
                out.append(f"{r.check_id}: log margin {r.margin!r} is not negative")
            return out
        return []


# ---------------------------------------------------------------------------
# family_scan: dimensional and log scans along perturbation families
# ---------------------------------------------------------------------------

EPS_ABS = [0.0125, 0.025, 0.0375, 0.05]
LAMBDAS = [i / 20 for i in range(21)]
PHI_LOG = {"type": "scale", "factor": 0.3, "inner": {"type": "second_harmonic"}}


class FamilyScan:
    """Acceptance criteria 6 and 7: scan_dim_bm over direction_suite and
    scan_log_bm along 0.3*second_harmonic, n = 2 and 3, under the Gaussian and
    exp_power(1) measures.  Each family is built once per measure.

    An operation fails when the family's certified validity radius a does
    not keep h_s positive on a fine net at s = +-a."""

    name = "family_scan"
    min_rounds = 1

    def __init__(self, seed, smoke=False):
        self.resolution = 8 if smoke else 32
        even_seed = derived_seed(seed, "random_even")
        self.params = []
        for mu in (GAU, EP1):
            for n in (2, 3):
                for name, spec, _ in direction_suite(n, seed=even_seed):
                    self.params.append(("scan_dim_bm", {
                        "n": n, "R": 1.0, "measure": mu,
                        "resolution": self.resolution, "psi": spec,
                        "psi_name": name, "eps_abs": EPS_ABS,
                        "lambdas": LAMBDAS}))
        for mu in (GAU, EP1):
            for n in (2, 3):
                self.params.append(("scan_log_bm", {
                    "n": n, "R": 1.0, "measure": mu,
                    "resolution": self.resolution, "psi": PHI_LOG,
                    "psi_name": "0.3*second_harmonic", "eps_abs": EPS_ABS,
                    "lambdas": LAMBDAS}))

    def setup(self):
        for n in (2, 3):    # fills the checks' grid cache, as for the battery
            inequalities._grid(n, self.resolution)

    def run_round(self):
        return [_timed(f"{kind}|n={p['n']}|{p['measure']['kind']}|{p['psi_name']}",
                       inequalities.run_check, kind, p) for kind, p in self.params]

    def verify(self, rounds):
        errors, failed = [], 0
        nets = {n: ref.direction_net(n) for n in (2, 3)}
        for rnd in rounds:
            for (kind, p), op in zip(self.params, rnd):
                res, n = op.out, p["n"]
                if not res.passed:
                    errors.append(f"{op.name}: scan failed")
                errors += ref.check_scan_margins(op.name, res.margin, res.oracle_diff)
                a = res.details["validity_radius"]
                if not ref.positive_on_net(np.ones(len(nets[n])),
                                           self._direction(p, nets[n]), a,
                                           multiplicative=kind == "scan_log_bm") > 0:
                    failed += 1
                if p["psi_name"] == "constant":
                    errors += ref.check_close(f"{op.name} radius", a,
                                              1 - ref.CURVATURE_FLOOR, 0, 1e-9)
                    errors += self._ball_measures(p, a)
        return errors, failed

    @staticmethod
    def _direction(p, U):
        name = p["psi_name"]
        if name == "random_even":
            # the seeded quadratic form is an input, evaluated as given
            return sf_from_spec(p["psi"], p["n"]).values(U)
        if name == "0.3*second_harmonic":
            return 0.3 * ref.harmonic_values("second_harmonic", U)
        return ref.harmonic_values(name, U)

    @staticmethod
    def _ball_measures(p, a):
        """The constant-direction family is the ball of radius 1 + s: its
        measures at the scan's parameters against the closed forms."""
        n = p["n"]
        fam = bodies.PerturbationFamily(
            kind="additive", base=_unit_ball(n), direction=_unit_ball(n),
            grid=inequalities._grid(n, p["resolution"]), a=a)
        s = np.array(sorted({lam * e1 + (1 - lam) * e2 for e1 in EPS_ABS
                             for e2 in EPS_ABS for lam in LAMBDAS}))
        got = fam.measures_along(measures.measure_from_spec(p["measure"]), s)
        kind = _closed_form_kind(p["measure"])
        want = [ref.ball_measure(kind, n, 1 + si) for si in s]
        return ref.check_close(f"scan n={n} {kind} ball measures", got, want, 1e-10)


# ---------------------------------------------------------------------------
# dense_sweep: measures along families built before timing
# ---------------------------------------------------------------------------

class DenseSweep:
    """measures_along over a dense s-grid for families built in set-up: the
    unit ball pushed along `constant` (one radial scale per s) and along
    `second_harmonic` (a scale per node), at n = 3 and 4, under the Lebesgue,
    Gaussian and exp_power(1) measures.  The seed places the grid's ends."""

    name = "dense_sweep"
    min_rounds = 1
    DIRECTIONS = ("constant", "second_harmonic")

    def __init__(self, seed, smoke=False):
        self.grids = ((3, 8), (4, 4)) if smoke else ((3, 64), (4, 8))
        self.count = 16 if smoke else 256
        u = derived_seed(seed, "s-grid") / 0x7FFFFFFF
        self.reach = 0.90 + 0.05 * u

    def setup(self):
        self.measures = [(spec, measures.measure_from_spec(spec))
                         for spec in (LEB, GAU, EP1)]
        self.sweeps = []
        for n, res in self.grids:
            grid = sphere.build_grid(n, res)
            for name in self.DIRECTIONS:
                spec = ({"type": "constant", "value": 1.0} if name == "constant"
                        else {"type": name})
                fam = bodies.make_family("additive", _unit_ball(n),
                                         sf_from_spec(spec, n), grid)
                s = np.linspace(-self.reach * fam.a, self.reach * fam.a, self.count)
                for mspec, mu in self.measures:
                    self.sweeps.append((f"n={n}|{name}|{mspec['kind']}",
                                        n, name, mspec, fam, mu, s))

    def run_round(self):
        return [_timed(label, fam.measures_along, mu, s)
                for label, _, _, _, fam, mu, s in self.sweeps]

    def verify(self, rounds):
        errors = []
        for rnd in rounds:
            for (label, n, name, mspec, _, _, s), op in zip(self.sweeps, rnd):
                g = np.asarray(op.out)
                if not np.all(g > 0):
                    errors.append(f"{label}: nonpositive measure")
                    continue
                if name == "constant":
                    kind = _closed_form_kind(mspec)
                    want = [ref.ball_measure(kind, n, 1 + si) for si in s]
                    errors += ref.check_close(label, g, want, 1e-10)
                # Brunn-Minkowski for Lebesgue; the Gaussian dimensional
                # inequality holds for symmetric bodies, and both directions
                # are even
                if mspec["kind"] in ("lebesgue", "gaussian"):
                    errors += ref.check_concave(label, s, g ** (1.0 / n))
        return errors, 0


# ---------------------------------------------------------------------------
# mc_oracle: the Monte Carlo body suite of acceptance criterion 10
# ---------------------------------------------------------------------------

def _support(spec_parts, n):
    return sf_from_spec({"type": "sum", "parts": spec_parts}, n)


class McOracle:
    """oracles.mc_measure on disk/Lebesgue, bump/Gaussian, ball3/exp_power(1),
    shift3/exp_power(1) and bump/Lebesgue (disk/Lebesgue has standard error
    zero), then bump/Gaussian again with the same seed.  Planar cases draw
    two batches; the n = 3 cases draw one, whose 65,536 x 4,096 direction
    products set the peak memory."""

    name = "mc_oracle"
    min_rounds = 1

    def __init__(self, seed, smoke=False):
        self.seed = seed
        self.batches = {2: 1 if smoke else 2, 3: 1}

    def setup(self):
        g2 = sphere.build_grid(2, 96)
        g3 = sphere.build_grid(3, 10)
        one = [1.0, {"type": "constant", "value": 1.0}]
        disk = bodies.body_from_support(_unit_ball(2), g2)
        bump = bodies.body_from_support(
            _support([one, [0.1, {"type": "second_harmonic"}]], 2), g2)
        ball3 = bodies.body_from_support(_unit_ball(3), g3)
        shift3 = bodies.body_from_support(
            _support([one, [0.15, {"type": "first_harmonic"}]], 3), g3)
        leb, gau = measures.make_measure("lebesgue"), measures.make_measure("gaussian")
        ep1 = measures.make_measure("exp_power", p=1)
        # closed forms are evaluated when verifying
        cases = [
            ("disk/lebesgue", disk, leb, lambda: ref.ball_measure("lebesgue", 2, 1.0)),
            ("bump/gaussian", bump, gau, lambda: ref.bump_measure("gaussian", 0.1)),
            ("ball3/exp_power1", ball3, ep1, lambda: ref.ball_measure("exp_power1", 3, 1.0)),
            ("shift3/exp_power1", shift3, ep1, lambda: ref.shifted_ball_exp1(0.15)),
            ("bump/lebesgue", bump, leb, lambda: ref.bump_measure("lebesgue", 0.1)),
        ]
        self.cases = [(name, body, mu, closed, bodies.measure_of_body(mu, body),
                       derived_seed(self.seed, name))
                      for name, body, mu, closed in cases]
        self.cases.append(("bump/gaussian repeat",) + self.cases[1][1:])

    def run_round(self):
        return [_timed(name, oracles.mc_measure, mu, body,
                       n_samples=self.batches[body.n] * oracles.MC_BATCH, seed=seed)
                for name, body, mu, _, _, seed in self.cases]

    def verify(self, rounds):
        errors = []
        first = rounds[0] if rounds else []
        for rnd in rounds:
            for (name, body, _, closed, quad, _), op in zip(self.cases, rnd):
                est, closed = op.out, closed()
                if est.samples != self.batches[body.n] * oracles.MC_BATCH:
                    errors.append(f"{name}: {est.samples} samples drawn")
                errors += ref.check_close(f"{name} quadrature", quad, closed, 1e-9)
                errors += ref.check_mc(f"{name} vs quadrature", est.value, est.stderr, quad)
                errors += ref.check_mc(f"{name} vs closed form", est.value, est.stderr, closed)
            for a, b in zip(first, rnd):
                errors += ref.check_identical(
                    f"{a.name} across rounds", (a.out.value, a.out.stderr),
                    (b.out.value, b.out.stderr))
            errors += ref.check_identical(
                "bump/gaussian repeated seed",
                (rnd[1].out.value, rnd[1].out.stderr, rnd[1].out.refined),
                (rnd[-1].out.value, rnd[-1].out.stderr, rnd[-1].out.refined))
        return errors, 0


WORKLOADS = {w.name: w for w in (Battery, FamilyScan, DenseSweep, McOracle)}
