"""Inequality margins near the ball, with independent cross-checks.

Every check consumes a JSON-safe parameter dictionary and produces a
CheckResult carrying the computed margin, the pass decision at the check
kind's fixed tolerance (run_check rejects params that set "tol"), and the
disagreement against whichever independent route is available (family
kernels, finite differences, closed forms, Monte Carlo, polygons).  Every
pass decision is made by `_result`, from the margin's sense.  check_params
holds every parameter rule; run_check applies it before a check computes,
and rerun repeats a result from its stored parameters, bit for bit.  The
support functions and measures a check names by spec come from the open
run table, which builds each once; run_check opens one for its call unless
one is open (cli.execute holds one for a whole run)."""

from __future__ import annotations

import json
import math
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

from . import measures as _measures
from . import oracles as _oracles
from . import variation as _variation
from .bodies import (PerturbationFamily, body_from_support, log_combine,
                     make_family, measure_of_body, volume)
from .funcspecs import sf_from_spec
from .sphere import _KEPT, _scope, build_grid, sphere_area
from .variation import variation_at_ball

DEFAULT_MARGIN_TOL = 1e-9

_GRIDS: dict = {}


def _grid(n, resolution):
    key = (int(n), int(resolution))
    if key not in _GRIDS:
        _GRIDS[key] = build_grid(*key)
    return _GRIDS[key]


# the open run table: (spec as sorted-key JSON, n) -> the support function
# of the spec at dimension n, or for n None the measure of the spec
_TABLE = ContextVar("run_table", default=None)


def _run_table():
    """A block with a run table and polynomials keeping their bundles at
    grid nodes (sphere._KEPT), or in those already open; what the block
    that opened them built is dropped when it ends."""
    return _scope(_TABLE, _KEPT)


def _built(spec, n=None):
    """The support function of spec at dimension n, or for n None the
    measure of spec: from the open run table, which builds it on the first
    request, else built afresh (as is a spec that is not JSON)."""
    table = _TABLE.get()
    try:
        key = (json.dumps(spec, sort_keys=True), n)
    except TypeError:
        table = None
    if table is not None and key in table:
        return table[key]
    out = (_measures.measure_from_spec(spec) if n is None
           else sf_from_spec(spec, n))
    if table is not None:
        table[key] = out
    return out


def _measure_name(mu):
    d = mu.describe()
    kind = d.pop("kind")
    if not d:
        return kind
    inner = ",".join(f"{k}={v!r}" for k, v in sorted(d.items()))
    return f"{kind}({inner})"


# the columns of report.csv, in order: the keys of CheckResult.to_row
CSV_FIELDS = ["check_id", "kind", "n", "R", "measure", "eps1", "eps2",
              "lambda", "margin", "tol", "passed", "expected_failure",
              "oracle_diff", "seed"]


@dataclass
class CheckResult:
    """One check's report record: its fields are the JSON record, to_row
    the CSV_FIELDS cells, and status the verdict."""
    check_id: str
    kind: str
    n: int
    measure: str
    margin: float
    tol: float
    passed: bool
    params: dict = field(default_factory=dict)
    R: float | None = None
    expected_failure: bool = False
    oracle_diff: float | None = None
    details: dict = field(default_factory=dict)

    @property
    def status(self):
        """PASS, FAIL, or XFAIL for an expected failure that materialized."""
        if not self.passed:
            return "FAIL"
        return "XFAIL" if self.expected_failure else "PASS"

    def to_row(self):
        """Flat record for tabular reports; eps1, eps2 and lambda are the
        worst combination of a scan, empty for other checks."""
        p, worst = self.params, self.details.get("worst", {})
        return {
            "check_id": self.check_id,
            "kind": self.kind,
            "n": self.n,
            "R": "" if self.R is None else repr(float(self.R)),
            "measure": self.measure,
            "eps1": repr(worst["eps1"]) if worst else "",
            "eps2": repr(worst["eps2"]) if worst else "",
            "lambda": repr(worst["lambda"]) if worst else "",
            "margin": repr(float(self.margin)),
            "tol": repr(float(self.tol)),
            "passed": str(bool(self.passed)),
            "expected_failure": str(bool(self.expected_failure)),
            "oracle_diff": ("" if self.oracle_diff is None
                            else repr(float(self.oracle_diff))),
            "seed": str(p.get("seed", "")),
        }


def _mk_id(kind, params, measure):
    """kind|key=value|... over the identifying params: a measure as its
    report column names it, a base by its spec type."""
    bits = [kind]
    for key in ("n", "R", "measure", "base", "psi_name", "t", "seed",
                "resolution"):
        v = params.get(key)
        if v is not None:
            v = measure if key == "measure" else v
            bits.append(f"{key}={v.get('type') if isinstance(v, dict) else v}")
    return "|".join(bits)


def _result(kind, params, n, measure, margin, tol, sense, *, R=None,
            expected_failure=False, extra_ok=True, oracle_diff=None,
            details=None):
    """The one pass rule.  sense "ge" asserts margin >= 0 and holds at
    margin >= -tol; "le" asserts margin <= 0 and holds at margin <= tol.
    An expected failure holds at margin <= -tol, whatever the sense.
    extra_ok carries a check's further conditions (closed-form, polygon
    and Monte Carlo gaps)."""
    if expected_failure:
        ok = margin <= -tol
    elif sense == "ge":
        ok = margin >= -tol
    else:
        ok = margin <= tol
    return CheckResult(
        check_id=_mk_id(kind, params, measure), kind=kind, n=n,
        measure=measure, margin=margin, tol=tol, passed=bool(ok and extra_ok),
        params=params, R=R, expected_failure=expected_failure,
        oracle_diff=oracle_diff, details={**(details or {}), "sense": sense})


def _psi(params, n):
    return _built(params["psi"], n)


def _at_ball(params):
    """(n, R, grid, measure, psi, variation) for a direction at a centered
    ball."""
    n = params["n"]
    R = float(params["R"])
    g = _grid(n, params["resolution"])
    mu = _built(params["measure"])
    psi = _psi(params, n)
    return n, R, g, mu, psi, variation_at_ball(mu, R, psi, g)


def _polygon(h, m):
    """Circumscribed polygon of the support h at m equally spaced planar
    directions."""
    ang = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
    dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    return _oracles.wulff_polygon(dirs, h.values(dirs))


CHECKS, _KEYS = {}, {}  # kind -> check function, and the keys it accepts
_BALL = "n R resolution measure psi"
_SCAN = _BALL + " base eps_fracs eps_abs lambdas"


def _check(keys):
    """Register check_<kind> as kind, accepting the params keys it reads,
    named in the string keys, and psi_name, which labels any check id."""
    def register(fn):
        kind = fn.__name__.removeprefix("check_")
        CHECKS[kind], _KEYS[kind] = fn, {"psi_name", *keys.split()}
        return fn
    return register


# ---------------------------------------------------------------------------
# infinitesimal checks at a centered ball
# ---------------------------------------------------------------------------

def _ball_kernel(kind, R, psi, g, mu, var):
    """g''(0) from the s-polynomial kernel of the family through the ball of
    radius R along psi (R + s psi, or R e^{s psi / R} for kind
    "multiplicative"), and its gap to the variation route's g2 (g2_mult)
    relative to the larger of the two and 1e-2 max(1, |g(0)|).  The
    derivatives at s = 0 hold inside any radius: no radius search."""
    ball = _built({"type": "constant", "value": R}, psi.n)
    g2 = var.g2_mult if kind == "multiplicative" else var.g2
    fam = PerturbationFamily(kind=kind, base=ball, direction=psi, grid=g)
    g2k = float(fam.derivatives_along(mu, [0.0])[2][0])
    floor = 1e-2 * max(1.0, abs(var.g0))
    return g2k, abs(g2 - g2k) / max(abs(g2), abs(g2k), floor)


@_check(_BALL)
def check_dim_bm_infinitesimal(params):
    """(1 - 1/n) g'(0)^2 - g''(0) g(0) >= 0 along h_s = R + s psi.

    The margin is divided by g(0)^2, so it reads -n (g^{1/n})'' / g^{1/n}
    at s = 0: zero, up to rounding, along translations.  details carry
    raw_margin and its split into two quadratic forms,

        B1 = (A f / |S|) ((n-1) I2 - J2) + (A R f' / |S|) I2,
        B2 = ((n-1)/n) f^2 (I0 / |S|)^2,

    with B2 - B1 = raw_margin / (|S|^2 R^{2n-2})."""
    n, R, g, mu, psi, var = _at_ball(params)
    raw = (n - 1) / n * var.g1 ** 2 - var.g2 * var.g0
    margin = raw / var.g0 ** 2
    S, A, fR, fpR = sphere_area(n), var.A, var.fR, var.fpR
    I2, J2 = var.int_psi_sq, var.int_grad_sq
    B1 = (A * fR / S) * ((n - 1) * I2 - J2) + (A * R * fpR / S) * I2
    B2 = (n - 1) / n * fR ** 2 * (var.int_psi / S) ** 2

    g2k, kernel = _ball_kernel("additive", R, psi, g, mu, var)
    route = var.route_gap / max(abs(var.g2), 1e-2 * max(1.0, abs(var.g0)))
    return _result(
        "dim_bm_infinitesimal", params, n, _measure_name(mu), margin,
        DEFAULT_MARGIN_TOL, "ge", R=R, oracle_diff=max(route, kernel),
        details={"g0": var.g0, "g1": var.g1, "g2": var.g2,
                 "g2_profile": var.g2_profile, "g2_kernel": g2k,
                 "raw_margin": raw, "B1": B1, "B2": B2,
                 "psi_parity": psi.parity()})


@_check(_BALL)
def check_log_bm_infinitesimal(params):
    """g'(0)^2 - g''_mult(0) g(0) >= 0 (concavity of log gamma along the
    geometric family through the ball); stated for even directions, an
    expected failure along any other.  details carry the ball form

        lhs = A (n f + R f') I2/|S| - A f J2/|S|  <=  f^2 (I0/|S|)^2 = rhs,

    with rhs - lhs = (g'(0)^2 - g''_mult(0) g(0)) / (|S|^2 R^{2n-2}), its
    split into the mean and oscillation parts of psi (contrib_mean,
    contrib_osc), and sufficient_condition for the oscillation part: the
    zero-mean component's Rayleigh quotient rayleigh_osc is at least 2n and
    profile_ratio = f / (n f + R f') at least 1/n."""
    n, R, g, mu, psi, var = _at_ball(params)
    margin = (var.g1 ** 2 - var.g2_mult * var.g0) / var.g0 ** 2
    S, A, fR, fpR = sphere_area(n), var.A, var.fR, var.fpR
    I2, J2, alpha = var.int_psi_sq, var.int_grad_sq, n * fR + R * fpR
    lhs = A * alpha * I2 / S - A * fR * J2 / S
    mean = var.int_psi / S
    rhs = fR ** 2 * mean ** 2
    I2_osc = I2 - mean ** 2 * S
    contrib_mean = (fR ** 2 - A * alpha) * mean ** 2
    contrib_osc = (A * fR * J2 - A * alpha * I2_osc) / S
    rayleigh_osc = J2 / I2_osc if I2_osc > 1e-300 else float("inf")
    profile_ratio = fR / alpha if abs(alpha) > 1e-300 else float("inf")
    sufficient = bool(rayleigh_osc >= 2 * n - 1e-8
                      and profile_ratio >= 1.0 / n - 1e-12)

    g2k, kernel = _ball_kernel("multiplicative", R, psi, g, mu, var)
    return _result(
        "log_bm_infinitesimal", params, n, _measure_name(mu), margin,
        DEFAULT_MARGIN_TOL, "ge", R=R,
        expected_failure=psi.parity() != "even", oracle_diff=kernel,
        details={"g0": var.g0, "g1": var.g1, "g2_mult": var.g2_mult,
                 "g2_mult_kernel": g2k, "log_corr": var.log_corr,
                 "lhs": lhs, "rhs": rhs, "contrib_mean": contrib_mean,
                 "contrib_osc": contrib_osc, "rayleigh_osc": rayleigh_osc,
                 "profile_ratio": profile_ratio,
                 "sufficient_condition": sufficient,
                 "psi_parity": psi.parity()})


@_check("n R measure")
def check_ball_dilation(params):
    """Dimensional concavity along pure dilations: with G(r) = gamma(r B),
    G''(R) G(R) <= (1 - 1/n) G'(R)^2, via closed-form growth derivatives."""
    n = params["n"]
    R = float(params["R"])
    mu = _built(params["measure"])
    G, G1, G2 = _measures.ball_growth_derivatives(mu, R, n)
    margin = (n - 1) / n * G1 ** 2 - G2 * G
    scale = max(G1 ** 2, abs(G2 * G), 1e-30)

    def ball_measures(r):
        # the whole stencil in one radial fit; no f(R) or f'(R) is read
        return sphere_area(n) * r ** n * _measures.radial_profile(mu, r, n)[0]

    fd1 = _oracles.central_derivative(ball_measures, R, order=1,
                                      step=1e-3 * R)
    fd2 = _oracles.central_derivative(ball_measures, R, order=2,
                                      step=1e-2 * R)
    floor = 1e-2 * max(1.0, abs(G))
    odiff = max(abs(G1 - fd1) / max(abs(G1), floor),
                abs(G2 - fd2) / max(abs(G2), abs(fd2), floor))
    return _result(
        "ball_dilation", params, n, _measure_name(mu), margin / scale,
        DEFAULT_MARGIN_TOL, "ge", R=R, oracle_diff=odiff,
        details={"G": G, "G1": G1, "G2": G2, "G1_fd": fd1, "G2_fd": fd2,
                 "raw_margin": margin})


# ---------------------------------------------------------------------------
# scans along perturbation families
# ---------------------------------------------------------------------------

_DEFAULT_EPS_FRACS = (-0.75, -0.5, -0.25, 0.25, 0.5, 0.75)
_DEFAULT_LAMBDAS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _base_sf(params, n):
    if "base" in params:
        return _built(params["base"], n)
    return _built({"type": "constant", "value": float(params["R"])}, n)


def _scan(kind, family, params, psi, combine, normalize=False,
          expected_failure=False):
    """combine(gamma(s_bar), gamma(e1), gamma(e2), lambda) for every pair of
    distinct members e1, e2 of the family of kind `family` along psi and
    every lambda, with s_bar = lambda e1 + (1 - lambda) e2; normalize
    divides by gamma^{1/n} at the member nearest s = 0.  The worst margin
    over 0 < lambda < 1 decides (the rest compare a member with itself); the
    lambda in {0, 1} margins, which read the same table entry on both
    sides, give the oracle_diff."""
    n = params["n"]
    g = _grid(n, params["resolution"])
    mu = _built(params["measure"])
    fam = make_family(family, _base_sf(params, n), psi, g)
    lambdas = params.get("lambdas", _DEFAULT_LAMBDAS)
    if "eps_abs" in params:
        eps = [float(e) for e in params["eps_abs"]]
        largest = max(abs(e) for e in eps)
        if largest > fam.a:
            raise ValueError(
                f"requested perturbation amplitude {largest:g} exceeds the "
                f"family's validity radius {fam.a:g}; shrink eps_abs or "
                "use eps_fracs")
    else:
        fracs = params.get("eps_fracs", _DEFAULT_EPS_FRACS)
        eps = [float(f) * fam.a for f in fracs]
    eps = list(dict.fromkeys(eps))
    combos = []
    svals = set(eps)
    for i, e1 in enumerate(eps):
        for e2 in eps[i + 1:]:
            for lam in lambdas:
                sbar = lam * e1 + (1.0 - lam) * e2
                svals.add(sbar)
                combos.append((e1, e2, lam, sbar))
    s_arr = np.array(sorted(svals))
    gam = fam.measures_along(mu, s_arr)
    if np.any(gam <= 0.0):
        raise ValueError("measure vanished along the family")
    lut = dict(zip(s_arr.tolist(), gam.tolist()))
    raw = [combine(lut[sbar], lut[e1], lut[e2], lam)
           for e1, e2, lam, sbar in combos]
    margins = np.array(raw)
    if normalize:
        margins = margins / lut[min(lut, key=abs)] ** (1.0 / n)
    inside = np.array([0.0 < c[2] < 1.0 for c in combos])
    worst = int(np.flatnonzero(inside)[np.argmin(margins[inside])])
    endpoint = [abs(m) for c, m in zip(combos, raw) if c[2] in (0.0, 1.0)]
    return _result(
        kind, params, n, _measure_name(mu), float(margins[worst]),
        DEFAULT_MARGIN_TOL, "ge", R=params.get("R"),
        expected_failure=expected_failure,
        oracle_diff=max(endpoint, default=None),
        details={"validity_radius": fam.a, "combos": len(combos),
                 "worst": {"eps1": combos[worst][0],
                           "eps2": combos[worst][1],
                           "lambda": combos[worst][2]},
                 "psi_parity": psi.parity()})


@_check(_SCAN)
def check_scan_dim_bm(params):
    """Dimensional concavity along a family: for support combinations of two
    members, gamma^{1/n} is at least the chord value.  lambda in {0, 1}
    must give a bitwise-zero margin (same table entry on both sides)."""
    n = params["n"]

    def combine(g_bar, g1, g2, lam):
        return (g_bar ** (1.0 / n)
                - lam * g1 ** (1.0 / n) - (1.0 - lam) * g2 ** (1.0 / n))

    return _scan("scan_dim_bm", "additive", params, _psi(params, n), combine,
                 normalize=True)


@_check(_SCAN)
def check_scan_log_bm(params):
    """Log concavity along a multiplicative family: log gamma at the
    geometric combination dominates the chord, for even directions on a
    symmetric base; an expected failure along any other direction."""
    psi = _psi(params, params["n"])

    def combine(g_bar, g1, g2, lam):
        return (math.log(g_bar)
                - lam * math.log(g1) - (1.0 - lam) * math.log(g2))

    return _scan("scan_log_bm", "multiplicative", params, psi, combine,
                 expected_failure=psi.parity() != "even")


# ---------------------------------------------------------------------------
# shifted-ball counterexample (planar, lebesgue)
# ---------------------------------------------------------------------------

@_check("t resolution polygon_directions mc_samples seed")
def check_shift_counterexample(params):
    """Geometric mean of a shifted disk and the unit disk loses area:

        area = pi - (pi/4) (1 - sqrt(1 - t^2)) < pi,

    so the log-concavity margin log area(K_g) - (log area(K_1) + log
    area(K_2))/2 >= 0 fails once the center moves: symmetry matters.  The
    closed form, the quadrature area, the polygonal area, and (optionally)
    Monte Carlo must all agree."""
    t = params["t"]
    n = 2
    g = _grid(n, params["resolution"])
    mu = _built({"kind": "lebesgue"})
    h1 = _built({"type": "sum", "parts": [
        [1.0, {"type": "constant", "value": 1.0}],
        [t, {"type": "first_harmonic"}]]}, n)
    h2 = _built({"type": "constant", "value": 1.0}, n)
    K1 = body_from_support(h1, g)
    K2 = body_from_support(h2, g)
    Kg = log_combine(K1, K2, 0.5)
    a1 = measure_of_body(mu, K1)
    a2 = measure_of_body(mu, K2)
    ag = measure_of_body(mu, Kg)
    margin = math.log(ag) - 0.5 * (math.log(a1) + math.log(a2))
    closed = math.pi - (math.pi / 4.0) * (1.0 - math.sqrt(1.0 - t * t))
    closed_gap = abs(ag - closed) / closed

    poly = _polygon(Kg.h, params.get("polygon_directions", 1440))
    poly_gap = abs(poly.area - closed) / closed

    details = {"area_geometric_mean": ag, "area_closed_form": closed,
               "area_polygon": poly.area, "deficit": math.pi - ag}
    odiff = max(closed_gap, poly_gap)
    if params.get("mc_samples"):
        est = _oracles.mc_measure(mu, Kg, n_samples=params["mc_samples"],
                                  seed=params.get("seed", 2024))
        details["area_mc"] = est.value
        details["area_mc_stderr"] = est.stderr
        details["mc_z"] = (est.value - closed) / est.stderr
        if not est.agrees_with(closed):
            odiff = max(odiff, abs(est.value - closed))
    return _result(
        "shift_counterexample", params, n, _measure_name(mu), margin,
        1e-6, "ge", R=1.0, expected_failure=True,
        extra_ok=closed_gap < 1e-8 and poly_gap < 1e-4, oracle_diff=odiff,
        details=details)


# ---------------------------------------------------------------------------
# cone-measure form
# ---------------------------------------------------------------------------

@_check("n R resolution base psi")
def check_cone_inequality(params):
    """Normalized cone weight dVbar = h det Q du / (n V_n(K)).  For even
    directions on a symmetric body (an expected failure along any other):

      int psi^2 (1 + h tr Q^{-1}) / h^2 dVbar - n (int psi/h dVbar)^2
          <=  int <Q^{-1} grad psi, grad psi> / h dVbar.

    details carry the always-true Cauchy-Schwarz margin and the weaker
    margin with the square of the mean replaced by the mean square."""
    n = params["n"]
    g = _grid(n, params["resolution"])
    psi = _psi(params, n)
    body = body_from_support(_base_sf(params, n), g)
    w = g.weights
    h = body.hvals
    Q = body.curvature.Q
    det = body.curvature.det
    cone_w = w * h * det / (n * volume(body))
    weight_total = float(np.sum(cone_w))

    d = psi.d2_ext0(g.nodes)
    Qinv = np.linalg.inv(Q)
    trQinv = np.trace(Qinv, axis1=1, axis2=2)
    # tangential gradient in frame coordinates
    E = g.frames
    gf = np.einsum("map,mp->ma", E, d.grad)
    quad = np.einsum("mab,ma,mb->m", Qinv, gf, gf)

    lhs_density = d.val ** 2 * (1.0 + h * trQinv) / h ** 2
    mean_ratio = float(np.sum(cone_w * d.val / h))
    mean_sq_ratio = float(np.sum(cone_w * (d.val / h) ** 2))
    lhs = float(np.sum(cone_w * lhs_density)) - n * mean_ratio ** 2
    rhs = float(np.sum(cone_w * quad / h))
    margin = rhs - lhs
    cs_margin = n * (mean_sq_ratio - mean_ratio ** 2)
    weak_margin = rhs - (float(np.sum(cone_w * lhs_density))
                         - n * mean_sq_ratio)
    return _result(
        "cone_inequality", params, n, "cone", margin, DEFAULT_MARGIN_TOL,
        "ge", R=params.get("R"), expected_failure=psi.parity() != "even",
        oracle_diff=abs(weight_total - 1.0),
        details={"lhs": lhs, "rhs": rhs, "cs_margin": cs_margin,
                 "weak_margin": weak_margin, "weight_total": weight_total,
                 "psi_parity": psi.parity()})


# ---------------------------------------------------------------------------
# oracle agreement checks
# ---------------------------------------------------------------------------

@_check("n R resolution measure base mc_samples seed")
def check_mc_agreement(params):
    """Quadrature measure of a body against the Monte Carlo estimate;
    margin is the z-score gap 4 - |z|, and the estimate must agree with the
    quadrature value (McEstimate.agrees_with) even at standard error 0."""
    n = params["n"]
    g = _grid(n, params["resolution"])
    mu = _built(params["measure"])
    body = body_from_support(_base_sf(params, n), g)
    value = measure_of_body(mu, body)
    est = _oracles.mc_measure(mu, body,
                              n_samples=params.get("mc_samples", 1 << 18),
                              seed=params.get("seed", 2024))
    z = (est.value - value) / est.stderr if est.stderr > 0 else 0.0
    return _result(
        "mc_agreement", params, n, _measure_name(mu), 4.0 - abs(z), 0.0,
        "ge", R=params.get("R"), extra_ok=est.agrees_with(value),
        oracle_diff=abs(est.value - value),
        details={"quadrature": value, "mc": est.value,
                 "mc_stderr": est.stderr, "z": z, "samples": est.samples,
                 "refined": est.refined})


@_check("n R resolution base polygon_directions")
def check_polygon_agreement(params):
    """Planar area from the curvature route against the exact circumscribed
    polygon at m directions; the polygon is larger by O(1/m^2)."""
    n = 2
    g = _grid(n, params["resolution"])
    body = body_from_support(_base_sf(params, n), g)
    area = volume(body)
    m = params.get("polygon_directions", 720)
    poly = _polygon(body.h, m)
    gap = poly.area - area
    return _result(
        "polygon_agreement", params, n, "lebesgue", gap, 1e-4, "le",
        R=params.get("R"), extra_ok=gap >= 0.0, oracle_diff=abs(gap),
        details={"area_quadrature": area, "area_polygon": poly.area,
                 "directions": m, "vertices": len(poly.vertices)})


# ---------------------------------------------------------------------------
# identity residual checks
# ---------------------------------------------------------------------------

@_check("n R measure")
def check_moment_identities(params):
    """Residuals of f(D) = n A + D B and f'(D) = (n+1) B + D C."""
    n = params["n"]
    R = float(params["R"])
    mu = _built(params["measure"])
    r1, r2 = _measures.moment_identities(mu, R, n)
    return _result(
        "moment_identities", params, n, _measure_name(mu),
        max(abs(r1), abs(r2)), 1e-10, "le", R=R,
        details={"residual_value": r1, "residual_slope": r2})


@_check("n R resolution base psi omega")
def check_divergence_identities(params):
    """Pointwise divergence-free residual of the cofactor rows plus the two
    integration-by-parts symmetries, for a polynomial support function."""
    n = params["n"]
    g = _grid(n, params["resolution"])
    base = _base_sf(params, n)
    omega = _built(params["omega"], n)
    psi = _psi(params, n)
    cy, r1, r2 = _variation.divergence_residuals(base, psi, omega, g)
    return _result(
        "divergence_identities", params, n, "none", max(cy, r1, r2),
        1e-11, "le", R=params.get("R"),
        details={"cofactor_divergence": cy, "ibp_linear": r1,
                 "ibp_trilinear": r2})


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# scan parameter lists: the interval their entries lie in, and what they are
_SCAN_LISTS = {
    "eps_fracs": (-1.0, 1.0, "fractions of the validity radius"),
    "eps_abs": (-math.inf, math.inf, "perturbation amplitudes"),
    "lambdas": (0.0, 1.0, "combination weights"),
}
# scalar parameters: their type, the open interval they lie in, what they are
_SCALARS = (("n", int, (0, math.inf), "a positive integer"),
            ("resolution", int, (0, math.inf), "a positive integer"),
            ("R", (int, float), (0, math.inf), "a positive finite number"),
            ("mc_samples", int, (0, math.inf), "a positive integer"),
            ("polygon_directions", int, (0, math.inf), "a positive integer"),
            ("seed", int, (-1, math.inf), "a non-negative integer"),
            ("t", (int, float), (0, 1), "a number in (0, 1)"))


def check_params(kind, params):
    """KeyError for an unknown kind, ValueError for any other broken rule,
    including a key the kind's check does not read; a missing key is the
    KeyError of the check that reads it."""
    if kind not in CHECKS:
        known = ", ".join(sorted(CHECKS))
        raise KeyError(f"unknown kind {kind!r} (known: {known})")
    if not isinstance(params, dict):
        raise ValueError("params must be an object")
    if "tol" in params:
        raise ValueError("tol cannot be set: each check kind fixes its "
                         f"tolerance (got tol={params['tol']!r})")
    for key, typ, (lo, hi), what in _SCALARS:
        v = params.get(key)
        if key in params and not (isinstance(v, typ)
                                  and not isinstance(v, bool) and lo < v < hi):
            raise ValueError(f"{key} must be {what}")
    for key, (lo, hi, what) in _SCAN_LISTS.items():
        if key not in params:
            continue
        vals = params[key]
        if not (isinstance(vals, list) and vals and all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                and math.isfinite(v) for v in vals)):
            raise ValueError(f"{key} must be a non-empty list of finite "
                             "numbers")
        if any(not lo <= v <= hi for v in vals):
            raise ValueError(f"{key} entries are {what} and must lie in "
                             f"[{lo:g}, {hi:g}]")
    # a scan compares distinct members at a weight strictly inside (0, 1)
    for key in ("eps_fracs", "eps_abs"):
        if key in params and len(set(params[key])) < 2:
            raise ValueError(f"{key} needs two distinct sizes")
    if "lambdas" in params and not any(0 < v < 1 for v in params["lambdas"]):
        raise ValueError("lambdas needs a weight strictly inside (0, 1)")
    if "eps_fracs" in params and "eps_abs" in params:
        raise ValueError("give eps_fracs or eps_abs, not both")
    # a base sets the body, so an R beside it would only label the result
    if "R" in params and "base" in params:
        raise ValueError("give R or base, not both")
    if kind == "polygon_agreement" and params.get("n", 2) != 2:
        raise ValueError("polygon_agreement is planar: n must be 2")
    name = params.get("psi_name", "psi")   # check ids hold no whitespace
    if not (isinstance(name, str) and name.split() == [name]):
        raise ValueError("psi_name must be a non-empty string without "
                         "whitespace")
    unknown = sorted(set(params) - _KEYS[kind])
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} for {kind} (accepted: "
                         f"{', '.join(sorted(_KEYS[kind]))})")


def run_check(kind, params):
    """The CheckResult of the check kind on params, checked by
    check_params, in the open run table or in one for this call."""
    check_params(kind, params)
    with _run_table():
        return CHECKS[kind](params)


def rerun(result):
    """Re-execute a check from its stored parameters (run_check)."""
    if isinstance(result, CheckResult):
        return run_check(result.kind, result.params)
    return run_check(result["kind"], result["params"])
