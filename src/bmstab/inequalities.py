"""Inequality margins near the ball, with independent cross-checks.

Every check consumes a JSON-safe parameter dictionary and produces a
CheckResult carrying the computed margin, the pass decision at an explicit
tolerance, and the disagreement against whichever independent route is
available (finite differences, closed forms, Monte Carlo, polygons).  Every
pass decision is made by `_result`, from the margin's sense.  The registry
at the bottom lets any result be re-run from its stored parameters; reruns
are deterministic."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import measures as _measures
from . import oracles as _oracles
from . import variation as _variation
from .bodies import (body_from_support, log_combine, make_family,
                     measure_of_body, quermassintegrals)
from .funcspecs import sf_from_spec
from .sphere import build_grid, sphere_area
from .variation import variation_at_ball

DEFAULT_MARGIN_TOL = 1e-9

_GRIDS: dict = {}


def _grid(n, resolution):
    key = (int(n), int(resolution))
    if key not in _GRIDS:
        _GRIDS[key] = build_grid(*key)
    return _GRIDS[key]


def _measure_name(mu):
    d = mu.describe()
    kind = d.pop("kind")
    if not d:
        return kind
    inner = ",".join(f"{k}={v!r}" for k, v in sorted(d.items()))
    return f"{kind}({inner})"


@dataclass
class CheckResult:
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

    def to_row(self):
        """Flat record for tabular reports."""
        p = self.params
        return {
            "check_id": self.check_id,
            "kind": self.kind,
            "n": self.n,
            "R": "" if self.R is None else repr(float(self.R)),
            "measure": self.measure,
            "eps1": repr(p["eps1"]) if "eps1" in p else "",
            "eps2": repr(p["eps2"]) if "eps2" in p else "",
            "lambda": repr(p["lambda"]) if "lambda" in p else "",
            "margin": repr(float(self.margin)),
            "tol": repr(float(self.tol)),
            "passed": str(bool(self.passed)),
            "expected_failure": str(bool(self.expected_failure)),
            "oracle_diff": ("" if self.oracle_diff is None
                            else repr(float(self.oracle_diff))),
            "seed": str(p.get("seed", "")),
        }


def _mk_id(kind, params):
    bits = [kind]
    for key in ("n", "R", "measure", "psi_name", "family", "t", "seed",
                "resolution"):
        if key in params and params[key] is not None:
            v = params[key]
            if isinstance(v, dict):
                v = v.get("kind", "?")
            bits.append(f"{key}={v}")
    return "|".join(bits)


def _result(kind, params, n, measure, margin, tol, sense, *, R=None,
            expected_failure=False, extra_ok=True, oracle_diff=None,
            details=None):
    """The one pass rule.  sense "ge" asserts margin >= 0 and holds at
    margin >= -tol; "le" asserts margin <= 0 and holds at margin <= tol.
    An expected failure holds at margin <= -tol, whatever the sense.
    extra_ok carries a check's further conditions (closed-form and
    polygon gaps)."""
    if expected_failure:
        ok = margin <= -tol
    elif sense == "ge":
        ok = margin >= -tol
    else:
        ok = margin <= tol
    return CheckResult(
        check_id=_mk_id(kind, params), kind=kind, n=n, measure=measure,
        margin=margin, tol=tol, passed=bool(ok and extra_ok), params=params,
        R=R, expected_failure=expected_failure, oracle_diff=oracle_diff,
        details={**(details or {}), "sense": sense})


def _psi(params, n):
    return sf_from_spec(params["psi"], n)


def _expected_failure(params, psi, statement):
    """The expect_failure flag, which a direction that is not even must
    carry: the statement is asserted for even directions only."""
    expected_failure = bool(params.get("expect_failure", False))
    if psi.parity() != "even" and not expected_failure:
        raise ValueError(f"{statement} asserted for even directions; "
                         "pass expect_failure for odd ones")
    return expected_failure


def _at_ball(params):
    """(n, R, grid, measure, psi, variation) for a direction at a centered
    ball."""
    n = params["n"]
    R = float(params["R"])
    g = _grid(n, params["resolution"])
    mu = _measures.measure_from_spec(params["measure"])
    psi = _psi(params, n)
    return n, R, g, mu, psi, variation_at_ball(mu, R, psi, g)


def _fd_gap(fam, mu, g2, floor):
    """Finite-difference g''(0) of s -> gamma(K_s) along the family, and its
    relative gap to g2; the floor keeps a zero g2 from comparing against
    cancellation noise alone."""
    fd2 = _oracles.central_derivative(
        lambda s: fam.measures_along(mu, s), 0.0, order=2,
        step=1e-2 * min(1.0, fam.a / 4.0))
    return fd2, abs(g2 - fd2) / max(abs(g2), abs(fd2), floor)


def _ball_form_gap(margin, raw, lhs, rhs, R, n):
    """The variation-route margin raw normalized by |S|^2 R^{2n-2}, and its
    gap to the ball-form margin lhs - rhs relative to the larger side."""
    normalized = raw / (sphere_area(n) ** 2 * R ** (2 * n - 2))
    return normalized, abs(margin - normalized) / max(abs(lhs), abs(rhs), 1.0)


def _polygon(h, m):
    """Circumscribed polygon of the support h at m equally spaced planar
    directions."""
    ang = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
    dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    return _oracles.wulff_polygon(dirs, h.values(dirs))


# ---------------------------------------------------------------------------
# infinitesimal checks at a centered ball
# ---------------------------------------------------------------------------

def check_dim_bm_infinitesimal(params):
    """(1 - 1/n) g'(0)^2 - g''(0) g(0) >= 0 along h_s = R + s psi.

    The margin is divided by g(0)^2, so it reads -n (g^{1/n})'' / g^{1/n}
    at s = 0: zero, up to rounding, along translations."""
    n, R, g, mu, psi, var = _at_ball(params)
    raw = (n - 1) / n * var.g1 ** 2 - var.g2 * var.g0
    margin = raw / var.g0 ** 2

    fam = make_family("additive", sf_from_spec(
        {"type": "constant", "value": R}, n), psi, g)
    floor = 1e-2 * max(1.0, abs(var.g0))
    fd2, fd_rel = _fd_gap(fam, mu, var.g2, floor)
    route = var.route_gap / max(abs(var.g2), floor)
    return _result(
        "dim_bm_infinitesimal", params, n, _measure_name(mu), margin,
        params.get("tol", DEFAULT_MARGIN_TOL), "ge", R=R,
        oracle_diff=max(route, fd_rel),
        details={"g0": var.g0, "g1": var.g1, "g2": var.g2,
                 "g2_profile": var.g2_profile, "g2_fd": fd2,
                 "raw_margin": raw, "psi_parity": psi.parity(),
                 "validity_radius": fam.a})


def check_log_bm_infinitesimal(params):
    """g'(0)^2 - g''_mult(0) g(0) >= 0 (concavity of log gamma along the
    geometric family through the ball); stated for even directions."""
    n, R, g, mu, psi, var = _at_ball(params)
    expected_failure = _expected_failure(
        params, psi, "log concavity at the ball is")
    margin = (var.g1 ** 2 - var.g2_mult * var.g0) / var.g0 ** 2

    ball_sf = sf_from_spec({"type": "constant", "value": R}, n)
    fam = _variation.mult_family_through(ball_sf, psi, g)
    fd2, fd_rel = _fd_gap(fam, mu, var.g2_mult,
                          1e-2 * max(1.0, abs(var.g0)))
    return _result(
        "log_bm_infinitesimal", params, n, _measure_name(mu), margin,
        params.get("tol", DEFAULT_MARGIN_TOL), "ge", R=R,
        expected_failure=expected_failure, oracle_diff=fd_rel,
        details={"g0": var.g0, "g1": var.g1, "g2_mult": var.g2_mult,
                 "g2_mult_fd": fd2, "log_corr": var.log_corr,
                 "psi_parity": psi.parity()})


def check_dim_bm_decomposition(params):
    """Split of the dimensional margin into the two named quadratic forms:

        B1 = (A f / |S|) ((n-1) I2 - J2) + (A R f' / |S|) I2,
        B2 = ((n-1)/n) f^2 (I0 / |S|)^2,

    margin = B2 - B1 >= 0; cross-checked against the variation route, which
    it must reproduce up to rounding after normalizing by |S|^2 R^{2n-2}."""
    n, R, g, mu, psi, var = _at_ball(params)
    S = sphere_area(n)
    A, fR, fpR = var.A, var.fR, var.fpR
    I0, I2, J2 = var.int_psi, var.int_psi_sq, var.int_grad_sq
    B1 = (A * fR / S) * ((n - 1) * I2 - J2) + (A * R * fpR / S) * I2
    B2 = (n - 1) / n * fR ** 2 * (I0 / S) ** 2
    margin = B2 - B1
    normalized, identity_gap = _ball_form_gap(
        margin, (n - 1) / n * var.g1 ** 2 - var.g2 * var.g0, B1, B2, R, n)
    return _result(
        "dim_bm_decomposition", params, n, _measure_name(mu), margin,
        params.get("tol", DEFAULT_MARGIN_TOL), "ge", R=R,
        oracle_diff=identity_gap,
        details={"B1": B1, "B2": B2, "variation_margin_normalized": normalized})


def check_ball_dilation(params):
    """Dimensional concavity along pure dilations: with G(r) = gamma(r B),
    G''(R) G(R) <= (1 - 1/n) G'(R)^2, via closed-form growth derivatives."""
    n = params["n"]
    R = float(params["R"])
    mu = _measures.measure_from_spec(params["measure"])
    G, G1, G2 = _measures.ball_growth_derivatives(mu, R, n)
    margin = (n - 1) / n * G1 ** 2 - G2 * G
    scale = max(G1 ** 2, abs(G2 * G), 1e-30)

    def ball_measures(r):
        return np.array([_measures.ball_measure(mu, ri, n)
                         for ri in np.atleast_1d(r)])

    fd1 = _oracles.central_derivative(ball_measures, R, order=1,
                                      step=1e-3 * R)
    fd2 = _oracles.central_derivative(ball_measures, R, order=2,
                                      step=1e-2 * R)
    floor = 1e-2 * max(1.0, abs(G))
    odiff = max(abs(G1 - fd1) / max(abs(G1), floor),
                abs(G2 - fd2) / max(abs(G2), abs(fd2), floor))
    return _result(
        "ball_dilation", params, n, _measure_name(mu), margin / scale,
        params.get("tol", DEFAULT_MARGIN_TOL), "ge", R=R, oracle_diff=odiff,
        details={"G": G, "G1": G1, "G2": G2, "G1_fd": fd1, "G2_fd": fd2,
                 "raw_margin": margin})


def check_logbm_ball_form(params):
    """Quadratic-form shape of the log concavity margin at the ball:

        A (n f + R f') I2/|S| - A f J2/|S|  <=  f^2 (I0/|S|)^2

    for even directions, split into mean and oscillation contributions."""
    n, R, g, mu, psi, var = _at_ball(params)
    expected_failure = _expected_failure(params, psi,
                                         "the ball-form bound is")
    S = sphere_area(n)
    A, fR, fpR = var.A, var.fR, var.fpR
    I0, I2, J2 = var.int_psi, var.int_psi_sq, var.int_grad_sq
    lhs = A * (n * fR + R * fpR) * I2 / S - A * fR * J2 / S
    rhs = fR ** 2 * (I0 / S) ** 2
    margin = rhs - lhs
    _, identity_gap = _ball_form_gap(
        margin, var.g1 ** 2 - var.g2_mult * var.g0, lhs, rhs, R, n)
    # mean / oscillation split of the direction
    mean = I0 / S
    I2_osc = I2 - mean ** 2 * S
    J2_osc = J2
    contrib_mean = (fR ** 2 - A * (n * fR + R * fpR)) * mean ** 2
    contrib_osc = (A * fR * J2_osc - A * (n * fR + R * fpR) * I2_osc) / S
    # sufficient-condition chain for the oscillation part: spectral gap of
    # the zero-mean component at least 2n, and the profile ratio at least 1/n
    rayleigh_osc = J2_osc / I2_osc if I2_osc > 1e-300 else float("inf")
    profile_ratio = (fR / (n * fR + R * fpR)
                     if abs(n * fR + R * fpR) > 1e-300 else float("inf"))
    case1 = bool(rayleigh_osc >= 2 * n - 1e-8
                 and profile_ratio >= 1.0 / n - 1e-12)
    return _result(
        "logbm_ball_form", params, n, _measure_name(mu), margin,
        params.get("tol", DEFAULT_MARGIN_TOL), "ge", R=R,
        expected_failure=expected_failure, oracle_diff=identity_gap,
        details={"lhs": lhs, "rhs": rhs, "contrib_mean": contrib_mean,
                 "contrib_osc": contrib_osc, "psi_parity": psi.parity(),
                 "rayleigh_osc": rayleigh_osc,
                 "profile_ratio": profile_ratio,
                 "sufficient_condition": case1})


# ---------------------------------------------------------------------------
# scans along perturbation families
# ---------------------------------------------------------------------------

_DEFAULT_EPS_FRACS = (-0.75, -0.5, -0.25, 0.25, 0.5, 0.75)
_DEFAULT_LAMBDAS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _base_sf(params, n):
    if "base" in params:
        return sf_from_spec(params["base"], n)
    return sf_from_spec({"type": "constant", "value": float(params["R"])}, n)


def _scan(kind, params, psi, combine, normalize=False,
          expected_failure=False):
    """combine(gamma(s_bar), gamma(e1), gamma(e2), lambda) for every pair of
    family members e1 <= e2 and every lambda, with s_bar = lambda e1 +
    (1 - lambda) e2; normalize divides by gamma^{1/n} at the member nearest
    s = 0.  The worst margin decides; the lambda in {0, 1} margins, which
    read the same table entry on both sides, give the oracle_diff."""
    n = params["n"]
    g = _grid(n, params["resolution"])
    mu = _measures.measure_from_spec(params["measure"])
    base = _base_sf(params, n)
    if params.get("family", "additive") == "multiplicative":
        fam = _variation.mult_family_through(base, psi, g)
    else:
        fam = make_family("additive", base, psi, g)
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
    combos = []
    svals = set(eps)
    for i, e1 in enumerate(eps):
        for e2 in eps[i:]:
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
    worst = int(np.argmin(margins))
    endpoint = [m for c, m in zip(combos, raw) if c[2] in (0.0, 1.0)]
    return _result(
        kind, params, n, _measure_name(mu), float(margins[worst]),
        params.get("tol", DEFAULT_MARGIN_TOL), "ge", R=params.get("R"),
        expected_failure=expected_failure,
        oracle_diff=max(abs(v) for v in endpoint) if endpoint else None,
        details={"validity_radius": fam.a, "combos": len(combos),
                 "worst": {"eps1": combos[worst][0],
                           "eps2": combos[worst][1],
                           "lambda": combos[worst][2]},
                 "psi_parity": psi.parity()})


def check_scan_dim_bm(params):
    """Dimensional concavity along a family: for support combinations of two
    members, gamma^{1/n} is at least the chord value.  lambda in {0, 1}
    must give a bitwise-zero margin (same table entry on both sides)."""
    n = params["n"]
    if params.get("family", "additive") != "additive":
        raise ValueError("dimensional scans combine additively")

    def combine(g_bar, g1, g2, lam):
        return (g_bar ** (1.0 / n)
                - lam * g1 ** (1.0 / n) - (1.0 - lam) * g2 ** (1.0 / n))

    return _scan("scan_dim_bm", params, _psi(params, n), combine,
                 normalize=True)


def check_scan_log_bm(params):
    """Log concavity along a multiplicative family: log gamma at the
    geometric combination dominates the chord, for even directions on a
    symmetric base."""
    params = dict(params)
    params.setdefault("family", "multiplicative")
    if params["family"] != "multiplicative":
        raise ValueError("log scans combine geometrically")
    psi = _psi(params, params["n"])
    expected_failure = _expected_failure(params, psi, "log scans are")

    def combine(g_bar, g1, g2, lam):
        return (math.log(g_bar)
                - lam * math.log(g1) - (1.0 - lam) * math.log(g2))

    return _scan("scan_log_bm", params, psi, combine,
                 expected_failure=expected_failure)


# ---------------------------------------------------------------------------
# shifted-ball counterexample (planar, lebesgue)
# ---------------------------------------------------------------------------

def check_shift_counterexample(params):
    """Geometric mean of a shifted disk and the unit disk loses area:

        area = pi - (pi/4) (1 - sqrt(1 - t^2)) < pi,

    so the log-concavity margin log area(K_g) - (log area(K_1) + log
    area(K_2))/2 >= 0 fails once the center moves: symmetry matters.  The
    closed form, the quadrature area, the polygonal area, and (optionally)
    Monte Carlo must all agree."""
    t = float(params["t"])
    if not 0.0 < t < 1.0:
        raise ValueError("shift parameter must lie in (0, 1)")
    n = 2
    g = _grid(n, params["resolution"])
    mu = _measures.measure_from_spec(params.get("measure",
                                                {"kind": "lebesgue"}))
    if mu.kind != "lebesgue":
        raise ValueError("the closed form is for unweighted area")
    h1 = sf_from_spec({"type": "sum", "parts": [
        [1.0, {"type": "constant", "value": 1.0}],
        [t, {"type": "first_harmonic"}]]}, n)
    h2 = sf_from_spec({"type": "constant", "value": 1.0}, n)
    K1 = body_from_support(h1, g)
    K2 = body_from_support(h2, g)
    Kg = log_combine(K1, K2, 0.5)
    a1 = measure_of_body(mu, K1)
    a2 = measure_of_body(mu, K2)
    ag = measure_of_body(mu, Kg)
    margin = math.log(ag) - 0.5 * (math.log(a1) + math.log(a2))
    closed = math.pi - (math.pi / 4.0) * (1.0 - math.sqrt(1.0 - t * t))
    closed_gap = abs(ag - closed) / closed

    poly = _polygon(Kg.h, int(params.get("polygon_directions", 1440)))
    poly_gap = abs(poly.area - closed) / closed

    details = {"area_geometric_mean": ag, "area_closed_form": closed,
               "area_polygon": poly.area, "deficit": math.pi - ag}
    odiff = max(closed_gap, poly_gap)
    if params.get("mc_samples"):
        est = _oracles.mc_measure(mu, Kg, n_samples=int(params["mc_samples"]),
                                  seed=int(params.get("seed", 2024)))
        details["area_mc"] = est.value
        details["area_mc_stderr"] = est.stderr
        details["mc_z"] = (est.value - closed) / est.stderr
        if not est.agrees_with(closed):
            odiff = max(odiff, abs(est.value - closed))
    return _result(
        "shift_counterexample", params, n, _measure_name(mu), margin,
        params.get("tol", 1e-6), "ge", R=1.0, expected_failure=True,
        extra_ok=closed_gap < 1e-8 and poly_gap < 1e-4, oracle_diff=odiff,
        details=details)


# ---------------------------------------------------------------------------
# cone-measure form
# ---------------------------------------------------------------------------

def check_cone_inequality(params):
    """Normalized cone weight dVbar = h det Q du / (n V_n(K)).  For even
    directions on a symmetric body:

      int psi^2 (1 + h tr Q^{-1}) / h^2 dVbar - n (int psi/h dVbar)^2
          <=  int <Q^{-1} grad psi, grad psi> / h dVbar.

    details carry the always-true Cauchy-Schwarz margin and the weaker
    margin with the square of the mean replaced by the mean square."""
    n = params["n"]
    g = _grid(n, params["resolution"])
    psi = _psi(params, n)
    expected_failure = _expected_failure(params, psi,
                                         "the cone-measure bound is")
    body = body_from_support(_base_sf(params, n), g)
    w = g.weights
    h = body.hvals
    Q = body.curvature.Q
    det = body.curvature.det
    vol = quermassintegrals(body)[n]
    cone_w = w * h * det / (n * vol)
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
        "cone_inequality", params, n, "cone", margin,
        params.get("tol", DEFAULT_MARGIN_TOL), "ge", R=params.get("R"),
        expected_failure=expected_failure,
        oracle_diff=abs(weight_total - 1.0),
        details={"lhs": lhs, "rhs": rhs, "cs_margin": cs_margin,
                 "weak_margin": weak_margin, "weight_total": weight_total,
                 "psi_parity": psi.parity()})


# ---------------------------------------------------------------------------
# oracle agreement checks
# ---------------------------------------------------------------------------

def check_mc_agreement(params):
    """Quadrature measure of a body against the Monte Carlo estimate;
    margin is the z-score gap 4 - |z|."""
    n = params["n"]
    g = _grid(n, params["resolution"])
    mu = _measures.measure_from_spec(params["measure"])
    body = body_from_support(_base_sf(params, n), g)
    value = measure_of_body(mu, body)
    est = _oracles.mc_measure(mu, body,
                              n_samples=int(params.get("mc_samples", 1 << 18)),
                              seed=int(params.get("seed", 2024)))
    z = (est.value - value) / est.stderr if est.stderr > 0 else 0.0
    return _result(
        "mc_agreement", params, n, _measure_name(mu), 4.0 - abs(z), 0.0,
        "ge", R=params.get("R"), oracle_diff=abs(est.value - value),
        details={"quadrature": value, "mc": est.value,
                 "mc_stderr": est.stderr, "z": z, "samples": est.samples,
                 "refined": est.refined})


def check_polygon_agreement(params):
    """Planar area from the curvature route against the exact circumscribed
    polygon at m directions; the polygon is larger by O(1/m^2)."""
    n = 2
    g = _grid(n, params["resolution"])
    body = body_from_support(_base_sf(params, n), g)
    area = quermassintegrals(body)[2]
    m = int(params.get("polygon_directions", 720))
    poly = _polygon(body.h, m)
    gap = poly.area - area
    return _result(
        "polygon_agreement", params, n, "lebesgue", gap,
        params.get("tol", 1e-4), "le", R=params.get("R"),
        extra_ok=gap >= 0.0, oracle_diff=abs(gap),
        details={"area_quadrature": area, "area_polygon": poly.area,
                 "directions": m, "vertices": len(poly.vertices)})


# ---------------------------------------------------------------------------
# identity residual checks
# ---------------------------------------------------------------------------

def check_moment_identities(params):
    """Residuals of f(D) = n A + D B and f'(D) = (n+1) B + D C."""
    n = params["n"]
    R = float(params["R"])
    mu = _measures.measure_from_spec(params["measure"])
    r1, r2 = _measures.moment_identities(mu, R, n)
    return _result(
        "moment_identities", params, n, _measure_name(mu),
        max(abs(r1), abs(r2)), params.get("tol", 1e-10), "le", R=R,
        details={"residual_value": r1, "residual_slope": r2})


def check_divergence_identities(params):
    """Pointwise divergence-free residual of the cofactor rows plus the two
    integration-by-parts symmetries, for a polynomial support function."""
    n = params["n"]
    g = _grid(n, params["resolution"])
    base = _base_sf(params, n)
    omega = sf_from_spec(params["omega"], n)
    cy = _variation.cheng_yau_residual(base, g)
    r1, r2 = _variation.ibp_residuals(base, _psi(params, n), omega, g)
    return _result(
        "divergence_identities", params, n, "none", max(cy, r1, r2),
        params.get("tol", 1e-11), "le", R=params.get("R"),
        details={"cofactor_divergence": cy, "ibp_linear": r1,
                 "ibp_trilinear": r2})


def check_second_variation_routes(params):
    """Agreement of the moment-route and profile-route second variations at
    the ball (these use disjoint measure data)."""
    n, R, g, mu, psi, var = _at_ball(params)
    rel = var.route_gap / max(abs(var.g2_moment), abs(var.g2_profile), 1e-30)
    return _result(
        "second_variation_routes", params, n, _measure_name(mu), rel,
        params.get("tol", 1e-10), "le", R=R,
        details={"g2_moment": var.g2_moment, "g2_profile": var.g2_profile})


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

CHECKS = {
    "dim_bm_infinitesimal": check_dim_bm_infinitesimal,
    "log_bm_infinitesimal": check_log_bm_infinitesimal,
    "dim_bm_decomposition": check_dim_bm_decomposition,
    "ball_dilation": check_ball_dilation,
    "logbm_ball_form": check_logbm_ball_form,
    "scan_dim_bm": check_scan_dim_bm,
    "scan_log_bm": check_scan_log_bm,
    "shift_counterexample": check_shift_counterexample,
    "cone_inequality": check_cone_inequality,
    "mc_agreement": check_mc_agreement,
    "polygon_agreement": check_polygon_agreement,
    "moment_identities": check_moment_identities,
    "divergence_identities": check_divergence_identities,
    "second_variation_routes": check_second_variation_routes,
}


def run_check(kind, params):
    if kind not in CHECKS:
        raise KeyError(f"unknown check kind {kind!r}")
    return CHECKS[kind](params)


def rerun(result):
    """Re-execute a check from its stored parameters."""
    if isinstance(result, CheckResult):
        return run_check(result.kind, result.params)
    return run_check(result["kind"], result["params"])
