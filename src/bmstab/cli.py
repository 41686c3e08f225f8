"""Command-line entry point.

Subcommands:

  run                execute a battery of checks from a JSON config (or the
                     built-in default battery) and write report.csv /
                     report.json (optionally margins.svg)
  verify-identities  run only the exact-identity residual checks
  demo-shift         the shifted-disk counterexample with all oracles
  list-checks        enumerate registered check kinds

Exit codes: 0 all checks passed (expected failures count as passes when the
failure materializes), 1 configuration error, 2 at least one check failed."""

import argparse
import csv
import json
import math
import sys
from collections import Counter
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .inequalities import (CHECKS, CSV_FIELDS, _run_table, check_params,
                           run_check)

SCHEMA_VERSION = 1

STATUS_COLORS = {"PASS": "#2a8f4e", "XFAIL": "#d69408", "FAIL": "#c03030"}


class ConfigError(ValueError):
    pass


def _numpy_json(x):
    # json's default= hook: numpy scalars and arrays as Python values
    # (np.float64 is a float and never reaches here)
    if isinstance(x, (np.generic, np.ndarray)):
        return x.tolist()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# default battery
# ---------------------------------------------------------------------------

LEB = {"kind": "lebesgue"}
GAU = {"kind": "gaussian"}
EP1 = {"kind": "exp_power", "p": 1}
EP3 = {"kind": "exp_power", "p": 3}

PSI = {
    "constant": {"type": "constant", "value": 1.0},
    "first_harmonic": {"type": "first_harmonic"},
    "second_harmonic": {"type": "second_harmonic"},
    "random_even": {"type": "random_even", "seed": 20240817,
                    "amplitude": 1.0},
}

_RES = {2: 160, 3: 16, 4: 10}


def _perturbed_base(eps):
    return {"type": "sum", "parts": [
        [1.0, {"type": "constant", "value": 1.0}],
        [eps, {"type": "second_harmonic"}]]}


def _ball_check(kind, n, R, mu, psi_name):
    """A check along the direction PSI[psi_name] at the ball of radius R."""
    return {"kind": kind,
            "params": {"n": n, "R": R, "measure": mu, "resolution": _RES[n],
                       "psi": PSI[psi_name], "psi_name": psi_name}}


def identity_battery():
    checks = []
    for n in (2, 3):
        for R in (0.5, 1.0, 2.0):
            for mu in (LEB, GAU, EP1, EP3):
                checks.append({"kind": "moment_identities",
                               "params": {"n": n, "R": R, "measure": mu}})
    bases = {
        2: {"type": "sum", "parts": [
            [1.0, {"type": "constant", "value": 1.0}],
            [0.05, {"type": "cos_harmonic", "k": 3}]]},
        3: {"type": "poly", "terms": [[[0, 0, 0], 1.0], [[1, 1, 0], 0.15],
                                      [[2, 0, 0], 0.1]]},
        4: {"type": "poly", "terms": [[[0, 0, 0, 0], 1.0],
                                      [[1, 1, 0, 0], 0.1]]},
    }
    for n in (2, 3, 4):
        checks.append({"kind": "divergence_identities",
                       "params": {"n": n, "resolution": _RES[n],
                                  "base": bases[n],
                                  "psi": {"type": "first_harmonic"},
                                  "omega": {"type": "second_harmonic"}}})
    return checks


def default_battery():
    checks = identity_battery()
    for n in (2, 3):
        for mu in (LEB, GAU, EP3):
            for name in PSI:
                checks.append(_ball_check("dim_bm_infinitesimal", n, 1.0, mu,
                                          name))
                if name != "first_harmonic":
                    checks.append(_ball_check("log_bm_infinitesimal", n, 1.0,
                                              mu, name))
    for n in (2, 3, 4):
        for R in (0.7, 1.0, 1.5):
            for mu in (LEB, GAU, EP3):
                checks.append({"kind": "ball_dilation",
                               "params": {"n": n, "R": R, "measure": mu}})
    for n in (2, 3):
        for mu in (LEB, GAU):
            checks.append(_ball_check("scan_dim_bm", n, 1.0, mu,
                                      "second_harmonic"))
            checks.append(_ball_check("scan_log_bm", n, 1.0, mu,
                                      "random_even"))
    for t in (0.3, 0.6):
        checks.append({"kind": "shift_counterexample",
                       "params": {"t": t, "resolution": 256}})
    ball = PSI["constant"]
    for n, base, name in ((2, ball, "constant"),
                          (2, ball, "second_harmonic"),
                          (2, ball, "random_even"),
                          (2, _perturbed_base(0.08), "second_harmonic"),
                          (3, ball, "second_harmonic")):
        checks.append({"kind": "cone_inequality",
                       "params": {"n": n, "resolution": _RES[n], "base": base,
                                  "psi": PSI[name], "psi_name": name}})
    for base in (ball, _perturbed_base(0.1)):
        checks.append({"kind": "polygon_agreement",
                       "params": {"n": 2, "resolution": 160, "base": base,
                                  "polygon_directions": 720}})
    shifted3 = {"type": "poly",
                "terms": [[[0, 0, 0], 1.0], [[0, 0, 1], 0.3]]}
    for n, base, seed in ((2, _perturbed_base(0.1), 2024),
                          (3, shifted3, 2025)):
        checks.append({"kind": "mc_agreement",
                       "params": {"n": n, "resolution": _RES[n],
                                  "measure": GAU, "base": base,
                                  "mc_samples": 1 << 17, "seed": seed}})
    return checks


def default_config():
    return {"schema_version": SCHEMA_VERSION, "checks": default_battery()}


# ---------------------------------------------------------------------------
# config validation and execution
# ---------------------------------------------------------------------------

def validate_config(cfg):
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, "
            f"got {cfg.get('schema_version')!r}")
    checks = cfg.get("checks")
    if not isinstance(checks, list) or not checks:
        raise ConfigError("config needs a non-empty 'checks' list")
    for i, item in enumerate(checks):
        if not isinstance(item, dict) or "kind" not in item:
            raise ConfigError(f"checks[{i}] must be an object with a 'kind'")
        try:
            check_params(item["kind"], item.get("params", {}))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"checks[{i}]: {exc.args[0]}")
    return cfg


def execute(cfg, log=print):
    """The CheckResults of the config's checks, in order, each logged as it
    finishes.  The run holds one run table: each support function and
    measure a spec names is built once, and consecutive checks on one grid
    share its polynomials' bundles at the nodes.  Nothing built is kept
    once the call returns, so every run pays for what it builds."""
    validate_config(cfg)
    results = []
    with _run_table():
        for item in cfg["checks"]:
            kind = item["kind"]
            params = item.get("params", {})
            try:
                res = run_check(kind, params)
            except KeyError as exc:
                raise ConfigError(f"check {kind} with params {params!r}: "
                                  f"missing parameter {exc}")
            # FamilyError, NonPositiveSupport and NotConvex are ValueErrors
            except (ValueError, TypeError) as exc:
                raise ConfigError(
                    f"check {kind} with params {params!r}: {exc}")
            results.append(res)
            log(f"[{res.status}] {res.check_id}  margin={res.margin:+.6e}")
    return results


# ---------------------------------------------------------------------------
# report writers
# ---------------------------------------------------------------------------

def write_csv(path, results):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for res in results:
            writer.writerow(res.to_row())


def write_json(path, results):
    counts = Counter(r.status for r in results)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "created": datetime.now(timezone.utc).isoformat(),
        "package_version": __version__,
        "summary": {
            "total": len(results),
            "passed": counts["PASS"] + counts["XFAIL"],
            "failed": counts["FAIL"],
            "expected_failures": counts["XFAIL"],
        },
        "checks": [asdict(r) for r in results],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=_numpy_json)
        fh.write("\n")


def _symlog(x):
    return math.copysign(math.log10(1.0 + abs(x) / 1e-12), x)


def write_svg(path, results):
    """Margins bar chart; pure hand-rolled SVG, no external assets."""
    rows = sorted(results, key=lambda r: r.margin)
    width, rh, left = 900, 16, 430
    height = rh * len(rows) + 40
    span = max((abs(_symlog(r.margin)) for r in rows), default=1.0) or 1.0
    scale = (width - left - 20) / (2.0 * span)
    mid = left + (width - left - 20) / 2.0
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" font-family="monospace" font-size="11">']
    out.append(f'<line x1="{mid:.1f}" y1="20" x2="{mid:.1f}" '
               f'y2="{height - 20}" stroke="#888" stroke-width="1"/>')
    out.append(f'<text x="{mid:.1f}" y="14" text-anchor="middle" '
               f'fill="#444">margin = 0 (symlog scale)</text>')
    for i, r in enumerate(rows):
        y = 24 + i * rh
        v = _symlog(r.margin) * scale
        x0, x1 = (mid + v, mid) if v < 0 else (mid, mid + v)
        label = r.check_id if len(r.check_id) <= 62 else r.check_id[:59] + "..."
        # escaped after the cut, so that no entity is cut in half
        # (xml.sax.saxutils.escape would import urllib.request: 5 MiB)
        label = (label.replace("&", "&amp;").replace("<", "&lt;")
                 .replace(">", "&gt;"))
        out.append(f'<rect x="{x0:.2f}" y="{y:.1f}" '
                   f'width="{max(x1 - x0, 0.75):.2f}" height="{rh - 4}" '
                   f'fill="{STATUS_COLORS[r.status]}"/>')
        out.append(f'<text x="4" y="{y + rh - 6:.1f}" fill="#222">'
                   f'{label}</text>')
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _report(args):
    """Every report-writing subcommand: args.make_config's config through
    execute, then args.table (if any) and the reports in args.out."""
    results = execute(args.make_config(args))
    if args.table:
        args.table(results)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(outdir / "report.csv", results)
    write_json(outdir / "report.json", results)
    if args.svg:
        write_svg(outdir / "margins.svg", results)
    n_fail = sum(r.status == "FAIL" for r in results)
    print(f"\n{len(results)} checks, {len(results) - n_fail} passed, "
          f"{n_fail} failed -> {outdir}/report.csv")
    return 2 if n_fail else 0


def _run_config(args):
    if not args.config:
        return default_config()
    try:
        with open(args.config) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")


def _identity_config(_args):
    return {"schema_version": SCHEMA_VERSION, "checks": identity_battery()}


def _shift_config(args):
    return {"schema_version": SCHEMA_VERSION, "checks": [
        {"kind": "shift_counterexample",
         "params": {"t": t, "resolution": args.resolution}}
        for t in args.t]}


def _shift_table(results):
    print("\nshifted-disk geometric mean: area deficit against the "
          "half-and-half chord")
    print(f"{'t':>5} {'area':>12} {'closed form':>12} {'polygon':>12} "
          f"{'log-margin':>12}")
    for r in results:
        d = r.details
        print(f"{r.params['t']:>5} {d['area_geometric_mean']:>12.8f} "
              f"{d['area_closed_form']:>12.8f} {d['area_polygon']:>12.8f} "
              f"{r.margin:>+12.6f}")


def cmd_list_checks(_args):
    for kind in sorted(CHECKS):
        doc = (CHECKS[kind].__doc__ or "").strip().splitlines()
        first = doc[0] if doc else ""
        print(f"{kind:28s} {first}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="bmstab",
        description="Numerical verification of concavity inequalities for "
                    "measures of convex bodies near the ball.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--out", default="bmstab-report",
                        help="output directory (default: bmstab-report)")
    report.add_argument("--svg", action="store_true",
                        help="also write margins.svg")
    report.set_defaults(func=_report, table=None)

    pr = sub.add_parser("run", parents=[report],
                        help="run a battery of checks")
    pr.add_argument("--config", help="JSON config (default: built-in battery)")
    pr.set_defaults(make_config=_run_config)

    pv = sub.add_parser("verify-identities", parents=[report],
                        help="run the exact-identity residual checks")
    pv.set_defaults(make_config=_identity_config)

    pd = sub.add_parser("demo-shift", parents=[report],
                        help="shifted-disk counterexample demonstration")
    pd.add_argument("--t", type=float, nargs="+", default=[0.3, 0.6])
    pd.add_argument("--resolution", type=int, default=256)
    pd.set_defaults(make_config=_shift_config, table=_shift_table)

    pl = sub.add_parser("list-checks", help="list registered check kinds")
    pl.set_defaults(func=cmd_list_checks)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
