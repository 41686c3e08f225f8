#!/usr/bin/env python3
"""Benchmark of bmstab, run from the root of a source checkout:

    python3 perfbench/run.py --workload battery --seed 1 --seconds 10 --trace 0

Each workload runs in fresh child processes with the BLAS and OpenMP thread
pools capped at one thread, set before Python starts.  `--trace 0` prints
the end-to-end metrics; `--trace 1` runs the workload once untraced and once
with every layer traced, and prints the per-layer metrics.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  See perfbench/README.md for what each metric means."""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
DEADLINE_S = 170

THREAD_CAP = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}

# Set-up samples per run: a set-up of half a second is mostly imports, whose
# time jitters by a quarter between processes.  dense_sweep's set-up searches
# four validity radii (about 15 s), so it is measured once per run.
SETUP_RUNS = {"battery": 5, "family_scan": 5, "dense_sweep": 1, "mc_oracle": 5}

CHECK_KINDS = ("dim_bm_infinitesimal", "log_bm_infinitesimal",
               "dim_bm_decomposition", "ball_dilation", "logbm_ball_form",
               "scan_dim_bm", "scan_log_bm", "shift_counterexample",
               "cone_inequality", "strengthened_minkowski", "mc_agreement",
               "polygon_agreement", "moment_identities",
               "divergence_identities", "second_variation_routes")

# traced span -> the counters reported for it, besides calls and self_s
LAYER_COUNTERS = {
    "sphere.build_grid": ("nodes",),
    "sphere.curvature_matrix": (),
    "measures.radial_profile": ("scales", "unique_scales"),
    "measures.moments": (),
    "bodies.make_family": ("validity_evals", "repeat_share"),
    "bodies.measures_along": ("s_values", "node_evals"),
    "bodies.body_from_support": (),
    "bodies.measure_of_body": (),
    "variation.variation_at_ball": (),
    "oracles.mc_measure": ("samples", "batches", "refined"),
    "oracles.central_derivative": (),
    "oracles.wulff_polygon": (),
}
LAYER_COUNTERS.update({f"inequalities.run_check.{k}": () for k in CHECK_KINDS})


def _child(workload, seed, seconds, mode, smoke, deadline):
    OUT.mkdir(exist_ok=True)
    out = OUT / f"child-{workload}-{mode}-{os.getpid()}.json"
    env = dict(os.environ, **THREAD_CAP, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path.cwd() / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed),
           str(seconds), mode, repr(time.monotonic()), str(out)]
    if smoke:
        cmd.append("smoke")
    # the child's own output goes to stderr: stdout ends with the result
    subprocess.run(cmd, env=env, stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    try:
        return json.loads(out.read_text())
    finally:
        out.unlink()


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(args, deadline):
    setups = [_child(args.workload, args.seed, 0, "setup", args.smoke, deadline)["setup_s"]
              for _ in range(SETUP_RUNS[args.workload] - 1)]
    main = _child(args.workload, args.seed, args.seconds, "run", args.smoke, deadline)
    setups.append(main["setup_s"])
    metrics = {
        "wall_s": (statistics.median(main["round_s"]), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (main["peak_rss_mib"], "MiB"),
        "check_p90_s": (_p90(main["op_s"]), "s"),
    }
    return main, metrics, main["errors"]


def per_layer(args, deadline):
    plain = _child(args.workload, args.seed, args.seconds, "run", args.smoke, deadline)
    traced = _child(args.workload, args.seed, 0, "trace", args.smoke, deadline)
    layers = traced["layers"]

    def stat(span, key):
        return layers.get(span, {}).get(key, 0)

    metrics = {}
    for span, counters in LAYER_COUNTERS.items():
        metrics[f"{span}.calls"] = (int(stat(span, "calls")), "count")
        for c in counters:
            if c == "repeat_share":
                calls = stat(span, "calls")
                metrics[f"{span}.{c}"] = (stat(span, "repeats") / calls if calls else 0.0, "share")
            else:
                metrics[f"{span}.{c}"] = (int(stat(span, c)), "count")
        metrics[f"{span}.self_s"] = (stat(span, "self_s"), "s")
    writers = ("cli.write_csv", "cli.write_json", "cli.write_svg")
    metrics["cli.execute.s"] = (stat("cli.execute", "total_s"), "s")
    metrics["cli.write_reports.self_s"] = (sum(stat(w, "self_s") for w in writers), "s")
    metrics["cli.report_bytes"] = (int(sum(stat(w, "bytes") for w in writers)), "bytes")
    metrics["process.cpu_s"] = (statistics.median(plain["cpu_s"]), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced["round_s"])
                                   - statistics.median(plain["round_s"]), "s")
    return plain, metrics, plain["errors"] + traced["errors"]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(SETUP_RUNS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    args = p.parse_args(argv)
    if not (Path.cwd() / "src" / "bmstab" / "__init__.py").is_file():
        print("perfbench: run from the root of a bmstab checkout "
              "(src/bmstab not found)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        counted, metrics, errors = (per_layer if args.trace else end_to_end)(args, deadline)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish within {DEADLINE_S} s",
              file=sys.stderr)
        return 3
    except subprocess.CalledProcessError as exc:
        print(f"perfbench: {args.workload} child exited with {exc.returncode}",
              file=sys.stderr)
        return 4
    for e in errors:
        print(f"perfbench: {args.workload}: {e}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} rounds={counted['rounds']} "
          f"threads={THREAD_CAP['OPENBLAS_NUM_THREADS']} "
          f"attempted={counted['attempted']} failed={counted['failed']} "
          f"round_s={[round(t, 3) for t in counted['round_s']]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    print(json.dumps({
        "correct": not errors, "attempted": counted["attempted"],
        "failed": counted["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
