"""One workload in one process: set up, run whole rounds, verify, report.

    python3 perfbench/child.py WORKLOAD SEED SECONDS MODE SPAWN_TIME OUT [smoke]

MODE is `setup` (stop after set-up), `run` (rounds until SECONDS have
passed, at least the workload's minimum) or `trace` (the minimum number of
rounds, with every layer traced).  SPAWN_TIME is the parent's
time.monotonic() just before it started this process, so set-up time counts
the interpreter and the imports.  The result goes to OUT as JSON."""

import json
import resource
import statistics
import sys
import time


def main(argv):
    name, seed, seconds, mode, spawned, out = argv[:6]
    smoke = argv[6:] == ["smoke"]

    import workloads
    import tracer as tracing

    tracer = None
    if mode == "trace":
        tracer = tracing.Tracer()
        tracing.install(tracer)
    wl = workloads.WORKLOADS[name](int(seed), smoke=smoke)
    wl.setup()
    setup_s = time.monotonic() - float(spawned)
    result = {"setup_s": setup_s}
    if mode != "setup":
        rounds, timings = _rounds(wl, float(seconds), tracer)
        if tracer is not None:
            tracer.active = False       # the checks below are not the workload
        errors, failed = wl.verify(rounds)
        result.update(timings, errors=errors, failed=failed)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = {k: dict(v) for k, v in tracer.stats.items()}
        workloads.OUT.mkdir(exist_ok=True)
        tracer.write_spans(workloads.OUT / f"trace-{name}.jsonl")
    with open(out, "w") as fh:
        json.dump(result, fh)


def _rounds(wl, seconds, tracer):
    rounds, round_s, cpu_s = [], [], []
    t_start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.round = len(rounds)
        c0, t0 = time.process_time(), time.perf_counter()
        rounds.append(wl.run_round())
        round_s.append(time.perf_counter() - t0)
        cpu_s.append(time.process_time() - c0)
        if len(rounds) >= wl.min_rounds and (
                tracer is not None or time.perf_counter() - t_start >= seconds):
            break
    per_op = [statistics.median(op.seconds for op in ops) for ops in zip(*rounds)]
    return rounds, {"rounds": len(rounds), "round_s": round_s, "cpu_s": cpu_s,
                    "op_s": per_op, "attempted": sum(len(r) for r in rounds)}


if __name__ == "__main__":
    main(sys.argv[1:])
