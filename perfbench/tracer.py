"""Layer spans recorded from outside bmstab, by wrapping its public functions.

`install` replaces every public function of the traced modules, wherever a
bmstab module holds a reference to it, with a wrapper that records a span.
Spans nest: a span's self time is its duration minus the durations of the
spans it caused.  Counters are read from arguments and return values after
the span has closed, and the time spent reading them is removed from every
open span, so they cost the timings nothing.  Spans stay in memory until
`write_spans` is called."""

import functools
import hashlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

TRACED_MODULES = ("sphere", "measures", "bodies", "variation", "oracles",
                  "inequalities", "cli")


def _digest(fn, grid):
    return hashlib.sha1(np.ascontiguousarray(fn.values(grid.nodes)).tobytes()).hexdigest()


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.spans = []
        self._open = []          # [span id, child time] of each open span
        self._hidden = 0.0       # time spent reading counters
        self._family_keys = set()
        self.round = None        # round of the workload the spans belong to
        self.active = True

    def wrap(self, name, fn):
        counters = getattr(self, "_count_" + name.replace(".", "_"), None)
        sig = inspect.signature(fn) if counters else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            parent = self._open[-1][0] if self._open else None
            self.spans.append(None)
            self._open.append([sid, 0.0])
            hidden0, t0 = self._hidden, time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = (time.perf_counter() - t0) - (self._hidden - hidden0)
                child = self._open.pop()[1]
                if self._open:
                    self._open[-1][1] += dur
                st = self.stats[name]
                st["calls"] += 1
                st["total_s"] += dur
                st["self_s"] += dur - child
                self.spans[sid] = {"id": sid, "parent": parent, "round": self.round,
                                   "name": name, "start": t0, "dur": dur}
            if counters:
                c0 = time.perf_counter()
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counters(st, bound.arguments, out)
                self._hidden += time.perf_counter() - c0
            return out

        return traced

    # -- counters ---------------------------------------------------------------

    def _count_sphere_build_grid(self, st, args, out):
        st["nodes"] += out.count

    def _count_measures_radial_profile(self, st, args, out):
        D = np.asarray(args["D"], dtype=float).ravel()
        st["scales"] += D.size
        st["unique_scales"] += np.unique(D).size

    def _count_bodies_make_family(self, st, args, out):
        st["validity_evals"] += len(out.search_trace)
        grid = args["grid"]
        key = (args["kind"], grid.n, grid.count, _digest(args["h"], grid),
               _digest(args["direction"], grid))
        if key in self._family_keys:
            st["repeats"] += 1
        self._family_keys.add(key)

    def _count_bodies_measures_along(self, st, args, out):
        k = np.asarray(args["s_values"]).size
        st["s_values"] += k
        st["node_evals"] += k * args["self"].grid.count

    def _count_oracles_mc_measure(self, st, args, out):
        st["samples"] += out.samples
        st["batches"] += out.batches
        st["refined"] += out.refined

    def _count_cli_write_csv(self, st, args, out):
        st["bytes"] += os.path.getsize(args["path"])

    _count_cli_write_json = _count_cli_write_csv

    # -- output -----------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps(s) + "\n")


def install(tracer):
    """Wrap the public functions of the traced modules and every check kind."""
    import bmstab
    from bmstab import bodies, inequalities

    originals = {}
    for short in TRACED_MODULES:
        mod = sys.modules[f"bmstab.{short}"]
        for name, obj in list(vars(mod).items()):
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            if short == "inequalities" and (name.startswith("check_")
                                            or name in ("run_check", "rerun")):
                continue
            originals[obj] = tracer.wrap(f"{short}.{name}", obj)

    for kind, fn in list(inequalities.CHECKS.items()):
        inequalities.CHECKS[kind] = tracer.wrap(f"inequalities.run_check.{kind}", fn)

    cls = bodies.PerturbationFamily
    cls.measures_along = tracer.wrap("bodies.measures_along", cls.measures_along)

    modules = [bmstab] + [m for k, m in sys.modules.items()
                          if k.startswith("bmstab.") and m is not None]
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in originals:
                setattr(mod, name, originals[obj])
