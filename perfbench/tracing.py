"""Spans around the calls into each ladsysid layer, recorded from outside the package.

Wrappers replace the names the package resolves at call time: ``harness``
binds the estimators in ``_ESTIMATORS`` and imports the ``matgen`` samplers
by name, ``cli`` imports the certifiers and ``strong_threshold`` by name, and
``solver`` and ``cert`` each import ``solve_lp`` by name, so wrapping those
two separately splits LP time by caller.  Spans are kept in memory and
written out once, when the run ends.
"""

from __future__ import annotations

import json
from time import perf_counter

import ladsysid.cert
import ladsysid.cli
import ladsysid.harness
import ladsysid.solver


def _iterations(args, kwargs, out):
    return {"iterations": int(out.iterations)}


def _estimate(args, kwargs, out):
    return {"iterations": int(out.iterations), "status": out.status}


def _vertex_check(args, kwargs, out):
    return {"hit": bool(out)}


def _mc(args, kwargs, out):
    return {"directions": int(kwargs["trials"])}


# (module, attribute or None for the _ESTIMATORS entry, dict key, span name, attrs)
_SITES = [
    (ladsysid.harness, "run_trial", None, "harness.run_trial", None),
    (ladsysid.harness, "emit_csv", None, "harness.emit_csv", None),
    (ladsysid.harness, "sample_input", None, "matgen.sample_input", None),
    (ladsysid.harness, "build_regressor", None, "matgen.build_regressor", None),
    (ladsysid.harness, "sample_noise", None, "matgen.sample_noise", None),
    (ladsysid.harness, "sample_outliers", None, "matgen.sample_outliers", None),
    (ladsysid.harness, None, "lad", "solver.lad", _estimate),
    (ladsysid.harness, None, "ls", "solver.ls", _estimate),
    (ladsysid.solver, "_certify_vertex", None, "solver.vertex_check", _vertex_check),
    (ladsysid.solver, "solve_lp", None, "lp.vertex", _iterations),
    (ladsysid.cert, "solve_lp", None, "lp.cert", _iterations),
    (ladsysid.cli, "certify_support_exact", None, "cert.exact", None),
    (ladsysid.cli, "certify_support_mc", None, "cert.mc", _mc),
    (ladsysid.cli, "strong_threshold", None, "threshold.strong_threshold", None),
]


class Tracer:
    """Records one span per wrapped call: name, parent, operation, start, end, attrs.

    The operation of a span is the id of its outermost enclosing span, so the
    spans of one trial or one certification share an identifier.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, attrs):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            rec = {"id": sid, "name": name, "parent": parent,
                   "op": sid if parent is None else self.spans[parent]["op"]}
            self.spans.append(rec)
            self._stack.append(sid)
            rec["t0"] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec["t1"] = perf_counter()
                self._stack.pop()
            if attrs is not None:
                rec.update(attrs(args, kwargs, out))
            return out
        return traced

    def install(self):
        for module, attr, key, name, attrs in _SITES:
            if attr is None:
                table = module._ESTIMATORS
                self._saved.append((table, key, table[key]))
                table[key] = self._wrap(table[key], name, attrs)
            else:
                self._saved.append((module.__dict__, attr, getattr(module, attr)))
                setattr(module, attr, self._wrap(getattr(module, attr), name, attrs))

    def uninstall(self):
        for table, key, original in reversed(self._saved):
            table[key] = original
        self._saved.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(spans, passes, trials, overhead_pct):
    """Per-layer metrics from the spans of ``passes`` traced passes.

    Counts (calls, pivots, iterations) are per pass; taken from the first
    traced pass alone they repeat exactly for a seed.  Times are per call or
    per unit of work.
    """
    by = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)

    def total_ms(name):
        return sum(s["t1"] - s["t0"] for s in by.get(name, ())) * 1e3

    def count(name):
        return len(by.get(name, ()))

    def attr_sum(name, key):
        return sum(s.get(key, 0) for s in by.get(name, ()))

    def ratio(a, b):
        return a / b if b else 0.0

    matgen_ms = sum(total_ms(n) for n in by if n.startswith("matgen."))
    lad_n, lad_ms = count("solver.lad"), total_ms("solver.lad")
    lad_self_ms = lad_ms - total_ms("lp.vertex")
    pivots = attr_sum("solver.lad", "iterations")
    checks = count("solver.vertex_check")
    exact_n = count("cert.exact")
    metrics = {
        "matgen.draw_ms_per_trial": (ratio(matgen_ms, trials), "ms"),
        "harness.self_ms_per_trial": (ratio(
            total_ms("harness.run_trial") - matgen_ms - lad_ms - total_ms("solver.ls"),
            trials), "ms"),
        "harness.emit_csv_ms": (total_ms("harness.emit_csv") / passes, "ms"),
        "solver.lad_ms_per_solve": (ratio(lad_ms, lad_n), "ms"),
        "solver.lad_self_ms_per_solve": (ratio(lad_self_ms, lad_n), "ms"),
        "solver.lad_pivots_per_solve": (ratio(pivots, lad_n), "count"),
        "solver.lad_us_per_pivot": (ratio(lad_self_ms * 1e3, pivots), "us"),
        "solver.lad_nonoptimal": (sum(s.get("status") != "optimal"
                                      for s in by.get("solver.lad", ())) / passes, "count"),
        "solver.ls_ms_per_solve": (ratio(total_ms("solver.ls"), count("solver.ls")), "ms"),
        "solver.vertex_checks_per_solve": (ratio(checks, lad_n), "count"),
        "solver.vertex_check_hit_ratio": (ratio(attr_sum("solver.vertex_check", "hit"),
                                                checks), "ratio"),
    }
    for caller in ("vertex", "cert"):
        name = f"lp.{caller}"
        calls, iters, ms = count(name), attr_sum(name, "iterations"), total_ms(name)
        metrics.update({
            f"{name}.calls": (calls / passes, "count"),
            f"{name}.iters_per_call": (ratio(iters, calls), "count"),
            f"{name}.ms_per_call": (ratio(ms, calls), "ms"),
            f"{name}.us_per_iter": (ratio(ms * 1e3, iters), "us"),
        })
    metrics.update({
        "cert.exact_lps_per_support": (ratio(count("lp.cert"), exact_n), "count"),
        "cert.exact_self_ms": (ratio(total_ms("cert.exact") - total_ms("lp.cert"), exact_n),
                               "ms"),
        "cert.mc_directions_per_s": (ratio(attr_sum("cert.mc", "directions"),
                                           total_ms("cert.mc") / 1e3), "1/s"),
        "threshold.ms_per_m": (ratio(total_ms("threshold.strong_threshold"),
                                     count("threshold.strong_threshold")), "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    return metrics
