"""Workload definitions and the passes that drive them through the ladsysid CLI.

A pass is a list of operations fixed by the workload seed, and every pass
of a run repeats the same operations on the same inputs, so each operation
is timed once per pass.  A sweep pass is one ``ladsysid experiment`` call
with the workload seed as master seed, and its operations are the trials,
each timed from outside around ``harness.run_trial``.  An analysis pass is
five ``ladsysid certify`` / ``ladsysid threshold`` calls, each one operation.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

import ladsysid.cli
import ladsysid.harness
from reference import reference_ms

NOISELESS_SCENARIO = {
    "name": "noiseless_pm1", "m": 5,
    "input": {"kind": "bernoulli_pm1"},
    "x_source": {"kind": "gaussian_random"},
    "noise": {"kind": "none"},
    "outliers": {"count_model": "uniform_fraction", "max_fraction": 0.8,
                 "mean": 0.0, "sd": 10.0},
    "estimators": ["lad", "ls"],
}

# Sweep configs per size; ``tiny`` is the smoke-test size.
SWEEPS = {
    # LAD pivot loop at large n: the ratio test dominates, no vertex LP runs.
    "sweep_noisy_large": {
        "full": {"builtin": "consistency_gaussian", "n_grid": [3000, 10000, 30000],
                 "trials_per_point": 12},
        "tiny": {"builtin": "consistency_gaussian", "n_grid": [300, 1000],
                 "trials_per_point": 2},
    },
    # Massively degenerate optimum: the vertex-certificate LP and per-trial costs.
    "sweep_noiseless_small": {
        "full": {"scenario": NOISELESS_SCENARIO, "n_grid": [40, 100, 250, 600],
                 "trials_per_point": 100},
        "tiny": {"scenario": NOISELESS_SCENARIO, "n_grid": [40, 100],
                 "trials_per_point": 5},
    },
}

# Exact certification cases (n, m, support, input seed, expected verdict).  They
# are fixed instances, not drawn from the workload seed: their cost hinges on
# the verdict, and they sit on both sides of 2^(|K|-1) versus C(n-|K|, m-1)
# (32 vs 1431, 512 vs 14, 128 vs 231).
ANALYSIS = {
    "full": {
        "exact": [(60, 3, [0, 12, 24, 35, 47, 59], 0, "certified"),
                  (24, 2, [0, 3, 5, 8, 10, 13, 15, 18, 20, 23], 93, "certified"),
                  (30, 3, [0, 1, 4, 5, 6, 7, 8, 9], 3, "falsified")],
        "mc": (500, 5, [1, 2, 3], 100000),
        "m_max": 10,
    },
    "tiny": {
        "exact": [(12, 2, [0, 5], 3, None), (10, 2, [0, 1, 2, 3], 1, None)],
        "mc": (50, 2, [1, 2], 1000),
        "m_max": 2,
    },
}

WORKLOADS = (*SWEEPS, "analysis")

# The tail is taken over the operations of one pass, each at its best time
# over the passes, so it is fixed per workload: p97.5 keeps ten of the 400
# noiseless trials beyond it; the 36 noisy trials are too few for that, and
# p90 of them falls among the n=30000 trials; analysis has five calls, so its
# tail is the slowest.
TAIL_PERCENTILE = {"sweep_noisy_large": 90, "sweep_noiseless_small": 97.5, "analysis": 100}


@dataclass
class Op:
    kind: str
    ms: Optional[float]          # None when the operation did not complete
    data: Any = None             # what the output checks need
    ok: bool = True
    size: Any = None             # the trial's n; an analysis call is its own size
    ref_ms: float = 0.0          # reference kernel time around its CLI call


@dataclass
class Pass:
    seconds: float
    ops: list
    ref_ms: float
    csv_sha256: Optional[str] = None


class HostSpeed:
    """Times the reference kernel between CLI calls; the reference time of a
    call is the mean of the timings just before and just after it."""

    def __init__(self):
        self._last = reference_ms()

    def after_call(self) -> float:
        before, self._last = self._last, reference_ms()
        return (before + self._last) / 2


def _cli(argv) -> int:
    """Run one CLI call with its stdout discarded; an exception is a failed call."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return ladsysid.cli.main(argv)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return -1


def csv_sha256_without_wall_ms(path) -> str:
    """sha256 of the trial CSV with the timing column removed."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_ms")
    text = "\n".join(",".join(c for i, c in enumerate(r) if i != drop) for r in rows)
    return hashlib.sha256(text.encode()).hexdigest()


class Sweep:
    """``ladsysid experiment --config`` over one sweep config."""

    def __init__(self, name, size, seed, workdir: Path):
        cfg = SWEEPS[name][size]
        self.n_trials = len(cfg["n_grid"]) * cfg["trials_per_point"]
        config = workdir / "sweep.json"
        config.write_text(json.dumps(cfg))
        self.csv = workdir / "trials.csv"
        self.argv = ["experiment", "--config", str(config), "--out", str(self.csv),
                     "--seed", str(seed)]
        self._ops = []
        self._host = HostSpeed()
        inner = ladsysid.harness.run_trial

        def timed(*args, **kwargs):
            t0 = perf_counter()
            rec = inner(*args, **kwargs)
            self._ops.append(Op("trial", (perf_counter() - t0) * 1e3, (args[0], args[1], rec),
                                size=rec.n))
            return rec
        ladsysid.harness.run_trial = timed

    def run_pass(self) -> Pass:
        self._ops = []
        t0 = perf_counter()
        rc = _cli(self.argv)
        seconds = perf_counter() - t0
        ref = self._host.after_call()
        if rc != 0 or len(self._ops) != self.n_trials:
            # the whole sweep failed: count every trial it was to run
            return Pass(seconds, [Op("trial", None, ok=False) for _ in range(self.n_trials)], ref)
        for op in self._ops:
            op.ref_ms = ref
        return Pass(seconds, self._ops, ref, csv_sha256_without_wall_ms(self.csv))


class Analysis:
    """Exact certifications, the randomized falsifier and the threshold curve."""

    def __init__(self, size, seed, workdir: Path):
        spec = ANALYSIS[size]
        self.calls = []
        for n, m, support, input_seed, expect in spec["exact"]:
            self.calls.append(("exact", (n, m, support, input_seed, expect), [
                "certify", "--n", str(n), "--m", str(m),
                "--support", ",".join(map(str, support)), "--input-seed", str(input_seed)]))
        n, m, support, trials = spec["mc"]
        self.calls.append(("mc", (n, m, support, seed, None), [
            "certify", "--n", str(n), "--m", str(m), "--support", ",".join(map(str, support)),
            "--input-seed", str(seed), "--method", "mc", "--trials", str(trials),
            "--seed", str(seed)]))
        self.thresholds = workdir / "thresholds.csv"
        self.calls.append(("threshold", spec["m_max"], [
            "threshold", "--m-min", "1", "--m-max", str(spec["m_max"]),
            "--out", str(self.thresholds)]))
        self._certs = []
        self._host = HostSpeed()
        for attr in ("certify_support_exact", "certify_support_mc"):
            inner = getattr(ladsysid.cli, attr)
            setattr(ladsysid.cli, attr, self._capture(inner))

    def _capture(self, inner):
        def captured(*args, **kwargs):
            cert = inner(*args, **kwargs)
            self._certs.append(cert)
            return cert
        return captured

    def run_pass(self) -> Pass:
        ops = []
        seconds = 0.0
        for kind, case, argv in self.calls:
            self._certs = []
            t0 = perf_counter()
            rc = _cli(argv)
            ms = (perf_counter() - t0) * 1e3
            seconds += ms / 1e3
            ref = self._host.after_call()
            if kind == "threshold":
                data = _read_thresholds(self.thresholds) if rc == 0 else None
            else:
                data = (case, self._certs[0]) if rc == 0 and self._certs else None
            ops.append(Op(kind, ms, data, ok=data is not None, size=len(ops), ref_ms=ref))
        return Pass(seconds, ops, sum(op.ref_ms for op in ops) / len(ops))


def _read_thresholds(path):
    with open(path, newline="") as fh:
        return {int(r["m"]): float(r["beta_star"]) for r in csv.DictReader(fh)}


def make_runner(name, size, seed, workdir: Path):
    if name == "analysis":
        return Analysis(size, seed, workdir)
    return Sweep(name, size, seed, workdir)


def warm_up(name, workdir) -> None:
    """One small call into every entry point the workload uses."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "analysis":
        argvs = [["certify", "--n", "12", "--m", "2", "--support", "0,5"],
                 ["certify", "--n", "12", "--m", "2", "--support", "0,5",
                  "--method", "mc", "--trials", "100"],
                 ["threshold", "--m-min", "1", "--m-max", "1"]]
    else:
        cfg = dict(SWEEPS[name]["tiny"], n_grid=[60], trials_per_point=1)
        config = workdir / "warmup.json"
        config.write_text(json.dumps(cfg))
        argvs = [["experiment", "--config", str(config), "--out",
                  str(workdir / "warmup.csv")]]
    for argv in argvs:
        if _cli(argv) != 0:
            raise RuntimeError(f"warm-up call failed: ladsysid {' '.join(argv)}")
