#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ladsysid, run from a source checkout.

    python3 perfbench/run.py --workload sweep_noisy_large --seed 1 --seconds 30 --trace 0

Repeats the workload's pass (a fixed list of CLI calls derived from
``--seed``) in a closed loop, one operation at a time, until ``--seconds``
have passed, then checks every output outside the timed region.  Times are
scaled to reference host speed (reference.py), and each operation's time is
its best over the repeats.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics and the tracing overhead.  The last stdout
line is one JSON object: correct, attempted, failed, metrics.  Per-run
results go to ``.perfbench/results/`` and spans to ``.perfbench/trace/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# Closed loop, one operation at a time: one BLAS thread (at most nproc),
# fixed before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5

_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
          "workloads.warm_up(sys.argv[3], sys.argv[4]); print('ready', flush=True)")


def _import_package():
    """Import ladsysid from this checkout's src/, never from anywhere else."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        import ladsysid
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import ladsysid from {SRC}: {exc}")
    if Path(ladsysid.__file__).resolve().parent != SRC / "ladsysid":
        sys.exit(f"perfbench: ladsysid resolved to {ladsysid.__file__}, not {SRC}")


def _env_info():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": int(BLAS_THREADS),
    }


def _setup_seconds(workload, workdir):
    """Median over fresh processes of the time from spawn to ready (import +
    warm-up), each scaled to reference speed, and the median unscaled."""
    from reference import REFERENCE_MS, reference_ms

    times, scaled = [], []
    ref = reference_ms()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", _PROBE, str(SRC), str(BENCH),
                               workload, str(workdir)], stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            sys.exit(f"perfbench: set-up probe failed with code {proc.returncode}")
        before, ref = ref, reference_ms()
        scaled.append(times[-1] * REFERENCE_MS / ((before + ref) / 2))
    return statistics.median(scaled), statistics.median(times)


def _measure(runner, seconds, tracer):
    """Run passes until ``seconds`` have passed.  With a tracer, each pass runs
    untraced and then traced.  Returns the untraced passes, the traced passes,
    the number of spans the first traced pass recorded and the peak RSS after
    the first pass, which does not depend on how many passes fit in the run."""
    passes, traced, first_spans = [], [], 0
    end = perf_counter() + seconds
    while True:
        passes.append(runner.run_pass())
        if len(passes) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.install()
            try:
                traced.append(runner.run_pass())
            finally:
                tracer.uninstall()
            first_spans = first_spans or len(tracer.spans)
        if perf_counter() >= end:
            return passes, traced, first_spans, peak_rss_mb


def _best_of(passes, scaled):
    """Each operation's fastest time (ms) over the passes, which repeat the same
    operations, its size, and the fastest time (s) a pass spent outside its
    operations (CLI start-up, config, CSV output).

    The CPU speed of a shared host drifts by tens of percent over seconds to
    minutes.  The best of many repeats absorbs the drift within a run.  With
    ``scaled``, each best time is multiplied by REFERENCE_MS over the best
    reference time measured around the same calls (reference.py): both are
    the fastest the host ran during those calls, so a run that falls wholly
    in a slow stretch reads like one that does not.
    """
    from reference import REFERENCE_MS

    best, ref, size = {}, {}, {}
    for q in passes:
        for i, op in enumerate(q.ops):
            if op.ms is not None:
                best[i] = min(best.get(i, op.ms), op.ms)
                ref[i] = min(ref.get(i, op.ref_ms), op.ref_ms)
                size[i] = op.size
    done = [q for q in passes if all(op.ms is not None for op in q.ops)]
    outside = max(min((q.seconds - sum(op.ms for op in q.ops) / 1e3 for q in done),
                      default=0.0), 0.0)
    if scaled:
        best = {i: ms * REFERENCE_MS / ref[i] for i, ms in best.items()}
        outside *= REFERENCE_MS / min((q.ref_ms for q in done), default=REFERENCE_MS)
    return best, size, outside


def _typical_ops_per_s(best, size, outside_s):
    """Operations per second of a pass whose operations each take the median
    best time of their size.  A rare pathological trial (a noiseless n=600
    trial can take 100x the others) decides the mean of a pass and
    so makes it depend on the seed; it shows in ``ops_per_s_mean``."""
    by_size = {}
    for i, ms in best.items():
        by_size.setdefault(size[i], []).append(ms)
    typical_ms = sum(len(v) * statistics.median(v) for v in by_size.values())
    return len(best) / (typical_ms / 1e3 + outside_s)


def main(argv=None):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: the smoke-test size")
    args = p.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, args.trace, args.size)


def run(name, seed, seconds, trace, size):
    # the benchmark modules import ladsysid, so they are imported only after
    # _import_package has put this checkout's src/ on sys.path
    import numpy as np

    import checks
    import workloads
    from tracing import Tracer, layer_metrics

    workdir = OUT / "work" / name
    env = _env_info()
    setup_s, raw_setup_s = (None, None) if trace else _setup_seconds(name, workdir)
    workloads.warm_up(name, workdir)
    runner = workloads.make_runner(name, size, seed, workdir)
    tracer = Tracer() if trace else None

    passes, traced, first_spans, peak_rss_mb = _measure(runner, seconds, tracer)

    problems = []
    all_passes = passes + traced
    recovered = lad_trials = 0
    if name == "analysis":
        checks.check_analysis(all_passes, problems.append)
    else:
        recovered, lad_trials = checks.check_sweep(all_passes, problems.append)
    ops = [op for q in all_passes for op in q.ops]
    attempted = len(ops)
    failed = sum(not op.ok for op in ops)

    # end-to-end figures come from the untraced passes only
    if not any(op.ms is not None for q in passes for op in q.ops):
        sys.exit(f"perfbench: no {name} operation completed")
    pct = workloads.TAIL_PERCENTILE[name]
    figures = {}
    for scaled in (False, True):
        best, sizes, outside_s = _best_of(passes, scaled)
        times = list(best.values())
        figures[scaled] = (_typical_ops_per_s(best, sizes, outside_s),
                           float(np.median(times)), float(np.percentile(times, pct)))
    ops_per_s, p50, tail = figures[True]
    info = {
        "ops_per_s_mean": (len(times) / (sum(times) / 1e3 + outside_s), "1/s"),
        "op_ms_max": (max(times), "ms"),
        "unscaled_ops_per_s": (figures[False][0], "1/s"),
        "unscaled_op_ms_p50": (figures[False][1], "ms"),
        "unscaled_op_ms_tail": (figures[False][2], "ms"),
        "reference_ms_median": (statistics.median(q.ref_ms for q in passes), "ms"),
        "failed_frac": (failed / attempted, "frac"),
        "tail_percentile": (pct, "pct"),
        "tail_samples": (len(times), "count"),
        "tail_beyond": (sum(t > tail for t in times), "count"),
        "passes": (len(passes), "count"),
    }
    if name == "analysis":
        for kind, label in (("exact", "certify_exact_s"), ("mc", "certify_mc_s"),
                            ("threshold", "threshold_curve_s")):
            info[label] = (sum(ms for i, ms in best.items()
                               if passes[0].ops[i].kind == kind) / 1e3, "s")
    else:
        info.update({
            "sweep_trials_per_s": (ops_per_s, "1/s"),
            "trial_ms_p50": (p50, "ms"),
            "trial_ms_tail": (tail, "ms"),
            "recovery_frac": (recovered / lad_trials if lad_trials else 0.0, "frac"),
            "csv_sha256_no_wall_ms": (passes[0].csv_sha256 or "failed", "sha256"),
        })

    if trace:
        # traced and untraced passes run the same operations
        overhead = 100.0 * (min(q.seconds for q in traced)
                            / min(q.seconds for q in passes) - 1.0)
        trials = sum(len(q.ops) for q in traced) if name != "analysis" else 0
        metrics = layer_metrics(tracer.spans, len(traced), trials, overhead)
        # counts from the first traced pass alone repeat exactly for a seed
        first = layer_metrics(tracer.spans[:first_spans], 1, 0, overhead)
        metrics.update({k: v for k, v in first.items() if v[1] in ("count", "ratio")})
        (OUT / "trace").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "trace" / f"{name}-seed{seed}.jsonl")
    else:
        info["unscaled_setup_s"] = (raw_setup_s, "s")
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_ms_p50": (p50, "ms"),
            "op_ms_tail": (tail, "ms"),
            "ok_frac": (1.0 - failed / attempted, "frac"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    print(f"workload {name} seed {seed} seconds {seconds:g} trace {trace} size {size}")
    print("env " + json.dumps(env))
    for problem in problems:
        print(problem)
    for key, (value, unit) in {**metrics, **info}.items():
        print(f"{key:34s} {value} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump({"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                   "size": size, "env": env, **result,
                   "info": {k: {"value": v, "unit": u} for k, (v, u) in info.items()}},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    _import_package()
    sys.exit(main())
