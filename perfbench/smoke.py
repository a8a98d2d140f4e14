#!/usr/bin/env python3
"""Smoke run of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload in BENCHMARK.json for one second with ``--size tiny``,
untraced and traced, and exits non-zero unless each run is correct and
emits exactly the end-to-end (untraced) or per-layer (traced) metric names
and units that BENCHMARK.json declares.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload['name']} trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload["name"],
                 "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics {sorted(got.items())} != {sorted(want.items())}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            print(f"{label}: {len(got)} metrics, attempted {result['attempted']}", flush=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
