#!/usr/bin/env python3
"""Steadiness mode: run workloads repeatedly and compare spreads to bounds.

    python3 bench/steadiness.py [--workload NAME ...] [--runs 10] [--first-seed 1]

Each run is ``run.py --trace 0`` for ``run_seconds`` of ``BENCHMARK.json``,
with its own seed (first-seed, first-seed+1, ...).  For every end-to-end
metric the script prints the median of the runs, the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median, and that spread against the metric's bound in
``BENCHMARK.json``: ``ok`` below a third of the bound, ``wide`` below the
bound, ``OVER`` beyond it.  It also prints the share of failed operations
per run, which must be the same in every run.  The exit code is 1 when a
spread is over its bound or the failed shares differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def spread(values) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{workload} seed {seed}: {time.monotonic() - t0:.1f}s", file=sys.stderr)
        print(f"\n{workload}: {len(runs)} runs")
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"  failed share {sorted(shares)}   correct {correct}")
        if len(shares) != 1 or not correct:
            status = 1
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, s = spread(values)
            verdict = "ok" if s < bound / 3 else "wide" if s <= bound else "OVER"
            if s > bound:
                status = 1
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name:14s} median {med:12.4f} {unit:3s} spread {s:6.3f}"
                  f"  bound {bound:.2f}  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
