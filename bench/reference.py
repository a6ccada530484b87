"""Regenerate the reference figures in bench/README.md.

Runs ``bench/run.py`` once per workload and seed, one run at a time, and
prints for every metric the median of the runs, its quartiles and the
quartile spread (q3 - q1) / median, with the share of failed operations.

    python3 bench/reference.py                        # 4 workloads x seeds 1-10
    python3 bench/reference.py --trace 1 --seeds 2    # per-layer figures
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print(f"{'workload':17s} {'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s}  unit")
    for workload in workloads.WORKLOADS:
        start = perf_counter()
        results = [run(workload, s, bench["run_seconds"], args.trace)
                   for s in range(1, args.seeds + 1)]
        per_run = (perf_counter() - start) / len(results)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            unit = results[0]["metrics"][metric]["unit"]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else 0.0
            print(f"{workload:17s} {metric:42s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f}  {unit}")
        print(f"{workload:17s} correct={correct} failed shares={sorted(shares)} "
              f"runs={len(results)} seconds per run={per_run:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
