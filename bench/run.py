"""Benchmark of the fibrant command line.

One run times whole passes over a workload's operations for a given
number of seconds, checks every output, and prints its metrics.  Each
operation is the call a user makes, ``fibrant.cli.main([...])``, made in
this process with stdout captured.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

    python3 bench/run.py --workload analyze-low --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``wall_s``, ``op_median_s``, ``peak_rss_mb``).  With ``--trace 1`` the run
spends half its time untraced and half, at least two passes, with spans
installed around the public functions of every ``fibrant`` module, and
prints the per-layer metrics.  Details of every run go to ``.bench_results/``.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, ".bench_results")
# Set-up is timed in fresh processes spread evenly through the run, so
# that a burst of load on the machine moves only the few probes it meets
# and not their median.
SETUP_PROBES = 21
PROBE_TIMEOUT_S = 60
# Call counts must repeat exactly between traced passes; two passes at
# least make that a check.
MIN_TRACED_PASSES = 2


class OperationTimeout(Exception):
    """An operation ran past its time limit."""


def _on_alarm(signum, frame):
    raise OperationTimeout()


@dataclass
class Result:
    seconds: float
    error: str | None
    out_bytes: int


@dataclass
class Pass:
    results: list
    layers: dict = field(default_factory=dict)


class SetupProbes:
    """Set-up times of fresh processes (``setup_probe.py``), one taken
    between operations whenever the last is ``interval`` seconds old, and
    the rest after the passes."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)]
        self.interval = seconds / SETUP_PROBES
        self.times = []
        self.due_at = perf_counter()

    def take(self):
        done = subprocess.run(
            self.argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            cwd=ROOT, check=True,
        )
        self.times.append(float(done.stdout.strip().splitlines()[-1]))
        self.due_at = perf_counter() + self.interval

    def between_operations(self):
        if len(self.times) < SETUP_PROBES and perf_counter() >= self.due_at:
            self.take()

    def finish(self) -> list:
        while len(self.times) < SETUP_PROBES:
            self.take()
        return self.times


@dataclass
class Outputs:
    """The first output of each operation, and those that later changed.

    Only one copy is kept, so the peak memory of a run does not grow with
    the number of passes it makes."""

    first: dict = field(default_factory=dict)
    differs: set = field(default_factory=set)

    def record(self, index: int, text: str):
        if index not in self.first:
            self.first[index] = text
        elif self.first[index] != text:
            self.differs.add(index)


def call(cli, argv: list, limit: float) -> tuple:
    """One timed ``fibrant`` call and its stdout; a fault or a timeout is
    its error."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            error = f"exit code {code}: {err.getvalue().strip()}"
    except OperationTimeout:
        error = f"ran past the {limit} s limit"
    except SystemExit as exc:
        error = f"exit code {exc.code}: {err.getvalue().strip()}"
    except Exception:  # an operation's fault is counted and the run goes on
        error = traceback.format_exc()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = perf_counter() - start
    text = out.getvalue()
    return Result(seconds, error, len(text.encode())), text


def run_passes(cli, ops, limit, budget_s, outputs, tracer=None, probes=None,
               min_passes=1) -> list:
    """Whole passes over ``ops`` until the next one would overrun the budget,
    and at least ``min_passes``."""
    passes = []
    start = perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        pass_start = perf_counter()
        results = []
        for i, argv in enumerate(ops):
            if probes is not None:
                probes.between_operations()
            result, text = call(cli, argv, limit)
            if result.error is None:
                outputs.record(i, text)
            results.append(result)
        wall = perf_counter() - pass_start
        layers = spans.layer_metrics(tracer) if tracer is not None else {}
        passes.append(Pass(results, layers))
        if len(passes) >= min_passes and perf_counter() - start + wall > budget_s:
            return passes


def check_outputs(workload, ops, outputs: Outputs) -> tuple:
    """(failures, corruptions the checkers missed, outputs checked)."""
    import checks

    failures, missed, parsed = [], [], {}
    for i, argv in enumerate(ops):
        if i not in outputs.first:
            continue
        if i in outputs.differs:
            failures.append(f"{' '.join(argv)}: output differs between passes")
        try:
            out = json.loads(outputs.first[i])
        except json.JSONDecodeError as exc:
            failures.append(f"{' '.join(argv)}: not JSON ({exc})")
            continue
        failures += [f"{' '.join(argv)}: {f}" for f in checks.check_operation(argv, out)]
        parsed[i] = out
    tested = set()
    for i, out in parsed.items():
        if ops[i][0] not in tested:
            tested.add(ops[i][0])
            missed += checks.self_test(ops[i], out)
    analyses = [out for i, out in sorted(parsed.items()) if ops[i][0] == "analyze"]
    failures += checks.check_same_structure(analyses)
    missed += checks.self_test_structure(analyses)
    if workload == "integrals":
        values = control_brackets()
        failures += checks.check_control(values)
        missed += checks.self_test_control(values)
    return failures, missed, len(parsed)


def control_brackets() -> dict:
    """The program's brackets of coordinate pairs with known nonzero values."""
    import checks

    try:
        from fibrant.lagrange import lie_poisson_bracket
        from fibrant.poly import MultiPoly, format_poly
    except ImportError:
        return {}  # every control pair is then reported missing
    return {
        pair: format_poly(lie_poisson_bracket(*(MultiPoly.variable(n) for n in pair)))
        for pair in checks.CONTROL_PAIRS
    }


def median_pass(passes) -> float:
    """Wall time of one pass, each operation's time the median over passes.

    A burst of load on the machine that slows part of one pass moves this
    less than it moves the median of whole-pass times when a run holds only
    two or three passes, and the set-up probes taken between operations
    stay out of it."""
    return sum(statistics.median(times) for times in zip(*(
        [r.seconds for r in p.results] for p in passes
    )))


def end_to_end(setup, passes, rss_mb) -> dict:
    times = [r.seconds for p in passes for r in p.results]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": median_pass(passes), "unit": "s"},
        "op_median_s": {"value": statistics.median(times), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def per_layer(plain, traced) -> dict:
    """Counts of the first traced pass; times as medians over traced passes."""
    first = traced[0].layers
    metrics = {}
    for name, value in first.items():
        if isinstance(value, int):
            metrics[name] = {"value": value, "unit": "bits" if "bits" in name else "count"}
        else:
            value = statistics.median(p.layers[name] for p in traced)
            metrics[name] = {"value": value, "unit": "s"}
    out_bytes = sum(r.out_bytes for r in traced[0].results)
    metrics["cli.out_bytes"] = {"value": out_bytes, "unit": "bytes"}
    overhead = median_pass(traced) - median_pass(plain)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fibrant", "cli.py")):
        print(f"error: no fibrant sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    cli = importlib.import_module("fibrant.cli")
    ops = workloads.generate(args.workload, args.seed)

    signal.signal(signal.SIGALRM, _on_alarm)
    limit = workloads.TIME_LIMIT_S[args.workload]
    run_start = perf_counter()
    absent, counts_repeat, setup = [], True, []
    outputs = Outputs()
    if args.trace:
        plain = run_passes(cli, ops, limit, args.seconds / 2, outputs)
        tracer = spans.Tracer()
        installation = spans.Installation(tracer)
        installation.install()
        try:
            absent = installation.absent()
            remaining = args.seconds - (perf_counter() - run_start)
            traced = run_passes(cli, ops, limit, remaining, outputs, tracer,
                                min_passes=MIN_TRACED_PASSES)
        finally:
            installation.restore()
        counts = [{k: v for k, v in p.layers.items() if isinstance(v, int)} for p in traced]
        counts_repeat = all(c == counts[0] for c in counts)
    else:
        probes = SetupProbes(args.workload, args.seed, args.seconds)
        plain = run_passes(cli, ops, limit, args.seconds, outputs, probes=probes)
        traced, setup = [], probes.finish()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    passes = plain + traced
    failures, missed, checked = check_outputs(args.workload, ops, outputs)
    attempted = sum(len(p.results) for p in passes)
    failed = sum(r.error is not None for p in passes for r in p.results)
    metrics = per_layer(plain, traced) if args.trace else end_to_end(setup, plain, rss_mb)
    correct = not failures and not missed and counts_repeat

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "operations": [" ".join(op) for op in ops],
        "setup_probe_s": setup,
        "passes": [
            {
                "traced": i >= len(plain),
                "op_s": [r.seconds for r in p.results],
                "errors": {j: r.error for j, r in enumerate(p.results) if r.error},
                "layers": p.layers,
            }
            for i, p in enumerate(passes)
        ],
        "absent": absent,
        "counts_repeat": counts_repeat,
        "check_failures": failures,
        "self_test_missed": missed,
        "metrics": metrics,
    }
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(detail, fh, indent=1)

    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} operations, {failed} failed")
    for metric, m in metrics.items():
        print(f"  {metric:45s} {m['value']:.6g} {m['unit']}")
    for error in sorted({r.error for p in passes for r in p.results if r.error}):
        print(f"  failed: {error.strip().splitlines()[-1]}")
    if absent:
        print(f"  absent from the program: {', '.join(absent)}")
    if not counts_repeat:
        print("  call counts differ between traced passes")
    print(f"  checks: {checked} outputs, {len(failures)} failures, "
          f"{len(missed)} corruptions missed by the self-test")
    for line in (failures + missed)[:20]:
        print(f"    {line}")
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
