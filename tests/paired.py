"""Paired timing of one CLI call at two source trees, in one process.

Loads the package from ``PARENT/src`` and from ``WORK/src`` under two
names, then makes ``--pairs`` pairs of the same ``cli.main`` call, the
two sides alternating which goes first, with stdout captured.  Prints
each side's median and quartiles in milliseconds, the pairs the working
tree won, and whether the gain would be claimed: the working tree wins at
least 9 pairs of 10, and the medians lie further apart than the parent's
quartiles.  It also checks that both sides print the same stdout.  Stdlib
only and outside the test suite: from the repository root,

    python -m tests.paired --parent ../parent --pairs 15 -- monodromy --bound=22
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(tree: Path, name: str):
    """The ``cli`` module of the package in ``tree/src/fibrant``, imported
    as the package ``name``."""
    package = tree / "src" / "fibrant"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def timed(cli, argv) -> tuple:
    """(seconds, exit code, stdout) of one ``cli.main(argv)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.main(list(argv))
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue()


def summary(times: list) -> list:
    """[first quartile, median, third quartile] of ``times``."""
    return statistics.quantiles(times, n=4, method="inclusive")


def compare(parent: Path, work: Path, argv: list, pairs: int) -> dict:
    """Time ``pairs`` alternating pairs of ``argv`` at both trees."""
    clis = {"parent": load(parent, "_paired_parent"), "work": load(work, "_paired_work")}
    for cli in clis.values():  # one untimed call each: caches of the first call
        timed(cli, argv)
    times = {side: [] for side in clis}
    outputs = {side: set() for side in clis}
    for i in range(pairs):
        order = ("parent", "work") if i % 2 == 0 else ("work", "parent")
        for side in order:
            elapsed, code, out = timed(clis[side], argv)
            times[side].append(elapsed)
            outputs[side].add((code, out))
    wins = sum(w < p for p, w in zip(times["parent"], times["work"]))
    parent_q1, parent_median, parent_q3 = summary(times["parent"])
    work_median = summary(times["work"])[1]
    return {
        "times": times,
        "wins": wins,
        "identical": len(outputs["parent"]) == 1 and outputs["parent"] == outputs["work"],
        "claimed": wins >= 0.9 * pairs and parent_median - work_median > parent_q3 - parent_q1,
    }


def report(result: dict, argv: list) -> str:
    lines = [" ".join(argv)]
    for side, times in result["times"].items():
        q1, median, q3 = (1000 * t for t in summary(times))
        lines.append(f"  {side:6}  median {median:.3f} ms  quartiles {q1:.3f} .. {q3:.3f} ms")
    pairs = len(result["times"]["work"])
    claimed = "yes" if result["claimed"] else "no"
    lines.append(f"  work won {result['wins']} of {pairs} pairs; gain claimed: {claimed}")
    lines.append(f"  stdout identical: {'yes' if result['identical'] else 'NO'}")
    return "\n".join(lines)


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.paired", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent source tree")
    parser.add_argument(
        "--work", type=Path, default=ROOT, help="root of the working tree (default: this one)"
    )
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs (default 10)")
    parser.add_argument("argv", nargs="+", help="the CLI call, after --")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    result = compare(args.parent.resolve(), args.work.resolve(), args.argv, args.pairs)
    print(report(result, args.argv))
    return 0 if result["identical"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
