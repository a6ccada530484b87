"""Seeded inputs for the four benchmark workloads.

Each workload is a list of operations, and an operation is the argument
list of one ``fibrant`` command-line call.  The same seed always gives
the same operations.  Negative rationals are passed as ``--opt=value`` so
that argparse does not read them as options.

The draws are shaped so that the cost of one pass barely depends on the
seed: the ten-seed spread of each metric must stay well inside its bound
in BENCHMARK.json, and a single high-height alpha can cost anything from
0.5 s to over 45 s (see README.md).
"""

from __future__ import annotations

import random
from fractions import Fraction

# alpha on this locus is rejected by `fibrant analyze` (exit 2).
EXCLUDED_ALPHA = {Fraction(0), Fraction(4), Fraction(-4)}

# ROADMAP height-ladder rungs run on every seed.  The rung 1000003/999983
# is left out: it runs past 120 s (see the FOUND lines in CHANGES.md).
HEIGHT_RUNGS = ("101/13", "12345/678")

# alpha with 3-digit numerator and denominator whose `analyze` time lies
# in a narrow band (1.4 s to 1.8 s on the reference machine).  Random
# alpha of this height cost from 0.5 s to over 45 s, because
# `rational_roots` enumerates every divisor pair of two derived integers,
# and 4- and 5-digit alpha almost all take longer than 2.5 s; with an
# unscreened draw the ten-seed spread of every metric exceeds its bound.
# The rung 12345/678 keeps that cost in every pass.  The median of three
# draws from five can only be the second, third or fourth cheapest member.
HEIGHT_POOL = (
    "541/743",
    "-239/137",
    "991/619",
    "281/467",
    "854/363",
)
HEIGHT_DRAWS = 3

LOW_COUNT = 12
LOW_RANGE = 9

# `monodromy --bound B` costs about B^3.4.  Seeded bounds come in pairs
# c - e, c + e around fixed centres, so the pass cost moves only to second
# order in the offset e.  The fixed middle bound is the median operation
# of every pass.
MONODROMY_CENTRES = (14, 30)
MONODROMY_MIDDLE = 22
MONODROMY_MAX_OFFSET = 2

BRACKET_COUNT = 12
SAMPLE_COUNT = 6
SAMPLE_POINTS = 4

WORKLOADS = ("analyze-low", "analyze-height", "monodromy-search", "integrals")

# Seconds one operation may run before it counts as failed.
TIME_LIMIT_S = {
    "analyze-low": 60.0,
    "analyze-height": 90.0,
    "monodromy-search": 60.0,
    "integrals": 20.0,
}


def _small_rationals(exclude) -> list:
    """Rationals p/q with |p| <= 9 and 1 <= q <= 9, by denominator."""
    pool = {
        Fraction(p, q)
        for p in range(-LOW_RANGE, LOW_RANGE + 1)
        for q in range(1, LOW_RANGE + 1)
    }
    return sorted(pool - set(exclude), key=lambda r: (r.denominator, abs(r), r))


def _stratified(rng: random.Random, pool: list, count: int) -> list:
    """One draw from each of ``count`` consecutive slices of ``pool``.

    `analyze` time grows with the denominator of alpha (0.37 s at q = 1,
    0.44 s at q = 8 on the reference machine), so every seed takes the
    same spread of denominators and the pass cost barely moves.
    """
    return [
        rng.choice(pool[len(pool) * i // count : len(pool) * (i + 1) // count])
        for i in range(count)
    ]


def _analyze(alpha) -> list:
    return ["analyze", f"--alpha={alpha}"]


def generate(workload: str, seed: int) -> list:
    """The operations of one pass of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "analyze-low":
        alphas = _stratified(rng, _small_rationals(EXCLUDED_ALPHA), LOW_COUNT)
        return [_analyze(a) for a in alphas]
    if workload == "analyze-height":
        alphas = list(HEIGHT_RUNGS) + rng.sample(HEIGHT_POOL, HEIGHT_DRAWS)
        return [_analyze(a) for a in alphas]
    if workload == "monodromy-search":
        bounds = [MONODROMY_MIDDLE]
        for centre in MONODROMY_CENTRES:
            offset = rng.randint(0, MONODROMY_MAX_OFFSET)
            bounds += [centre - offset, centre + offset]
        return [["monodromy", f"--bound={b}"] for b in sorted(bounds)]
    if workload == "integrals":
        pool = _small_rationals({Fraction(-1)})
        ms = rng.sample(pool, BRACKET_COUNT)
        ops = [["bracket-check", f"--m={m}"] for m in ms]
        params = rng.sample(pool, 4 * SAMPLE_COUNT)
        for i in range(SAMPLE_COUNT):
            h3, h4, a, m = params[4 * i : 4 * i + 4]
            ops.append(
                [
                    "sample-fiber",
                    f"--h3={h3}",
                    f"--h4={h4}",
                    f"--a={a}",
                    f"--m={m}",
                    f"--count={SAMPLE_POINTS}",
                    f"--seed={rng.randrange(1 << 30)}",
                ]
            )
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
