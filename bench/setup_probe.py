"""Time one set-up as a fresh CLI process pays it.

Imports ``fibrant``, builds its argument parser and generates the
workload's inputs, then prints the seconds that took.  ``run.py`` starts
this script several times and reports the median as ``setup_s``.

    python3 bench/setup_probe.py <workload> <seed>
"""

import os
import sys
from time import perf_counter

start = perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import fibrant.cli  # noqa: E402
import workloads  # noqa: E402

fibrant.cli.build_parser()
workloads.generate(sys.argv[1], int(sys.argv[2]))
print(repr(perf_counter() - start))
