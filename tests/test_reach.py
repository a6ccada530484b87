"""Every public function and method of the package is entered by a short
run of CLI calls, or kept by name in ``test_imports.KEEP``."""

import json
import subprocess
import sys
from pathlib import Path

from test_imports import KEEP, public_functions

# All seven commands, the markdown report and inputs that are rejected:
# by a cap, by the genericity check, by argparse, and with a quoted tag.
CALLS = [
    ["analyze", "--alpha", "1"],
    ["analyze", "--alpha", "101/13", "--format", "md"],
    ["classify-triple", "1", "2", "3"],
    ["collide", "I1", "I2"],
    ["blowup-demo", "cusp"],
    ["blowup-demo", "p010"],
    ["blowup-demo", "p001", "--alpha", "3/2"],
    ["bracket-check", "--m", "1/2"],
    ["sample-fiber", "--h3", "3/5", "--h4", "2/7", "--a", "1/3", "--m", "1/2", "-n", "2"],
    ["monodromy", "--bound", "4"],
    ["analyze", "--alpha", "4"],
    ["collide", "I6000", "I6000"],
    ["monodromy", "--bound", "1001"],
    ["sample-fiber", "--h3", "0", "--h4", "0", "--a", "0", "--m", "0", "-n", "10001"],
    ["classify-triple", "1", "x", "3"],
]

def entered_functions() -> set:
    """(module, qualified name) of each package function with a statement
    that ``reach_census`` saw run, importing the package in a fresh process
    and making the calls."""
    child = "import json, reach_census; print(json.dumps([[m, f] for m, t in "
    child += "reach_census.census().items() for f, (missed, n) in t.items() if len(missed) < n]))"
    done = subprocess.run(
        [sys.executable, "-c", child], cwd=Path(__file__).parent,
        capture_output=True, text=True, check=True,
    )
    return set(map(tuple, json.loads(done.stdout)))


def test_every_public_function_is_entered():
    entered = entered_functions()
    assert ("cli", "main") in entered and ("weierstrass", "quote_tag") in entered
    unreached = [
        f"{module}.{name}"
        for module, name in public_functions()
        if (module, name) not in entered and name.split(".")[-1] not in KEEP
    ]
    assert unreached == []
