"""Every public function and method of the package is entered by a short
run of CLI calls, or kept by name in ``test_imports.KEEP``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_imports import KEEP, PACKAGE, public_functions

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

# Runs the calls in one fresh process with a profile hook installed before
# the package is imported, and prints the code objects that were entered.
CHILD = """
import contextlib, io, json, sys
entered = set()
sys.setprofile(lambda frame, event, arg: event == "call" and entered.add(frame.f_code))
from fibrant import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:
            pass
sys.setprofile(None)
print(json.dumps(sorted({(code.co_filename, code.co_qualname) for code in entered})))
"""


def entered_functions() -> set:
    """(module, qualified name) of each package function the calls enter."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(CALLS)],
        env=env, capture_output=True, text=True, check=True,
    )
    return {
        (Path(filename).stem, qualname)
        for filename, qualname in json.loads(done.stdout)
        if Path(filename).resolve().parent == PACKAGE
    }


@pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects name their class from 3.11")
def test_every_public_function_is_entered():
    entered = entered_functions()
    assert ("cli", "main") in entered and ("weierstrass", "quote_tag") in entered
    unreached = [
        f"{module}.{name}"
        for module, name in public_functions()
        if (module, name) not in entered and name.split(".")[-1] not in KEEP
    ]
    assert unreached == []
