"""Smoke test of ``python -m tests.paired``, the paired timing tool."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_working_tree_against_itself():
    argv = ["--parent", str(ROOT), "--pairs", "2", "--", "monodromy", "--bound=3"]
    done = subprocess.run(
        [sys.executable, "-m", "tests.paired", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "monodromy --bound=3"
    assert [line.split()[0] for line in lines[1:3]] == ["parent", "work"]
    assert "median" in lines[1] and "quartiles" in lines[2]
    assert lines[3].startswith("  work won ") and " of 2 pairs; gain claimed: " in lines[3]
    assert lines[4] == "  stdout identical: yes"
