"""Tier-1 census: the statements of the package's function bodies that no
tier-1 test executes.

Runs pytest on ``tests/`` in this process under ``reach_census.traced``
and prints the census in the form ``reach_census`` prints it.
``test_reach`` is deselected: it spawns a child process, which the trace
does not follow.  Outside the test suite: ``python -m tests.tier1_census``
from the repository root; further arguments go to pytest.
"""

import sys

import pytest

from tests import reach_census


def main(argv) -> int:
    with reach_census.traced() as seen:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--deselect", "tests/test_reach.py", *argv])
    reach_census.main(seen)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
