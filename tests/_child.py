"""A child process's own peak RSS, shared by ``tests/`` and ``ci/``.

Inside pytest, ``RUSAGE_CHILDREN`` counts every earlier child, and Linux
carries a peak RSS across fork and exec, so a child forked straight from the
test runner starts from the runner's peak.  ``run_child`` therefore starts
the measured child from a bare interpreter, and the child reads its own
``RUSAGE_SELF`` through ``PEAK``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections.abc import Iterator
from pathlib import Path

import lleval

# prepended to a child's source: ``peak()`` is the child's own peak RSS in bytes
PEAK = (
    "import resource, sys\n"
    "def peak():\n"
    "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024\n"
)


def run_child(child: str, arg: str | Path) -> Iterator[int]:
    """The numbers the Python source ``child`` prints last, run with ``arg``
    as its argument and lleval's source on its path.  The child is started
    by a bare interpreter, not by this process."""
    src = str(Path(lleval.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    launch = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    argv = [sys.executable, "-c", launch, sys.executable, "-c", child, str(arg)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return map(int, proc.stdout.splitlines()[-1].split())
