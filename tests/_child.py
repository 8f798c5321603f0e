"""A child process's own peak RSS, and a traced block's Python memory,
shared by ``tests/`` and ``ci/``.

Inside pytest, ``RUSAGE_CHILDREN`` counts every earlier child, and Linux
carries a peak RSS across fork and exec, so a child forked straight from the
test runner starts from the runner's peak.  ``run_child`` therefore starts
the measured child from a bare interpreter, and the child reads its own
``RUSAGE_SELF`` through ``PEAK``.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import tracemalloc
from collections.abc import Callable, Iterator
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


@contextlib.contextmanager
def traced() -> Iterator[Callable[[], tuple[int, int]]]:
    """Trace Python's allocations while the ``with`` body runs, and yield a
    function returning the bytes held now and the most held at once, each
    less the bytes held on entry.  Tracing stops when the body ends, also
    when it raises, so a failed measurement leaves no later test traced."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        yield lambda: tuple(size - before for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
