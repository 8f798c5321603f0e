"""In-memory span tracer that wraps lleval's functions from outside.

Wrappers replace module attributes where callers look them up (for example
``lleval.cli.load_cache``, since ``cli`` imported the name) and methods on
``AccuracyCache``.  Each call records a span: name, start, end, parent and,
where asked, the tracemalloc peak inside it.  Spans opened on a thread with
no open span (``simulate``'s pool threads) take as parent the innermost span
of the op's own thread, which is waiting for them.  Spans stay in memory;
``summary()`` turns one op's spans into per-name calls and self times.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path


class _Span:
    __slots__ = ("id", "parent", "name", "start", "end", "leaf_s", "peak", "nbytes")

    def __init__(self, sid: int, parent: int | None, name: str) -> None:
        self.id, self.parent, self.name = sid, parent, name
        self.start = self.end = 0.0
        self.leaf_s = 0.0
        self.peak = 0
        self.nbytes = 0


def targets() -> list[tuple]:
    """(owner, attribute, span name, record tracemalloc peak, bytes of a call)."""
    import lleval
    import lleval.cli

    cli, cache, search, sort, metrics = (
        lleval.cli, lleval.cache, lleval.search, lleval.sort, lleval.metrics)

    def written(args):
        return Path(args[1]).stat().st_size

    def packed(args):
        return args[0].bits.nbytes

    return [
        (cli, "main", "cli.main", False, None),
        (cli, "load_cache", "cache.load_cache", True, None),
        (cli, "save_cache", "cache.save_cache", False, written),
        (cli, "sort_by_sum", "sort.sort_by_sum", False, None),
        (cli, "save_permutation", "sort.save_permutation", False, None),
        (cli, "save_sums", "sort.save_sums", False, None),
        (cli, "evaluate_from_truth", "search.evaluate_from_truth", False, None),
        (cli, "evaluate_new_sample", "search.evaluate_new_sample", False, None),
        (cli, "dp_search", "search.dp_search", False, None),
        (cli, "error_decomposition", "metrics.error_decomposition", False, None),
        (cli, "fit_exp_decay", "metrics.fit_exp_decay", False, None),
        (cli, "write_error_curve", "metrics.write_error_curve", False, None),
        (cli, "copy_nearest_expand_from_truth",
         "baseline.copy_nearest_expand_from_truth", False, None),
        (search, "evaluate_new_model", "search.evaluate_new_model", False, None),
        (search, "extrapolate", "search.extrapolate", False, None),
        (search, "dp_search", "search.dp_search", False, None),
        (metrics, "error_decomposition", "metrics.error_decomposition", False, None),
        (metrics, "dp_search", "search.dp_search", False, None),
        (sort, "sort_by_sum", "sort.sort_by_sum", False, None),
        (sort, "stable_append", "sort.stable_append", False, None),
        (sort, "dp_search", "search.dp_search", False, None),
        (lleval.synthgen, "generate", "synthgen.generate", False, None),
        (cache.AccuracyCache, "column_sums", "cache.column_sums", False, packed),
        (cache.AccuracyCache, "transpose", "cache.transpose", True, None),
        (cache.AccuracyCache, "append_column", "cache.append_column", False, None),
    ]


class Tracer:
    def __init__(self, targets: list[tuple]) -> None:
        self._targets = targets
        self._saved: list[tuple] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._op_stack: list[_Span] | None = None
        self.spans: list[_Span] = []
        self.leaves: dict[str, list] = {}

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, peak, nbytes in self._targets:
            fn = owner.__dict__.get(attr)
            if fn is None:  # a later version of the program may drop it
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, peak, nbytes))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name: str, peak: bool, nbytes):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            owns_peak = peak and not tracemalloc.is_tracing()
            if owns_peak:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
                if nbytes is not None:
                    span.nbytes = nbytes(args)
                return result
            finally:
                if owns_peak:
                    span.peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._exit(span)

        return traced

    def timed_leaf(self, name: str, fn):
        """Wrap a hot callable in a counter and a timer instead of spans.

        Call it inside ``op()`` and call the result only from the op's
        thread; it skips the lock to keep the per-call cost low.
        """
        entry = self.leaves.setdefault(name, [0, 0.0])
        local, clock = self._local, time.perf_counter

        def timed(*args):
            t0 = clock()
            result = fn(*args)
            seconds = clock() - t0
            local.stack[-1].leaf_s += seconds
            entry[0] += 1
            entry[1] += seconds
            return result

        return timed

    # -- recording -----------------------------------------------------------

    @contextlib.contextmanager
    def op(self):
        """Root span of one op; clears the previous op's spans."""
        self.spans = []
        self.leaves = {}
        root = self._enter("op")
        self._op_stack = self._local.stack
        try:
            yield
        finally:
            self._exit(root)
            self._op_stack = None

    def _enter(self, name: str) -> _Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1].id
        elif self._op_stack:
            parent = self._op_stack[-1].id
        else:
            parent = None
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        span = _Span(sid, parent, name)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: _Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()
        with self._lock:
            self.spans.append(span)

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per name: calls, self seconds, bytes and peak bytes in the last op.

        Self time is a span's duration minus the union of its children's
        intervals and the timed leaves called directly inside it.
        """
        children = defaultdict(list)
        for span in self.spans:
            children[span.parent].append((span.start, span.end))
        out: dict[str, dict] = {}
        for span in self.spans:
            covered = _covered(children.get(span.id, []), span.start, span.end)
            entry = out.setdefault(
                span.name, {"calls": 0, "self_s": 0.0, "nbytes": 0, "peak": 0})
            entry["calls"] += 1
            entry["self_s"] += span.end - span.start - covered - span.leaf_s
            entry["nbytes"] += span.nbytes
            entry["peak"] = max(entry["peak"], span.peak)
        for name, (calls, seconds) in self.leaves.items():
            out[name] = {"calls": calls, "self_s": seconds, "nbytes": 0, "peak": 0}
        return out


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` inside [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
