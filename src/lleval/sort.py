"""Difficulty ranking of cache columns and its stability under growth.

All variants order columns easy-to-hard: descending per-column totals, ties
broken by ascending original index.  Recursive refinement re-sorts tied
groups using only the rows whose optimal cut falls inside the group, since
no other row can tell the tied columns apart.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .cache import AccuracyCache, Permutation, ThresholdVector
from .cache import _check_size, _replacing_writer, _unpack_header
from .metrics import RankedTruth
from .search import dp_search

_PERM_MAGIC = b"LLPM"
_SUMS_MAGIC = b"LLSM"
_IO_VERSION = 1
_IO_HEADER = struct.Struct("<4sIQ")  # magic, version, length

# packed bytes popcounted at once when ranking models: bounds that scratch
_POPCOUNT_CHUNK_BYTES = 1 << 22


class SortMethod(str, Enum):
    SUM = "sum"
    CONFIDENCE_SUM = "conf"
    RECURSIVE_SUM = "recursive"


@dataclass(frozen=True, eq=False)
class SortResult:
    """A column permutation plus the per-column totals in rank order."""

    permutation: Permutation
    sums: np.ndarray
    method: SortMethod

    def __post_init__(self) -> None:
        sums = np.ascontiguousarray(np.asarray(self.sums))
        if sums.shape != (len(self.permutation),):
            raise ValueError("sums length does not match permutation")
        sums.flags.writeable = False
        object.__setattr__(self, "sums", sums)
        object.__setattr__(self, "method", SortMethod(self.method))

    @property
    def num_samples(self) -> int:
        return len(self.permutation)


def _descending_stable_argsort(sums: np.ndarray) -> np.ndarray:
    """Indices ordering ``sums`` descending, equal values by ascending index.

    Integers spanning under 2**16 become uint16 keys, which numpy radix-sorts.
    """
    if np.issubdtype(sums.dtype, np.integer) and sums.size:
        vmax = int(sums.max())
        if vmax - int(sums.min()) < 1 << 16:
            return np.argsort((vmax - sums).astype(np.uint16), kind="stable")
    return np.argsort(-sums, kind="stable")


def _tied_runs(values: np.ndarray) -> list[tuple[int, int]]:
    """Maximal [lo, hi] runs of equal adjacent values with at least 2 items."""
    runs: list[tuple[int, int]] = []
    n = values.size
    lo = 0
    for i in range(1, n + 1):
        if i == n or values[i] != values[lo]:
            if i - lo >= 2:
                runs.append((lo, i - 1))
            lo = i
    return runs


def sort_by_sum(cache: AccuracyCache) -> SortResult:
    """Rank columns by how many rows hit them (popcount), easy first."""
    sums = cache.column_sums()
    order = _descending_stable_argsort(sums)
    return SortResult(Permutation(order), sums[order], SortMethod.SUM)


def sort_models_by_sum(cache: AccuracyCache) -> SortResult:
    """Rank models (rows) as ``sort_by_sum`` ranks columns, most accurate first.

    Popcounts packed rows in chunks, so no m x n matrix is ever built.
    """
    bits = cache.bits
    step = max(1, _POPCOUNT_CHUNK_BYTES // max(1, bits.shape[1]))
    sums = np.empty(cache.num_models, dtype=np.int64)
    for lo in range(0, cache.num_models, step):
        hi = lo + step
        np.bitwise_count(bits[lo:hi]).sum(axis=1, dtype=np.int64, out=sums[lo:hi])
    order = _descending_stable_argsort(sums)
    return SortResult(Permutation(order), sums[order], SortMethod.SUM)


def sort_by_confidence_sum(cache: AccuracyCache) -> SortResult:
    """Same ranking computed on the confidence matrix's column sums."""
    sums = cache.column_sums(use_confidence=True)
    order = _descending_stable_argsort(sums)
    return SortResult(Permutation(order), sums[order], SortMethod.CONFIDENCE_SUM)


def _row_thresholds(cache: AccuracyCache, order: np.ndarray) -> np.ndarray:
    ks = np.empty(cache.num_models, dtype=np.int64)
    for i in range(cache.num_models):
        ks[i] = dp_search(cache.row(i)[order]).k
    return ks


def threshold_all_rows(
    cache: AccuracyCache, perm: Permutation
) -> list[ThresholdVector]:
    """Optimal cut of every row under the given column order."""
    if len(perm) != cache.num_samples:
        raise ValueError("permutation length does not match cache columns")
    n = cache.num_samples
    return [ThresholdVector(n, int(k)) for k in _row_thresholds(cache, perm.order)]


def objective(
    cache: AccuracyCache,
    perm: Permutation,
    thresholds: list[ThresholdVector],
) -> float:
    """Normalized L1 distance between the permuted cache and its step matrix."""
    m, n = cache.num_models, cache.num_samples
    if len(perm) != n:
        raise ValueError("permutation length does not match cache columns")
    if len(thresholds) != m:
        raise ValueError("one threshold per row required")
    if m * n == 0:
        return 0.0
    total = 0
    for i, tv in enumerate(thresholds):
        if tv.length != n:
            raise ValueError("threshold length does not match cache columns")
        total += RankedTruth(cache.row(i), perm).mismatches(tv.k)
    return total / (m * n)


def _group_sums(
    cache: AccuracyCache, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    bytes_block = cache.bits[np.ix_(rows, cols // 8)]
    bits = (bytes_block >> (cols % 8).astype(np.uint8)) & 1
    return bits.sum(axis=0, dtype=np.int64)


def recursive_sort_by_sum(cache: AccuracyCache, max_depth: int = 2) -> SortResult:
    """Sum ranking with iterative tie refinement.

    Each extra depth recomputes per-row optimal cuts on the current order,
    then re-sorts every tied column group by its totals over the rows whose
    cut splits that group (stable; groups with no such row keep their
    order).  Ties that survive stay eligible for the next depth.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    base = sort_by_sum(cache)
    if max_depth == 1 or cache.num_samples == 0:
        return SortResult(base.permutation, base.sums, SortMethod.RECURSIVE_SUM)
    order = np.array(base.permutation.order)
    blocks = _tied_runs(base.sums)
    depth = 1
    while blocks and depth < max_depth:
        depth += 1
        ks = _row_thresholds(cache, order)
        next_blocks: list[tuple[int, int]] = []
        for lo, hi in blocks:
            rows = np.flatnonzero((ks > lo) & (ks <= hi))
            if rows.size == 0:
                next_blocks.append((lo, hi))
                continue
            cols = order[lo : hi + 1]
            sub = _group_sums(cache, rows, cols)
            within = _descending_stable_argsort(sub)
            order[lo : hi + 1] = cols[within]
            for l2, h2 in _tied_runs(sub[within]):
                next_blocks.append((lo + l2, lo + h2))
        blocks = next_blocks
    return SortResult(Permutation(order), base.sums, SortMethod.RECURSIVE_SUM)


def stable_append(sort: SortResult, predicted: ThresholdVector) -> SortResult:
    """Fold a threshold-form row into the totals without reordering.

    The prediction already follows the rank order, so incrementing the first
    k totals cannot break their non-increasing shape; the permutation is
    reused as-is.
    """
    if predicted.length != sort.num_samples:
        raise ValueError("prediction length does not match sort result")
    sums = sort.sums.copy()
    sums[: predicted.k] += 1
    return SortResult(sort.permutation, sums, sort.method)


# -- persistence -------------------------------------------------------------


def save_permutation(perm: Permutation, path: str | Path) -> None:
    with _replacing_writer(path) as fh:
        fh.write(_IO_HEADER.pack(_PERM_MAGIC, _IO_VERSION, len(perm)))
        fh.write(perm.order.astype("<u8").tobytes())


def load_permutation(path: str | Path) -> Permutation:
    payload = _read_array_file(path, _PERM_MAGIC, "<u8")
    return Permutation(payload.astype(np.int64))


def save_sums(sums: np.ndarray, path: str | Path) -> None:
    sums = np.asarray(sums)
    with _replacing_writer(path) as fh:
        fh.write(_IO_HEADER.pack(_SUMS_MAGIC, _IO_VERSION, sums.size))
        fh.write(sums.astype("<f8").tobytes())


def load_sums(path: str | Path) -> np.ndarray:
    return _read_array_file(path, _SUMS_MAGIC, "<f8").copy()


def _read_array_file(path: str | Path, magic: bytes, dtype: str) -> np.ndarray:
    data = Path(path).read_bytes()
    (length,) = _unpack_header(data, magic, _IO_HEADER, _IO_VERSION)
    expected = _IO_HEADER.size + length * np.dtype(dtype).itemsize
    _check_size(len(data), expected, "payload")
    return np.frombuffer(data, dtype=dtype, count=length, offset=_IO_HEADER.size)
