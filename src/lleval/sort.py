"""Difficulty ranking of cache columns and its stability under growth.

All variants order columns easy-to-hard: descending per-column totals, ties
broken by ascending original index; the cache computes the totals and this
module only orders them.  Recursive refinement re-sorts tied groups using
only the rows whose optimal cut falls inside the group, since no other row
can tell the tied columns apart.
"""

from __future__ import annotations

import numpy as np

from .cache import AccuracyCache, Permutation, SortMethod, SortResult, ThresholdVector
from .metrics import RankedTruth


# values turned into sort words, or read back from them, at once: bounds that scratch
_WORD_CHUNK = 1 << 16


def _sort_descending(values: np.ndarray) -> np.ndarray:
    """Sort ``values`` descending in place; return the order that does it,
    equal values by ascending index.

    Integers become distinct words ``(vmax - value) << index_bits | index``,
    uint32 when they fit and uint64 otherwise, so one unstable in-place sort
    gives the stable order.  The sorted values are read back from the words'
    high bits, then the words are masked in place and viewed as the order:
    the values and the words are the only length-n arrays.  Floats, and
    integers too wide for 64-bit words, take a stable argsort.
    """
    n = values.size
    integer = np.issubdtype(values.dtype, np.integer)
    if integer and n:
        shift = (n - 1).bit_length()
        vmax = int(values.max())
        width = (vmax - int(values.min())).bit_length() + shift
        if width <= 64:
            word = np.uint32 if width <= 32 else np.uint64
            return _sort_words(values, vmax, shift, word)
    # ~ reverses any integer order without overflow, unlike negation
    flip = np.invert if integer else np.negative
    order = np.argsort(flip(values), kind="stable")
    flip(values, out=values)
    values.sort()
    flip(values, out=values)
    return order


def _sort_words(values: np.ndarray, vmax: int, shift: int, word: type) -> np.ndarray:
    words = np.arange(values.size, dtype=word)
    # vmax - value fits the word, so wrapping word arithmetic gives it exactly
    top, bits = word(vmax % (1 << 8 * words.itemsize)), word(shift)
    for lo in range(0, values.size, _WORD_CHUNK):
        key = values[lo : lo + _WORD_CHUNK].astype(word)
        np.subtract(top, key, out=key)
        key <<= bits
        words[lo : lo + _WORD_CHUNK] |= key
    words.sort()  # distinct words: any sort gives the stable order
    top = values.dtype.type(vmax)
    for lo in range(0, values.size, _WORD_CHUNK):
        chunk = values[lo : lo + _WORD_CHUNK]
        key = words[lo : lo + _WORD_CHUNK] >> bits
        np.subtract(top, key, out=chunk, dtype=values.dtype, casting="unsafe")
    words &= word((1 << shift) - 1)
    return words.view(np.int32 if word is np.uint32 else np.int64)


def _tied_runs(values: np.ndarray) -> list[tuple[int, int]]:
    """Maximal [lo, hi] runs of equal adjacent values with at least 2 items."""
    edges = np.flatnonzero(values[1:] != values[:-1]) + 1
    edges = np.concatenate(([0], edges, [values.size]))
    lo, hi = edges[:-1], edges[1:]
    tied = hi - lo >= 2
    return list(zip(lo[tied].tolist(), (hi[tied] - 1).tolist()))


def _ranked(totals: np.ndarray, method: SortMethod) -> SortResult:
    """Rank by ``totals``, which it sorts in place into rank order: no
    ``totals[order]`` gather (a third length-n array) is needed, and the
    order, a permutation by construction, is not checked again."""
    order = _sort_descending(totals)
    return SortResult(Permutation._built(order), totals, method)


def sort_by_sum(cache: AccuracyCache) -> SortResult:
    """Rank columns by how many rows hit them (popcount), easy first."""
    return _ranked(cache.column_sums(), SortMethod.SUM)


def sort_models_by_sum(cache: AccuracyCache) -> SortResult:
    """Rank models (rows) as ``sort_by_sum`` ranks columns, most accurate first."""
    return _ranked(cache.row_sums(), SortMethod.SUM)


def sort_by_confidence_sum(cache: AccuracyCache) -> SortResult:
    """Same ranking computed on the confidence matrix's column sums."""
    if cache.confidence is None:
        raise ValueError("cache has no confidence matrix")
    sums = cache.confidence.sum(axis=0, dtype=np.float64)
    return _ranked(sums, SortMethod.CONFIDENCE_SUM)


def threshold_all_rows(
    cache: AccuracyCache, perm: Permutation
) -> list[ThresholdVector]:
    """Optimal cut of every row under the given column order."""
    if len(perm) != cache.num_samples:
        raise ValueError("permutation length does not match cache columns")
    n = cache.num_samples
    return [
        ThresholdVector(n, RankedTruth(cache.row(i), perm).best_k)
        for i in range(cache.num_models)
    ]


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
    # int64: numpy gathers through an int32 index about 1.5x slower
    order = np.array(base.permutation.order, dtype=np.int64)
    blocks = _tied_runs(base.sums)
    depth = 1
    while blocks and depth < max_depth:
        depth += 1
        ks = np.array([t.k for t in threshold_all_rows(cache, Permutation(order))])
        next_blocks: list[tuple[int, int]] = []
        for lo, hi in blocks:
            rows = np.flatnonzero((ks > lo) & (ks <= hi))
            if rows.size == 0:
                next_blocks.append((lo, hi))
                continue
            cols = order[lo : hi + 1]
            sub = cache.bits_at(cols, rows).sum(axis=0, dtype=np.int64)
            within = _sort_descending(sub)
            order[lo : hi + 1] = cols[within]
            for l2, h2 in _tied_runs(sub):
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

