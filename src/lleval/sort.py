"""Difficulty ranking of cache columns and its stability under growth.

The sum and confidence-sum rankings order columns easy-to-hard: descending
per-column totals, ties broken by ascending original index; the cache
computes the totals and this module only orders them.
"""

from __future__ import annotations

import numpy as np

from .cache import AccuracyCache, Permutation, SortMethod, SortResult, ThresholdVector


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
    return _ranked(cache.confidence_sums(), SortMethod.CONFIDENCE_SUM)


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

