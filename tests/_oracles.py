"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the library's prefix-sum shortcuts: thresholds are
scored by literally counting mismatches for every candidate cut.
"""

from __future__ import annotations

import numpy as np


def threshold_error(bits: np.ndarray, k: int) -> int:
    """Mismatches between ``bits`` and the step vector with cut k."""
    bits = np.asarray(bits).astype(bool)
    return int(np.sum(~bits[:k])) + int(np.sum(bits[k:]))


def best_threshold_error(bits: np.ndarray) -> int:
    """Minimum mismatch count over every cut k in 0..len(bits)."""
    return min(threshold_error(bits, k) for k in range(len(bits) + 1))


def best_threshold_errors_batch(bits: np.ndarray) -> np.ndarray:
    """Row-wise best_threshold_error for a 2-D batch, still scoring every k.

    Evaluates the error of every cut from explicit zero/one prefix counts
    rather than the library's score-argmax trick.
    """
    bits = np.asarray(bits).astype(bool)
    zeros_before = np.concatenate(
        [np.zeros((bits.shape[0], 1), dtype=np.int64), np.cumsum(~bits, axis=1)],
        axis=1,
    )
    ones_before = np.concatenate(
        [np.zeros((bits.shape[0], 1), dtype=np.int64), np.cumsum(bits, axis=1)],
        axis=1,
    )
    ones_after = ones_before[:, -1:] - ones_before
    return (zeros_before + ones_after).min(axis=1)


def hamming_fraction(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a).astype(bool)
    b = np.asarray(b).astype(bool)
    return float(np.mean(a != b)) if a.size else 0.0


def append_column(cache, col, confidence_col=None):
    """``cache`` with one more sample, built by numpy from its dense matrix:
    the reference for ``save_appended_cache``."""
    from lleval import AccuracyCache

    dense = np.concatenate([cache.to_dense(), np.asarray(col, bool)[:, None]], axis=1)
    conf = None
    if confidence_col is not None:
        conf = np.concatenate(
            [cache.confidence, np.asarray(confidence_col, np.float32)[:, None]], axis=1
        )
    return AccuracyCache.from_dense(dense, conf)
