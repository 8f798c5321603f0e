"""Nearest-neighbor comparison baseline: observe a few spots, copy the rest."""

from __future__ import annotations

import numpy as np

from .cache import AccuracyCache
from .search import Oracle, _batch_oracle


def _nearest_fill(
    cache: AccuracyCache, positions: np.ndarray, outcomes: np.ndarray
) -> np.ndarray:
    sampled = (cache.bits[:, positions // 8] >> (positions % 8).astype(np.uint8)) & 1
    distances = (sampled != outcomes.astype(np.uint8)).sum(axis=1)
    nearest = int(np.argmin(distances))  # ties: lowest row index
    prediction = cache.row(nearest).copy()
    prediction[positions] = outcomes
    return prediction


def _draw_positions(cache: AccuracyCache, budget: int, seed: int) -> np.ndarray:
    if cache.num_models == 0:
        raise ValueError("cache has no reference rows")
    if not 1 <= budget <= cache.num_samples:
        raise ValueError(f"budget {budget} outside [1, {cache.num_samples}]")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(cache.num_samples, size=budget, replace=False))


def copy_nearest_expand(
    cache: AccuracyCache, oracle: Oracle, budget: int, seed: int
) -> np.ndarray:
    """Observe ``budget`` random samples, copy the closest cached row elsewhere.

    Positions are drawn without replacement in original coordinates (no
    difficulty ranking).  The reference row minimizing Hamming distance on
    the observed positions fills every unobserved entry.
    """
    positions = _draw_positions(cache, budget, seed)
    return _nearest_fill(cache, positions, _batch_oracle(oracle)(positions))


def copy_nearest_expand_from_truth(
    cache: AccuracyCache, truth: np.ndarray, budget: int, seed: int
) -> np.ndarray:
    """``copy_nearest_expand`` for a fully known outcome row."""
    positions = _draw_positions(cache, budget, seed)
    truth = np.asarray(truth).astype(bool)
    if truth.shape != (cache.num_samples,):
        raise ValueError("truth length does not match cache columns")
    return _nearest_fill(cache, positions, truth[positions])
