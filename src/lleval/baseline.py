"""Nearest-neighbor comparison baseline: observe a few spots, copy the rest."""

from __future__ import annotations

import numpy as np

from .cache import AccuracyCache, _outcomes
from .search import Oracle, _batch_oracle, random_positions


def _nearest_fill(
    cache: AccuracyCache, positions: np.ndarray, outcomes: np.ndarray
) -> np.ndarray:
    prediction = cache.row(cache.nearest_row(positions, outcomes))
    prediction[positions] = outcomes
    return prediction


def _draw_positions(cache: AccuracyCache, budget: int, seed: int) -> np.ndarray:
    if cache.num_models == 0:
        raise ValueError("cache has no reference rows")
    return random_positions(cache.num_samples, budget, seed)


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
    truth = _outcomes(truth, cache.num_samples, "truth")
    return _nearest_fill(cache, positions, truth[positions])
