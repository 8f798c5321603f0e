"""Nearest-neighbor comparison baseline: observe a few spots, copy the rest."""

from __future__ import annotations

import numpy as np

from .cache import AccuracyCache, _outcomes
from .search import random_positions


def copy_nearest_expand_from_truth(
    cache: AccuracyCache, truth: np.ndarray, budget: int, seed: int
) -> np.ndarray:
    """Observe ``truth`` at ``budget`` random samples, copy the closest
    cached row everywhere else.

    Positions are drawn without replacement in original coordinates (no
    difficulty ranking).  The reference row minimizing Hamming distance on
    the observed positions, the lowest-indexed on a tie, fills every
    unobserved entry.
    """
    if cache.num_models == 0:
        raise ValueError("cache has no reference rows")
    positions = random_positions(cache.num_samples, budget, seed)
    observed = _outcomes(truth, cache.num_samples, "truth")[positions]
    prediction = cache.row(cache.nearest_row(positions, observed))
    prediction[positions] = observed
    return prediction
