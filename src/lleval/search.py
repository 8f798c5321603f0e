"""Budgeted evaluation: pick positions, observe, fit and extrapolate a threshold.

Works in rank coordinates produced by the sort phase.  The same pipeline
serves both directions: predicting a new model's outcomes over ranked
samples, and ranking a new sample's difficulty over accuracy-ranked models.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike

from .cache import (
    Permutation,
    SortResult,
    ThresholdVector,
    _outcomes,
    best_packed_prefix,
    pack_outcomes,
)

Oracle = Callable[[int], bool]
BatchOracle = Callable[[np.ndarray], ArrayLike]


class SamplingStrategy(str, Enum):
    UNIFORM = "uniform"
    RANDOM = "random"


@dataclass(frozen=True, eq=False)
class SampleSelection:
    """Evaluated positions (rank coordinates) and their observed outcomes;
    arrays needing no conversion are read-only views of the caller's buffers."""

    positions: np.ndarray
    outcomes: np.ndarray
    strategy: SamplingStrategy = SamplingStrategy.UNIFORM
    seed: int | None = None

    def __post_init__(self) -> None:
        positions = np.ascontiguousarray(np.asarray(self.positions, dtype=np.int64)).view()
        if positions.ndim != 1:
            raise ValueError("positions must be 1-dimensional")
        outcomes = np.ascontiguousarray(_outcomes(self.outcomes, positions.size)).view()
        if positions.size:
            if int(positions.min()) < 0:
                raise ValueError("positions must be non-negative")
            if (positions[1:] <= positions[:-1]).any():
                raise ValueError("positions must be strictly increasing")
        positions.flags.writeable = False
        outcomes.flags.writeable = False
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "strategy", SamplingStrategy(self.strategy))

    @property
    def budget(self) -> int:
        return self.positions.size


def _check_budget(budget: int, total: int) -> None:
    """The one rule for a budget: 1 <= budget <= total."""
    if not 1 <= budget <= total:
        raise ValueError(f"budget {budget} outside [1, {total}]")


def uniform_positions(total: int, budget: int) -> np.ndarray:
    """budget interior grid points: floor((j+1) * total / (budget+1))."""
    _check_budget(budget, total)
    j = np.arange(1, budget + 1, dtype=np.int64)
    return (j * total) // (budget + 1)


def random_positions(total: int, budget: int, seed: int) -> np.ndarray:
    """budget distinct positions without replacement, sorted ascending."""
    _check_budget(budget, total)
    positions = np.random.default_rng(seed).choice(total, size=budget, replace=False)
    positions.sort()
    return positions.astype(np.int64, copy=False)


def dp_search(observations: np.ndarray) -> ThresholdVector:
    """Threshold minimizing disagreement with a [1...1 0...0] step vector.

    The optimal cut is the prefix (possibly empty) with the highest running
    score sum(2*b - 1); ties resolve to the smallest cut, found in one scan
    over the L/8 packed bytes (``best_packed_prefix``).
    """
    bits = _outcomes(observations, name="observations")
    return ThresholdVector(bits.size, best_packed_prefix(pack_outcomes(bits)))


def extrapolate(selection: SampleSelection, total: int) -> ThresholdVector:
    """Scale the selection's optimal cut from budget points up to total.

    The fraction k'/budget carries over and rounds half-up; 0 <= k' <= budget
    keeps the result in [0, total].
    """
    budget = selection.budget
    if budget == 0:
        raise ValueError("cannot extrapolate from an empty selection")
    if int(selection.positions.max()) >= total:
        raise ValueError("selection positions exceed total length")
    k_small = dp_search(selection.outcomes).k
    k = (2 * k_small * total + budget) // (2 * budget)
    return ThresholdVector(total, k)


def _pick_positions(
    total: int, budget: int, strategy: SamplingStrategy, seed: int | None
) -> np.ndarray:
    if strategy is SamplingStrategy.UNIFORM:
        return uniform_positions(total, budget)
    if seed is None:
        raise ValueError("random strategy requires a seed")
    return random_positions(total, budget, seed)


def evaluate(
    perm: Permutation,
    oracle: BatchOracle,
    budget: int,
    strategy: SamplingStrategy = SamplingStrategy.UNIFORM,
    seed: int | None = None,
) -> tuple[ThresholdVector, SampleSelection]:
    """Predict a new model's full outcome vector from ``budget`` queries.

    Positions are chosen in rank coordinates, and ``oracle`` is asked once,
    with the original indices at those positions: an integer array, of the
    permutation's dtype, in rank order.  A truth row's ``__getitem__`` is
    such an oracle.  It returns one answer per index, each a bool or a
    number 0 or 1; a string such as "0" is an error, not a truthy hit.
    Given a ranking of models from ``sort_models_by_sum``, it ranks a new
    sample instead: the threshold counts the models expected to get it
    right, so higher means easier.
    """
    order = perm.order
    total = order.size
    strategy = SamplingStrategy(strategy)
    positions = _pick_positions(total, budget, strategy, seed)
    outcomes = _outcomes(oracle(order[positions]), positions.size, "oracle answers")
    selection = SampleSelection(
        positions,
        outcomes,
        strategy,
        seed if strategy is SamplingStrategy.RANDOM else None,
    )
    return extrapolate(selection, total), selection


def evaluate_new_model(
    sort: SortResult,
    oracle: Oracle,
    budget: int,
    strategy: SamplingStrategy = SamplingStrategy.UNIFORM,
    seed: int | None = None,
) -> tuple[ThresholdVector, SampleSelection]:
    """``evaluate`` with a per-index oracle, asked exactly ``budget`` times,
    once per index as a plain int, in rank order."""

    def ask(indices: np.ndarray) -> list:
        return [oracle(i) for i in indices.tolist()]

    return evaluate(sort.permutation, ask, budget, strategy, seed)


# -- JSON interchange --------------------------------------------------------


def prediction_to_dict(
    prediction: ThresholdVector, selection: SampleSelection
) -> dict:
    record = {
        "positions": [int(p) for p in selection.positions],
        "outcomes": [int(o) for o in selection.outcomes],
        "strategy": selection.strategy.value,
        "threshold": prediction.k,
        "total": prediction.length,
    }
    if selection.seed is not None:
        record["seed"] = selection.seed
    return record


def prediction_from_dict(record: dict) -> tuple[ThresholdVector, SampleSelection]:
    """The inverse of ``prediction_to_dict``: the threshold, the total and
    the positions must be whole numbers, and every position in [0, total)."""
    if not isinstance(record, dict):
        raise ValueError(f"prediction must be a JSON object, not {type(record).__name__}")
    for key in ("positions", "outcomes", "strategy", "threshold", "total"):
        if key not in record:
            raise ValueError(f"prediction has no {key!r}")
    for key in ("threshold", "total"):
        if isinstance(record[key], bool) or not isinstance(record[key], (int, np.integer)):
            raise ValueError(f"prediction {key} {record[key]!r} is not a whole number")
    positions = np.asarray(record["positions"])
    if positions.size and positions.dtype.kind not in "iu":
        raise ValueError("prediction positions must be whole numbers")
    prediction = ThresholdVector(int(record["total"]), int(record["threshold"]))
    selection = SampleSelection(
        positions,
        record["outcomes"],
        SamplingStrategy(record["strategy"]),
        record.get("seed"),
    )
    positions, total = selection.positions, prediction.length
    if positions.size and positions[-1] >= total:  # strictly increasing
        outside = int(positions[np.searchsorted(positions, total)])
        raise ValueError(f"prediction position {outside} outside [0, {total})")
    return prediction, selection
