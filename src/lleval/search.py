"""Budgeted evaluation: pick positions, observe, fit and extrapolate a threshold.

Works in rank coordinates produced by the sort phase.  The same pipeline
serves both directions: predicting a new model's outcomes over ranked
samples, and ranking a new sample's difficulty over accuracy-ranked models.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable

import numpy as np

from .cache import ThresholdVector

if TYPE_CHECKING:  # pragma: no cover
    from .sort import SortResult

Oracle = Callable[[int], bool]


class SamplingStrategy(str, Enum):
    UNIFORM = "uniform"
    RANDOM = "random"


@dataclass(frozen=True, eq=False)
class SampleSelection:
    """Evaluated positions (rank coordinates) and their observed outcomes."""

    positions: np.ndarray
    outcomes: np.ndarray
    strategy: SamplingStrategy = SamplingStrategy.UNIFORM
    seed: int | None = None

    def __post_init__(self) -> None:
        positions = np.ascontiguousarray(np.asarray(self.positions, dtype=np.int64))
        outcomes = np.ascontiguousarray(np.asarray(self.outcomes, dtype=bool))
        if positions.ndim != 1 or outcomes.ndim != 1:
            raise ValueError("positions and outcomes must be 1-dimensional")
        if positions.size != outcomes.size:
            raise ValueError("positions and outcomes lengths differ")
        if positions.size:
            if int(positions.min()) < 0:
                raise ValueError("positions must be non-negative")
            if np.any(np.diff(positions) <= 0):
                raise ValueError("positions must be strictly increasing")
        positions.flags.writeable = False
        outcomes.flags.writeable = False
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "strategy", SamplingStrategy(self.strategy))

    @property
    def budget(self) -> int:
        return self.positions.size


def uniform_positions(total: int, budget: int) -> np.ndarray:
    """budget interior grid points: floor((j+1) * total / (budget+1))."""
    if not 1 <= budget <= total:
        raise ValueError(f"budget {budget} outside [1, {total}]")
    j = np.arange(1, budget + 1, dtype=np.int64)
    return (j * total) // (budget + 1)


def random_positions(total: int, budget: int, seed: int) -> np.ndarray:
    """budget distinct positions without replacement, sorted ascending."""
    if not 1 <= budget <= total:
        raise ValueError(f"budget {budget} outside [1, {total}]")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(total, size=budget, replace=False)).astype(np.int64)


def dp_search(observations: np.ndarray) -> ThresholdVector:
    """Threshold minimizing disagreement with a [1...1 0...0] step vector.

    Scans the running score sum(2*b - 1) once; its argmax over prefixes
    (including the empty prefix) is the optimal cut.  Ties resolve to the
    smallest cut.  O(L) time.
    """
    bits = np.asarray(observations).astype(bool)
    if bits.ndim != 1:
        raise ValueError("observations must be 1-dimensional")
    length = bits.size
    if length == 0:
        return ThresholdVector(0, 0)
    score = np.cumsum(2 * bits.astype(np.int64) - 1)
    best = int(score.max())
    k = int(np.argmax(score)) + 1 if best > 0 else 0
    return ThresholdVector(length, k)


def extrapolate(selection: SampleSelection, total: int) -> ThresholdVector:
    """Scale the selection's optimal cut from budget points up to total.

    The fraction k'/budget carries over; the result rounds half-up and is
    clamped to [0, total].
    """
    budget = selection.budget
    if budget == 0:
        raise ValueError("cannot extrapolate from an empty selection")
    if int(selection.positions.max()) >= total:
        raise ValueError("selection positions exceed total length")
    k_small = dp_search(selection.outcomes).k
    k = (2 * k_small * total + budget) // (2 * budget)
    return ThresholdVector(total, int(min(max(k, 0), total)))


def _pick_positions(
    total: int, budget: int, strategy: SamplingStrategy, seed: int | None
) -> np.ndarray:
    strategy = SamplingStrategy(strategy)
    if strategy is SamplingStrategy.UNIFORM:
        return uniform_positions(total, budget)
    if seed is None:
        raise ValueError("random strategy requires a seed")
    return random_positions(total, budget, seed)


def _batch_oracle(oracle: Oracle) -> Callable[[np.ndarray], np.ndarray]:
    """Batch view of a per-index oracle: asks it once per index, in order."""

    def observe(indices: np.ndarray) -> np.ndarray:
        answers = (bool(oracle(i)) for i in indices.tolist())
        return np.fromiter(answers, dtype=bool, count=indices.size)

    return observe


def _evaluate(
    sort: "SortResult",
    observe: Callable[[np.ndarray], np.ndarray],
    budget: int,
    strategy: SamplingStrategy,
    seed: int | None,
) -> tuple[ThresholdVector, SampleSelection]:
    """Observe ``budget`` ranked positions at their original indices, extrapolate."""
    order = sort.permutation.order
    total = order.size
    positions = _pick_positions(total, budget, strategy, seed)
    outcomes = observe(order[positions])
    strategy = SamplingStrategy(strategy)
    selection = SampleSelection(
        positions,
        outcomes,
        strategy,
        seed if strategy is SamplingStrategy.RANDOM else None,
    )
    return extrapolate(selection, total), selection


def evaluate_new_model(
    sort: "SortResult",
    oracle: Oracle,
    budget: int,
    strategy: SamplingStrategy = SamplingStrategy.UNIFORM,
    seed: int | None = None,
) -> tuple[ThresholdVector, SampleSelection]:
    """Predict a new model's full outcome vector from ``budget`` queries.

    Positions are chosen in rank coordinates; the oracle is asked exactly
    ``budget`` times, at the corresponding original sample indices.  Given a
    ranking of models from ``sort_models_by_sum``, it ranks a new sample
    instead: the threshold counts the models expected to get it right, so
    higher means easier.
    """
    return _evaluate(sort, _batch_oracle(oracle), budget, strategy, seed)


def evaluate_from_truth(
    sort: "SortResult",
    truth: np.ndarray,
    budget: int,
    strategy: SamplingStrategy = SamplingStrategy.UNIFORM,
    seed: int | None = None,
) -> tuple[ThresholdVector, SampleSelection]:
    """``evaluate_new_model`` for a fully known outcome row.

    ``truth`` is indexed in original coordinates; results are identical to
    wrapping it in a per-index oracle.
    """
    truth = np.asarray(truth).astype(bool)
    if truth.shape != (sort.num_samples,):
        raise ValueError("truth length does not match permutation")
    return _evaluate(sort, truth.__getitem__, budget, strategy, seed)


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
    prediction = ThresholdVector(int(record["total"]), int(record["threshold"]))
    selection = SampleSelection(
        np.asarray(record["positions"], dtype=np.int64),
        np.asarray(record["outcomes"], dtype=bool),
        SamplingStrategy(record["strategy"]),
        record.get("seed"),
    )
    return prediction, selection
