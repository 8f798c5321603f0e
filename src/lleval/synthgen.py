"""Synthetic outcome caches from a logistic ability/difficulty model.

Each cell is an independent Bernoulli draw with
p = (1 - noise) * sigmoid((ability - difficulty) / temperature) + noise / 2,
so rows share one global (noisy) difficulty ordering.  All randomness is
keyed by (seed, stream, index), letting held-out rows be regenerated on
demand without storing them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .cache import AccuracyCache

_PARAM_STREAM = 0
_ROW_STREAM = 1
_HOLDOUT_STREAM = 2
_ABILITY_STREAM = 3


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic benchmark draw."""

    num_models: int
    num_samples: int
    ability_range: tuple[float, float] = (0.0, 1.0)
    temperature: float = 0.1
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_models < 0 or self.num_samples < 0:
            raise ValueError("counts must be non-negative")
        lo, hi = self.ability_range
        if not lo <= hi:
            raise ValueError("ability_range must be ordered")
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")
        if not 0.0 <= self.noise <= 0.5:
            raise ValueError("noise must lie in [0, 0.5]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        object.__setattr__(self, "ability_range", (float(lo), float(hi)))

    def to_dict(self) -> dict:
        return {**asdict(self), "ability_range": list(self.ability_range)}

    @classmethod
    def from_dict(cls, record: dict) -> "SynthSpec":
        """The record's fields converted to their types; defaults fill the rest.
        A key that names no field is an error, not a silent default."""
        unknown = sorted(set(record) - set(_SPEC_TYPES))
        if unknown:
            raise ValueError(f"unknown spec key {', '.join(map(repr, unknown))}")
        return cls(**{k: t(record[k]) for k, t in _SPEC_TYPES.items() if k in record})


# the type each SynthSpec field of a record converts to
_SPEC_TYPES = {
    "num_models": int,
    "num_samples": int,
    "ability_range": tuple,
    "temperature": float,
    "noise": float,
    "seed": int,
}


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; each sign takes the float steps of the
    # two-branch form 1 / (1 + exp(-x)) and exp(x) / (1 + exp(x)).  The
    # numerator is 1 where x >= 0 (there e <= 1) and e elsewhere (e >= 0).
    e = np.abs(x)
    np.exp(np.negative(e, out=e), out=e)
    numerator = np.maximum(e, x >= 0)
    e += 1.0
    numerator /= e
    return numerator


def _params(spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([spec.seed, _PARAM_STREAM])
    difficulties = rng.random(spec.num_samples)
    lo, hi = spec.ability_range
    abilities = rng.uniform(lo, hi, spec.num_models)
    return difficulties, abilities


def _correct_probability(
    spec: SynthSpec, ability: float, difficulties: np.ndarray
) -> np.ndarray:
    x = ability - difficulties
    x /= spec.temperature
    p = _sigmoid(x)
    p *= 1.0 - spec.noise
    p += 0.5 * spec.noise
    return p


def generate(
    spec: SynthSpec, include_confidence: bool = False, map: Callable = map
) -> tuple[AccuracyCache, np.ndarray, np.ndarray]:
    """Draw a cache; returns (cache, abilities, difficulties).

    ``map`` applies the row function to every row index, for example a
    thread pool's ``map``.  Each row draws from its own (seed, index) stream
    and rows are packed in index order, so the cache never depends on it.
    """
    difficulties, abilities = _params(spec)
    m, n = spec.num_models, spec.num_samples
    confidence = np.zeros((m, n), dtype=np.float32) if include_confidence else None

    def row(i: int) -> np.ndarray:
        p = _correct_probability(spec, float(abilities[i]), difficulties)
        if confidence is not None:
            confidence[i] = p  # filled before from_rows checks it
        return np.random.default_rng([spec.seed, _ROW_STREAM, i]).random(n) < p

    cache = AccuracyCache.from_rows(n, map(row, range(m)), confidence)
    return cache, abilities, difficulties


def _ability_key(ability: float) -> int:
    return int(np.float64(ability).view(np.uint64))


def holdout_outcomes(spec: SynthSpec, ability: float) -> np.ndarray:
    """Full outcome row of a held-out model with the given ability."""
    difficulties, _ = _params(spec)
    p = _correct_probability(spec, float(ability), difficulties)
    u = np.random.default_rng(
        [spec.seed, _HOLDOUT_STREAM, _ability_key(ability)]
    ).random(spec.num_samples)
    return u < p


def holdout_oracle(spec: SynthSpec, ability: float) -> Callable[[int], bool]:
    """Per-sample query function for a held-out model; answers never change."""
    outcomes = holdout_outcomes(spec, ability)

    def oracle(sample_index: int) -> bool:
        return bool(outcomes[sample_index])

    return oracle


def holdout_abilities(spec: SynthSpec, count: int) -> np.ndarray:
    """Deterministic abilities for a held-out model population."""
    if count < 0:
        raise ValueError("count must be non-negative")
    lo, hi = spec.ability_range
    rng = np.random.default_rng([spec.seed, _ABILITY_STREAM])
    return rng.uniform(lo, hi, count)
