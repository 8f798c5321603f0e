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

from .cache import AccuracyCache, _row_bytes, pack_outcomes

_PARAM_STREAM = 0
_ROW_STREAM = 1
_HOLDOUT_STREAM = 2
_ABILITY_STREAM = 3


class _SpecError(ValueError):
    """A ``SynthSpec`` field that breaks its rule; ``field`` names it."""

    def __init__(self, field: str, value, rule: str) -> None:
        super().__init__(f"{field} {rule}, not {value}")
        self.field, self.value, self.rule = field, value, rule


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
        for count in ("num_models", "num_samples"):
            if getattr(self, count) < 0:
                raise _SpecError(count, getattr(self, count), "must be non-negative")
        lo, hi = self.ability_range
        if not lo <= hi:
            raise _SpecError("ability_range", self.ability_range, "must be ordered")
        if not self.temperature > 0:
            raise _SpecError("temperature", self.temperature, "must be positive")
        if not 0.0 <= self.noise <= 0.5:
            raise _SpecError("noise", self.noise, "must lie in [0, 0.5]")
        if self.seed < 0:
            raise _SpecError("seed", self.seed, "must be non-negative")
        object.__setattr__(self, "ability_range", (float(lo), float(hi)))

    def to_dict(self) -> dict:
        return {**asdict(self), "ability_range": list(self.ability_range)}


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # out may be x itself: x is read for the last time before out is written.
    # exp(-|x|) never overflows; each sign takes the float steps of the
    # two-branch form 1 / (1 + exp(-x)) and exp(x) / (1 + exp(x)).  The
    # numerator is 1 where x >= 0 (there e <= 1) and e elsewhere (e >= 0).
    e = np.abs(x)
    np.exp(np.negative(e, out=e), out=e)
    numerator = np.maximum(e, x >= 0, out=out)
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
    p = _sigmoid(x, out=x)  # x's buffer holds p: one float row fewer at once
    p *= 1.0 - spec.noise
    p += 0.5 * spec.noise
    return p


def generate(
    spec: SynthSpec, include_confidence: bool = False, map: Callable = map
) -> tuple[AccuracyCache, np.ndarray, np.ndarray]:
    """Draw a cache; returns (cache, abilities, difficulties).

    ``map`` applies the row function to every row index, for example a
    thread pool's ``map``.  Each row draws from its own (seed, index) stream
    and is packed where it is drawn, into its own row of one preallocated
    array, so the cache never depends on the order in which ``map`` runs.
    """
    difficulties, abilities = _params(spec)
    m, n = spec.num_models, spec.num_samples
    bits = np.empty((m, _row_bytes(n)), dtype=np.uint8)
    confidence = np.zeros((m, n), dtype=np.float32) if include_confidence else None

    def row(i: int) -> None:
        p = _correct_probability(spec, float(abilities[i]), difficulties)
        if confidence is not None:
            confidence[i] = p
        draw = np.random.default_rng([spec.seed, _ROW_STREAM, i]).random(n)
        bits[i] = pack_outcomes(draw < p)

    for _ in map(row, range(m)):
        pass
    return AccuracyCache(m, n, bits, confidence), abilities, difficulties


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


def holdout_abilities(spec: SynthSpec, count: int) -> np.ndarray:
    """Deterministic abilities for a held-out model population."""
    if count < 0:
        raise ValueError("count must be non-negative")
    lo, hi = spec.ability_range
    rng = np.random.default_rng([spec.seed, _ABILITY_STREAM])
    return rng.uniform(lo, hi, count)
