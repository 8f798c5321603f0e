"""Sample-level error metrics, the aggregate-metric pitfall, and curve fits."""

from __future__ import annotations

import weakref
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .cache import (
    Permutation,
    ThresholdVector,
    _outcomes,
    _write_rows,
    best_packed_prefix,
    pack_outcomes,
    prefix_ones,
)

CURVE_FIELDS = ("budget", "mae", "agg_error", "aleatoric", "epistemic")

_DECAY_B_MAX = 1.0  # upper end of fit_exp_decay's search over the rate b


@dataclass(frozen=True)
class ErrorReport:
    """All error components of one budgeted evaluation."""

    mae: float
    agg_error: float
    aleatoric: float
    epistemic: float
    budget: int

    def __post_init__(self) -> None:
        for name in ("mae", "agg_error", "aleatoric", "epistemic"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")
        if self.budget < 0:
            raise ValueError("budget must be non-negative")

    def to_dict(self) -> dict:
        return asdict(self)


class RankedTruth:
    """One outcome row in rank order, scored against step vectors [1]*k + [0]*rest.

    The one mismatch scorer: every command builds one per truth row and
    ranking, then calls ``report(k, budget)`` once per budget.  ``truth``
    must be a 0/1 row as long as ``perm`` (``ValueError`` otherwise); it is
    read once, so changing it later changes no score.  A cut k must lie in
    [0, n].  ``best_k`` is the cut with the fewest mismatches, the smallest
    on ties.

    Holds the ranked row as n/8 packed bytes (``cache.pack_outcomes``): a
    mismatch count is a popcount of the first k bits, and the best cut is
    searched over the packed bytes once, when it is built: every caller
    reports at least once.
    """

    def __init__(self, truth: np.ndarray, perm: Permutation) -> None:
        truth = _outcomes(truth, len(perm), "truth")
        self.size = truth.size
        self.packed = pack_outcomes(truth[perm.order])
        self.ones = prefix_ones(self.packed, self.size)
        self.best_k = best_packed_prefix(self.packed)

    def mismatches(self, k: int) -> int:
        """Zeros among the first k ranks plus ones among the rest."""
        if not 0 <= k <= self.size:
            raise ValueError(f"cut {k} outside [0, {self.size}]")
        before = prefix_ones(self.packed, k)
        return (k - before) + (self.ones - before)

    def report(self, k: int, budget: int) -> ErrorReport:
        """Error components of the cut k, see ``error_decomposition``."""
        wrong = self.mismatches(k)
        n = self.size
        if n == 0:
            return ErrorReport(0.0, 0.0, 0.0, 0.0, budget)
        best = self.best_k
        return ErrorReport(
            mae=wrong / n,
            agg_error=abs(k - self.ones) / n,
            aleatoric=self.mismatches(best) / n,
            epistemic=abs(best - k) / n,
            budget=budget,
        )


# (weak reference to a Permutation, a truth row packed in original order,
# its RankedTruth): the last row ``_ranked_truth`` ranked, swapped as one
# tuple so that threads racing on it cost at most a miss
_last_ranked: tuple | None = None


def _ranked_truth(truth: np.ndarray, perm: Permutation) -> RankedTruth:
    """``RankedTruth(truth, perm)``, reused while the same row and ranking recur.

    A call hits only when ``perm`` is the very Permutation object of the last
    call and ``truth``'s bits equal that call's, compared in full; a hit
    costs one packing of the row and one compare instead of a gather.  It
    relies on a Permutation not changing after it is built, as ``SortResult``
    and ``AccuracyCache`` also do.  The memo holds n/4 bytes and only a weak
    reference, so it never keeps a Permutation alive, and a new one that
    reuses a dead one's ``id`` cannot hit.
    """
    global _last_ranked
    key = pack_outcomes(truth)
    last = _last_ranked
    if last is not None and last[0]() is perm and np.array_equal(last[1], key):
        return last[2]
    ranked = RankedTruth(truth, perm)
    _last_ranked = (weakref.ref(perm), key, ranked)
    return ranked


def mae(truth: np.ndarray, pred: ThresholdVector, perm: Permutation) -> float:
    """Fraction of positions where the ranked truth disagrees with the step."""
    return error_decomposition(truth, pred, perm).mae


def agg_error(truth: np.ndarray, pred: ThresholdVector) -> float:
    """Absolute difference of the two accuracy counts, normalized by n."""
    truth = _outcomes(truth, pred.length, "truth")
    if truth.size == 0:
        return 0.0
    return abs(pred.k - int(truth.sum())) / truth.size


def adversarial_construction(truth: np.ndarray) -> np.ndarray:
    """Worst prediction that still matches the aggregate count exactly.

    Flips every hit to a miss and compensates on the first misses (all of
    them when exactly balanced); with more hits than misses, the complement
    of that construction on the complement, giving zero aggregate error and
    per-sample error 2 * min(acc, 1 - acc).
    """
    a = _outcomes(truth, name="truth")
    hits = int(a.sum())
    if 2 * hits > a.size:
        return ~adversarial_construction(~a)
    y = np.zeros_like(a)
    y[np.flatnonzero(~a)[:hits]] = True
    return y


def error_decomposition(
    truth: np.ndarray,
    pred: ThresholdVector,
    perm: Permutation,
    budget: int = 0,
) -> ErrorReport:
    """Split the error into a ranking floor and a sampling gap.

    The floor (aleatoric) is the best any threshold could do on the ranked
    truth; the gap (epistemic) is how far the budgeted cut k landed from
    that optimum, |k* - k| / n.  Calls for one row under one Permutation,
    one per budget, gather and rank the row once (``_ranked_truth``); a
    caller that holds the row scores it with one ``RankedTruth`` instead.
    """
    truth = _outcomes(truth, pred.length, "truth")
    if len(perm) != truth.size:
        raise ValueError("permutation length does not match truth")
    return _ranked_truth(truth, perm).report(pred.k, budget)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, equal values sharing their mean rank."""
    idx = np.argsort(values, kind="stable")
    sorted_vals = values[idx]
    new_group = np.r_[True, sorted_vals[1:] != sorted_vals[:-1]]
    group = np.cumsum(new_group) - 1
    counts = np.bincount(group)
    starts = np.cumsum(counts) - counts
    mean_rank = starts + (counts - 1) / 2.0 + 1.0
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[idx] = mean_rank[group]
    return ranks


def rank_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rho with average ranks for ties; NaN when degenerate."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be 1-dimensional and equally long")
    if x.size < 2:
        raise ValueError("need at least two observations")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx @ rx) * (ry @ ry))
    if denom == 0.0:
        return float("nan")
    return float((rx @ ry) / denom)


class ExpDecayFit(NamedTuple):
    a: float
    b: float
    c: float
    r2: float


def _decay_lstsq(x: np.ndarray, e: np.ndarray, b: float) -> tuple[float, np.ndarray]:
    design = np.column_stack([np.exp(-b * x), np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, e, rcond=None)
    resid = e - design @ coef
    return float(resid @ resid), coef


def fit_exp_decay(budgets: np.ndarray, errors: np.ndarray) -> ExpDecayFit:
    """Least-squares a*exp(-b*x) + c, golden-section searching b in [0, _DECAY_B_MAX].

    Each candidate b gets a closed-form linear solve for (a, c); constant
    inputs short-circuit to a flat fit with r2 defined as 1.
    """
    x = np.asarray(budgets, dtype=np.float64)
    e = np.asarray(errors, dtype=np.float64)
    if x.shape != e.shape or x.ndim != 1:
        raise ValueError("budgets and errors must be 1-dimensional and equal length")
    if x.size < 4:
        raise ValueError("need at least four points")
    if np.any(x <= 0):
        raise ValueError("budgets must be positive")
    if np.ptp(e) == 0.0:
        return ExpDecayFit(0.0, 0.0, float(e[0]), 1.0)

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, _DECAY_B_MAX
    b1 = hi - invphi * (hi - lo)
    b2 = lo + invphi * (hi - lo)
    f1, _ = _decay_lstsq(x, e, b1)
    f2, _ = _decay_lstsq(x, e, b2)
    while hi - lo > 1e-12:
        if f1 <= f2:
            hi, b2, f2 = b2, b1, f1
            b1 = hi - invphi * (hi - lo)
            f1, _ = _decay_lstsq(x, e, b1)
        else:
            lo, b1, f1 = b1, b2, f2
            b2 = lo + invphi * (hi - lo)
            f2, _ = _decay_lstsq(x, e, b2)
    b = b1 if f1 <= f2 else b2
    sse, coef = _decay_lstsq(x, e, b)
    sst = float(((e - e.mean()) ** 2).sum())
    r2 = 1.0 - sse / sst if sst > 0 else 1.0
    return ExpDecayFit(float(coef[0]), float(b), float(coef[1]), float(r2))


def write_error_curve(path: str | Path, reports: Iterable[ErrorReport]) -> None:
    """CSV of per-budget error components, one row per report."""
    rows = [
        (r.budget, repr(r.mae), repr(r.agg_error), repr(r.aleatoric), repr(r.epistemic))
        for r in reports
    ]
    _write_rows(path, [CURVE_FIELDS] + rows)
