"""Sample-level error metrics, the aggregate-metric pitfall, and curve fits."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .cache import Permutation, ThresholdVector, _write_rows
from .search import dp_search

CURVE_FIELDS = ("budget", "mae", "agg_error", "aleatoric", "epistemic")


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

    @classmethod
    def from_dict(cls, record: dict) -> "ErrorReport":
        return cls(
            mae=float(record["mae"]),
            agg_error=float(record["agg_error"]),
            aleatoric=float(record["aleatoric"]),
            epistemic=float(record["epistemic"]),
            budget=int(record["budget"]),
        )


def _check_lengths(truth: np.ndarray, pred: ThresholdVector) -> np.ndarray:
    truth = np.asarray(truth).astype(bool)
    if truth.ndim != 1:
        raise ValueError("truth must be 1-dimensional")
    if truth.size != pred.length:
        raise ValueError(
            f"truth length {truth.size} does not match prediction {pred.length}"
        )
    return truth


class RankedTruth:
    """One outcome row in rank order, scored against step vectors [1]*k + [0]*rest.

    Built once per (truth, permutation) and then scored at any number of
    cuts; the best cut is searched only when a report first needs it.
    """

    def __init__(self, truth: np.ndarray, perm: Permutation) -> None:
        self.ranked = truth[perm.order]
        self.ones = int(np.count_nonzero(self.ranked))
        self._best_k: int | None = None

    @property
    def best_k(self) -> int:
        # not functools.cached_property: before 3.12 it locks across instances
        if self._best_k is None:
            self._best_k = dp_search(self.ranked).k
        return self._best_k

    def mismatches(self, k: int) -> int:
        """Zeros among the first k ranks plus ones among the rest."""
        before = int(np.count_nonzero(self.ranked[:k]))
        return (k - before) + (self.ones - before)

    def report(self, k: int, budget: int) -> ErrorReport:
        """Error components of the cut k, see ``error_decomposition``."""
        n = self.ranked.size
        if n == 0:
            return ErrorReport(0.0, 0.0, 0.0, 0.0, budget)
        best = self.best_k
        return ErrorReport(
            mae=self.mismatches(k) / n,
            agg_error=abs(k - self.ones) / n,
            aleatoric=self.mismatches(best) / n,
            epistemic=abs(best - k) / n,
            budget=budget,
        )


def mae(truth: np.ndarray, pred: ThresholdVector, perm: Permutation) -> float:
    """Fraction of positions where the ranked truth disagrees with the step."""
    truth = _check_lengths(truth, pred)
    if len(perm) != truth.size:
        raise ValueError("permutation length does not match truth")
    if truth.size == 0:
        return 0.0
    return RankedTruth(truth, perm).mismatches(pred.k) / truth.size


def agg_error(truth: np.ndarray, pred: ThresholdVector) -> float:
    """Absolute difference of the two accuracy counts, normalized by n."""
    truth = _check_lengths(truth, pred)
    if truth.size == 0:
        return 0.0
    return abs(pred.k - int(truth.sum())) / truth.size


def adversarial_construction(truth: np.ndarray) -> np.ndarray:
    """Worst prediction that still matches the aggregate count exactly.

    Flips every hit to a miss and compensates on the first available
    positions of the other kind (complement when exactly balanced), giving
    zero aggregate error and per-sample error 2 * min(acc, 1 - acc).
    """
    a = np.asarray(truth).astype(bool)
    n = a.size
    if n == 0:
        return a.copy()
    s = int(a.sum())
    y = a.copy()
    if 2 * s < n:
        y[a] = False
        zeros = np.flatnonzero(~a)
        y[zeros[:s]] = True
    elif 2 * s > n:
        y[~a] = True
        ones = np.flatnonzero(a)
        y[ones[: n - s]] = False
    else:
        y = ~a
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
    that optimum, |k* - k| / n.
    """
    truth = _check_lengths(truth, pred)
    if len(perm) != truth.size:
        raise ValueError("permutation length does not match truth")
    return RankedTruth(truth, perm).report(pred.k, budget)


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


def fit_exp_decay(
    budgets: np.ndarray, errors: np.ndarray, b_max: float = 1.0
) -> ExpDecayFit:
    """Least-squares a*exp(-b*x) + c via golden-section search over b >= 0.

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
    lo, hi = 0.0, float(b_max)
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
