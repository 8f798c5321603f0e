"""Efficient evaluation on growing benchmarks via difficulty-ranked caches.

Rank all samples once from cached model outcomes, then evaluate each new
model on a small budgeted subset and extrapolate its full outcome vector;
``evaluate`` on a ranking of the models (``sort_models_by_sum``) ranks new
samples the same way.
"""

from .baseline import copy_nearest_expand_from_truth
from .cache import (
    AccuracyCache,
    FormatError,
    Permutation,
    SortMethod,
    SortResult,
    ThresholdVector,
    import_csv,
    load_cache,
    load_permutation,
    load_sums,
    save_appended_cache,
    save_cache,
    save_permutation,
    save_sums,
)
from .metrics import (
    ErrorReport,
    ExpDecayFit,
    RankedTruth,
    adversarial_construction,
    agg_error,
    error_decomposition,
    fit_exp_decay,
    mae,
    rank_correlation,
    write_error_curve,
)
from .search import (
    SampleSelection,
    SamplingStrategy,
    dp_search,
    evaluate,
    evaluate_new_model,
    extrapolate,
    prediction_from_dict,
    prediction_to_dict,
    random_positions,
    uniform_positions,
)
from .sort import (
    sort_by_confidence_sum,
    sort_by_sum,
    sort_models_by_sum,
    stable_append,
)
from .synthgen import (
    SynthSpec,
    generate,
    holdout_abilities,
    holdout_outcomes,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyCache",
    "ErrorReport",
    "ExpDecayFit",
    "FormatError",
    "Permutation",
    "RankedTruth",
    "SampleSelection",
    "SamplingStrategy",
    "SortMethod",
    "SortResult",
    "SynthSpec",
    "ThresholdVector",
    "adversarial_construction",
    "agg_error",
    "copy_nearest_expand_from_truth",
    "dp_search",
    "error_decomposition",
    "evaluate",
    "evaluate_new_model",
    "extrapolate",
    "fit_exp_decay",
    "generate",
    "holdout_abilities",
    "holdout_outcomes",
    "import_csv",
    "load_cache",
    "load_permutation",
    "load_sums",
    "mae",
    "prediction_from_dict",
    "prediction_to_dict",
    "random_positions",
    "rank_correlation",
    "save_appended_cache",
    "save_cache",
    "save_permutation",
    "save_sums",
    "sort_by_confidence_sum",
    "sort_by_sum",
    "sort_models_by_sum",
    "stable_append",
    "uniform_positions",
    "write_error_curve",
]
