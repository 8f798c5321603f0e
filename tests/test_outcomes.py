"""One rule for every outcome row: bool, or numbers each exactly 0 or 1.

Every entry point that takes an outcome row, column or oracle answer must
reject a confidence row, a 2, a row of the wrong length and a 2-D input
with one ``ValueError``, and must score a 0/1 int row exactly as the bool
row it spells.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from lleval import (
    AccuracyCache,
    SampleSelection,
    ThresholdVector,
    adversarial_construction,
    agg_error,
    copy_nearest_expand_from_truth,
    dp_search,
    error_decomposition,
    evaluate,
    evaluate_new_model,
    load_cache,
    mae,
    prediction_from_dict,
    save_appended_cache,
    save_cache,
    save_permutation,
    save_sums,
    sort_by_sum,
)
from lleval.cli import main

M, N = 5, 12
DENSE = np.array(
    [[1, 1, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0],
     [1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 0, 0],
     [0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0, 1],
     [1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0],
     [1, 1, 1, 1, 1, 0, 1, 0, 1, 0, 0, 0]],
    dtype=bool,
)
CACHE = AccuracyCache.from_dense(DENSE)
SORT = sort_by_sum(CACHE)
POSITIONS = np.array([1, 4, 7, 10])
COLS = np.array([0, 3, 5, 9])
PATTERN = np.array([1, 0, 1, 1, 0, 1, 1, 0, 1, 0, 0, 1], dtype=bool)


def _asked(row):
    """A per-index oracle answering ``row[i]`` as it is stored."""
    return lambda i: row[i]


def _appended(col):
    """CACHE as ``save_appended_cache`` writes it with ``col`` as one more sample."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grown.llbc"
        save_appended_cache(CACHE, path, col)
        return load_cache(path).to_dense()


# entry point -> (row length it checks, or None, call on a row)
ENTRIES = {
    # a one-row matrix: its width is the row's, so no length to break
    "from_dense": (None, lambda r: AccuracyCache.from_dense([r])),
    "nearest_row": (COLS.size, lambda r: CACHE.nearest_row(COLS, r)),
    "dp_search": (None, dp_search),
    # a row's __getitem__ as a batch oracle: its answers, not the row, are checked
    "evaluate": (None, lambda r: evaluate(SORT.permutation, np.asarray(r).__getitem__, 4)),
    "SampleSelection": (POSITIONS.size, lambda r: SampleSelection(POSITIONS, r)),
    "prediction_from_dict": (
        POSITIONS.size,
        lambda r: prediction_from_dict(
            {"positions": POSITIONS.tolist(), "outcomes": np.asarray(r).tolist(),
             "strategy": "uniform", "threshold": 3, "total": N}
        ),
    ),
    "oracle_answers": (None, lambda r: evaluate_new_model(SORT, _asked(r), 6)),
    "copy_nearest_expand_from_truth": (
        N, lambda r: copy_nearest_expand_from_truth(CACHE, r, 4, seed=1)
    ),
    "mae": (N, lambda r: mae(r, ThresholdVector(N, 5), SORT.permutation)),
    "agg_error": (N, lambda r: agg_error(r, ThresholdVector(N, 5))),
    "error_decomposition": (
        N, lambda r: error_decomposition(r, ThresholdVector(N, 5), SORT.permutation, 4)
    ),
    "adversarial_construction": (None, adversarial_construction),
    "save_appended_cache": (M, _appended),
}


def _valid_row(length):
    return PATTERN[: length or N].copy()


def _bad_rows(length):
    row = _valid_row(length)
    bad = {
        "confidence": np.where(row, 0.9, 0.2),
        "two": np.where(row, 1, 2),  # misses a nonzero test reads as hits
        "two_dimensional": np.stack([row, row], axis=1),
    }
    if length is not None:
        bad["wrong_length"] = row[:1]  # one value broadcast over every entry
    return bad


def _canonical(result):
    """A result as plain Python values, comparable across runs."""
    if isinstance(result, tuple):
        return tuple(_canonical(part) for part in result)
    if isinstance(result, AccuracyCache):
        return result.to_dense().tolist()
    if isinstance(result, ThresholdVector):
        return ("threshold", result.length, result.k)
    if isinstance(result, SampleSelection):
        return (result.positions.tolist(), result.outcomes.tolist())
    if isinstance(result, np.ndarray):
        return result.tolist()
    if hasattr(result, "to_dict"):
        return result.to_dict()
    return result


# results of the bool rows, recorded before the one-rule change
EXPECTED = {
    "SampleSelection": ([1, 4, 7, 10], [True, False, True, True]),
    "adversarial_construction": [False, True, False, False, True, False, False, True,
                                 True, True, True, True],
    "agg_error": 0.16666666666666666,
    "copy_nearest_expand_from_truth": [True, False, True, True, False, True, True, False,
                                       True, True, False, True],
    "dp_search": ("threshold", 12, 7),
    "error_decomposition": {"mae": 0.5, "agg_error": 0.16666666666666666,
                            "aleatoric": 0.3333333333333333,
                            "epistemic": 0.16666666666666666, "budget": 4},
    "evaluate": (("threshold", 12, 3), ([2, 4, 7, 9], [True, False, False, False])),
    "from_dense": [[True, False, True, True, False, True, True, False, True, False, False,
                    True]],
    "mae": 0.5,
    "nearest_row": 0,
    "oracle_answers": (("threshold", 12, 10),
                       ([1, 3, 5, 6, 8, 10], [False, True, True, True, True, False])),
    "prediction_from_dict": (("threshold", 12, 3),
                             ([1, 4, 7, 10], [True, False, True, True])),
    "save_appended_cache": [
        [True, True, True, False, True, True, False, True, False, False, True, False,
         True],
        [True, False, True, True, False, True, True, False, False, True, False, False,
         False],
        [False, True, True, True, True, False, False, True, True, False, False, True,
         True],
        [True, True, False, True, False, False, True, False, False, False, True, False,
         True],
        [True, True, True, True, True, False, True, False, True, False, False, False,
         False],
    ],
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_bool_and_int_rows_score_as_before(entry):
    length, call = ENTRIES[entry]
    row = _valid_row(length)
    want = EXPECTED[entry]
    assert _canonical(call(row)) == want
    assert _canonical(call(row.astype(np.int64))) == want
    assert _canonical(call(row.astype(np.uint8))) == want


@pytest.mark.parametrize(
    "entry, kind",
    [(entry, kind) for entry in sorted(ENTRIES) for kind in _bad_rows(ENTRIES[entry][0])],
)
def test_bad_rows_rejected(entry, kind):
    length, call = ENTRIES[entry]
    # from_dense reads a 2-D row in a one-row matrix as a 3-D matrix
    with pytest.raises(ValueError, match="[12]-dimensional|length|0 or 1"):
        call(_bad_rows(length)[kind])


@pytest.mark.parametrize("answer", ["0", "1", None, 0.5, -1])
@pytest.mark.parametrize("entry", ["oracle_answers"])
def test_oracle_answers_must_be_zero_or_one(entry, answer):
    _, call = ENTRIES[entry]
    with pytest.raises(ValueError, match="oracle answers entries must be 0 or 1"):
        call([answer] * N)


def test_oracle_asked_once_per_index_in_rank_order():
    asked = []

    def oracle(i):
        asked.append(i)
        return int(PATTERN[i])

    pred, selection = evaluate_new_model(SORT, oracle, 6)
    assert asked == SORT.permutation.order[selection.positions].tolist()
    assert _canonical((pred, selection)) == EXPECTED["oracle_answers"]


def test_nearest_row_does_not_broadcast_one_value():
    cache = AccuracyCache.from_dense(np.eye(3, dtype=bool))
    with pytest.raises(ValueError, match="length"):
        cache.nearest_row(np.array([0, 1, 2]), [1])


class TestCommandLine:
    @pytest.fixture
    def ranked(self, tmp_path):
        perm = tmp_path / "rank.llpm"
        save_permutation(SORT.permutation, perm)
        save_sums(SORT.sums, perm.with_suffix(".llsm"))
        truth = tmp_path / "truth.csv"
        truth.write_text(",".join(str(int(v)) for v in PATTERN) + "\n")
        return tmp_path, perm, truth

    def test_metrics_rejects_a_predicted_outcome_of_two(self, ranked, capsys):
        tmp_path, perm, truth = ranked
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps(
            {"positions": [1, 4, 7, 10], "outcomes": [1, 2, 0, 1],
             "strategy": "uniform", "threshold": 3, "total": N}
        ))
        rc = main(["metrics", "--truth", str(truth), "--pred", str(pred),
                   "--perm", str(perm)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "0 or 1" in err

    @pytest.mark.parametrize("length", [N - 1, N + 1])
    def test_eval_model_checks_the_truth_length(self, ranked, capsys, length):
        tmp_path, perm, truth = ranked
        truth.write_text(" ".join("1" * length) + "\n")
        rc = main(["eval-model", "--perm", str(perm), "--truth", str(truth),
                   "--budgets", "4", "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: truth length {length} does not match {N}\n"
        assert not (tmp_path / "out").exists()

    def test_insert_sample_checks_the_outcome_length(self, tmp_path, capsys):
        cache = tmp_path / "cache.llbc"
        save_cache(CACHE, cache)
        col = tmp_path / "col.csv"
        col.write_text("1 0 1\n")
        rc = main(["insert-sample", "--cache", str(cache), "--outcomes", str(col),
                   "--budget", "2"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: outcomes length 3 does not match {M}\n"
        )
