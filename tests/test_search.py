"""Position selection, DP threshold optimality, extrapolation, evaluation flows."""

import numpy as np
import pytest

from _oracles import best_threshold_error, threshold_error
from lleval import (
    AccuracyCache,
    SampleSelection,
    SamplingStrategy,
    dp_search,
    evaluate_from_truth,
    evaluate_new_model,
    extrapolate,
    prediction_from_dict,
    prediction_to_dict,
    random_positions,
    sort_by_sum,
    sort_models_by_sum,
    uniform_positions,
)


class TestUniformPositions:
    def test_formula_examples(self):
        assert np.array_equal(uniform_positions(10, 5), [1, 3, 5, 6, 8])
        assert np.array_equal(uniform_positions(7, 7), np.arange(7))
        assert np.array_equal(uniform_positions(100, 1), [50])

    def test_exactly_budget_distinct_increasing(self):
        rng = np.random.default_rng(60)
        for _ in range(200):
            total = int(rng.integers(1, 10_001))
            budget = int(rng.integers(1, total + 1))
            positions = uniform_positions(total, budget)
            assert positions.size == budget
            assert positions[0] >= 0 and positions[-1] < total
            assert np.all(np.diff(positions) > 0)

    def test_budget_out_of_range(self):
        with pytest.raises(ValueError):
            uniform_positions(5, 0)
        with pytest.raises(ValueError):
            uniform_positions(5, 6)


class TestRandomPositions:
    def test_full_budget_returns_all(self):
        assert np.array_equal(random_positions(9, 9, seed=1), np.arange(9))

    def test_deterministic_per_seed(self):
        a = random_positions(50, 7, seed=123)
        b = random_positions(50, 7, seed=123)
        c = random_positions(50, 7, seed=124)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_distinct_sorted(self):
        positions = random_positions(10, 3, seed=5)
        assert positions.size == 3
        assert np.all(np.diff(positions) > 0)
        assert positions.min() >= 0 and positions.max() < 10

    def test_budget_out_of_range(self):
        with pytest.raises(ValueError):
            random_positions(5, 6, seed=0)


class TestDpSearch:
    def test_all_ones(self):
        tv = dp_search(np.array([1, 1, 1, 1], dtype=bool))
        assert tv.k == 4
        assert threshold_error([1, 1, 1, 1], tv.k) == 0

    def test_all_zeros(self):
        tv = dp_search(np.array([0, 0, 0], dtype=bool))
        assert tv.k == 0
        assert threshold_error([0, 0, 0], tv.k) == 0

    def test_spec_tie_vector(self):
        bits = np.array([1, 1, 0, 1, 0, 0], dtype=bool)
        errs = [threshold_error(bits, k) for k in range(7)]
        assert errs == [3, 2, 1, 2, 1, 2, 3]
        tv = dp_search(bits)
        assert tv.k == 2  # err 1 at k in {2, 4}; smallest wins
        assert threshold_error(bits, tv.k) == 1

    def test_empty(self):
        tv = dp_search(np.array([], dtype=bool))
        assert (tv.length, tv.k) == (0, 0)

    def test_exhaustive_small_lengths(self):
        for length in range(0, 13):
            for word in range(1 << length):
                bits = np.array(
                    [(word >> t) & 1 for t in range(length)], dtype=bool
                )
                tv = dp_search(bits)
                best = best_threshold_error(bits)
                assert threshold_error(bits, tv.k) == best
                # smallest-k tie rule
                smaller = [
                    k for k in range(tv.k) if threshold_error(bits, k) == best
                ]
                assert not smaller

    def test_complement_reverse_symmetry(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            bits = rng.random(int(rng.integers(0, 40))) < rng.random()
            flipped = ~bits[::-1]
            L = bits.size
            for k in range(L + 1):
                assert threshold_error(bits, k) == threshold_error(flipped, L - k)


class TestExtrapolate:
    def test_full_budget_reproduces_dp(self):
        rng = np.random.default_rng(62)
        for _ in range(100):
            n = int(rng.integers(1, 60))
            bits = rng.random(n) < rng.random()
            selection = SampleSelection(np.arange(n), bits)
            assert extrapolate(selection, n).k == dp_search(bits).k

    def test_endpoints(self):
        selection = SampleSelection(np.array([2, 5, 8]), np.zeros(3, dtype=bool))
        assert extrapolate(selection, 12).k == 0
        selection = SampleSelection(np.array([2, 5, 8]), np.ones(3, dtype=bool))
        assert extrapolate(selection, 12).k == 12

    def test_fraction_scaling(self):
        outcomes = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=bool)
        selection = SampleSelection(uniform_positions(1000, 8), outcomes)
        assert extrapolate(selection, 1000).k == 500

    def test_rounds_half_up(self):
        # k'=1 of 3 over 8 -> 8/3 + 1/2 = 3.16 -> 3
        selection = SampleSelection(np.array([1, 4, 7]), np.array([1, 0, 0], dtype=bool))
        assert extrapolate(selection, 8).k == 3
        # k'=1 of 2 over 5 -> 2.5 -> 3 (half rounds up)
        selection = SampleSelection(np.array([1, 3]), np.array([1, 0], dtype=bool))
        assert extrapolate(selection, 5).k == 3

    def test_empty_selection_rejected(self):
        selection = SampleSelection(np.array([], dtype=int), np.array([], dtype=bool))
        with pytest.raises(ValueError, match="empty"):
            extrapolate(selection, 5)


class TestSampleSelectionType:
    def test_positions_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            SampleSelection(np.array([3, 1]), np.array([0, 1], dtype=bool))

    def test_lengths_must_match(self):
        with pytest.raises(ValueError, match="length"):
            SampleSelection(np.array([1, 2]), np.array([0], dtype=bool))

    def test_json_round_trip(self):
        selection = SampleSelection(
            np.array([1, 4]),
            np.array([1, 0], dtype=bool),
            SamplingStrategy.RANDOM,
            seed=9,
        )
        pred = extrapolate(selection, 10)
        record = prediction_to_dict(pred, selection)
        assert set(record) == {
            "positions",
            "outcomes",
            "strategy",
            "threshold",
            "total",
            "seed",
        }
        pred2, selection2 = prediction_from_dict(record)
        assert (pred2.length, pred2.k) == (pred.length, pred.k)
        assert np.array_equal(selection2.positions, selection.positions)
        assert np.array_equal(selection2.outcomes, selection.outcomes)
        assert selection2.strategy is SamplingStrategy.RANDOM
        assert selection2.seed == 9


def monotone_sort_result(n, num_models=6):
    """Sort result over a cache whose difficulty order is the identity."""
    dense = np.zeros((num_models, n), dtype=bool)
    for i in range(num_models):
        dense[i, : (i + 1) * n // (num_models + 1)] = True
    cache = AccuracyCache.from_dense(dense[:, ::-1][:, ::-1])
    result = sort_by_sum(cache)
    return result


class TestEvaluateNewModel:
    def test_exact_recovery_at_full_budget(self):
        result = monotone_sort_result(40)
        order = result.permutation.order
        truth = np.zeros(40, dtype=bool)
        truth[order[:17]] = True  # threshold-form in rank coordinates
        pred, _ = evaluate_new_model(result, lambda j: bool(truth[j]), budget=40)
        assert pred.k == 17

    def test_oracle_called_exactly_budget_times(self):
        result = monotone_sort_result(30)
        calls = []

        def oracle(j):
            calls.append(j)
            return True

        _, sel = evaluate_new_model(result, oracle, budget=7)
        assert len(calls) == 7
        # once per index, in rank order, as plain ints
        assert calls == result.permutation.order[sel.positions].tolist()
        assert all(type(j) is int for j in calls)

    def test_matches_truth_fast_path(self):
        rng = np.random.default_rng(63)
        for strategy in (SamplingStrategy.UNIFORM, SamplingStrategy.RANDOM):
            for _ in range(20):
                n = int(rng.integers(4, 50))
                cache = AccuracyCache.from_dense(rng.random((5, n)) < 0.5)
                result = sort_by_sum(cache)
                truth = rng.random(n) < 0.5
                budget = int(rng.integers(1, n + 1))
                slow = evaluate_new_model(
                    result, lambda j: bool(truth[j]), budget, strategy, seed=3
                )
                fast = evaluate_from_truth(result, truth, budget, strategy, seed=3)
                assert slow[0].k == fast[0].k
                assert np.array_equal(slow[1].positions, fast[1].positions)
                assert np.array_equal(slow[1].outcomes, fast[1].outcomes)

    def test_threshold_oracle_granularity_bound(self):
        rng = np.random.default_rng(64)
        for _ in range(200):
            n = int(rng.integers(2, 400))
            result = monotone_sort_result(n)
            order = result.permutation.order
            k_true = int(rng.integers(0, n + 1))
            truth = np.zeros(n, dtype=bool)
            truth[order[:k_true]] = True
            budget = int(rng.integers(1, n + 1))
            pred, _ = evaluate_from_truth(result, truth, budget)
            assert abs(pred.k - k_true) <= n / budget + 1

    def test_random_strategy_requires_seed(self):
        result = monotone_sort_result(10)
        with pytest.raises(ValueError, match="seed"):
            evaluate_new_model(
                result, lambda j: True, 3, SamplingStrategy.RANDOM, seed=None
            )

    def test_oracle_failure_propagates(self):
        result = monotone_sort_result(10)

        def broken(j):
            raise RuntimeError("inference backend down")

        with pytest.raises(RuntimeError, match="backend"):
            evaluate_new_model(result, broken, budget=2)


class TestEvaluateNewSample:
    def test_full_budget_matches_dp(self):
        rng = np.random.default_rng(65)
        cache = AccuracyCache.from_dense(rng.random((12, 30)) < 0.6)
        model_sort = sort_models_by_sum(cache)
        outcomes = rng.random(12) < 0.5
        pred, _ = evaluate_new_model(
            model_sort, lambda i: bool(outcomes[i]), budget=12
        )
        ranked = outcomes[model_sort.permutation.order]
        assert pred.k == dp_search(ranked).k

    def test_sample_every_model_gets_right_is_easiest(self):
        rng = np.random.default_rng(66)
        cache = AccuracyCache.from_dense(rng.random((9, 20)) < 0.5)
        model_sort = sort_models_by_sum(cache)
        pred, _ = evaluate_new_model(model_sort, lambda i: True, budget=4)
        assert pred.k == 9

    def test_known_difficulty_percentile_recovered(self):
        from lleval import SynthSpec, generate

        spec = SynthSpec(80, 300, temperature=1e-6, noise=0.0, seed=42)
        cache, abilities, _ = generate(spec)
        model_sort = sort_models_by_sum(cache)
        rng = np.random.default_rng(67)
        for _ in range(20):
            difficulty = float(rng.random())
            outcomes = abilities > difficulty  # noise-free step model
            true_rank = int(outcomes.sum())
            budget = int(rng.integers(4, 81))
            pred, _ = evaluate_new_model(
                model_sort, lambda i: bool(outcomes[i]), budget
            )
            assert abs(pred.k - true_rank) <= 80 / budget + 1
