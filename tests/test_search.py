"""Position selection, DP threshold optimality, extrapolation, evaluation flows."""


import numpy as np
import pytest

from _child import traced
from _oracles import best_threshold_error, threshold_error
from lleval import (
    AccuracyCache,
    SampleSelection,
    SamplingStrategy,
    dp_search,
    evaluate,
    evaluate_new_model,
    extrapolate,
    prediction_from_dict,
    prediction_to_dict,
    random_positions,
    sort_by_sum,
    sort_models_by_sum,
    uniform_positions,
)
from lleval.cache import _BYTE_FALL, _BYTE_PEAK_BIT


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


def cumsum_dp_search(bits):
    """The unpacked scan: argmax of the int64 running score sum(2*b - 1)."""
    bits = np.asarray(bits).astype(bool)
    if bits.size == 0:
        return 0
    score = np.cumsum(2 * bits.astype(np.int64) - 1)
    return int(np.argmax(score)) + 1 if int(score.max()) > 0 else 0


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

    def test_matches_cumsum_reference_on_every_length(self):
        rng = np.random.default_rng(63)
        for length in range(201):  # every length % 8, padding included
            for density in (0.0, 0.1, 0.5, 0.9, 1.0):
                for _ in range(3):
                    bits = rng.random(length) < density
                    assert dp_search(bits).k == cumsum_dp_search(bits), (length, density)

    def test_matches_cumsum_reference_on_byte_patterns(self):
        ones, zeros = [1] * 8, [0] * 8
        patterns = [
            zeros * 3,
            ones * 3,
            ones + zeros + ones + ones,
            zeros + ones * 2 + zeros,
            [0] * 5 + [1] * 6 + [0] * 9,  # a run crossing a byte boundary
            [1] * 13 + [0] * 2 + [1] * 4,
            [1, 0] * 12,  # ties inside every byte
            [1, 1, 0, 1, 0, 0, 1, 0],  # tie inside one byte
            ones + [0] * 16 + ones + [0],  # tie between bytes 0 and 3
            [1, 1, 0, 0, 0] + [1] * 3 + [0] * 3,  # tie across a byte boundary
            [0] * 7 + [1],
            [1] + [0] * 7 + [1] * 2,
        ]
        for pattern in patterns:
            for shift in range(9):  # move every edge across the byte grid
                bits = np.array([0] * shift + pattern, dtype=bool)
                assert dp_search(bits).k == cumsum_dp_search(bits), (shift, pattern)

    def test_integer_inputs_match_bool(self):
        rng = np.random.default_rng(64)
        for length in (0, 1, 7, 8, 9, 63, 100):
            bits = rng.random(length) < 0.6
            want = dp_search(bits).k
            for dtype in (np.int64, np.int32, np.uint8):
                assert dp_search(bits.astype(dtype)).k == want
            assert dp_search(bits.astype(int).tolist()).k == want

    def test_byte_tables_match_an_eight_step_scan(self):
        for value in range(256):
            score, peak, peak_bit = 0, None, None
            for bit in range(8):  # least-significant bit first, as packed
                score += 1 if (value >> bit) & 1 else -1
                if peak is None or score > peak:
                    peak, peak_bit = score, bit
            assert int(_BYTE_FALL[value]) == peak - score, value
            assert int(_BYTE_PEAK_BIT[value]) == peak_bit, value

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError, match="1-dimensional"):
            dp_search(np.ones((2, 4), dtype=bool))
        with pytest.raises(ValueError, match="1-dimensional"):
            dp_search(np.bool_(True))

    def test_scan_memory_under_two_bytes_per_sample(self):
        n = 1 << 21
        rng = np.random.default_rng(65)
        bits = np.sort(rng.random(n) < 0.5)[::-1] ^ (rng.random(n) < 0.1)
        with traced() as memory:
            tv = dp_search(bits)
            _, peak = memory()
        assert tv.k == cumsum_dp_search(bits)
        assert peak < 2 * n

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

    @pytest.mark.parametrize("last", [8, 9])  # at the total, then past it
    def test_positions_beyond_the_total_rejected(self, last):
        selection = SampleSelection(np.array([2, 5, last]), np.zeros(3, dtype=bool))
        with pytest.raises(ValueError, match="exceed total"):
            extrapolate(selection, 8)


class TestSampleSelectionType:
    def test_positions_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            SampleSelection(np.array([3, 1]), np.array([0, 1], dtype=bool))

    def test_lengths_must_match(self):
        with pytest.raises(ValueError, match="length"):
            SampleSelection(np.array([1, 2]), np.array([0], dtype=bool))

    @pytest.mark.parametrize(
        "positions, match",
        [(np.zeros((1, 2), dtype=np.int64), "1-dimensional"),
         (np.array([-1, 2]), "non-negative")],
        ids=["2-D", "negative"],
    )
    def test_positions_must_be_a_row_of_indices(self, positions, match):
        with pytest.raises(ValueError, match=match):
            SampleSelection(positions, np.zeros(2, dtype=bool))

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
                fast = evaluate(
                    result.permutation, truth.__getitem__, budget, strategy, seed=3
                )
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
            pred, _ = evaluate(result.permutation, truth.__getitem__, budget)
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

    @pytest.mark.parametrize("strategy", list(SamplingStrategy))
    def test_batch_oracle_asked_once_in_rank_order(self, strategy):
        result = monotone_sort_result(30)
        asked = []

        def oracle(indices):
            asked.append(indices.copy())
            return np.ones(indices.size, dtype=np.uint8)

        _, sel = evaluate(result.permutation, oracle, 7, strategy, seed=5)
        (indices,) = asked
        assert indices.dtype == result.permutation.order.dtype
        assert np.array_equal(indices, result.permutation.order[sel.positions])
        assert sel.outcomes.dtype == bool and sel.outcomes.all()

    @pytest.mark.parametrize("count", [6, 8])
    def test_batch_oracle_answers_one_per_index(self, count):
        result = monotone_sort_result(30)
        with pytest.raises(ValueError, match=f"^oracle answers length {count} does not"):
            evaluate(result.permutation, lambda indices: [1] * count, 7)


class TestSelectionsBuiltOnce:
    """Evaluation builds its selection unchecked; it must equal the checked one."""

    @pytest.mark.parametrize("strategy", list(SamplingStrategy))
    def test_equal_to_checked_constructor(self, strategy):
        rng = np.random.default_rng(65)
        n = 203
        result = sort_by_sum(AccuracyCache.from_dense(rng.random((5, n)) < 0.5))
        order = result.permutation.order
        truth = rng.random(n) < 0.5
        random = strategy is SamplingStrategy.RANDOM
        for budget in (1, 7, 8, 64, n):
            positions = (
                random_positions(n, budget, 11) if random else uniform_positions(n, budget)
            )
            want = SampleSelection(
                positions, truth[order[positions]], strategy, 11 if random else None
            )
            runs = (
                evaluate_new_model(result, lambda j: bool(truth[j]), budget, strategy, 11),
                evaluate(result.permutation, truth.__getitem__, budget, strategy, 11),
            )
            for pred, got in runs:
                for name in ("positions", "outcomes"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert np.array_equal(a, b) and a.dtype == b.dtype
                    assert a.flags.c_contiguous and not a.flags.writeable
                    assert not b.flags.writeable
                assert got.strategy is want.strategy is SamplingStrategy(strategy)
                assert got.seed == want.seed
                assert pred.k == extrapolate(want, n).k

    @pytest.mark.parametrize("answer", [2, "0"])
    def test_bad_answers_raise_as_before(self, answer):
        result = monotone_sort_result(20)
        message = "oracle answers entries must be 0 or 1"
        with pytest.raises(ValueError, match=f"^{message}$"):
            evaluate_new_model(result, lambda j: answer, 4)
        truth = np.full(20, answer)
        with pytest.raises(ValueError, match=f"^{message}$"):
            evaluate(result.permutation, truth.__getitem__, 4)


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
