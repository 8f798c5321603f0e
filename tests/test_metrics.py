"""Error metrics, the aggregate-metric worst case, decomposition, and fits."""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest
from scipy import stats

from _child import traced
from _oracles import best_threshold_error, hamming_fraction, threshold_error
from lleval import (
    ErrorReport,
    Permutation,
    RankedTruth,
    ThresholdVector,
    adversarial_construction,
    agg_error,
    dp_search,
    error_decomposition,
    fit_exp_decay,
    mae,
    metrics,
    rank_correlation,
)


def identity_perm(n):
    return Permutation(np.arange(n))


class TestMae:
    def test_truth_equals_prediction(self):
        truth = np.array([1, 1, 0, 0], dtype=bool)
        assert mae(truth, ThresholdVector(4, 2), identity_perm(4)) == 0.0

    def test_worked_reversal_example(self):
        truth = np.array([0, 0, 0, 1, 1, 1], dtype=bool)
        pred = ThresholdVector(6, 3)  # predicts [1,1,1,0,0,0]
        assert mae(truth, pred, identity_perm(6)) == 1.0

    def test_matches_brute_force_hamming(self):
        rng = np.random.default_rng(70)
        for _ in range(200):
            n = int(rng.integers(1, 17))
            truth = rng.random(n) < rng.random()
            k = int(rng.integers(0, n + 1))
            perm = Permutation(rng.permutation(n))
            got = mae(truth, ThresholdVector(n, k), perm)
            want = hamming_fraction(truth[perm.order], np.arange(n) < k)
            assert got == pytest.approx(want)

    def test_empty(self):
        assert mae(np.array([], dtype=bool), ThresholdVector(0, 0), identity_perm(0)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mae(np.zeros(3, dtype=bool), ThresholdVector(4, 1), identity_perm(3))


class TestAggError:
    def test_reversal_example_scores_zero(self):
        truth = np.array([0, 0, 0, 1, 1, 1], dtype=bool)
        assert agg_error(truth, ThresholdVector(6, 3)) == 0.0

    def test_equal_vectors(self):
        truth = np.array([1, 1, 0], dtype=bool)
        assert agg_error(truth, ThresholdVector(3, 2)) == 0.0

    def test_hand_count(self):
        truth = np.zeros(10, dtype=bool)
        truth[:3] = True
        assert agg_error(truth, ThresholdVector(10, 5)) == pytest.approx(0.2)

    def test_never_exceeds_mae(self):
        rng = np.random.default_rng(71)
        for _ in range(300):
            n = int(rng.integers(1, 30))
            truth = rng.random(n) < rng.random()
            k = int(rng.integers(0, n + 1))
            pred = ThresholdVector(n, k)
            assert agg_error(truth, pred) <= mae(truth, pred, identity_perm(n)) + 1e-12

    def test_empty_row_scores_zero(self):
        assert agg_error(np.zeros(0, dtype=bool), ThresholdVector(0, 0)) == 0.0


class TestAdversarialConstruction:
    def test_first_available_flips(self):
        got = adversarial_construction(np.array([1, 0, 0, 0], dtype=bool))
        assert np.array_equal(got, [False, True, False, False])
        assert hamming_fraction([1, 0, 0, 0], got) == pytest.approx(0.5)

    def test_balanced_complements(self):
        got = adversarial_construction(np.array([1, 0], dtype=bool))
        assert np.array_equal(got, [False, True])
        assert hamming_fraction([1, 0], got) == 1.0

    def test_majority_ones_case(self):
        truth = np.array([1, 1, 1, 0], dtype=bool)
        got = adversarial_construction(truth)
        assert int(got.sum()) == 3
        assert hamming_fraction(truth, got) == pytest.approx(0.5)

    def test_empty_and_constant(self):
        assert adversarial_construction(np.array([], dtype=bool)).size == 0
        all_zero = np.zeros(5, dtype=bool)
        assert np.array_equal(adversarial_construction(all_zero), all_zero)
        all_one = np.ones(5, dtype=bool)
        assert np.array_equal(adversarial_construction(all_one), all_one)

    def test_theorem_properties_exhaustive(self):
        for n in range(1, 13):
            for word in range(1 << n):
                truth = np.array([(word >> t) & 1 for t in range(n)], dtype=bool)
                got = adversarial_construction(truth)
                s = int(truth.sum())
                assert int(got.sum()) == s  # aggregate error exactly zero
                mismatches = int(np.sum(truth != got))
                assert mismatches == 2 * min(n - s, s)


class TestErrorDecomposition:
    def test_full_budget_has_zero_epistemic(self):
        rng = np.random.default_rng(72)
        truth = rng.random(50) < 0.6
        perm = Permutation(rng.permutation(50))
        k_best = dp_search(truth[perm.order]).k
        report = error_decomposition(truth, ThresholdVector(50, k_best), perm, budget=50)
        assert report.epistemic == 0.0
        assert report.mae == report.aleatoric

    def test_threshold_form_truth_has_zero_aleatoric(self):
        truth = np.array([1, 1, 1, 0, 0], dtype=bool)
        report = error_decomposition(truth, ThresholdVector(5, 1), identity_perm(5))
        assert report.aleatoric == 0.0
        assert report.epistemic == pytest.approx(2 / 5)

    def test_matches_brute_force_and_triangle(self):
        rng = np.random.default_rng(73)
        for _ in range(300):
            n = int(rng.integers(1, 17))
            truth = rng.random(n) < rng.random()
            k = int(rng.integers(0, n + 1))
            perm = Permutation(rng.permutation(n))
            report = error_decomposition(truth, ThresholdVector(n, k), perm)
            ranked = truth[perm.order]
            assert report.aleatoric == pytest.approx(best_threshold_error(ranked) / n)
            assert report.mae == pytest.approx(threshold_error(ranked, k) / n)
            k_best = dp_search(ranked).k
            assert report.epistemic == pytest.approx(abs(k_best - k) / n)
            assert report.mae <= report.aleatoric + report.epistemic + 1e-12

    def test_report_serialization(self):
        report = ErrorReport(0.1, 0.05, 0.08, 0.02, 64)
        assert report.to_dict() == {
            "mae": 0.1, "agg_error": 0.05, "aleatoric": 0.08, "epistemic": 0.02,
            "budget": 64,
        }

    def test_report_bounds_validated(self):
        with pytest.raises(ValueError):
            ErrorReport(1.5, 0.0, 0.0, 0.0, 1)

    def test_report_budget_must_be_non_negative(self):
        with pytest.raises(ValueError, match="budget must be non-negative"):
            ErrorReport(0.0, 0.0, 0.0, 0.0, -1)

    @pytest.mark.parametrize("length", [4, 6])
    def test_permutation_of_another_length_rejected(self, length):
        with pytest.raises(ValueError, match="permutation length does not match"):
            error_decomposition(np.ones(5, dtype=bool), ThresholdVector(5, 2),
                                identity_perm(length))


def fresh_report(truth, order, k, budget=0):
    """The report built afresh: every cut's error counted from prefix sums."""
    ranked = np.asarray(truth, dtype=bool)[np.asarray(order, dtype=np.int64)]
    n = ranked.size
    if n == 0:
        return ErrorReport(0.0, 0.0, 0.0, 0.0, budget)
    ones_before = np.concatenate(([0], np.cumsum(ranked, dtype=np.int64)))
    errors = (np.arange(n + 1) - ones_before) + (ones_before[-1] - ones_before)
    best = int(np.argmin(errors))  # the smallest cut on ties
    return ErrorReport(
        mae=int(errors[k]) / n,
        agg_error=abs(k - int(ones_before[-1])) / n,
        aleatoric=int(errors[best]) / n,
        epistemic=abs(best - k) / n,
        budget=budget,
    )


def check_both(truth, perm, k, budget=0):
    """error_decomposition, mae and a RankedTruth of one cut, each against
    fresh_report."""
    want = fresh_report(truth, perm.order, k, budget)
    pred = ThresholdVector(len(perm), k)
    assert error_decomposition(truth, pred, perm, budget) == want
    assert mae(truth, pred, perm) == want.mae
    assert RankedTruth(truth, perm).report(k, budget) == want


class TestRankedTruth:
    """The public scorer's contract beyond the reports check_both compares."""

    def test_best_cut_and_mismatches_of_permuted_rows(self):
        rng = np.random.default_rng(30)
        for _ in range(40):
            n = int(rng.integers(0, 40))
            truth = rng.random(n) < rng.random()
            perm = Permutation(rng.permutation(n))
            scorer = RankedTruth(truth, perm)
            ranked = truth[perm.order]
            truth[:] = ~truth  # the row is read once, at construction
            assert threshold_error(ranked, scorer.best_k) == best_threshold_error(ranked)
            for k in range(n + 1):
                assert scorer.mismatches(k) == threshold_error(ranked, k)

    @pytest.mark.parametrize(
        "truth",
        [np.ones((10, 2), dtype=bool), np.ones(11, dtype=bool)],
        ids=["2-D", "wrong-length"],
    )
    def test_rejects_a_row_unlike_the_permutation(self, truth):
        with pytest.raises(ValueError, match="truth"):
            RankedTruth(truth, identity_perm(10))

    @pytest.mark.parametrize("k", [-1, 11])
    def test_rejects_a_cut_outside_0_to_n(self, k):
        scorer = RankedTruth(np.ones(10, dtype=bool), identity_perm(10))
        with pytest.raises(ValueError, match=r"outside \[0, 10\]"):
            scorer.report(k, 4)
        with pytest.raises(ValueError, match=r"outside \[0, 10\]"):
            scorer.mismatches(k)


class TestRankedTruthReuse:
    """error_decomposition and mae reuse the last row ranked under the same
    Permutation object; every answer must equal a report built afresh."""

    def test_random_rows_permutations_and_cuts(self):
        pytest.importorskip("hypothesis")
        from hypothesis import example, given, settings
        from hypothesis import strategies as st

        @st.composite
        def cases(draw):
            n = draw(st.integers(0, 41))
            truth = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            order = draw(st.permutations(range(n)))
            ks = draw(st.lists(st.integers(0, n), min_size=1, max_size=4))
            return truth, order, ks, draw(st.booleans())

        @settings(max_examples=300, deadline=None)
        @given(cases())
        @example(([], [], [0], False))
        @example(([True], [0], [0, 1], True))
        @example(([False, True] * 6 + [True], list(range(13))[::-1], [0, 5, 13], False))
        def check(case):
            truth, order, ks, same_order_twice = case
            truth = np.array(truth, dtype=bool)
            perm = Permutation(np.array(order, dtype=np.int64))
            for k in ks:
                check_both(truth, perm, k, budget=k)
            if same_order_twice:  # an equal order in a new object
                check_both(truth, Permutation(np.array(order, dtype=np.int64)), ks[0])

        check()

    def test_truth_mutated_in_place_between_calls(self):
        rng = np.random.default_rng(80)
        n = 1_003  # n % 8 == 3: the last packed byte is partly padding
        truth = rng.random(n) < 0.5
        perm = Permutation(rng.permutation(n))
        for j in [n - 1, 0, 500, n - 1, 7, 8] + rng.integers(0, n, 20).tolist():
            check_both(truth, perm, int(rng.integers(0, n + 1)))
            truth[j] = not truth[j]  # the same array, one bit changed
            check_both(truth, perm, int(rng.integers(0, n + 1)))
        truth[:] = False
        check_both(truth, perm, 0)
        truth[:] = True
        check_both(truth, perm, n)

    def test_equal_order_in_a_new_permutation(self):
        rng = np.random.default_rng(81)
        n = 205
        truth = rng.random(n) < 0.4
        order = rng.permutation(n)
        first, second = Permutation(order), Permutation(order.copy())
        for perm in (first, second, first):
            check_both(truth, perm, int(rng.integers(0, n + 1)))
            assert metrics._last_ranked[0]() is perm  # keyed by the object

    def test_replaced_permutation_that_may_reuse_an_id(self):
        rng = np.random.default_rng(82)
        n = 99
        truth = rng.random(n) < 0.5
        perm = Permutation(rng.permutation(n))
        for _ in range(20):
            check_both(truth, perm, int(rng.integers(0, n + 1)))
            del perm
            gc.collect()
            perm = Permutation(rng.permutation(n))  # often at the freed id
            check_both(truth, perm, int(rng.integers(0, n + 1)))

    def test_mae_and_decomposition_in_turn(self):
        rng = np.random.default_rng(83)
        n = 77
        rows = [rng.random(n) < p for p in (0.2, 0.5, 0.8)]
        perms = [Permutation(rng.permutation(n)) for _ in range(2)]
        for _ in range(60):
            truth = rows[int(rng.integers(0, 3))]
            perm = perms[int(rng.integers(0, 2))]
            k = int(rng.integers(0, n + 1))
            want = fresh_report(truth, perm.order, k)
            pred = ThresholdVector(n, k)
            if rng.random() < 0.5:
                assert mae(truth, pred, perm) == want.mae
            else:
                assert error_decomposition(truth, pred, perm) == want

    def test_keeps_no_permutation_alive_and_n_over_4_bytes(self):
        rng = np.random.default_rng(84)
        n = 1_000_003
        truth = rng.random(n) < 0.5
        perm = Permutation(rng.permutation(n))
        # leave only a one-sample row in the memo, so the measured call
        # frees nothing the memo held before
        tiny = Permutation(np.zeros(1, dtype=np.int64))
        error_decomposition(np.ones(1, dtype=bool), ThresholdVector(1, 1), tiny)
        with traced() as memory:
            report = error_decomposition(truth, ThresholdVector(n, n // 3), perm)
            retained, _ = memory()
        assert report == fresh_report(truth, perm.order, n // 3)
        assert retained <= n / 4 + (64 << 10), retained
        ref = weakref.ref(perm)
        del perm
        gc.collect()
        assert ref() is None

    def test_threads_with_one_row_each(self):
        rng = np.random.default_rng(85)
        n, workers = 20_003, 4
        perm = Permutation(rng.permutation(n))
        rows = [rng.random(n) < p for p in np.linspace(0.2, 0.8, workers)]
        ks = rng.integers(0, n + 1, 13).tolist()
        expected = [[fresh_report(row, perm.order, k, b) for b, k in enumerate(ks)]
                    for row in rows]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                start = threading.Barrier(workers)
                answers = [None] * workers

                def work(t):
                    start.wait(timeout=30)
                    answers[t] = [
                        error_decomposition(rows[t], ThresholdVector(n, k), perm, b)
                        for b, k in enumerate(ks)
                    ]

                threads = [
                    threading.Thread(target=work, args=(t,)) for t in range(workers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert answers == expected
        finally:
            sys.setswitchinterval(interval)


class TestRankCorrelation:
    def test_identical_is_one(self):
        x = np.array([3.0, 1.0, 2.0, 5.0])
        assert rank_correlation(x, x) == pytest.approx(1.0)

    def test_reversed_is_minus_one(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert rank_correlation(x, x[::-1]) == pytest.approx(-1.0)

    def test_textbook_example(self):
        assert rank_correlation(
            np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 3.0, 2.0, 4.0])
        ) == pytest.approx(0.8)

    def test_matches_scipy_with_ties(self):
        import warnings

        rng = np.random.default_rng(74)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            x = rng.integers(0, 6, size=n).astype(float)
            y = rng.integers(0, 6, size=n).astype(float)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", stats.ConstantInputWarning)
                want = stats.spearmanr(x, y).statistic
            got = rank_correlation(x, y)
            if np.isnan(want):
                assert np.isnan(got)
            else:
                assert got == pytest.approx(want, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(75)
        x = rng.random(25)
        y = rng.random(25)
        base = rank_correlation(x, y)
        assert rank_correlation(np.exp(3 * x), y) == pytest.approx(base)
        assert rank_correlation(x, y**3 + 10) == pytest.approx(base)

    def test_zero_variance_is_nan(self):
        assert np.isnan(rank_correlation(np.ones(5), np.arange(5.0)))

    def test_too_short(self):
        with pytest.raises(ValueError):
            rank_correlation(np.array([1.0]), np.array([2.0]))

    def test_two_dimensional_rejected(self):
        x = np.arange(6.0).reshape(2, 3)
        with pytest.raises(ValueError, match="1-dimensional"):
            rank_correlation(x, x)


class TestFitExpDecay:
    def test_recovers_exact_parameters(self):
        budgets = np.array([8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096], float)
        errors = 0.3 * np.exp(-0.04 * budgets) + 0.15
        fit = fit_exp_decay(budgets, errors)
        assert fit.a == pytest.approx(0.3, abs=1e-6)
        assert fit.b == pytest.approx(0.04, abs=1e-6)
        assert fit.c == pytest.approx(0.15, abs=1e-6)
        assert fit.r2 >= 1 - 1e-9

    def test_constant_errors(self):
        budgets = np.array([1.0, 2.0, 3.0, 4.0])
        fit = fit_exp_decay(budgets, np.full(4, 0.25))
        assert fit == (0.0, 0.0, 0.25, 1.0)

    def test_noisy_fit_matches_scipy_quality(self):
        from scipy.optimize import curve_fit

        rng = np.random.default_rng(76)
        budgets = np.array([8, 16, 32, 64, 128, 256, 512, 1024], float)
        errors = 0.2 * np.exp(-0.02 * budgets) + 0.1 + rng.normal(0, 1e-3, 8)
        fit = fit_exp_decay(budgets, errors)

        def model(x, a, b, c):
            return a * np.exp(-b * x) + c

        ref, _ = curve_fit(model, budgets, errors, p0=(0.2, 0.02, 0.1))
        ref_sse = float(np.sum((errors - model(budgets, *ref)) ** 2))
        got_sse = float(np.sum((errors - model(budgets, fit.a, fit.b, fit.c)) ** 2))
        assert got_sse <= ref_sse * (1 + 1e-6)
        assert 0.01 <= fit.b <= 0.05  # paper-scale decay coefficients

    def test_requires_four_points(self):
        with pytest.raises(ValueError):
            fit_exp_decay(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))

    def test_requires_positive_budgets(self):
        with pytest.raises(ValueError):
            fit_exp_decay(np.array([0.0, 1, 2, 3]), np.zeros(4))

    def test_requires_equal_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            fit_exp_decay(np.arange(1.0, 6.0), np.zeros(4))
