"""Ranking variants, per-row thresholds, the L1 objective, and append stability."""

import numpy as np
import pytest

from _oracles import best_threshold_error, threshold_error
from lleval import (
    AccuracyCache,
    FormatError,
    Permutation,
    SortMethod,
    ThresholdVector,
    load_permutation,
    load_sums,
    objective,
    recursive_sort_by_sum,
    save_permutation,
    save_sums,
    sort_by_confidence_sum,
    sort_by_sum,
    sort_models_by_sum,
    stable_append,
    threshold_all_rows,
)
from lleval.cache import _POPCOUNT_CHUNK_BYTES, _TILE_BYTES
from lleval.sort import _sort_descending, _tied_runs


def cache_with_column_sums(sums):
    """A cache whose column j holds sums[j] ones (stacked from the top)."""
    m = max(sums) if sums else 0
    dense = np.zeros((m, len(sums)), dtype=bool)
    for j, s in enumerate(sums):
        dense[:s, j] = True
    return AccuracyCache.from_dense(dense)


class TestSortBySum:
    def test_hand_sorted(self):
        result = sort_by_sum(cache_with_column_sums([2, 1, 3]))
        assert np.array_equal(result.permutation.order, [2, 0, 1])
        assert np.array_equal(result.sums, [3, 2, 1])
        assert result.method is SortMethod.SUM

    def test_stable_tie_break(self):
        result = sort_by_sum(cache_with_column_sums([2, 2, 1]))
        assert np.array_equal(result.permutation.order, [0, 1, 2])
        assert np.array_equal(result.sums, [2, 2, 1])

    def test_empty(self):
        result = sort_by_sum(AccuracyCache.from_dense(np.zeros((3, 0), dtype=bool)))
        assert len(result.permutation) == 0
        assert result.sums.size == 0

    def test_sums_non_increasing_randomized(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            m, n = int(rng.integers(1, 12)), int(rng.integers(1, 30))
            cache = AccuracyCache.from_dense(rng.random((m, n)) < rng.random())
            result = sort_by_sum(cache)
            assert np.all(np.diff(result.sums) <= 0)
            # permuting the raw column sums must reproduce the sorted sums
            assert np.array_equal(
                result.permutation.apply(cache.column_sums()), result.sums
            )

    def test_peak_is_order_totals_and_keys(self):
        import tracemalloc

        m, n = 6, 4 * 8 * _TILE_BYTES + 3
        rng = np.random.default_rng(25)
        bits = rng.integers(0, 256, size=(m, (n + 7) // 8), dtype=np.uint8)
        bits[:, -1] &= (1 << n % 8) - 1
        cache = AccuracyCache(m, n, bits)
        tracemalloc.start()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = sort_by_sum(cache)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert np.all(np.diff(result.sums) <= 0)
        # int32 totals and the uint32 words that become the order, plus one
        # chunk of keys; no totals[order] copy
        assert peak - before <= 8 * n + (1 << 20)

    def test_fresh_order_is_int32_and_not_checked_again(self, monkeypatch):
        cache = cache_with_column_sums([1, 3, 0, 3, 2])

        def check(self):
            raise AssertionError("a ranking's own order was checked again")

        monkeypatch.setattr(Permutation, "__post_init__", check)
        order = sort_by_sum(cache).permutation.order
        assert order.dtype == np.int32 and not order.flags.writeable
        assert order.tolist() == [1, 3, 4, 0, 2]


class TestSortModelsBySum:
    def test_matches_sort_of_transposed_cache(self):
        rng = np.random.default_rng(23)
        shapes = [(1, 13), (1, 8), (7, 1), (40, 3)]  # (40, 3) forces ties
        shapes += rng.integers(1, 70, size=(40, 2)).tolist()
        for m, n in shapes:
            cache = AccuracyCache.from_dense(rng.random((m, n)) < rng.random())
            got = sort_models_by_sum(cache)
            want = sort_by_sum(AccuracyCache.from_dense(cache.to_dense().T))
            assert np.array_equal(got.permutation.order, want.permutation.order)
            assert np.array_equal(got.sums, want.sums)
            assert got.method is SortMethod.SUM

    def test_no_samples_keeps_model_order(self):
        result = sort_models_by_sum(AccuracyCache.from_dense(np.zeros((4, 0), bool)))
        assert np.array_equal(result.permutation.order, [0, 1, 2, 3])
        assert np.array_equal(result.sums, [0, 0, 0, 0])

    def test_scratch_memory_is_one_chunk(self):
        import tracemalloc

        m, n = 500, 400_000
        rng = np.random.default_rng(24)
        bits = rng.integers(0, 256, size=(m, n // 8), dtype=np.uint8)
        cache = AccuracyCache(m, n, bits)
        tracemalloc.start()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = sort_models_by_sum(cache)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert len(result.permutation) == m
        # one chunk of popcounts plus length-m arrays; an m x n array is 200 MB
        assert peak - before <= _POPCOUNT_CHUNK_BYTES + (1 << 20)


class TestSortByConfidenceSum:
    def test_hand_summed(self):
        conf = np.array([[0.9, 0.1], [0.8, 0.7]], dtype=np.float32)
        cache = AccuracyCache.from_dense(conf >= 0.5, conf)
        result = sort_by_confidence_sum(cache)
        assert np.array_equal(result.permutation.order, [0, 1])
        assert result.sums == pytest.approx([1.7, 0.8], abs=1e-6)
        assert result.method is SortMethod.CONFIDENCE_SUM

    def test_equal_confidences_keep_identity_order(self):
        conf = np.full((3, 5), 0.5, dtype=np.float32)
        cache = AccuracyCache.from_dense(conf >= 0.5, conf)
        result = sort_by_confidence_sum(cache)
        assert np.array_equal(result.permutation.order, np.arange(5))

    def test_missing_confidence_is_an_error(self):
        cache = AccuracyCache.from_dense(np.ones((2, 2), dtype=bool))
        with pytest.raises(ValueError, match="confidence"):
            sort_by_confidence_sum(cache)


class TestThresholdAllRows:
    def test_identity_matrix_matches_brute_force(self):
        cache = AccuracyCache.from_dense(np.eye(6, dtype=bool))
        perm = Permutation(np.arange(6))
        for i, tv in enumerate(threshold_all_rows(cache, perm)):
            row = cache.row(i)
            assert threshold_error(row, tv.k) == best_threshold_error(row)

    def test_all_ones_threshold_is_n(self):
        cache = AccuracyCache.from_dense(np.ones((3, 5), dtype=bool))
        perm = Permutation(np.arange(5))
        assert [tv.k for tv in threshold_all_rows(cache, perm)] == [5, 5, 5]

    def test_all_zeros_threshold_is_zero(self):
        cache = AccuracyCache.from_dense(np.zeros((3, 5), dtype=bool))
        perm = Permutation(np.arange(5))
        assert [tv.k for tv in threshold_all_rows(cache, perm)] == [0, 0, 0]

    def test_respects_permutation(self):
        rng = np.random.default_rng(30)
        for _ in range(25):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 12))
            cache = AccuracyCache.from_dense(rng.random((m, n)) < 0.5)
            perm = Permutation(rng.permutation(n))
            for i, tv in enumerate(threshold_all_rows(cache, perm)):
                permuted = cache.row(i)[perm.order]
                assert threshold_error(permuted, tv.k) == best_threshold_error(
                    permuted
                )


class TestObjective:
    def test_monotone_cache_is_zero(self):
        dense = np.array([[1, 1, 0, 0], [1, 0, 0, 0], [1, 1, 1, 1]], dtype=bool)
        cache = AccuracyCache.from_dense(dense)
        perm = Permutation(np.arange(4))
        thresholds = threshold_all_rows(cache, perm)
        assert objective(cache, perm, thresholds) == 0.0

    def test_single_row_hand_counts(self):
        cache = AccuracyCache.from_dense(np.array([[1, 0, 1]], dtype=bool))
        perm = Permutation(np.arange(3))
        # step [1,1,0] disagrees with [1,0,1] at two positions
        assert objective(cache, perm, [ThresholdVector(3, 2)]) == pytest.approx(2 / 3)
        # the optimal cuts leave a single mismatch
        assert objective(cache, perm, [ThresholdVector(3, 1)]) == pytest.approx(1 / 3)
        assert objective(cache, perm, [ThresholdVector(3, 3)]) == pytest.approx(1 / 3)

    def test_empty_cache_is_zero(self):
        cache = AccuracyCache.from_dense(np.zeros((0, 0), dtype=bool))
        assert objective(cache, Permutation(np.array([], dtype=int)), []) == 0.0

    def test_random_thresholds_match_brute_force(self):
        rng = np.random.default_rng(75)
        for _ in range(30):
            m, n = int(rng.integers(1, 8)), int(rng.integers(1, 40))
            dense = rng.random((m, n)) < rng.random()
            cache = AccuracyCache.from_dense(dense)
            perm = Permutation(rng.permutation(n))
            ks = rng.integers(0, n + 1, size=m)
            step = np.arange(n) < ks[:, None]
            expected = np.count_nonzero(dense[:, perm.order] != step) / (m * n)
            thresholds = [ThresholdVector(n, int(k)) for k in ks]
            assert objective(cache, perm, thresholds) == expected

    def test_shape_mismatch(self):
        cache = AccuracyCache.from_dense(np.ones((2, 3), dtype=bool))
        perm = Permutation(np.arange(3))
        with pytest.raises(ValueError):
            objective(cache, perm, [ThresholdVector(3, 1)])


def exhaustive_objective(cache, order):
    """Eq-style objective with brute-force optimal thresholds per row."""
    m, n = cache.num_models, cache.num_samples
    if m * n == 0:
        return 0.0
    total = sum(
        best_threshold_error(cache.row(i)[order]) for i in range(m)
    )
    return total / (m * n)


class TestRecursiveSort:
    def test_distinct_sums_match_plain_sort(self):
        cache = cache_with_column_sums([4, 1, 3, 2])
        plain = sort_by_sum(cache)
        for depth in (1, 2, 3, 5):
            rec = recursive_sort_by_sum(cache, max_depth=depth)
            assert np.array_equal(rec.permutation.order, plain.permutation.order)
            assert np.array_equal(rec.sums, plain.sums)
            assert rec.method is SortMethod.RECURSIVE_SUM

    def test_depth_one_equals_plain_sort(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            cache = AccuracyCache.from_dense(rng.random((4, 8)) < 0.5)
            plain = sort_by_sum(cache)
            rec = recursive_sort_by_sum(cache, max_depth=1)
            assert np.array_equal(rec.permutation.order, plain.permutation.order)
            assert np.array_equal(rec.sums, plain.sums)

    def test_tie_pair_never_worse_than_either_order(self):
        # exhaustively compare against both orders of a single tied pair
        rng = np.random.default_rng(32)
        found_pair = 0
        while found_pair < 30:
            dense = rng.random((4, 4)) < 0.5
            cache = AccuracyCache.from_dense(dense)
            plain = sort_by_sum(cache)
            ties = [
                (lo, lo + 1)
                for lo in range(3)
                if plain.sums[lo] == plain.sums[lo + 1]
            ]
            if len(ties) != 1 or np.unique(plain.sums).size != 3:
                continue
            found_pair += 1
            lo, hi = ties[0]
            rec = recursive_sort_by_sum(cache, max_depth=2)
            kept = np.array(plain.permutation.order)
            swapped = kept.copy()
            swapped[[lo, hi]] = swapped[[hi, lo]]
            candidates = [exhaustive_objective(cache, kept),
                          exhaustive_objective(cache, swapped)]
            achieved = exhaustive_objective(cache, rec.permutation.order)
            assert achieved <= max(candidates) + 1e-12
            assert achieved <= exhaustive_objective(cache, kept) + 1e-12

    def test_objective_non_increasing_in_depth(self):
        rng = np.random.default_rng(33)
        for _ in range(60):
            m = int(rng.integers(2, 9))
            n = int(rng.integers(2, 17))
            cache = AccuracyCache.from_dense(rng.random((m, n)) < rng.random())
            values = [
                exhaustive_objective(
                    cache, recursive_sort_by_sum(cache, max_depth=d).permutation.order
                )
                for d in (1, 2, 3)
            ]
            assert values[1] <= values[0] + 1e-12
            assert values[2] <= values[1] + 1e-12

    def test_sums_stay_descending_column_sums(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            cache = AccuracyCache.from_dense(rng.random((5, 12)) < 0.5)
            rec = recursive_sort_by_sum(cache, max_depth=3)
            assert np.array_equal(
                rec.permutation.apply(cache.column_sums()), rec.sums
            )

    def test_max_depth_validated(self):
        cache = AccuracyCache.from_dense(np.ones((1, 1), dtype=bool))
        with pytest.raises(ValueError):
            recursive_sort_by_sum(cache, max_depth=0)


class TestStableAppend:
    def test_hand_example(self):
        base = sort_by_sum(cache_with_column_sums([5, 3, 3, 1]))
        appended = stable_append(base, ThresholdVector(4, 2))
        assert np.array_equal(appended.sums, [6, 4, 3, 1])
        assert appended.permutation is base.permutation

    def test_zero_threshold_changes_nothing(self):
        base = sort_by_sum(cache_with_column_sums([4, 2, 1]))
        appended = stable_append(base, ThresholdVector(3, 0))
        assert np.array_equal(appended.sums, base.sums)

    def test_full_threshold_shifts_everything(self):
        base = sort_by_sum(cache_with_column_sums([4, 2, 1]))
        appended = stable_append(base, ThresholdVector(3, 3))
        assert np.array_equal(appended.sums, [5, 3, 2])

    def test_length_mismatch(self):
        base = sort_by_sum(cache_with_column_sums([4, 2, 1]))
        with pytest.raises(ValueError, match="length"):
            stable_append(base, ThresholdVector(4, 2))

    def test_hundred_appends_preserve_order_and_shape(self):
        rng = np.random.default_rng(40)
        cache = AccuracyCache.from_dense(rng.random((6, 20)) < 0.5)
        result = sort_by_sum(cache)
        original_order = np.array(result.permutation.order)
        for _ in range(100):
            k = int(rng.integers(0, 21))
            result = stable_append(result, ThresholdVector(20, k))
            assert np.array_equal(result.permutation.order, original_order)
            assert np.all(np.diff(result.sums) <= 0)


class TestSortPersistence:
    def test_permutation_round_trip(self, tmp_path):
        perm = Permutation(np.array([3, 1, 0, 2]))
        path = tmp_path / "p.llpm"
        save_permutation(perm, path)
        assert np.array_equal(load_permutation(path).order, perm.order)

    def test_sums_round_trip(self, tmp_path):
        sums = np.array([5.0, 3.5, 1.0])
        path = tmp_path / "s.llsm"
        save_sums(sums, path)
        assert np.array_equal(load_sums(path), sums)

    def test_magic_mismatch_between_formats(self, tmp_path):
        perm_path = tmp_path / "p.llpm"
        save_permutation(Permutation(np.array([0, 1])), perm_path)
        with pytest.raises(FormatError, match="magic"):
            load_sums(perm_path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "p.llpm"
        save_permutation(Permutation(np.array([0, 1, 2])), path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError, match="truncated"):
            load_permutation(path)

    def test_permutation_written_without_copy(self, tmp_path):
        import tracemalloc

        n = 1 << 20  # an 8 MB int64 order
        order = np.random.default_rng(17).permutation(n)
        perm = Permutation(order)
        path = tmp_path / "p.llpm"
        tracemalloc.start()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        save_permutation(perm, path)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak - before < 1 << 20
        # the stored payload is the uint64 order, as before
        assert path.read_bytes()[-8 * n:] == order.astype("<u8").tobytes()
        assert np.array_equal(load_permutation(path).order, order)

    def test_int32_order_stored_as_uint64(self, tmp_path):
        import tracemalloc

        n = 1 << 20  # its 8 MB uint64 payload is written a chunk at a time
        order = np.random.default_rng(18).permutation(n).astype(np.int32)
        path = tmp_path / "p.llpm"
        perm = Permutation(order)
        tracemalloc.start()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        save_permutation(perm, path)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak - before < 1 << 20
        assert path.read_bytes()[-8 * n:] == order.astype("<u8").tobytes()

    @pytest.mark.parametrize(
        "payload, problem", [([0, 0, 1], "distinct"), ([0, 3, 1], "range")]
    )
    def test_loaded_order_is_checked(self, tmp_path, payload, problem):
        path = tmp_path / "p.llpm"
        header = b"LLPM" + (1).to_bytes(4, "little") + len(payload).to_bytes(8, "little")
        path.write_bytes(header + np.array(payload, dtype="<u8").tobytes())
        with pytest.raises(ValueError, match=problem):
            load_permutation(path)


class TestSortDescending:
    @staticmethod
    def check(vals):
        """Sorts a copy; returns the order's dtype after checking both results."""
        want = np.lexsort((np.arange(vals.size), -vals.astype(np.float64)))
        values = vals.copy()
        order = _sort_descending(values)
        assert np.array_equal(order, want)
        assert values.dtype == vals.dtype and np.array_equal(values, vals[want])
        return order.dtype

    def test_matches_lexsort_for_ints_and_floats(self):
        rng = np.random.default_rng(50)
        for _ in range(30):
            n = int(rng.integers(0, 200))
            if rng.random() < 0.5:
                vals = rng.integers(0, 9, size=n).astype(np.int64)
            else:
                vals = rng.choice([0.5, 1.25, 2.0, 3.5], size=n)
            self.check(vals)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize(
        "span, order_dtype",
        [(1 << 15, np.int32), (1 << 16, np.int64)],
        ids=["32bit", "33bit"],
    )
    def test_word_width_boundary(self, dtype, span, order_dtype):
        # 2**16 + 1 indices need 17 bits; a span of 2**15 - 1 needs 15 more
        # (32-bit words), a span of 2**16 - 1 needs 16 (64-bit words)
        rng = np.random.default_rng(51)
        n = (1 << 16) + 1
        for lo in (-40_000, 0):
            vals = rng.integers(lo, lo + span, size=n).astype(dtype)
            vals[:4] = lo, lo + span - 1, lo, lo + span - 1  # ties at both ends
            assert self.check(vals) == order_dtype

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_negative_and_repeated_ints(self, dtype):
        rng = np.random.default_rng(52)
        for n in (0, 1, 2, 7, 1000, 70_003):
            self.check(rng.integers(-500, 3, size=n).astype(dtype))
            self.check(np.full(n, -3, dtype=dtype))  # all equal
            self.check(np.zeros(n, dtype=dtype))

    def test_ints_too_wide_for_a_word(self):
        for vals in (
            np.array([np.iinfo(np.int64).min, 5, np.iinfo(np.int64).max, 5, -1]),
            np.array([2**64 - 1, 0, 2**63, 7, 2**64 - 1], dtype=np.uint64),
        ):
            want = sorted(range(vals.size), key=lambda i: (-int(vals[i]), i))
            values = vals.copy()
            assert _sort_descending(values).tolist() == want
            assert np.array_equal(values, vals[want])

    def test_float_sums(self):
        rng = np.random.default_rng(53)
        for n in (0, 1, 1000, 70_000):
            self.check(rng.integers(-40, 40, size=n) / 4.0)  # confidence sums
            self.check(np.full(n, 0.5))


class TestTiedRuns:
    @staticmethod
    def brute(values):
        runs, lo = [], 0
        for i in range(1, len(values) + 1):
            if i == len(values) or values[i] != values[lo]:
                if i - lo >= 2:
                    runs.append((lo, i - 1))
                lo = i
        return runs

    def test_matches_brute_force(self):
        rng = np.random.default_rng(52)
        cases = [np.array([], dtype=np.int64), np.array([4]), np.full(9, 3)]
        cases += [np.sort(rng.integers(0, 5, size=int(rng.integers(0, 30))))[::-1]
                  for _ in range(100)]
        cases += [rng.integers(0, 3, size=20) / 2.0 for _ in range(20)]
        for values in cases:
            got = _tied_runs(values)
            assert got == self.brute(values)
            assert all(type(x) is int for run in got for x in run)
