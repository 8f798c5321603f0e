"""Ranking variants and append stability."""

import numpy as np
import pytest

from _child import traced
from lleval import (
    AccuracyCache,
    FormatError,
    Permutation,
    SortMethod,
    ThresholdVector,
    load_permutation,
    load_sums,
    save_permutation,
    save_sums,
    sort_by_confidence_sum,
    sort_by_sum,
    sort_models_by_sum,
    stable_append,
)
from lleval.cache import _CHUNK_BYTES, _TILE_BYTES
from lleval.sort import _sort_descending


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
                cache.column_sums()[result.permutation.order], result.sums
            )

    def test_peak_is_order_totals_and_keys(self):
        m, n = 6, 4 * 8 * _TILE_BYTES + 3
        rng = np.random.default_rng(25)
        bits = rng.integers(0, 256, size=(m, (n + 7) // 8), dtype=np.uint8)
        bits[:, -1] &= (1 << n % 8) - 1
        cache = AccuracyCache(m, n, bits)
        with traced() as memory:
            result = sort_by_sum(cache)
            _, peak = memory()
        assert np.all(np.diff(result.sums) <= 0)
        # int32 totals and the uint32 words that become the order, plus one
        # chunk of keys; no totals[order] copy
        assert peak <= 8 * n + (1 << 20)

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
        m, n = 500, 400_000
        rng = np.random.default_rng(24)
        bits = rng.integers(0, 256, size=(m, n // 8), dtype=np.uint8)
        cache = AccuracyCache(m, n, bits)
        with traced() as memory:
            result = sort_models_by_sum(cache)
            _, peak = memory()
        assert len(result.permutation) == m
        # one chunk of popcounts plus length-m arrays; an m x n array is 200 MB
        assert peak <= _CHUNK_BYTES + (1 << 20)


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
        n = 1 << 20  # an 8 MB int64 order
        order = np.random.default_rng(17).permutation(n)
        perm = Permutation(order)
        path = tmp_path / "p.llpm"
        with traced() as memory:
            save_permutation(perm, path)
            _, peak = memory()
        assert peak < 1 << 20
        # the stored payload is the uint64 order, as before
        assert path.read_bytes()[-8 * n:] == order.astype("<u8").tobytes()
        assert np.array_equal(load_permutation(path).order, order)

    def test_int32_order_stored_as_uint64(self, tmp_path):
        n = 1 << 20  # its 8 MB uint64 payload is written a chunk at a time
        order = np.random.default_rng(18).permutation(n).astype(np.int32)
        path = tmp_path / "p.llpm"
        perm = Permutation(order)
        with traced() as memory:
            save_permutation(perm, path)
            _, peak = memory()
        assert peak < 1 << 20
        assert path.read_bytes()[-8 * n:] == order.astype("<u8").tobytes()

    @pytest.mark.parametrize(
        "payload, problem",
        [([0, 0, 1], "distinct"), ([0, 3, 1], "range"), ([1, 1 << 63, 0], "range")],
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
