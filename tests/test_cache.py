"""Cache construction, persistence round-trips, and format error reporting."""

import csv
import errno
import gc
import itertools
import json
import os
import re
import struct
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from _child import traced
from _oracles import append_column
from lleval import (
    AccuracyCache,
    ErrorReport,
    FormatError,
    Permutation,
    SampleSelection,
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
    sort_by_confidence_sum,
    write_error_curve,
)
import lleval
import lleval.cache
from lleval.cache import (
    _SLICE_BYTES, _TILE_BYTES, _WRITE_CHUNK, _appending_writer, _replacing_writer,
    _write_blocks, _write_rows,
)
from lleval.cli import _write_json


def random_cache(rng, m, n, with_confidence=False):
    dense = rng.random((m, n)) < rng.random()
    conf = None
    if with_confidence:
        conf = rng.random((m, n)).astype(np.float32)
        dense = conf >= 0.5
    return AccuracyCache.from_dense(dense, conf)


def column_sums_ref(bits, n):
    """Per-column popcounts summed one bit plane at a time, not row by row."""
    planes = [((bits >> b) & 1).sum(axis=0, dtype=np.int64) for b in range(8)]
    return np.stack(planes, axis=1).reshape(-1)[:n]


def packed_cache(m, n, seed=None):
    """m x n cache of random packed bits (all ones without a seed)."""
    shape = (m, (n + 7) // 8)
    if seed is None:
        bits = np.full(shape, 0xFF, dtype=np.uint8)
    else:
        bits = np.random.default_rng(seed).integers(0, 256, size=shape, dtype=np.uint8)
    if n % 8 and m:
        bits[:, -1] &= (1 << n % 8) - 1
    return AccuracyCache(m, n, bits)


class TestConstruction:
    def test_from_dense_round_trip(self):
        dense = np.array([[1, 0, 1], [1, 1, 0]], dtype=bool)
        cache = AccuracyCache.from_dense(dense)
        assert cache.num_models == 2
        assert cache.num_samples == 3
        assert np.array_equal(cache.to_dense(), dense)

    def test_rows_and_columns(self):
        dense = np.array([[1, 0, 1], [1, 1, 0]], dtype=bool)
        cache = AccuracyCache.from_dense(dense)
        assert np.array_equal(cache.row(0), [True, False, True])
        assert np.array_equal(cache.row(1), [True, True, False])
        assert np.array_equal(cache.column_sums(), [2, 1, 1])

    def test_degenerate_shapes_are_valid(self):
        for m, n in [(0, 0), (0, 5), (3, 0)]:
            cache = AccuracyCache.from_dense(np.zeros((m, n), dtype=bool))
            assert cache.num_models == m
            assert cache.num_samples == n

    def test_from_dense_packs_numbers_as_their_bools(self):
        rng = np.random.default_rng(12)
        for m, n in [(0, 0), (0, 5), (3, 0), (1, 8), (4, 13)]:
            dense = rng.random((m, n)) < 0.5
            conf = rng.random((m, n)).astype(np.float32)
            want = np.packbits(dense, axis=1, bitorder="little")
            for matrix in (dense, dense.astype(np.uint8), dense.astype(np.int64)):
                got = AccuracyCache.from_dense(matrix, conf)
                assert got.bits.shape == want.shape
                assert np.array_equal(got.bits, want)
                assert np.array_equal(got.confidence, conf)

    def test_from_dense_checks_each_row(self):
        with pytest.raises(ValueError, match="^row entries must be 0 or 1$"):
            AccuracyCache.from_dense([[0, 1], [0, 2]])
        for shape in [(3,), (2, 3, 1)]:
            with pytest.raises(ValueError, match="^dense matrix must be 2-dimensional$"):
                AccuracyCache.from_dense(np.zeros(shape, bool))

    def test_from_dense_converts_one_row_at_a_time(self):
        m, n = 64, 100_000
        dense = (np.random.default_rng(14).random((m, n)) < 0.5).astype(np.uint8)
        with traced() as memory:
            cache = AccuracyCache.from_dense(dense)
            _, peak = memory()
        # the packed bits and one row's 0/1 checks and bools, not an m x n
        # bool copy of the matrix
        assert peak <= m * n // 8 + 4 * n
        assert np.array_equal(cache.to_dense(), dense.astype(bool))

    def test_first_models_is_the_leading_rows(self):
        rng = np.random.default_rng(13)
        dense = rng.random((6, 11)) < 0.5
        conf = rng.random((6, 11)).astype(np.float32)
        cache = AccuracyCache.from_dense(dense, conf)
        for k in range(7):
            assert cache.first_models(k) == AccuracyCache.from_dense(dense[:k], conf[:k])
        assert AccuracyCache.from_dense(dense).first_models(2).confidence is None
        for k in (-1, 7):
            with pytest.raises(ValueError, match="models"):
                cache.first_models(k)

    def test_nonzero_padding_rejected(self):
        bits = np.array([[0xFF]], dtype=np.uint8)  # n=3 leaves 5 padding bits
        with pytest.raises(ValueError, match="padding"):
            AccuracyCache(1, 3, bits)

    def test_confidence_shape_and_range_checked(self):
        dense = np.zeros((2, 2), dtype=bool)
        with pytest.raises(ValueError, match="shape"):
            AccuracyCache.from_dense(dense, np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            AccuracyCache.from_dense(dense, np.full((2, 2), 1.5, dtype=np.float32))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            AccuracyCache.from_dense(dense, np.full((2, 2), np.nan, dtype=np.float32))

    @pytest.mark.parametrize("row", [0, 3, 4, 8])
    @pytest.mark.parametrize("bad", [-0.5, 1.5, np.nan])
    def test_confidence_range_checked_in_every_band(self, monkeypatch, row, bad):
        monkeypatch.setattr(lleval.cache, "_BAND_BYTES", 4 * 4 * 7)  # 4 rows
        conf = np.full((9, 7), 0.5, dtype=np.float32)
        conf[row, 6] = bad
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            AccuracyCache.from_dense(conf >= 0.5, conf)

    @pytest.mark.parametrize(
        "m, n, shape, match",
        [(-1, 8, (0, 1), "non-negative"), (1, -8, (1, 0), "non-negative"),
         (2, 9, (2, 1), r"bits shape \(2, 1\) does not match 2x9"),
         (2, 8, (1, 1), r"bits shape \(1, 1\) does not match 2x8")],
    )
    def test_dimensions_and_bits_shape_checked(self, m, n, shape, match):
        with pytest.raises(ValueError, match=match):
            AccuracyCache(m, n, np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize(
        "other",
        ["cache", AccuracyCache.from_dense(np.zeros((3, 2), dtype=bool)),
         AccuracyCache.from_dense(np.zeros((2, 3), dtype=bool), np.zeros((2, 3), np.float32))],
        ids=["not-a-cache", "another-shape", "only-confidences-differ"],
    )
    def test_unequal_to_other_values(self, other):
        cache = AccuracyCache.from_dense(np.zeros((2, 3), dtype=bool))
        assert cache.__eq__(other) is (NotImplemented if other == "cache" else False)
        assert cache != other and other != cache

    def test_non_binary_dense_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            AccuracyCache.from_dense(np.array([[0, 2]]))

    def test_bits_are_immutable(self):
        cache = AccuracyCache.from_dense(np.ones((2, 9), dtype=bool))
        with pytest.raises(ValueError):
            cache.bits[0, 0] = 0


def _appended(cache, path, col, conf=None):
    """``cache`` as ``save_appended_cache`` writes it to ``path``, loaded."""
    save_appended_cache(cache, path, col, conf)
    return load_cache(path)


class TestAppend:
    def test_append_column_grows(self, tmp_path):
        cache = AccuracyCache.from_dense(np.array([[1, 0], [0, 1]], dtype=bool))
        grown = _appended(cache, tmp_path / "grown.llbc", np.array([1, 1], dtype=bool))
        assert grown.num_samples == 3
        assert np.array_equal(grown.to_dense()[:, 2], [True, True])
        assert np.array_equal(grown.to_dense()[:, :2], cache.to_dense())

    def test_append_column_to_empty(self, tmp_path):
        cache = AccuracyCache.from_dense(np.zeros((3, 0), dtype=bool))
        grown = _appended(cache, tmp_path / "grown.llbc", np.array([1, 0, 1], dtype=bool))
        assert grown.num_samples == 1
        assert np.array_equal(grown.to_dense()[:, 0], [True, False, True])

    def test_append_column_length_checked(self, tmp_path):
        cache = AccuracyCache.from_dense(np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError, match="length"):
            save_appended_cache(cache, tmp_path / "grown.llbc", np.zeros(3, dtype=bool))

    def test_append_column_entries_checked(self, tmp_path):
        cache = AccuracyCache.from_dense(np.array([[1, 0], [0, 1]], dtype=bool))
        path = tmp_path / "grown.llbc"
        for bad in ([2, 0], [-1, 1]):
            with pytest.raises(ValueError, match="0 or 1"):
                save_appended_cache(cache, path, np.array(bad))
        for good in (np.array([1, 0]), np.array([True, False])):
            grown = _appended(cache, path, good)
            assert np.array_equal(grown.to_dense()[:, 2], [True, False])

    @pytest.mark.parametrize("confidence", [False, True])
    @pytest.mark.parametrize("n", [0, 16, 19, 23])  # n % 8 in {0, 3, 7}
    def test_streamed_append_is_save_of_append_column(
        self, tmp_path, monkeypatch, n, confidence
    ):
        rng = np.random.default_rng(n)
        path = tmp_path / "cache.llbc"
        save_cache(random_cache(rng, 11, n, confidence), path)
        cache = load_cache(path)  # grown from the mapped file
        col = rng.random(11) < 0.5
        conf = rng.random(11).astype(np.float32) if confidence else None
        want = tmp_path / "want.llbc"
        save_cache(append_column(cache, col, conf), want)
        # a chunk of two rows, and one row when a row is wider than a chunk
        for chunk in (2 * (n // 8 + 1), 1, 1 << 20):
            monkeypatch.setattr(lleval.cache, "_CHUNK_BYTES", chunk)
            save_appended_cache(cache, tmp_path / "got.llbc", col, conf)
            assert (tmp_path / "got.llbc").read_bytes() == want.read_bytes(), chunk
        save_appended_cache(cache, path, col, conf)  # onto the mapped input
        assert path.read_bytes() == want.read_bytes()

    def test_streamed_append_of_no_models(self, tmp_path):
        empty = AccuracyCache(0, 7, np.zeros((0, 1), np.uint8))
        save_appended_cache(empty, tmp_path / "got.llbc", np.zeros(0, bool))
        assert load_cache(tmp_path / "got.llbc") == append_column(empty, np.zeros(0, bool))

    @pytest.mark.parametrize(
        "confidence, col, conf, message",
        [
            (False, [1, 0, 1], [1.0, 0.0, 1.0], "confidence_col not allowed"),
            (True, [1, 0, 1], None, "confidence_col required"),
            (True, [1, 0, 1], [1.0, 0.0], r"shape \(2,\) does not match 3"),
            (True, [1, 0, 1], [1.0, np.nan, 1.0], r"lie in \[0, 1\]"),
            (True, [1, 0, 1], [1.0, 0.0, 1.5], r"lie in \[0, 1\]"),
            (False, [1, 2, 1], None, "0 or 1"),
            (False, [1, 0], None, "length"),
        ],
    )
    def test_new_column_checked_by_both_appends(
        self, tmp_path, confidence, col, conf, message
    ):
        # both appends: to a new file, and onto the file the cache is mapped
        # from, which a rejected column leaves as it was
        path = tmp_path / "cache.llbc"
        save_cache(random_cache(np.random.default_rng(5), 3, 9, confidence), path)
        before = path.read_bytes()
        cache = load_cache(path)
        for target in (tmp_path / "got.llbc", path):
            with pytest.raises(ValueError, match=message):
                save_appended_cache(cache, target, np.array(col), conf)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_append_across_byte_boundary(self, tmp_path):
        cache = AccuracyCache.from_dense(np.ones((1, 8), dtype=bool))
        grown = _appended(cache, tmp_path / "grown.llbc", np.array([1], dtype=bool))
        assert grown.bits.shape == (1, 2)
        assert np.array_equal(grown.row(0), np.ones(9, dtype=bool))


def _nearest(dense, cols, values):
    """The nearest row by brute force over the dense columns."""
    return int(np.argmin((dense[:, cols] != values).sum(axis=1)))


class TestNearestRow:
    def check(self, dense, cols, values, cache=None):
        cache = AccuracyCache.from_dense(dense) if cache is None else cache
        got = cache.nearest_row(cols, values)
        assert got == _nearest(dense, cols, values)
        return got

    def test_matches_brute_force(self):
        rng = np.random.default_rng(90)
        for m, n in [(1, 1), (6, 7), (9, 21), (4, 64), (12, 203), (40, 9)]:
            for _ in range(20):
                dense = rng.random((m, n)) < rng.random()
                cols = rng.permutation(n)[: int(rng.integers(1, n + 1))]
                self.check(dense, cols, rng.random(cols.size) < 0.5)

    @pytest.mark.parametrize("m", [1, 7, 8, 9, 200])
    def test_fold_boundaries(self, m):
        # every bit of A packed bytes observed: A gathered rows of counts up
        # to 8, folded in 64-bit words.  Model 0 disagrees on every observed
        # bit, so its true count 8 * A is the largest; a byte lane that summed
        # 32 rows would wrap to 0 and make it the nearest.
        rng = np.random.default_rng(95)
        for blocks in (1, 15, 16, 17, 31, 32, 33, 2_003):
            n = 8 * blocks + 8 * int(rng.integers(0, 3)) + int(rng.integers(0, 8))
            at = np.sort(rng.choice(n // 8, size=blocks, replace=False))
            cols = (8 * at[:, None] + np.arange(8)).ravel()
            values = rng.random(cols.size) < 0.5
            dense = rng.random((m, n)) < 0.5
            dense[0, cols] = ~values
            got = self.check(dense, cols, values)
            assert m == 1 or got != 0

    def test_columns_in_padding_byte(self):
        rng = np.random.default_rng(91)
        dense = rng.random((7, 21)) < 0.5  # n % 8 == 5: columns 16..20 share a byte
        for cols in ([16, 20], [20], [3, 17, 19, 18], [16, 17, 18, 19, 20]):
            cols = np.array(cols)
            for i in range(7):
                assert self.check(dense, cols, dense[i, cols]) <= i

    def test_columns_sharing_a_byte(self):
        dense = np.array(
            [[0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1, 0, 1],
             [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1],
             [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0]],
            dtype=bool,
        )
        cols = np.array([9, 13, 8, 15])  # all in byte 1, unsorted
        assert self.check(dense, cols, np.array([0, 1, 1, 1], dtype=bool)) == 1
        assert self.check(dense, cols, np.array([1, 1, 1, 0], dtype=bool)) == 2

    def test_any_order_and_every_column(self):
        rng = np.random.default_rng(92)
        dense = rng.random((15, 37)) < 0.5
        truth = rng.random(37) < 0.5
        cols = rng.permutation(37)
        want = self.check(dense, cols, truth[cols])
        assert self.check(dense, np.arange(37), truth) == want
        assert self.check(dense, cols[::-1], truth[cols[::-1]]) == want

    def test_single_model_and_ties(self):
        rng = np.random.default_rng(93)
        one = rng.random((1, 19)) < 0.5
        assert self.check(one, np.array([0, 18, 4]), np.ones(3, dtype=bool)) == 0
        a, b = rng.random(19) < 0.5, rng.random(19) < 0.5
        cols = np.array([2, 9, 11, 17])
        assert self.check(np.array([b, a, a, b]), cols, a[cols]) == 1
        assert self.check(np.array([a, b, a]), cols, a[cols]) == 0
        same = np.ones((4, 19), dtype=bool)  # every row ties
        assert self.check(same, cols, np.zeros(4, dtype=bool)) == 0

    def test_no_columns_gives_first_row(self):
        cache = AccuracyCache.from_dense(np.eye(3, 10) > 0)
        assert cache.nearest_row(np.array([], dtype=np.int64), []) == 0

    def test_first_models_view_sees_only_its_rows(self):
        rng = np.random.default_rng(94)
        dense = rng.random((10, 45)) < 0.5
        full = AccuracyCache.from_dense(dense)
        cols = rng.permutation(45)[:30]
        values = dense[8, cols]  # only row 8, outside the view, matches
        assert full.nearest_row(cols, values) == 8
        view = full.first_models(6)
        got = self.check(dense[:6], cols, values, cache=view)
        assert got < 6
        # built in the other order, the view answers the same
        assert AccuracyCache.from_dense(dense).first_models(6).nearest_row(
            cols, values
        ) == got

    def test_out_of_range_columns_rejected(self):
        cache = AccuracyCache.from_dense(np.ones((2, 13), dtype=bool))
        for bad in (13, -1):
            with pytest.raises(IndexError, match="out of range"):
                cache.nearest_row(np.array([0, bad]), np.array([True, True]))

    def test_threads_racing_on_the_first_call(self):
        # more threads than cores, switching often, all making their first
        # call together: each must still get the brute-force answers
        import sys

        rng = np.random.default_rng(95)
        m, n = 48, 40_003
        dense = rng.random((m, n)) < 0.5
        bits = AccuracyCache.from_dense(dense).bits
        queries = []
        for _ in range(8):
            cols = rng.permutation(n)[: int(rng.integers(1, n))]
            queries.append((cols, rng.random(cols.size) < 0.5))
        expected = [_nearest(dense, c, v) for c, v in queries]
        workers = 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                cache = AccuracyCache(m, n, bits)  # no byte columns built yet
                start = threading.Barrier(workers)
                answers = [None] * workers

                def work(t):
                    start.wait(timeout=30)
                    answers[t] = [cache.nearest_row(c, v) for c, v in queries]

                threads = [
                    threading.Thread(target=work, args=(t,)) for t in range(workers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert answers == [expected] * workers
        finally:
            sys.setswitchinterval(interval)

    def test_threads_sharing_a_cache_build_one_copy(self):
        # two threads miss the transposed copy together: one builds it, the
        # other waits for it; two builds would hold twice its bytes at once
        m, n = 64, 1 << 21
        cache = AccuracyCache(m, n, np.zeros((m, n // 8), dtype=np.uint8))
        cols = np.arange(0, n, 4099)
        values = np.ones(cols.size, dtype=bool)
        start = threading.Barrier(2)
        answers = []

        def work():
            start.wait(timeout=30)
            answers.append(cache.nearest_row(cols, values))

        threads = [threading.Thread(target=work) for _ in range(2)]
        with traced() as memory:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            _, peak = memory()
        assert answers == [0, 0]
        assert peak < 2 * cache._byte_columns.nbytes


def _mentioning(pattern: str) -> list[str]:
    """Modules of the package other than cache.py whose source matches."""
    package = Path(lleval.__file__).parent
    return [
        path.name
        for path in sorted(package.glob("*.py"))
        if path.name != "cache.py" and re.search(pattern, path.read_text())
    ]


class TestPackedLayout:
    def test_only_cache_touches_packed_bits(self):
        assert _mentioning(r"\.bits\b|packbits|unpackbits|bitwise_count") == []


class TestFileFormats:
    def test_only_cache_knows_file_formats(self):
        pattern = (
            r"import struct|_replacing_writer|tobytes|frombuffer|memmap"
            r'|b"LL|TYPE_CHECKING|json\.loads|read_text|read_bytes|astype\(bool'
        )
        assert _mentioning(pattern) == []


class TestColumnSums:
    def test_hand_counted(self):
        cache = AccuracyCache.from_dense(np.array([[1, 0, 1], [1, 1, 0]], dtype=bool))
        assert np.array_equal(cache.column_sums(), [2, 1, 1])

    def test_all_zero(self):
        cache = AccuracyCache.from_dense(np.zeros((4, 6), dtype=bool))
        assert np.array_equal(cache.column_sums(), np.zeros(6))

    def test_single_row_is_the_row(self):
        row = np.array([1, 0, 0, 1, 1], dtype=bool)
        cache = AccuracyCache.from_dense(row[None, :])
        assert np.array_equal(cache.column_sums(), row.astype(int))

    def test_matches_brute_force_popcount(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            m = int(rng.integers(0, 65))
            n = int(rng.integers(0, 65))
            dense = rng.random((m, n)) < 0.5
            cache = AccuracyCache.from_dense(dense)
            brute = np.array([int(dense[:, j].sum()) for j in range(n)])
            assert np.array_equal(cache.column_sums(), brute)

    def test_confidence_sums(self):
        conf = np.array([[0.2, 0.9, 0.1], [0.3, 0.8, 0.7]], dtype=np.float32)
        cache = AccuracyCache.from_dense(conf >= 0.5, conf)
        result = sort_by_confidence_sum(cache)
        assert np.array_equal(result.permutation.order, [1, 2, 0])
        assert result.sums == pytest.approx(conf.sum(axis=0)[[1, 2, 0]])

    def test_confidence_sums_require_confidence(self):
        cache = AccuracyCache.from_dense(np.zeros((1, 1), dtype=bool))
        with pytest.raises(ValueError, match="confidence"):
            sort_by_confidence_sum(cache)

    @pytest.mark.parametrize("mapped", [False, True])
    @pytest.mark.parametrize("m", [0, 1, 4, 5, 33])
    def test_confidence_sums_are_one_sum_over_the_block(
        self, monkeypatch, tmp_path, mapped, m
    ):
        # values over sixty binary orders of magnitude, whose float64
        # totals depend on the order the rows are added in; bands of 4 rows
        n = 1003
        rng = np.random.default_rng(m)
        conf = rng.random((m, n)) * np.exp2(-rng.integers(0, 60, size=(m, n)))
        conf = conf.astype(np.float32)
        monkeypatch.setattr(lleval.cache, "_BAND_BYTES", 4 * 4 * n)
        cache = AccuracyCache.from_dense(conf >= 0.5, conf)
        if mapped:
            save_cache(cache, tmp_path / "conf.llbc")
            cache = load_cache(tmp_path / "conf.llbc")
        sums = cache.confidence_sums()
        assert sums.dtype == np.float64
        assert sums.tobytes() == conf.sum(axis=0, dtype=np.float64).tobytes()

    def test_scratch_memory_is_one_array(self):
        n = 200_000
        rng = np.random.default_rng(0)
        cache = AccuracyCache(
            8, n, rng.integers(0, 256, size=(8, n // 8), dtype=np.uint8)
        )
        with traced() as memory:
            sums = cache.column_sums()
            _, peak = memory()
        assert sums.size == n
        # accumulator plus one transient unpacked row, nothing bigger
        assert peak <= 8 * n + (1 << 20)

    @pytest.mark.parametrize("m", [0, 1, 254, 255, 256, 510, 511])
    def test_all_ones_rows_pass_the_uint8_wrap(self, m):
        n = 8 * _TILE_BYTES + 9
        sums = packed_cache(m, n).column_sums()
        assert sums.dtype == np.int32
        assert np.array_equal(sums, np.full(n, m))

    @pytest.mark.parametrize(
        "m, n",
        [
            (5, 8 * _TILE_BYTES - 1),
            (5, 8 * _TILE_BYTES),
            (5, 8 * _TILE_BYTES + 9),
            (300, 2 * 8 * _TILE_BYTES + 3),
            (7, 1003),
        ],
    )
    def test_tile_edges_match_bit_planes(self, m, n):
        cache = packed_cache(m, n, seed=n + m)
        assert np.array_equal(cache.column_sums(), column_sums_ref(cache.bits, n))

    def test_first_models_view(self):
        n = 8 * _TILE_BYTES + 5
        cache = packed_cache(300, n, seed=19)
        for k in (0, 1, 255, 256, 300):
            head = cache.first_models(k)
            assert k == 0 or np.shares_memory(head.bits, cache.bits)
            assert np.array_equal(
                head.column_sums(), column_sums_ref(cache.bits[:k], n)
            )

    def test_memory_mapped_cache(self, tmp_path):
        n = 3 * 8 * _TILE_BYTES + 7
        cache = packed_cache(260, n, seed=17)
        save_cache(cache, tmp_path / "cache.llbc")
        mapped = load_cache(tmp_path / "cache.llbc")
        assert not mapped.bits.flags.writeable
        assert np.array_equal(mapped.column_sums(), column_sums_ref(cache.bits, n))

    def test_scratch_beyond_result_is_one_tile(self):
        n = 5 * 8 * _TILE_BYTES + 3
        cache = packed_cache(4, n, seed=18)
        with traced() as memory:
            sums = cache.column_sums()
            _, peak = memory()
        # the int32 result, then a tile's counter and unpacked row
        assert peak <= 4 * n + (2 << 20)
        assert np.array_equal(sums, column_sums_ref(cache.bits, n))

    @pytest.mark.parametrize(
        "m, n",
        [
            (m, n)
            for m in (15, 16, 17, 31, 32, 33, 1023, 1024, 1025)
            for n in (1003, 8 * _SLICE_BYTES - 3, 8 * _SLICE_BYTES + 3)
        ]
        + [(m, 8 * _TILE_BYTES + 5) for m in (15, 16, 17, 31, 32, 33)],
    )
    def test_carry_save_groups_match_bit_planes(self, m, n):
        # m one short of, at and one past whole 16-row groups, and at 1023
        # to 1025 rows of 15 KiB, of 512-row bands; rows of 1003 columns are
        # laid side by side, the wider ones are not
        cache = packed_cache(m, n, seed=m + 3 * n)
        assert np.array_equal(cache.column_sums(), column_sums_ref(cache.bits, n))

    @pytest.mark.parametrize("m", [3, 4, 15, 16, 1023, 1024])
    @pytest.mark.parametrize("n", [1003, 8 * _SLICE_BYTES + 3])
    def test_all_ones_carry_into_the_top_plane(self, m, n):
        sums = packed_cache(m, n).column_sums()
        assert sums.dtype == np.int32
        assert np.array_equal(sums, np.full(n, m))

    def test_mapped_rows_off_eight_byte_alignment(self, tmp_path):
        n = 1_699_995  # 212,500-byte rows, as at the paper's 1.7M samples
        cache = packed_cache(33, n, seed=20)
        save_cache(cache, tmp_path / "cache.llbc")
        mapped = load_cache(tmp_path / "cache.llbc")
        assert mapped.bits.strides[0] % 8 == 4
        assert mapped.bits[1].ctypes.data % 8 != 0
        assert np.array_equal(mapped.column_sums(), column_sums_ref(cache.bits, n))

    def test_mapped_bits_freed_without_the_collector(self, tmp_path):
        save_cache(packed_cache(40, 8 * _TILE_BYTES + 5, seed=21), tmp_path / "c.llbc")
        gc.disable()
        try:
            cache = load_cache(tmp_path / "c.llbc")
            mapped = cache.bits
            while isinstance(mapped, np.ndarray):  # views, the memmap, then the map
                mapped = mapped.base
            mapped = weakref.ref(mapped)
            cache.column_sums()
            del cache
            # a reference cycle through the kernel would keep the map alive
            assert mapped() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("mapped", [False, True])
    @pytest.mark.parametrize("n, k", [(8 * _TILE_BYTES + 5, 1), (1003, 121)])
    @pytest.mark.parametrize(
        "band, rows",
        [(4, 3), (4, 4), (4, 5), (4, 31), (4, 33), (1, 1), (1, 7)]
        + [(band, rows) for band in (16, 32) for rows in (15, 16, 17, 31, 33, 49)],
    )
    def test_band_edges_match_bit_planes(
        self, monkeypatch, tmp_path, mapped, n, k, band, rows
    ):
        # rows one short of, at and past a band, and whole 16-row groups
        # with rows over in the last band; bands patched below 16 rows are
        # read as 16-row bands.  With n = 1003, 121 rows sit side by side
        # as one
        monkeypatch.setattr(lleval.cache, "_BAND_BYTES", band * k * ((n + 7) // 8))
        read, release = [], lleval.cache._release

        def counted(band_rows):
            read.append(len(band_rows))
            release(band_rows)

        monkeypatch.setattr(lleval.cache, "_release", counted)
        step = max(16, band)
        for seed in (None, rows):  # all ones carry into the top plane
            cache = packed_cache(rows * k, n, seed=seed)
            if mapped:
                save_cache(cache, tmp_path / "cache.llbc")
                cache = load_cache(tmp_path / "cache.llbc")
            read.clear()
            assert np.array_equal(cache.column_sums(), column_sums_ref(cache.bits, n))
            assert read == [min(step, rows - lo) for lo in range(0, rows, step)]

    def test_copy_on_write_map_keeps_its_writes(self, tmp_path):
        # pages of a private map hold its writes: releasing them would
        # silently bring back the file's bytes
        n = 8 * _TILE_BYTES + 5
        cache = packed_cache(64, n, seed=22)
        save_cache(cache, tmp_path / "cache.llbc")
        bits = np.memmap(tmp_path / "cache.llbc", np.uint8, "c", 32, cache.bits.shape)
        bits[:, 0] ^= 1
        written = np.array(bits)
        mapped = AccuracyCache(64, n, bits)
        assert np.array_equal(mapped.column_sums(), column_sums_ref(written, n))
        assert mapped.row_sums().sum() == np.bitwise_count(written).sum()
        assert np.array_equal(mapped.bits, written)

    def test_row_sums_match_dense(self):
        rng = np.random.default_rng(4)
        for m, n in [(0, 0), (3, 0), (0, 9), (5, 13), (40, 3)]:
            dense = rng.random((m, n)) < 0.5
            sums = AccuracyCache.from_dense(dense).row_sums()
            assert sums.dtype == np.int64
            assert np.array_equal(sums, dense.sum(axis=1))

    @pytest.mark.parametrize("m", [0, 1, 37])
    @pytest.mark.parametrize("n", [0, 128, 129, 135, 136, 191])  # n % 64: 0, 1, 7, 8, 63
    @pytest.mark.parametrize("chunk", [64, 1 << 20])  # 37 rows: 19 chunks, or 1
    def test_row_sums_match_byte_popcounts(self, monkeypatch, m, n, chunk):
        monkeypatch.setattr(lleval.cache, "_CHUNK_BYTES", chunk)
        cache = packed_cache(m, n, seed=m + n)
        sums = cache.row_sums()
        assert sums.dtype == np.int64
        assert np.array_equal(sums, np.bitwise_count(cache.bits).sum(axis=1))
        if m:
            assert np.array_equal(packed_cache(m, n).row_sums(), np.full(m, n))


def _csv_rows(path):
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def _append_ones(cache, path):
    ones = np.ones(cache.num_models)
    save_appended_cache(cache, path, ones, ones)


# (save, load, value) for each writer of an artifact
WRITERS = [
    (save_cache, load_cache, AccuracyCache.from_dense(np.eye(3, 11) > 0)),
    (save_permutation, load_permutation, Permutation(np.array([2, 0, 1]))),
    (save_sums, load_sums, np.array([4.0, 2.5, 1.0])),
    pytest.param(
        lambda payload, path: _write_json(path, payload),
        lambda path: json.loads(path.read_text()),
        {"mae": 0.25, "budget": 8},
        id="write_json",
    ),
    pytest.param(
        lambda reports, path: write_error_curve(path, reports),
        _csv_rows,
        [ErrorReport(0.5, 0.25, 0.125, 0.0, 8)],
        id="write_error_curve",
    ),
    pytest.param(  # simulate's baseline.csv
        lambda rows, path: _write_rows(path, rows),
        _csv_rows,
        [("budget", "mae"), (8, "0.5")],
        id="write_rows",
    ),
    pytest.param(  # n % 8 == 5, with confidences
        _append_ones,
        load_cache,
        AccuracyCache.from_dense(np.eye(3, 13) > 0, np.eye(3, 13)),
        id="save_appended_cache",
    ),
]


class TestPersistence:
    def test_empty_cache_round_trip(self, tmp_path):
        cache = AccuracyCache.from_dense(np.zeros((0, 0), dtype=bool))
        path = tmp_path / "empty.llbc"
        save_cache(cache, path)
        loaded = load_cache(path)
        assert loaded.num_models == 0
        assert loaded.num_samples == 0

    def test_random_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        cache = random_cache(rng, 7, 13)
        path = tmp_path / "cache.llbc"
        save_cache(cache, path)
        assert load_cache(path) == cache

    def test_confidence_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        cache = random_cache(rng, 5, 11, with_confidence=True)
        path = tmp_path / "cache.llbc"
        save_cache(cache, path)
        loaded = load_cache(path)
        assert loaded == cache
        assert loaded.confidence.dtype == np.float32

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.llbc"
        path.write_bytes(b"NOPE" + bytes(28))
        with pytest.raises(FormatError, match="magic"):
            load_cache(path)

    def test_version_mismatch(self, tmp_path):
        rng = np.random.default_rng(9)
        path = tmp_path / "cache.llbc"
        save_cache(random_cache(rng, 2, 9), path)
        data = bytearray(path.read_bytes())
        data[4] = 2
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version"):
            load_cache(path)

    def test_truncated_file(self, tmp_path):
        rng = np.random.default_rng(10)
        path = tmp_path / "cache.llbc"
        save_cache(random_cache(rng, 3, 17), path)
        data = path.read_bytes()
        path.write_bytes(data[:-1])
        with pytest.raises(FormatError, match="truncated"):
            load_cache(path)

    def test_confidence_flag_without_block_is_truncated(self, tmp_path):
        rng = np.random.default_rng(12)
        path = tmp_path / "cache.llbc"
        save_cache(random_cache(rng, 2, 5), path)
        data = bytearray(path.read_bytes())
        data[24] |= 1  # set the confidence flag without appending the block
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="truncated"):
            load_cache(path)

    def test_nonzero_padding_bits(self, tmp_path):
        path = tmp_path / "cache.llbc"
        save_cache(AccuracyCache.from_dense(np.ones((1, 3), dtype=bool)), path)
        data = bytearray(path.read_bytes())
        data[-1] |= 0x80
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="padding"):
            load_cache(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "cache.llbc"
        save_cache(AccuracyCache.from_dense(np.ones((1, 3), dtype=bool)), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_cache(path)

    def test_load_maps_without_copy(self, tmp_path):
        m, n = 64, 1_000_003  # about 8 MB; the ragged last byte checks padding
        rng = np.random.default_rng(14)
        bits = rng.integers(0, 256, size=(m, (n + 7) // 8), dtype=np.uint8)
        bits[:, -1] &= 0x07
        cache = AccuracyCache(m, n, bits)
        path = tmp_path / "cache.llbc"
        save_cache(cache, path)
        with traced() as memory:
            loaded = load_cache(path)
            _, peak = memory()
        assert peak < 1 << 20
        assert not loaded.bits.flags.writeable
        assert loaded == cache

    @pytest.mark.parametrize("confidence", [False, True])
    @pytest.mark.parametrize("m", [0, 1, 4, 9])
    def test_save_and_compare_release_every_band(
        self, monkeypatch, tmp_path, confidence, m
    ):
        # bands of 4 rows of bits, and of 1 row of confidences, whose rows
        # are wider than a band; every band read of a mapped cache is
        # released, also when == stops at the first unequal band
        n = 1003
        monkeypatch.setattr(lleval.cache, "_BAND_BYTES", 4 * ((n + 7) // 8))
        released, release = [], lleval.cache._release

        def counted(band):
            released.append((band.ctypes.data, band.nbytes))
            release(band)

        def bands(cache, upto=None):
            """(address, bytes) of each band of ``cache``, or of its bits'
            bands through row ``upto``, sorted."""
            arrays = [(cache.bits, 4)]
            if confidence and upto is None:
                arrays.append((cache.confidence, 1))
            last = m - 1 if upto is None else upto
            return sorted(
                (band.ctypes.data, band.nbytes)
                for array, step in arrays
                for band in (array[lo : lo + step] for lo in range(0, last + 1, step))
            )

        monkeypatch.setattr(lleval.cache, "_release", counted)
        cache = random_cache(np.random.default_rng(m), m, n, confidence)
        for name in ("a", "b"):
            save_cache(cache, tmp_path / f"{name}.llbc")
        a, b = load_cache(tmp_path / "a.llbc"), load_cache(tmp_path / "b.llbc")
        released.clear()
        save_cache(a, tmp_path / "copy.llbc")
        assert sorted(released) == bands(a)
        assert (tmp_path / "copy.llbc").read_bytes() == (tmp_path / "a.llbc").read_bytes()
        released.clear()
        assert a == b
        assert sorted(released) == sorted(bands(a) + bands(b))
        for row in sorted({0, m - 1}) if m else ():
            dense = cache.to_dense()
            dense[row, 0] ^= True  # unequal bits in the band of ``row``
            save_cache(AccuracyCache.from_dense(dense, cache.confidence), tmp_path / "c.llbc")
            c = load_cache(tmp_path / "c.llbc")
            released.clear()
            assert a != c
            assert sorted(released) == sorted(bands(a, row) + bands(c, row))

    def test_load_reads_one_file_when_its_path_is_replaced(self, tmp_path, monkeypatch):
        # a file replaced between two opens, as ``os.replace`` does when a
        # command writes onto its own input, would pair a 100 x 800 header
        # with the 200 x 400 payload of equal length
        rng = np.random.default_rng(16)
        path, other = tmp_path / "c.llbc", tmp_path / "other.llbc"
        first = random_cache(rng, 100, 800)
        save_cache(first, path)
        save_cache(random_cache(rng, 200, 400), other)
        assert path.stat().st_size == other.stat().st_size
        opened = []

        def replacing_open(file, *args, **kwargs):
            handle = open(file, *args, **kwargs)
            if not opened:  # from here on ``path`` names the other file
                os.replace(other, path)
            opened.append(file)
            return handle

        monkeypatch.setattr(lleval.cache, "open", replacing_open, raising=False)
        loaded = load_cache(path)
        assert opened and not other.exists()
        assert loaded == first

    def test_save_writes_without_copy(self, tmp_path):
        m, n = 64, 1_000_003  # about 8 MB of packed bits
        rng = np.random.default_rng(15)
        bits = rng.integers(0, 256, size=(m, (n + 7) // 8), dtype=np.uint8)
        bits[:, -1] &= 0x07
        cache = AccuracyCache(m, n, bits)
        path = tmp_path / "cache.llbc"
        with traced() as memory:
            save_cache(cache, path)
            _, peak = memory()
        assert peak < 1 << 20
        assert load_cache(path) == cache

    def test_save_with_confidence_writes_without_copy(self, tmp_path):
        m, n = 4, 500_003  # about 8 MB of float32 confidences
        conf = np.random.default_rng(19).random((m, n), dtype=np.float32)
        cache = AccuracyCache.from_dense(conf >= 0.5, conf)
        path = tmp_path / "cache.llbc"
        with traced() as memory:
            save_cache(cache, path)
            _, peak = memory()
        assert peak < 1 << 20
        assert load_cache(path) == cache

    def test_blocks_written_as_tobytes(self, tmp_path):
        rng = np.random.default_rng(16)
        grid = rng.random((6, 9)).astype("<f4")
        blocks = [
            rng.integers(0, 256, size=(5, 7), dtype=np.uint8),  # 2-D
            grid[::2, 1::3],  # non-contiguous view
            grid.T,  # Fortran-ordered view
            np.zeros((0, 5), dtype=np.uint8),  # empty
            np.arange(4, dtype="<u8"),
            np.zeros(0, dtype="<f8"),
        ]
        converted = [  # (values, stored dtype): written a chunk at a time
            (rng.permutation(3 * _WRITE_CHUNK + 5).astype(np.int32), "<i8"),
            (np.arange(12, dtype=np.int32).reshape(3, 4).T, "<i8"),  # C order
        ]
        path = tmp_path / "blocks"
        want = [b.tobytes() for b in blocks] + [v.astype(d).tobytes() for v, d in converted]
        size = 4 + sum(map(len, want))
        _write_blocks(path, size, b"HEAD", *[(b, b.dtype) for b in blocks], *converted)
        assert path.read_bytes() == b"HEAD" + b"".join(want)
        # the same blocks given as iterables of chunks
        chunked = [(iter(np.array_split(b, 3)), b.dtype) for b in blocks]
        chunked += [((v[:7], v[7:]), d) for v, d in converted]
        _write_blocks(path, size, b"HEAD", *chunked)
        assert path.read_bytes() == b"HEAD" + b"".join(want)

    @pytest.mark.parametrize("kind", ["permutation", "sums"])
    def test_loader_reads_payload_once(self, tmp_path, kind):
        """The payload array is the only length-n allocation, plus the
        permutation check's one byte per item."""
        n = 1 << 20
        order = np.random.default_rng(20).permutation(n).astype(np.int32)
        path = tmp_path / f"rank.{kind}"
        if kind == "permutation":
            save_permutation(Permutation(order), path)
            load, per_item = load_permutation, 9
        else:
            save_sums(order, path)
            load, per_item = load_sums, 8
        with traced() as memory:
            loaded = load(path)
            _, peak = memory()
        assert peak <= per_item * n + (1 << 20)
        if kind == "permutation":
            assert np.array_equal(loaded.order, order)
        else:
            assert loaded.flags.writeable  # the caller's own array
            assert loaded.dtype == np.float64 and np.array_equal(loaded, order)

    @pytest.mark.parametrize("save, load, value", WRITERS)
    def test_failed_write_keeps_old_file(
        self, tmp_path, monkeypatch, save, load, value
    ):
        import lleval.cache

        path = tmp_path / "artifact"
        save(value, path)
        old = path.read_bytes()

        class FailingFile:
            """Writes half of the first chunk, then fails as a full disk would."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def fileno(self):
                return self.fh.fileno()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError("no space left on device")

        monkeypatch.setattr(
            lleval.cache, "open", lambda *a: FailingFile(open(*a)), raising=False
        )
        with pytest.raises(OSError, match="no space"):
            save(value, path)
        monkeypatch.undo()
        assert path.read_bytes() == old
        load(path)
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    @pytest.mark.parametrize("save, load, value", WRITERS)
    def test_full_disk_fails_before_any_byte(
        self, tmp_path, monkeypatch, save, load, value
    ):
        path = tmp_path / "artifact"
        save(value, path)
        old = path.read_bytes()
        reserved = []

        def full(fd, offset, length):
            reserved.append((os.fstat(fd).st_size, offset, length))
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "posix_fallocate", full, raising=False)
        with pytest.raises(OSError) as info:
            save(value, path)
        monkeypatch.undo()
        assert info.value.errno == errno.ENOSPC
        # asked for the whole file before a byte of it was written
        assert reserved == [(0, 0, len(old))]
        assert path.read_bytes() == old
        load(path)
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    @pytest.mark.parametrize("save, load, value", WRITERS)
    def test_written_the_same_without_reserved_space(
        self, tmp_path, monkeypatch, save, load, value
    ):
        """Where there is no ``os.posix_fallocate``, or the file system
        cannot reserve space, a writer writes what it writes with it."""
        save(value, tmp_path / "reserved")
        want = (tmp_path / "reserved").read_bytes()
        for code in (errno.EOPNOTSUPP, errno.EINVAL):

            def unsupported(fd, offset, length, code=code):
                raise OSError(code, os.strerror(code))

            monkeypatch.setattr(os, "posix_fallocate", unsupported, raising=False)
            save(value, tmp_path / "unsupported")
            assert (tmp_path / "unsupported").read_bytes() == want
        monkeypatch.delattr(os, "posix_fallocate", raising=False)
        save(value, tmp_path / "plain")
        assert (tmp_path / "plain").read_bytes() == want
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "plain", "reserved", "unsupported"
        ]

    @pytest.mark.parametrize("target", ["/", ".", "", "d"],
                             ids=["root", "dot", "empty", "directory"])
    @pytest.mark.parametrize("save, load, value", WRITERS)
    def test_directory_target_is_refused_before_the_temporary_file(
        self, tmp_path, monkeypatch, save, load, value, target
    ):
        """A target that is a directory, the root and the working directory
        among them, is one error naming it, before any file is opened."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        opened = []
        monkeypatch.setattr(lleval.cache, "open", lambda *a: opened.append(a), raising=False)
        with pytest.raises(IsADirectoryError) as info:
            save(value, target)
        assert str(info.value) == f"{Path(target)} is a directory; give a file path"
        assert opened == []
        assert [p.name for p in tmp_path.rglob("*")] == ["d"]  # no *.tmp

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_length_keeps_old_file(self, tmp_path, extra):
        """A write one byte short of or past its declared length raises,
        and the old file stays."""
        path = tmp_path / "artifact"
        _write_blocks(path, 8, b"HEAD", (np.arange(4, dtype=np.uint8), "u1"))
        old = path.read_bytes()
        data = np.arange(4 + extra, dtype=np.uint8)
        with pytest.raises(RuntimeError, match="expected 8"):
            _write_blocks(path, 8, b"head", (data, "u1"))
        with pytest.raises(RuntimeError, match="expected 8"):  # as chunks
            _write_blocks(path, 8, b"head", (iter([data[:2], data[2:]]), "u1"))
        assert path.read_bytes() == old == b"HEAD\0\1\2\3"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    def test_failed_write_removes_the_directories_it_made(self, tmp_path):
        """A body that raises leaves no temporary file and no directory: the
        parents are made only at the rename, and a parent that existed
        stays."""
        (tmp_path / "old").mkdir()
        path = tmp_path / "old" / "a" / "b" / "out.bin"
        with pytest.raises(RuntimeError, match="body failed"):
            with _replacing_writer(path, 4) as fh:
                fh.write(b"ab")
                raise RuntimeError("body failed")
        assert [p.name for p in tmp_path.rglob("*")] == ["old"]

    def test_nested_writes_of_one_target_do_not_share_a_file(self, tmp_path):
        """Two writers of one path open at once on one thread each write
        their own temporary file: the later rename wins, whole."""
        path = tmp_path / "out.bin"
        with _replacing_writer(path, 6) as outer:
            outer.write(b"outer!")
            with _replacing_writer(path, 5) as inner:
                inner.write(b"inner")
            assert path.read_bytes() == b"inner"
        assert path.read_bytes() == b"outer!"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_abandoned_write_removes_the_directories_it_made(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.bin"
        writer = _replacing_writer.__wrapped__(path, 4)
        next(writer).write(b"abcd")
        writer.close()  # abandoned before the rename
        assert list(tmp_path.iterdir()) == []

    def test_appending_writer_stops_between_chunks(self, tmp_path, monkeypatch):
        """A body that fails before ``put`` stops the write at the next
        chunk and joins its thread: no target, no temporary file, no
        directory it made, and the mapped input as it was."""
        rng = np.random.default_rng(7)
        path = tmp_path / "cache.llbc"
        save_cache(random_cache(rng, 64, 1001, True), path)
        before = path.read_bytes()
        cache = load_cache(path)
        monkeypatch.setattr(lleval.cache, "_CHUNK_BYTES", 1)  # a row per chunk
        real, yielded = lleval.cache._grown_chunks, []

        def slow(block, width, stop):
            for chunk in real(block, width, stop):
                yielded.append(len(chunk))
                time.sleep(0.005)
                yield chunk

        monkeypatch.setattr(lleval.cache, "_grown_chunks", slow)
        threads = threading.active_count()
        for target in (tmp_path / "new" / "grown.llbc", path):
            yielded.clear()
            with pytest.raises(RuntimeError, match="oracle failed"):
                with _appending_writer(cache, target):
                    deadline = time.monotonic() + 10
                    while not yielded and time.monotonic() < deadline:
                        time.sleep(0.001)  # until the thread is writing
                    raise RuntimeError("oracle failed")
            assert 0 < len(yielded) < 2 * 64  # a row and a confidence row each
            assert threading.active_count() == threads
            assert [p.name for p in tmp_path.iterdir()] == ["cache.llbc"]
            assert path.read_bytes() == before

    def test_appending_writer_needs_its_column(self, tmp_path):
        cache = random_cache(np.random.default_rng(8), 3, 9)
        with pytest.raises(RuntimeError, match="no new column"):
            with _appending_writer(cache, tmp_path / "new" / "grown.llbc"):
                pass
        assert list(tmp_path.iterdir()) == []


class TestLoadersOnAnyBytes:
    """Given any bytes, a binary loader returns its artifact or raises FormatError."""

    def test_arbitrary_and_mutated_files(self, tmp_path):
        pytest.importorskip("hypothesis")
        from hypothesis import example, given, settings
        from hypothesis import strategies as st

        rng = np.random.default_rng(16)
        valid = []
        for name, save, value in [
            ("plain.llbc", save_cache, random_cache(rng, 3, 13)),
            ("conf.llbc", save_cache, random_cache(rng, 2, 5, with_confidence=True)),
            ("rank.llpm", save_permutation, Permutation(rng.permutation(11))),
            ("rank.llsm", save_sums, np.sort(rng.integers(0, 9, 11))[::-1]),
        ]:
            save(value, tmp_path / name)
            valid.append((tmp_path / name).read_bytes())
        headers = [magic + struct.pack("<I", 1) for magic in (b"LLBC", b"LLPM", b"LLSM")]

        @st.composite
        def files(draw):
            how = draw(st.sampled_from(["any", "header", "flip", "cut", "append"]))
            if how == "any":
                return draw(st.binary(max_size=80))
            if how == "header":  # past the magic and version checks
                return draw(st.sampled_from(headers)) + draw(st.binary(max_size=80))
            data = bytearray(draw(st.sampled_from(valid)))
            if how == "cut":
                return bytes(data[: draw(st.integers(0, len(data) - 1))])
            if how == "append":
                return bytes(data) + draw(st.binary(min_size=1, max_size=16))
            flips = st.tuples(st.integers(0, len(data) - 1), st.integers(1, 255))
            for at, mask in draw(st.lists(flips, min_size=1, max_size=4)):
                data[at] ^= mask
            return bytes(data)

        written = itertools.count()

        @settings(max_examples=500, deadline=None)
        @given(files())
        @example(struct.pack("<4sIQqq", b"LLPM", 1, 2, 0, 0))  # not distinct
        @example(struct.pack("<4sIQq", b"LLPM", 1, 1, 5))  # out of range
        @example(struct.pack("<4sIQQQ", b"LLBC", 1, 0, 1 << 63, 1))  # no array that wide
        @example(struct.pack("<4sIQQQBf", b"LLBC", 1, 1, 1, 1, 1, 2.0))  # confidence 2
        def check(data):
            path = tmp_path / f"fuzz{next(written)}"  # a fresh file: no live map changes
            path.write_bytes(data)
            for load in (load_cache, load_permutation, load_sums):
                try:
                    load(path)
                except FormatError:
                    pass

        check()


class TestCsvImport:
    def test_binary(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,0\n0,1\n")
        cache = import_csv(path)
        assert np.array_equal(cache.to_dense(), [[True, False], [False, True]])

    def test_confidence_binarized_at_half(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.9,0.2\n")
        cache = import_csv(path, has_confidence=True)
        assert np.array_equal(cache.to_dense(), [[True, False]])
        assert cache.confidence == pytest.approx(
            np.array([[0.9, 0.2]], dtype=np.float32)
        )

    def test_ragged_row_names_the_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,0\n0\n")
        with pytest.raises(ValueError, match="row 2"):
            import_csv(path)

    def test_out_of_range_value(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n")
        with pytest.raises(ValueError, match="not 0 or 1"):
            import_csv(path)

    def test_confidence_out_of_range(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.5,1.2\n")
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            import_csv(path, has_confidence=True)

    def test_empty_file_gives_empty_cache(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        cache = import_csv(path)
        assert (cache.num_models, cache.num_samples) == (0, 0)

    def test_streams_the_file(self, tmp_path):
        """A 20 MB CSV is read a line at a time: neither its text nor its
        line list is ever held whole."""
        m, n = 100, 100_000
        dense = np.random.default_rng(21).random((m, n)) < 0.5
        text = np.full((m, 2 * n), ord(","), dtype=np.uint8)
        text[:, 0::2] = dense + ord("0")
        text[:, -1] = ord("\n")
        path = tmp_path / "m.csv"
        path.write_bytes(text.tobytes())
        del text
        with traced() as memory:
            cache = import_csv(path)
            _, peak = memory()
        assert peak < 8 << 20
        assert cache == AccuracyCache.from_dense(dense)


class TestPermutationType:
    def test_valid(self):
        perm = Permutation(np.array([2, 0, 1]))
        assert len(perm) == 3
        assert np.array_equal(perm.order, [2, 0, 1])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            Permutation(np.array([0, 0, 1]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            Permutation(np.array([0, 3]))

    def test_empty(self):
        assert len(Permutation(np.array([], dtype=np.int64))) == 0

    @pytest.mark.parametrize(
        "order, match",
        [(np.zeros((2, 2), dtype=np.int64), "1-dimensional"),
         (np.array([1.0, 0.0]), "integral")],
        ids=["2-D", "float"],
    )
    def test_rejects_a_non_integral_or_2d_order(self, order, match):
        with pytest.raises(ValueError, match=match):
            Permutation(order)

    def test_narrow_integers_widen_to_int64(self):
        order = np.array([2, 0, 1], dtype=np.uint16)
        perm = Permutation(order)
        assert perm.order.dtype == np.int64
        assert np.array_equal(perm.order, order)

    @pytest.mark.parametrize("length", [2, 4])
    def test_sort_result_sums_must_match_the_permutation(self, length):
        with pytest.raises(ValueError, match="sums length"):
            SortResult(Permutation(np.arange(3)), np.zeros(length), SortMethod.SUM)


class TestCallerArrays:
    """Each artifact freezes a view, never the array its caller handed in."""

    @pytest.mark.parametrize(
        "build, field, array",
        [
            (lambda a: AccuracyCache(2, 8, a), "bits", np.zeros((2, 1), np.uint8)),
            (
                lambda a: AccuracyCache(1, 2, np.zeros((1, 1), np.uint8), a),
                "confidence",
                np.zeros((1, 2), np.float32),
            ),
            (Permutation, "order", np.arange(4)),
            (
                lambda a: SortResult(Permutation(np.arange(4)), a, SortMethod.SUM),
                "sums",
                np.arange(4),
            ),
            (
                lambda a: SampleSelection(a, np.zeros(4, dtype=bool)),
                "positions",
                np.arange(4, dtype=np.int64),
            ),
            (
                lambda a: SampleSelection(np.arange(4), a),
                "outcomes",
                np.zeros(4, dtype=bool),
            ),
        ],
        ids=[
            "AccuracyCache.bits",
            "AccuracyCache.confidence",
            "Permutation",
            "SortResult",
            "SampleSelection.positions",
            "SampleSelection.outcomes",
        ],
    )
    def test_caller_array_stays_writeable(self, build, field, array):
        held = getattr(build(array), field)
        assert np.shares_memory(held, array)
        assert not held.flags.writeable
        array.flat[0] = array.flat[0]  # raised while the caller's array was frozen
        assert array.flags.writeable


class TestThresholdVectorType:
    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            ThresholdVector(3, 4)
        with pytest.raises(ValueError):
            ThresholdVector(3, -1)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="length must be non-negative"):
            ThresholdVector(-1, 0)
