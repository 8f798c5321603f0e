"""Cache construction, persistence round-trips, and format error reporting."""

import csv
import json

import numpy as np
import pytest

from lleval import (
    AccuracyCache,
    ErrorReport,
    FormatError,
    Permutation,
    ThresholdVector,
    import_csv,
    load_cache,
    load_permutation,
    load_sums,
    save_cache,
    save_permutation,
    save_sums,
    write_error_curve,
)
from lleval.cache import _write_rows
from lleval.cli import _write_json


def random_cache(rng, m, n, with_confidence=False):
    dense = rng.random((m, n)) < rng.random()
    conf = None
    if with_confidence:
        conf = rng.random((m, n)).astype(np.float32)
        dense = conf >= 0.5
    return AccuracyCache.from_dense(dense, conf)


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
        assert np.array_equal(cache.row(1), [True, True, False])
        assert np.array_equal(cache.column(0), [True, True])
        assert np.array_equal(cache.column(2), [True, False])

    def test_degenerate_shapes_are_valid(self):
        for m, n in [(0, 0), (0, 5), (3, 0)]:
            cache = AccuracyCache.from_dense(np.zeros((m, n), dtype=bool))
            assert cache.num_models == m
            assert cache.num_samples == n

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

    def test_non_binary_dense_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            AccuracyCache.from_dense(np.array([[0, 2]]))

    def test_bits_are_immutable(self):
        cache = AccuracyCache.from_dense(np.ones((2, 9), dtype=bool))
        with pytest.raises(ValueError):
            cache.bits[0, 0] = 0


class TestAppend:
    def test_append_row_grows(self):
        cache = AccuracyCache.from_dense(np.array([[1, 0, 1], [0, 1, 1]], dtype=bool))
        grown = cache.append_row(np.array([1, 1, 0], dtype=bool))
        assert grown.num_models == 3
        assert np.array_equal(grown.row(2), [True, True, False])
        assert np.array_equal(grown.to_dense()[:2], cache.to_dense())

    def test_append_row_to_empty(self):
        cache = AccuracyCache.from_dense(np.zeros((0, 3), dtype=bool))
        grown = cache.append_row(np.array([1, 0, 1], dtype=bool))
        assert grown.num_models == 1
        assert np.array_equal(grown.row(0), [True, False, True])

    def test_append_row_length_checked(self):
        cache = AccuracyCache.from_dense(np.zeros((1, 3), dtype=bool))
        with pytest.raises(ValueError, match="length"):
            cache.append_row(np.zeros(4, dtype=bool))

    def test_append_column_grows(self):
        cache = AccuracyCache.from_dense(np.array([[1, 0], [0, 1]], dtype=bool))
        grown = cache.append_column(np.array([1, 1], dtype=bool))
        assert grown.num_samples == 3
        assert np.array_equal(grown.column(2), [True, True])
        assert np.array_equal(grown.to_dense()[:, :2], cache.to_dense())

    def test_append_column_to_empty(self):
        cache = AccuracyCache.from_dense(np.zeros((3, 0), dtype=bool))
        grown = cache.append_column(np.array([1, 0, 1], dtype=bool))
        assert grown.num_samples == 1
        assert np.array_equal(grown.column(0), [True, False, True])

    def test_append_column_length_checked(self):
        cache = AccuracyCache.from_dense(np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError, match="length"):
            cache.append_column(np.zeros(3, dtype=bool))

    def test_append_then_save_load_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        cache = random_cache(rng, 4, 19)
        grown = cache.append_row(rng.random(19) < 0.5)
        grown = grown.append_column(rng.random(5) < 0.5)
        path = tmp_path / "grown.llbc"
        save_cache(grown, path)
        assert load_cache(path) == grown

    def test_append_across_byte_boundary(self):
        cache = AccuracyCache.from_dense(np.ones((1, 8), dtype=bool))
        grown = cache.append_column(np.array([1], dtype=bool))
        assert grown.bits.shape == (1, 2)
        assert np.array_equal(grown.row(0), np.ones(9, dtype=bool))


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
        conf = np.array([[0.9, 0.1], [0.8, 0.7]], dtype=np.float32)
        cache = AccuracyCache.from_dense(conf >= 0.5, conf)
        assert cache.column_sums(use_confidence=True) == pytest.approx(
            conf.sum(axis=0)
        )

    def test_confidence_sums_require_confidence(self):
        cache = AccuracyCache.from_dense(np.zeros((1, 1), dtype=bool))
        with pytest.raises(ValueError, match="confidence"):
            cache.column_sums(use_confidence=True)

    def test_scratch_memory_is_one_array(self):
        import tracemalloc

        n = 200_000
        rng = np.random.default_rng(0)
        cache = AccuracyCache(
            8, n, rng.integers(0, 256, size=(8, n // 8), dtype=np.uint8)
        )
        tracemalloc.start()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        sums = cache.column_sums()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert sums.size == n
        # accumulator plus one transient unpacked row, nothing bigger
        assert peak - before <= 8 * n + (1 << 20)


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
        import tracemalloc

        m, n = 64, 1_000_003  # about 8 MB; the ragged last byte checks padding
        rng = np.random.default_rng(14)
        bits = rng.integers(0, 256, size=(m, (n + 7) // 8), dtype=np.uint8)
        bits[:, -1] &= 0x07
        cache = AccuracyCache(m, n, bits)
        path = tmp_path / "cache.llbc"
        save_cache(cache, path)
        tracemalloc.start()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_cache(path)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak - before < 1 << 20
        assert not loaded.bits.flags.writeable
        assert loaded == cache

    @pytest.mark.parametrize(
        "save, load, value",
        [
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
                lambda path: list(csv.reader(path.open(newline=""))),
                [ErrorReport(0.5, 0.25, 0.125, 0.0, 8)],
                id="write_error_curve",
            ),
            pytest.param(  # simulate's baseline.csv
                lambda rows, path: _write_rows(path, rows),
                lambda path: list(csv.reader(path.open(newline=""))),
                [("budget", "mae"), (8, "0.5")],
                id="write_rows",
            ),
        ],
    )
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


class TestPermutationType:
    def test_valid(self):
        perm = Permutation(np.array([2, 0, 1]))
        assert len(perm) == 3
        assert np.array_equal(perm.apply(np.array([10, 20, 30])), [30, 10, 20])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            Permutation(np.array([0, 0, 1]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            Permutation(np.array([0, 3]))

    def test_empty(self):
        assert len(Permutation(np.array([], dtype=np.int64))) == 0


class TestThresholdVectorType:
    def test_materialize(self):
        assert np.array_equal(
            ThresholdVector(4, 2).materialize(), [True, True, False, False]
        )

    def test_monotone_invariant(self):
        for k in range(6):
            vec = ThresholdVector(5, k).materialize()
            for j in range(5):
                if vec[j]:
                    assert vec[: j + 1].all()

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            ThresholdVector(3, 4)
        with pytest.raises(ValueError):
            ThresholdVector(3, -1)
