"""Nearest-neighbor copy baseline behavior."""

import numpy as np
import pytest

from lleval import AccuracyCache, copy_nearest_expand_from_truth


def random_cache(rng, m, n):
    return AccuracyCache.from_dense(rng.random((m, n)) < 0.5)


class TestCopyNearestExpand:
    def test_oracle_equal_to_cached_row_returns_that_row(self):
        rng = np.random.default_rng(80)
        cache = random_cache(rng, 6, 40)
        row = cache.row(3)
        got = copy_nearest_expand_from_truth(cache, row, budget=5, seed=1)
        assert np.array_equal(got, row)

    def test_full_budget_returns_oracle_outcomes(self):
        rng = np.random.default_rng(81)
        cache = random_cache(rng, 4, 25)
        truth = rng.random(25) < 0.5
        got = copy_nearest_expand_from_truth(cache, truth, budget=25, seed=2)
        assert np.array_equal(got, truth)

    def test_agrees_with_oracle_at_sampled_positions(self):
        rng = np.random.default_rng(82)
        for _ in range(30):
            cache = random_cache(rng, 5, 30)
            truth = rng.random(30) < 0.5
            budget = int(rng.integers(1, 31))
            seed = int(rng.integers(0, 1000))
            got = copy_nearest_expand_from_truth(cache, truth, budget, seed)
            positions = np.sort(
                np.random.default_rng(seed).choice(30, size=budget, replace=False)
            )
            assert np.array_equal(got[positions], truth[positions])
            # everywhere else it is the nearest row on the observed positions
            dense = cache.to_dense()
            nearest = int(np.argmin((dense[:, positions] != truth[positions]).sum(axis=1)))
            rest = np.setdiff1d(np.arange(30), positions)
            assert np.array_equal(got[rest], dense[nearest, rest])

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(83)
        cache = random_cache(rng, 5, 30)
        truth = rng.random(30) < 0.5
        a = copy_nearest_expand_from_truth(cache, truth, 8, seed=7)
        b = copy_nearest_expand_from_truth(cache, truth, 8, seed=7)
        assert np.array_equal(a, b)

    def test_ties_prefer_lowest_row(self):
        # two identical rows: the lower index must win
        dense = np.array([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1]], dtype=bool)
        cache = AccuracyCache.from_dense(dense)
        got = copy_nearest_expand_from_truth(cache, dense[1], 2, seed=0)
        assert np.array_equal(got, dense[0])

    def test_empty_cache_rejected(self):
        cache = AccuracyCache.from_dense(np.zeros((0, 5), dtype=bool))
        with pytest.raises(ValueError, match="reference"):
            copy_nearest_expand_from_truth(cache, np.ones(5, dtype=bool), 2, seed=0)

    def test_predictions_pinned(self):
        # recorded from a Hamming count over unpacked columns before the
        # packed-byte ``nearest_row``; packed little-endian bit order
        rng = np.random.default_rng(2026)
        cache = random_cache(rng, 9, 83)
        truth = rng.random(83) < 0.5
        expected = {
            1: "9d02af77a4b678e6acd005",
            5: "9d02af77a4b678e6acd005",
            17: "0b8154948b2f889c5f8c06",
            40: "9d002b0520b678c69cea05",
            83: "d101280c207a1a879caa04",
        }
        for budget, packed in expected.items():
            got = copy_nearest_expand_from_truth(cache, truth, budget, seed=11)
            bits = np.unpackbits(
                np.frombuffer(bytes.fromhex(packed), dtype=np.uint8),
                count=83, bitorder="little",
            ).astype(bool)
            assert np.array_equal(got, bits)
