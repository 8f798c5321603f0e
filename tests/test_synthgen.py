"""Synthetic cache generation and held-out oracle consistency."""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from lleval import (
    SynthSpec,
    generate,
    holdout_abilities,
    holdout_oracle,
    holdout_outcomes,
    rank_correlation,
    sort_by_sum,
)
from lleval.synthgen import _correct_probability, _sigmoid


class TestSynthSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(5, 5, temperature=0.0)
        with pytest.raises(ValueError):
            SynthSpec(5, 5, noise=0.6)
        with pytest.raises(ValueError):
            SynthSpec(5, 5, ability_range=(1.0, 0.0))
        with pytest.raises(ValueError):
            SynthSpec(-1, 5)

    def test_json_round_trip(self):
        spec = SynthSpec(10, 20, (0.2, 0.8), 0.3, 0.1, 7)
        assert SynthSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_fills_defaults(self):
        assert SynthSpec.from_dict({"num_models": 3, "num_samples": 5}) == SynthSpec(3, 5)

    def test_from_dict_rejects_unknown_keys(self):
        record = {"num_models": 30, "num_samples": 500, "temprature": 5.0, "noize": 0.3}
        with pytest.raises(ValueError, match="unknown spec key 'noize', 'temprature'$"):
            SynthSpec.from_dict(record)

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("ability_range", [0, 0.5], (0.0, 0.5)),
            ("temperature", 2, 2.0),
            ("noise", 0.25, 0.25),
            ("seed", 9.0, 9),
        ],
    )
    def test_from_dict_one_optional_key(self, key, value, expected):
        spec = SynthSpec.from_dict({"num_models": 3, "num_samples": 5, key: value})
        assert spec == replace(SynthSpec(3, 5), **{key: expected})
        assert type(getattr(spec, key)) is type(expected)


class TestGenerate:
    def test_deterministic_bit_identical(self):
        spec = SynthSpec(20, 100, temperature=0.2, noise=0.1, seed=5)
        a, ab_a, d_a = generate(spec)
        b, ab_b, d_b = generate(spec)
        assert a == b
        assert np.array_equal(ab_a, ab_b)
        assert np.array_equal(d_a, d_b)

    def test_zero_temperature_limit_gives_step_rows(self):
        spec = SynthSpec(15, 60, temperature=1e-6, noise=0.0, seed=3)
        cache, abilities, difficulties = generate(spec)
        order = np.argsort(difficulties)
        for i in range(spec.num_models):
            row = cache.row(i)[order]  # easy-to-hard by true difficulty
            assert np.array_equal(row, np.sort(row)[::-1])
            assert int(row.sum()) == int(np.sum(difficulties < abilities[i]))

    def test_pure_noise_row_sums_near_half(self):
        spec = SynthSpec(100, 1000, noise=0.5, temperature=0.2, seed=9)
        cache, _, _ = generate(spec)
        row_sums = cache.to_dense().sum(axis=1)
        # mean cell probability is 1/2 by the symmetry of the ability and
        # difficulty draws; allow three binomial sigmas on the grand mean
        sigma = np.sqrt(0.25 * spec.num_samples / spec.num_models)
        assert abs(row_sums.mean() - 500) <= 3 * sigma + 0.2 * spec.num_samples / np.sqrt(spec.num_models)

    def test_confidence_block_stores_probabilities(self):
        spec = SynthSpec(5, 40, temperature=0.3, noise=0.2, seed=1)
        cache, abilities, difficulties = generate(spec, include_confidence=True)
        assert cache.has_confidence
        assert cache.confidence.shape == (5, 40)
        assert cache.confidence.min() >= 0.0
        assert cache.confidence.max() <= 1.0
        # noise floor keeps probabilities away from the extremes
        assert cache.confidence.min() >= 0.1 - 1e-6

    # n % 8 != 0 puts padding bits in every packed row
    @pytest.mark.parametrize("m, n", [(13, 203), (0, 50), (6, 0)])
    def test_thread_pool_map_matches_serial(self, m, n):
        spec = SynthSpec(m, n, temperature=0.2, noise=0.05, seed=12)
        want, ab_want, d_want = generate(spec, include_confidence=True)
        with ThreadPoolExecutor(4) as pool:
            got, ab_got, d_got = generate(spec, include_confidence=True, map=pool.map)
        assert np.array_equal(got.bits, want.bits)
        assert got.confidence.shape == (m, n)
        assert np.array_equal(got.confidence.view(np.uint32), want.confidence.view(np.uint32))
        assert np.array_equal(ab_got, ab_want) and np.array_equal(d_got, d_want)

    def test_cache_invariants_hold(self):
        spec = SynthSpec(7, 29, seed=11)
        cache, _, _ = generate(spec)
        assert cache.bits.shape == (7, 4)
        assert cache.to_dense().shape == (7, 29)


class TestHoldout:
    def test_very_high_ability_always_correct(self):
        spec = SynthSpec(5, 200, temperature=0.2, noise=0.0, seed=2)
        outcomes = holdout_outcomes(spec, ability=1e6)
        assert outcomes.all()

    def test_very_low_ability_always_wrong(self):
        spec = SynthSpec(5, 200, temperature=0.2, noise=0.0, seed=2)
        outcomes = holdout_outcomes(spec, ability=-1e6)
        assert not outcomes.any()

    def test_repeated_queries_identical(self):
        spec = SynthSpec(5, 50, temperature=0.2, noise=0.3, seed=4)
        oracle = holdout_oracle(spec, ability=0.5)
        first = [oracle(j) for j in range(50)]
        second = [oracle(j) for j in range(50)]
        assert first == second
        assert first == list(holdout_outcomes(spec, 0.5))

    def test_distinct_abilities_get_distinct_streams(self):
        spec = SynthSpec(5, 300, temperature=0.2, noise=0.5, seed=4)
        a = holdout_outcomes(spec, 0.5)
        b = holdout_outcomes(spec, 0.500001)
        assert not np.array_equal(a, b)

    def test_holdout_abilities_deterministic_in_range(self):
        spec = SynthSpec(5, 10, ability_range=(0.2, 0.6), seed=8)
        a = holdout_abilities(spec, 50)
        assert np.array_equal(a, holdout_abilities(spec, 50))
        assert a.min() >= 0.2 and a.max() <= 0.6


class TestDifficultyRecovery:
    def test_sort_recovers_true_order_without_noise(self):
        spec = SynthSpec(120, 400, temperature=0.02, noise=0.0, seed=6)
        cache, _, difficulties = generate(spec)
        result = sort_by_sum(cache)
        # harder samples (higher difficulty) must rank later
        rho = rank_correlation(
            result.permutation.apply(difficulties), np.arange(400).astype(float)
        )
        assert rho >= 0.99
        rho_sums = rank_correlation(
            cache.column_sums().astype(float), -difficulties
        )
        assert rho_sums >= 0.99


def two_branch_sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_correct_probability(spec, ability, difficulties):
    """The allocating expression the in-place one must match bit for bit."""
    x = (ability - difficulties) / spec.temperature
    e = np.exp(-np.abs(x))
    clean = np.where(x >= 0, 1.0, e) / (1.0 + e)
    return (1.0 - spec.noise) * clean + 0.5 * spec.noise


class TestCorrectProbability:
    @pytest.mark.parametrize("noise", [0.0, 0.05, 0.5])
    @pytest.mark.parametrize("temperature", [0.01, 0.2])
    def test_bit_identical_to_allocating_form(self, noise, temperature):
        spec = SynthSpec(1, 1, temperature=temperature, noise=noise)
        difficulties = np.concatenate(
            [[0.0, 0.5, 1.0], np.random.default_rng(61).random(10_000)]
        )
        # 0.0 - 0.0 is +0.0 and -0.0 - 0.0 is -0.0; at +-1e6 / 0.01 exp
        # underflows to 0
        for ability in (0.0, -0.0, 0.5, 1e6, -1e6, 0.3125):
            want = reference_correct_probability(spec, ability, difficulties)
            got = _correct_probability(spec, ability, difficulties)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestSigmoid:
    def test_bit_identical_to_two_branch_form(self):
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0,
                            1e-300, -1e-300, 36.7, -36.7, 745.2, -745.2])
        rng = np.random.default_rng(60)
        draws = np.concatenate([rng.normal(0, 10, 50_000), rng.normal(0, 300, 5_000)])
        for x in (special, draws):
            want = two_branch_sigmoid(x)
            given = x.copy()
            got = _sigmoid(x)
            assert np.array_equal(x, given, equal_nan=True)  # works on its own copy
            assert np.array_equal(got, want, equal_nan=True)
            # same bits wherever a number comes out (a NaN's sign may differ)
            number = ~np.isnan(want)
            assert np.array_equal(got[number].view(np.uint64), want[number].view(np.uint64))
