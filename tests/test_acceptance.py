"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The synthetic-benchmark criteria share one module-scoped setup (200 sorting
models + 100 held-out, n=100,000, temperature 0.2, noise 0.05, seed 7,
abilities spanning (-0.7, 1.7) so the held-out population covers the full
quality spectrum).
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from _child import traced
from _oracles import best_threshold_errors_batch
from lleval import (
    AccuracyCache,
    Permutation,
    SynthSpec,
    ThresholdVector,
    adversarial_construction,
    agg_error,
    copy_nearest_expand_from_truth,
    dp_search,
    error_decomposition,
    evaluate,
    fit_exp_decay,
    generate,
    holdout_abilities,
    holdout_outcomes,
    load_cache,
    mae,
    rank_correlation,
    save_cache,
    sort_by_sum,
    stable_append,
)

BUDGETS = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)
ABILITY_RANGE = (-0.7, 1.7)


def _verdict(num: int, description: str, clauses: dict) -> None:
    ok = all(clauses.values())
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}", flush=True)
    failed = [name for name, good in clauses.items() if not good]
    assert ok, f"criterion {num} failed clauses: {failed}"


def _all_words(length: int) -> np.ndarray:
    words = np.arange(1 << length, dtype=np.uint32)
    return ((words[:, None] >> np.arange(length)) & 1).astype(bool)


def test_criterion_1_dp_search_optimality():
    t0 = time.perf_counter()
    exhaustive_ok = True
    for length in range(17):
        batch = _all_words(length)
        brute = best_threshold_errors_batch(batch)
        for row, want in zip(batch, brute):
            tv = dp_search(row)
            got = int(np.sum(~row[: tv.k])) + int(np.sum(row[tv.k :]))
            if got != want:
                exhaustive_ok = False
    rng = np.random.default_rng(2024)
    random_ok = True
    for _ in range(100_000):
        length = int(rng.integers(1, 513))
        row = rng.random(length) < rng.random()
        tv = dp_search(row)
        got = int(np.sum(~row[: tv.k])) + int(np.sum(row[tv.k :]))
        want = int(best_threshold_errors_batch(row[None, :])[0])
        if got != want:
            random_ok = False
            break
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        "dp_search error equals brute-force minimum "
        f"(exhaustive len<=16 plus 1e5 random len<=512, {elapsed:.1f}s)",
        {
            "exhaustive": exhaustive_ok,
            "random": random_ok,
            "under 30s": elapsed < 30.0,
        },
    )


def test_criterion_2_aggregate_metric_worst_case():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2025)
    agg_ok = err_ok = True
    for _ in range(10_000):
        n = int(rng.integers(1, 257))
        truth = rng.random(n) < rng.random()
        s = int(truth.sum())
        fooled = adversarial_construction(truth)
        if int(fooled.sum()) != s:
            agg_ok = False
            break
        if int(np.sum(truth != fooled)) != 2 * min(n - s, s):
            err_ok = False
            break
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        "construction achieves exact zero aggregate error at maximal "
        f"per-sample error on 1e4 random vectors ({elapsed:.1f}s)",
        {"aggregate zero": agg_ok, "error exact": err_ok, "under 5s": elapsed < 5.0},
    )


def test_criterion_3_worked_reversal_example():
    truth = np.array([0, 0, 0, 1, 1, 1], dtype=bool)
    pred = ThresholdVector(6, 3)  # [1,1,1,0,0,0]
    _verdict(
        3,
        "reversed half-and-half vector: aggregate error 0, per-sample error 1",
        {
            "agg zero": agg_error(truth, pred) == 0.0,
            "mae one": mae(truth, pred, Permutation(np.arange(6))) == 1.0,
        },
    )


def test_criterion_4_decomposition_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    aleatoric_ok = epistemic_ok = triangle_ok = True
    for _ in range(10_000):
        n = int(rng.integers(1, 129))
        truth = rng.random(n) < rng.random()
        k = int(rng.integers(0, n + 1))
        perm = Permutation(rng.permutation(n))
        report = error_decomposition(truth, ThresholdVector(n, k), perm)
        ranked = truth[perm.order]
        zeros_before = np.concatenate(([0], np.cumsum(~ranked)))
        ones_before = np.concatenate(([0], np.cumsum(ranked)))
        errs = zeros_before + (ones_before[-1] - ones_before)
        k_star = int(np.argmin(errs))  # smallest optimal cut
        if report.aleatoric != errs[k_star] / n:
            aleatoric_ok = False
            break
        if report.epistemic != abs(k_star - k) / n:
            epistemic_ok = False
            break
        if int(errs[k]) > int(errs[k_star]) + abs(k_star - k):
            triangle_ok = False
            break
    elapsed = time.perf_counter() - t0
    _verdict(
        4,
        "aleatoric equals brute-force best threshold error, epistemic is the "
        f"cut gap, and the triangle bound holds on 1e4 pairs ({elapsed:.1f}s)",
        {
            "aleatoric": aleatoric_ok,
            "epistemic": epistemic_ok,
            "triangle": triangle_ok,
        },
    )


@pytest.fixture(scope="module")
def synth():
    t0 = time.perf_counter()
    spec = SynthSpec(200, 100_000, ABILITY_RANGE, 0.2, 0.05, 7)
    cache, _, _ = generate(spec)
    sort_result = sort_by_sum(cache)
    abilities = holdout_abilities(spec, 100)
    order = sort_result.permutation.order
    n = spec.num_samples
    holdout = len(abilities)
    num_budgets = len(BUDGETS)
    maes = np.zeros((holdout, num_budgets))
    epis = np.zeros((holdout, num_budgets))
    baseline = np.full((holdout, num_budgets), np.nan)
    k_at_512 = np.zeros(holdout)
    accuracies = np.zeros(holdout)
    for h in range(holdout):
        truth = holdout_outcomes(spec, float(abilities[h]))
        accuracies[h] = truth.mean()
        ranked = truth[order]
        prefix = np.concatenate(([0], np.cumsum(ranked, dtype=np.int64)))
        ones = int(prefix[-1])
        k_best = dp_search(ranked).k

        def mismatches(k: int) -> int:
            return (k - int(prefix[k])) + (ones - int(prefix[k]))

        for bi, budget in enumerate(BUDGETS):
            pred, _ = evaluate(sort_result.permutation, truth.__getitem__, budget)
            maes[h, bi] = mismatches(pred.k) / n
            epis[h, bi] = abs(k_best - pred.k) / n
            if budget == 512:
                k_at_512[h] = pred.k
            if budget <= 1024:
                guess = copy_nearest_expand_from_truth(
                    cache, truth, budget, seed=1000 + h * 31 + budget
                )
                baseline[h, bi] = float(np.mean(guess != truth))
    return SimpleNamespace(
        spec=spec,
        cache=cache,
        sort=sort_result,
        maes=maes,
        epis=epis,
        baseline=baseline,
        k_at_512=k_at_512,
        accuracies=accuracies,
        elapsed=time.perf_counter() - t0,
    )


def test_criterion_5_synthetic_convergence(synth):
    med_mae = np.median(synth.maes, axis=0)
    med_epi = np.median(synth.epis, axis=0)
    at_1024 = BUDGETS.index(1024)
    increments = np.diff(med_mae)
    fit = fit_exp_decay(np.asarray(BUDGETS, dtype=float), med_mae)
    _verdict(
        5,
        f"median epistemic {med_epi[at_1024]:.4f} at budget 1024, worst MAE "
        f"increment {increments.max():+.4f}, decay fit r2={fit.r2:.3f} "
        f"({synth.elapsed:.0f}s single-threaded)",
        {
            "epistemic <= 0.01 by 1024": bool(med_epi[at_1024] <= 0.01),
            "median MAE non-increasing within 0.005": bool(
                increments.max() <= 0.005
            ),
            "fit r2 >= 0.9": bool(fit.r2 >= 0.9),
            "under 2min": synth.elapsed <= 120.0,
        },
    )


def test_criterion_6_baseline_comparison(synth):
    med_mae = np.median(synth.maes, axis=0)
    clauses = {"under 3min": synth.elapsed <= 180.0}
    for bi, budget in enumerate(BUDGETS):
        if budget > 1024:
            continue
        med_base = float(np.median(synth.baseline[:, bi]))
        clauses[f"budget {budget}"] = bool(med_mae[bi] <= med_base + 1e-12)
    _verdict(
        6,
        "ranked search beats nearest-neighbor copying at every budget <= 1024",
        clauses,
    )


def test_criterion_7_sequential_stability(synth):
    t0 = time.perf_counter()
    base_order = np.array(synth.sort.permutation.order)
    lo, hi = ABILITY_RANGE
    first_maes, last_maes = [], []
    perm_stable = True
    sums_shape_ok = True
    for s in range(5):
        rng = np.random.default_rng([4000 + s])
        abilities = rng.uniform(lo, hi, 100)
        # same skill at both ends of the sequence, fresh outcome noise
        abilities[99] = np.nextafter(abilities[0], hi + 1.0)
        current = synth.sort
        for t in range(100):
            truth = holdout_outcomes(synth.spec, float(abilities[t]))
            pred, _ = evaluate(current.permutation, truth.__getitem__, 512)
            score = mae(truth, pred, current.permutation)
            if t == 0:
                first_maes.append(score)
            elif t == 99:
                last_maes.append(score)
            current = stable_append(current, pred)
            if not np.array_equal(current.permutation.order, base_order):
                perm_stable = False
            if np.any(np.diff(current.sums) > 0):
                sums_shape_ok = False
    gap = abs(float(np.median(first_maes)) - float(np.median(last_maes)))
    elapsed = time.perf_counter() - t0
    _verdict(
        7,
        f"permutation bit-identical across 5x100 appends; first-vs-100th "
        f"median MAE gap {gap:.4f} ({elapsed:.0f}s)",
        {
            "permutation identical": perm_stable,
            "sums stay non-increasing": sums_shape_ok,
            "gap <= 0.01": gap <= 0.01,
            "under 2min": elapsed < 120.0,
        },
    )


def test_criterion_8_rank_correlation(synth):
    rho = rank_correlation(synth.k_at_512, synth.accuracies)
    _verdict(
        8,
        f"Spearman rho {rho:.3f} between budget-512 thresholds and true "
        "held-out accuracies",
        {"rho >= 0.5": bool(rho >= 0.5), "under 1min": synth.elapsed <= 60.0},
    )


def test_criterion_9_performance_and_memory():
    m, n = 500, 1_700_000
    rng = np.random.default_rng(99)
    cache = AccuracyCache(m, n, rng.integers(0, 256, size=(m, n // 8), dtype=np.uint8))
    with traced() as memory:
        t0 = time.perf_counter()
        result = sort_by_sum(cache)
        elapsed = time.perf_counter() - t0
        _, extra = memory()
    # two 8-byte length-n arrays (totals + order) plus constant-size scratch
    budget = 2 * 8 * n + (8 << 20)
    _verdict(
        9,
        f"500x1.7M sort took {elapsed:.2f}s with {extra / 1e6:.1f} MB peak "
        f"scratch (budget {budget / 1e6:.1f} MB)",
        {
            "under 60s": elapsed <= 60.0,
            "within two arrays": extra <= budget,
            "sorted": bool(np.all(np.diff(result.sums) <= 0)),
        },
    )


def test_criterion_10_format_round_trip(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    path = tmp_path / "cache.llbc"
    ok = True
    for i in range(1000):
        if i == 0:
            m, n = 0, 0
        elif i == 1:
            m, n = 0, int(rng.integers(1, 40))
        elif i == 2:
            m, n = int(rng.integers(1, 40)), 0
        else:
            m, n = int(rng.integers(0, 20)), int(rng.integers(0, 40))
        with_conf = bool(rng.random() < 0.5)
        conf = rng.random((m, n)).astype(np.float32) if with_conf else None
        dense = (
            conf >= rng.random() if with_conf else rng.random((m, n)) < rng.random()
        )
        cache = AccuracyCache.from_dense(dense, conf)
        save_cache(cache, path)
        if load_cache(path) != cache:
            ok = False
            break
    elapsed = time.perf_counter() - t0
    _verdict(
        10,
        f"1000 random caches (degenerate shapes, confidence on/off) survive "
        f"save/load bit-exactly ({elapsed:.1f}s)",
        {"round trips": ok, "under 10s": elapsed < 10.0},
    )
