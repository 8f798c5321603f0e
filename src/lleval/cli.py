"""Command-line front end: import, sort, evaluate, insert, simulate, metrics.

Every command exits 0 on success and nonzero with a one-line diagnostic on
stderr otherwise.  All randomness flows from --seed, so reruns with the same
inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .baseline import copy_nearest_expand_from_truth
from .cache import (
    AccuracyCache,
    _replacing_writer,
    _write_rows,
    import_csv,
    load_cache,
    save_cache,
)
from .metrics import (
    ErrorReport,
    RankedTruth,
    error_decomposition,
    fit_exp_decay,
    write_error_curve,
)
from .search import (
    SamplingStrategy,
    evaluate_from_truth,
    evaluate_new_model,
    prediction_from_dict,
    prediction_to_dict,
)
from .sort import (
    SortMethod,
    SortResult,
    load_permutation,
    load_sums,
    recursive_sort_by_sum,
    save_permutation,
    save_sums,
    sort_by_confidence_sum,
    sort_by_sum,
    sort_models_by_sum,
)

PAPER_BUDGETS = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768)


def _read_binary_vector(path: str | Path) -> np.ndarray:
    """0/1 values separated by commas and/or whitespace."""
    tokens = Path(path).read_text().replace(",", " ").split()
    if not tokens:
        raise ValueError(f"{path}: empty outcome file")
    values = np.empty(len(tokens), dtype=bool)
    for t, tok in enumerate(tokens):
        if tok == "0":
            values[t] = False
        elif tok == "1":
            values[t] = True
        else:
            raise ValueError(f"{path}: token {t + 1} is {tok!r}, expected 0 or 1")
    return values


def _parse_budgets(text: str | None, total: int) -> list[int]:
    if text is None:
        budgets = [b for b in PAPER_BUDGETS if 1 <= b <= total]
    else:
        budgets = sorted({int(tok) for tok in text.split(",") if tok.strip()})
    if not budgets:
        raise ValueError("no budgets to evaluate")
    for b in budgets:
        if not 1 <= b <= total:
            raise ValueError(f"budget {b} outside [1, {total}]")
    return budgets


def _write_json(path: str | Path, payload: dict) -> None:
    with _replacing_writer(path) as fh:
        fh.write((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


def _command_oracle(command: str):
    argv = shlex.split(command)

    def oracle(index: int) -> bool:
        proc = subprocess.run(
            argv + [str(index)], capture_output=True, text=True, check=True
        )
        answer = proc.stdout.strip()
        if answer not in ("0", "1"):
            raise ValueError(f"oracle command returned {answer!r}, expected 0 or 1")
        return answer == "1"

    return oracle


def _sums_path(perm_path: str | Path) -> Path:
    return Path(perm_path).with_suffix(".llsm")


def _load_sort_result(perm_path: str | Path) -> SortResult:
    perm = load_permutation(perm_path)
    sums = load_sums(_sums_path(perm_path))
    return SortResult(perm, sums, SortMethod.SUM)


def _derived_seed(seed: int, *parts: int) -> int:
    value = seed
    for part in parts:
        value = value * 1_000_003 + part + 1
    return value


# -- commands ----------------------------------------------------------------


def _cmd_import(args: argparse.Namespace) -> int:
    cache = import_csv(args.csv, has_confidence=args.confidence)
    save_cache(cache, args.out)
    print(f"wrote {cache.num_models}x{cache.num_samples} cache to {args.out}")
    return 0


def _cmd_sort(args: argparse.Namespace) -> int:
    cache = load_cache(args.cache)
    if args.method == "sum":
        result = sort_by_sum(cache)
    elif args.method == "conf":
        result = sort_by_confidence_sum(cache)
    else:
        result = recursive_sort_by_sum(cache, max_depth=args.depth)
    save_permutation(result.permutation, args.out)
    save_sums(result.sums, _sums_path(args.out))
    print(f"wrote permutation of {len(result.permutation)} columns to {args.out}")
    return 0


def _cmd_eval_model(args: argparse.Namespace) -> int:
    sort_result = _load_sort_result(args.perm)
    total = sort_result.num_samples
    if args.cache:
        cache = load_cache(args.cache)
        if cache.num_samples != total:
            raise ValueError("cache and permutation disagree on sample count")
    budgets = _parse_budgets(args.budgets, total)
    strategy = SamplingStrategy(args.strategy)
    truth = _read_binary_vector(args.truth) if args.truth else None
    if truth is not None and truth.size != total:
        raise ValueError(
            f"truth length {truth.size} does not match {total} samples"
        )
    oracle = _command_oracle(args.oracle_cmd) if args.oracle_cmd else None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    reports = []
    for budget in budgets:
        seed = _derived_seed(args.seed, budget)
        if truth is not None:
            pred, sel = evaluate_from_truth(sort_result, truth, budget, strategy, seed)
        else:
            pred, sel = evaluate_new_model(sort_result, oracle, budget, strategy, seed)
        _write_json(
            out_dir / f"prediction_{budget}.json", prediction_to_dict(pred, sel)
        )
        if truth is not None:
            report = error_decomposition(
                truth, pred, sort_result.permutation, budget=budget
            )
            reports.append(report)
            _write_json(out_dir / f"report_{budget}.json", report.to_dict())
    if reports:
        write_error_curve(out_dir / "curve.csv", reports)
    print(f"evaluated {len(budgets)} budgets into {out_dir}")
    return 0


def _cmd_insert_sample(args: argparse.Namespace) -> int:
    cache = load_cache(args.cache)
    if cache.num_models == 0:
        raise ValueError("cache has no models to rank")
    model_sort = sort_models_by_sum(cache)
    strategy = SamplingStrategy(args.strategy)
    outcomes = _read_binary_vector(args.outcomes) if args.outcomes else None
    if outcomes is not None and outcomes.size != cache.num_models:
        raise ValueError(
            f"outcome length {outcomes.size} does not match {cache.num_models} models"
        )
    budget = args.budget
    if outcomes is not None:
        pred, sel = evaluate_from_truth(model_sort, outcomes, budget, strategy, args.seed)
    else:
        oracle = _command_oracle(args.oracle_cmd)
        pred, sel = evaluate_new_model(model_sort, oracle, budget, strategy, args.seed)
    record = prediction_to_dict(pred, sel)
    record["difficulty_rank"] = pred.k  # models expected to solve it
    if outcomes is not None:
        report = error_decomposition(
            outcomes, pred, model_sort.permutation, budget=budget
        )
        record["report"] = report.to_dict()
    if args.report:
        _write_json(args.report, record)
    else:
        print(json.dumps(record, indent=2, sort_keys=True))
    if args.append_out:
        order = model_sort.permutation.order
        column = np.zeros(cache.num_models, dtype=bool)
        column[order[: pred.k]] = True
        # a stored confidence binarizes at 0.5, so 0/1 round-trips the column
        confidence = None if cache.confidence is None else column.astype(np.float32)
        save_cache(cache.append_column(column, confidence), args.append_out)
    return 0


def _simulate_model(
    sort_result: SortResult,
    sort_cache: AccuracyCache,
    truth: np.ndarray,
    budgets: list[int],
    strategy: SamplingStrategy,
    seed: int,
    model_index: int,
    run_baseline: bool,
) -> tuple[list[ErrorReport], list[float]]:
    scorer = RankedTruth(truth, sort_result.permutation)
    reports = []
    baseline_maes = []
    for budget in budgets:
        derived = _derived_seed(seed, model_index, budget)
        pred, _ = evaluate_from_truth(sort_result, truth, budget, strategy, derived)
        reports.append(scorer.report(pred.k, budget))
        if run_baseline:
            guess = copy_nearest_expand_from_truth(sort_cache, truth, budget, derived)
            baseline_maes.append(float(np.mean(guess != truth)))
    return reports, baseline_maes


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .synthgen import SynthSpec, generate

    if args.holdout < 1:
        raise ValueError("--holdout must be at least 1")
    if args.spec_json:
        record = json.loads(Path(args.spec_json).read_text())
        spec = SynthSpec.from_dict(record)
        if spec.num_models <= args.holdout:
            raise ValueError("spec num_models must exceed --holdout")
        args.models = spec.num_models - args.holdout
        args.samples = spec.num_samples
        args.seed = spec.seed
    else:
        if args.models is None or args.samples is None:
            raise ValueError("either --spec-json or --models/--samples required")
        if args.models < 1:
            raise ValueError("--models must be at least 1")
        spec = SynthSpec(
            num_models=args.models + args.holdout,
            num_samples=args.samples,
            ability_range=(args.ability_lo, args.ability_hi),
            temperature=args.tau,
            noise=args.noise,
            seed=args.seed,
        )
    cache_full, _, _ = generate(spec)
    if args.save_cache:
        save_cache(cache_full, args.save_cache)
    n = spec.num_samples
    sort_cache = AccuracyCache(args.models, n, cache_full.bits[: args.models])
    sort_result = sort_by_sum(sort_cache)
    budgets = _parse_budgets(args.budgets, n)
    strategy = SamplingStrategy(args.strategy)
    run_baseline = not args.skip_baseline

    def work(h: int) -> tuple[list[ErrorReport], list[float]]:
        truth = cache_full.row(args.models + h)
        return _simulate_model(
            sort_result, sort_cache, truth, budgets, strategy, args.seed, h, run_baseline
        )

    threads = int(os.environ.get("LLEVAL_THREADS", "0")) or (os.cpu_count() or 1)
    threads = max(1, min(threads, args.holdout))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_model = list(pool.map(work, range(args.holdout)))
    else:
        per_model = [work(h) for h in range(args.holdout)]

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    medians = []
    for bi, budget in enumerate(budgets):
        reports = [res[0][bi] for res in per_model]
        medians.append(
            ErrorReport(
                mae=float(np.median([r.mae for r in reports])),
                agg_error=float(np.median([r.agg_error for r in reports])),
                aleatoric=float(np.median([r.aleatoric for r in reports])),
                epistemic=float(np.median([r.epistemic for r in reports])),
                budget=budget,
            )
        )
    write_error_curve(out_dir / "curve.csv", medians)

    baseline_rows = []
    if run_baseline:
        for bi, budget in enumerate(budgets):
            med = float(np.median([res[1][bi] for res in per_model]))
            baseline_rows.append({"budget": budget, "mae": med})
        rows = [(r["budget"], repr(r["mae"])) for r in baseline_rows]
        _write_rows(out_dir / "baseline.csv", [("budget", "mae")] + rows)

    if len(budgets) >= 4:
        fit = fit_exp_decay(
            np.asarray(budgets, dtype=float),
            np.asarray([m.mae for m in medians]),
        )
        fit_record = {"a": fit.a, "b": fit.b, "c": fit.c, "r2": fit.r2}
    else:  # the decay fit needs four points
        fit_record = {"a": None, "b": None, "c": None, "r2": None}
    _write_json(out_dir / "fit.json", fit_record)
    summary = {
        "spec": spec.to_dict(),
        "sort_models": args.models,
        "holdout_models": args.holdout,
        "strategy": strategy.value,
        "budgets": budgets,
        "curve": [m.to_dict() for m in medians],
        "baseline": baseline_rows,
        "fit": fit_record,
    }
    _write_json(out_dir / "summary.json", summary)
    print(f"simulated {args.holdout} models over {len(budgets)} budgets into {out_dir}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    truth = _read_binary_vector(args.truth)
    record = json.loads(Path(args.pred).read_text())
    pred, selection = prediction_from_dict(record)
    perm = load_permutation(args.perm)
    report = error_decomposition(truth, pred, perm, budget=selection.budget)
    payload = report.to_dict()
    if args.out:
        _write_json(args.out, payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


# -- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lleval",
        description="Difficulty-ranked, budget-limited model evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("import", help="convert a CSV outcome matrix to LLBC")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--confidence", action="store_true")
    p.set_defaults(func=_cmd_import)

    p = sub.add_parser("sort", help="rank cache columns by difficulty")
    p.add_argument("--cache", required=True)
    p.add_argument("--method", choices=["sum", "conf", "recursive"], default="sum")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sort)

    p = sub.add_parser("eval-model", help="predict a new model from few samples")
    p.add_argument("--perm", required=True)
    p.add_argument("--cache")
    p.add_argument("--truth", help="full 0/1 outcome row for scoring")
    p.add_argument("--oracle-cmd", help="command answering 0/1 per sample index")
    p.add_argument("--budgets")
    p.add_argument("--strategy", choices=["uniform", "random"], default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval_model)

    p = sub.add_parser("insert-sample", help="rank a new sample from few models")
    p.add_argument("--cache", required=True)
    p.add_argument("--outcomes", help="full 0/1 outcome column for scoring")
    p.add_argument("--oracle-cmd", help="command answering 0/1 per model index")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--strategy", choices=["uniform", "random"], default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", help="write the rank estimate JSON here")
    p.add_argument("--append-out", help="write the cache with the predicted column")
    p.set_defaults(func=_cmd_insert_sample)

    p = sub.add_parser("simulate", help="synthetic end-to-end budget sweep")
    p.add_argument("--spec-json", help="generator parameters as a JSON file")
    p.add_argument("--models", type=int, help="models used for sorting")
    p.add_argument("--holdout", type=int, required=True, help="models evaluated")
    p.add_argument("--samples", type=int)
    p.add_argument("--tau", type=float, default=0.1)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--ability-lo", type=float, default=0.0)
    p.add_argument("--ability-hi", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budgets")
    p.add_argument("--strategy", choices=["uniform", "random"], default="uniform")
    p.add_argument("--skip-baseline", action="store_true")
    p.add_argument("--save-cache", help="also write the generated cache as LLBC")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("metrics", help="score a prediction against a truth row")
    p.add_argument("--truth", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--perm", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_metrics)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "eval-model" and not (args.truth or args.oracle_cmd):
        print("error: eval-model needs --truth or --oracle-cmd", file=sys.stderr)
        return 2
    if args.command == "insert-sample" and not (args.outcomes or args.oracle_cmd):
        print("error: insert-sample needs --outcomes or --oracle-cmd", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
