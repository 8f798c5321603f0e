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
from typing import NoReturn

import numpy as np

from .baseline import copy_nearest_expand_from_truth
from .cache import (
    SortMethod,
    SortResult,
    _read_json,
    _read_outcomes,
    _write_json,
    _write_rows,
    import_csv,
    load_cache,
    load_permutation,
    load_sums,
    save_cache,
    save_permutation,
    save_sums,
)
from .metrics import (
    CURVE_FIELDS,
    ErrorReport,
    ExpDecayFit,
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
    recursive_sort_by_sum,
    sort_by_confidence_sum,
    sort_by_sum,
    sort_models_by_sum,
)

PAPER_BUDGETS = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768)


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


def _make_parents(*paths: str | Path | None) -> None:
    """The writers' rule for a target's parent, applied before any work: made
    if missing, one error naming it if it is a regular file.  Every parent is
    checked before any is made, so a failure leaves no directory behind."""
    parents = [Path(path).parent for path in paths if path]
    for parent in parents:
        found = next(p for p in (parent, *parent.parents) if p.exists())
        if not found.is_dir():
            raise NotADirectoryError(f"{found} is not a directory")
    for parent in parents:
        parent.mkdir(parents=True, exist_ok=True)


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
    if args.truth is not None:
        truth = _read_outcomes(args.truth, total, "truth")
        scorer = RankedTruth(truth, sort_result.permutation)  # one for every budget
    else:
        oracle = _command_oracle(args.oracle_cmd)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # fail before any oracle query

    reports = []
    for budget in budgets:
        seed = _derived_seed(args.seed, budget)
        if args.truth is not None:
            pred, sel = evaluate_from_truth(sort_result, truth, budget, strategy, seed)
            reports.append(scorer.report(pred.k, budget))
            _write_json(out_dir / f"report_{budget}.json", reports[-1].to_dict())
        else:
            pred, sel = evaluate_new_model(sort_result, oracle, budget, strategy, seed)
        _write_json(out_dir / f"prediction_{budget}.json", prediction_to_dict(pred, sel))
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
    _make_parents(args.report, args.append_out)
    budget = args.budget
    if args.outcomes is not None:
        outcomes = _read_outcomes(args.outcomes, cache.num_models, "outcomes")
        pred, sel = evaluate_from_truth(model_sort, outcomes, budget, strategy, args.seed)
    else:
        oracle = _command_oracle(args.oracle_cmd)
        pred, sel = evaluate_new_model(model_sort, oracle, budget, strategy, args.seed)
    record = prediction_to_dict(pred, sel)
    record["difficulty_rank"] = pred.k  # models expected to solve it
    if args.outcomes is not None:
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


def _thread_count() -> int:
    """``LLEVAL_THREADS``: a positive count, or unset or 0 for every core."""
    raw = os.environ.get("LLEVAL_THREADS", "0")
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(
            f"LLEVAL_THREADS must be a positive integer, or 0 for all cores; got {raw!r}"
        )
    return int(raw) or (os.cpu_count() or 1)


# generator flags that --spec-json replaces; each defaults to None
_SPEC_FLAGS = ("models", "samples", "seed", "tau", "noise", "ability_lo", "ability_hi")


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .synthgen import SynthSpec, generate

    given = [name for name in _SPEC_FLAGS if getattr(args, name) is not None]
    if args.spec_json and given:
        flag = "--" + given[0].replace("_", "-")
        _usage_error(f"argument {flag}: not allowed with argument --spec-json")
    threads = _thread_count()
    if args.holdout < 1:
        raise ValueError("--holdout must be at least 1")
    if args.spec_json:
        spec = SynthSpec.from_dict(_read_json(args.spec_json))
        if spec.num_models <= args.holdout:
            raise ValueError("spec num_models must exceed --holdout")
    else:
        if args.models is None or args.samples is None:
            raise ValueError("either --spec-json or --models/--samples required")
        if args.models < 1:
            raise ValueError("--models must be at least 1")
        lo, hi = SynthSpec.ability_range
        lo = lo if args.ability_lo is None else args.ability_lo
        hi = hi if args.ability_hi is None else args.ability_hi
        options = {"temperature": args.tau, "noise": args.noise, "seed": args.seed}
        spec = SynthSpec(
            num_models=args.models + args.holdout,
            num_samples=args.samples,
            ability_range=(lo, hi),
            **{name: value for name, value in options.items() if value is not None},
        )
    models = spec.num_models - args.holdout
    budgets = _parse_budgets(args.budgets, spec.num_samples)
    strategy = SamplingStrategy(args.strategy)
    run_baseline = not args.skip_baseline
    out_dir = Path(args.out)
    _make_parents(out_dir / "curve.csv", args.save_cache)
    # rows, then held-out models; the pool starts a worker only when a task
    # finds none idle, so LLEVAL_THREADS past the work starts no extra thread
    with ThreadPoolExecutor(max_workers=threads) as pool:
        cache_full, _, _ = generate(spec, map=pool.map)
        if args.save_cache:
            save_cache(cache_full, args.save_cache)
        sort_cache = cache_full.first_models(models)
        sort_result = sort_by_sum(sort_cache)

        def work(h: int) -> tuple[list[ErrorReport], list[float]]:
            truth = cache_full.row(models + h)
            scorer = RankedTruth(truth, sort_result.permutation)
            reports, baseline_maes = [], []
            for budget in budgets:
                seed = _derived_seed(spec.seed, h, budget)
                pred, _ = evaluate_from_truth(sort_result, truth, budget, strategy, seed)
                reports.append(scorer.report(pred.k, budget))
                if run_baseline:
                    guess = copy_nearest_expand_from_truth(sort_cache, truth, budget, seed)
                    baseline_maes.append(np.count_nonzero(guess != truth) / truth.size)
            return reports, baseline_maes

        per_model = list(pool.map(work, range(args.holdout)))

    medians = []
    for bi, budget in enumerate(budgets):
        reports = [res[0][bi] for res in per_model]
        fields = CURVE_FIELDS[1:]  # all but the budget
        values = {f: float(np.median([getattr(r, f) for r in reports])) for f in fields}
        medians.append(ErrorReport(budget=budget, **values))
    write_error_curve(out_dir / "curve.csv", medians)

    baseline_rows = []
    if run_baseline:
        for bi, budget in enumerate(budgets):
            med = float(np.median([res[1][bi] for res in per_model]))
            baseline_rows.append({"budget": budget, "mae": med})
        rows = [(r["budget"], repr(r["mae"])) for r in baseline_rows]
        _write_rows(out_dir / "baseline.csv", [("budget", "mae")] + rows)

    if len(budgets) >= 4:
        fit = fit_exp_decay(np.asarray(budgets, dtype=float), [m.mae for m in medians])
        fit_record = fit._asdict()
    else:  # the decay fit needs four points
        fit_record = dict.fromkeys(ExpDecayFit._fields)
    _write_json(out_dir / "fit.json", fit_record)
    summary = {
        "spec": spec.to_dict(),
        "sort_models": models,
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
    pred, selection = prediction_from_dict(_read_json(args.pred))
    truth = _read_outcomes(args.truth, pred.length, "truth")
    perm = load_permutation(args.perm)
    report = error_decomposition(truth, pred, perm, budget=selection.budget)
    payload = report.to_dict()
    if args.out:
        _write_json(args.out, payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


# -- parser ------------------------------------------------------------------


def _usage_error(message: str) -> NoReturn:
    """A usage error: one ``error:`` line, exit status 2."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        _usage_error(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--truth", help="full 0/1 outcome row for scoring")
    source.add_argument("--oracle-cmd", help="command answering 0/1 per sample index")
    p.add_argument("--budgets")
    p.add_argument("--strategy", choices=["uniform", "random"], default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval_model)

    p = sub.add_parser("insert-sample", help="rank a new sample from few models")
    p.add_argument("--cache", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--outcomes", help="full 0/1 outcome column for scoring")
    source.add_argument("--oracle-cmd", help="command answering 0/1 per model index")
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
    p.add_argument("--tau", type=float)
    p.add_argument("--noise", type=float)
    p.add_argument("--ability-lo", type=float)
    p.add_argument("--ability-hi", type=float)
    p.add_argument("--seed", type=int)
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
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # a usage error (2) or --help (0)
        return exc.code
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
