"""Command-line front end: import, sort, evaluate, insert, simulate, metrics.

Every command exits 0 on success and nonzero with a one-line diagnostic on
stderr otherwise.  All randomness flows from --seed, so reruns with the same
inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import synthgen  # simulate looks generate up when it runs
from .baseline import copy_nearest_expand_from_truth
from .cache import (
    Permutation,
    _appending_writer,
    _check_targets,
    _read_json,
    _read_outcomes,
    _write_json,
    _write_rows,
    import_csv,
    load_cache,
    load_permutation,
    save_cache,
    save_permutation,
    save_sums,
)
from .metrics import (
    CURVE_FIELDS,
    ErrorReport,
    ExpDecayFit,
    RankedTruth,
    fit_exp_decay,
    write_error_curve,
)
from .search import (
    SamplingStrategy,
    _check_budget,
    evaluate,
    prediction_from_dict,
    prediction_to_dict,
)
from .sort import sort_by_confidence_sum, sort_by_sum, sort_models_by_sum
from .synthgen import SynthSpec, _SpecError

PAPER_BUDGETS = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768)


def _parse_budgets(text: str | None, total: int) -> list[int]:
    if text is None:
        budgets = [b for b in PAPER_BUDGETS if 1 <= b <= total]
    else:
        budgets = set()
        for tok in filter(None, map(str.strip, text.split(","))):
            try:
                budgets.add(int(tok))
            except ValueError:
                raise ValueError(f"--budgets has {tok!r}, not a whole number") from None
        budgets = sorted(budgets)
    if not budgets:
        raise ValueError("no budgets to evaluate")
    for b in budgets:
        _check_budget(b, total)
    return budgets


def _command_oracle(command: str):
    """A batch oracle that runs ``command <index>`` once per index, in order."""
    argv = shlex.split(command)
    if not argv:
        raise ValueError("--oracle-cmd is empty; give the command to run")

    def ask(index: int) -> bool:
        proc = subprocess.run(argv + [str(index)], capture_output=True)
        if proc.returncode:  # negative: the signal that ended it
            said = proc.stderr.decode(errors="replace").strip().splitlines()
            last = f": {said[-1].strip()}" if said else ""
            raise RuntimeError(
                f"oracle command failed on index {index} "
                f"with exit status {proc.returncode}{last}"
            )
        answer = proc.stdout.strip()
        if answer not in (b"0", b"1"):
            text = answer.decode(errors="replace")
            raise ValueError(f"oracle command returned {text!r}, expected 0 or 1")
        return answer == b"1"

    return lambda indices: [ask(i) for i in indices.tolist()]


def _oracle(path: str | None, name: str, command: str | None, perm: Permutation):
    """The batch oracle for the row file ``path`` (``--truth``, ``--outcomes``),
    one 0/1 answer per index of ``perm``, and the row's scorer under ``perm``;
    or, with no file, for ``--oracle-cmd``, and None."""
    if path is None:
        return _command_oracle(command), None
    row = _read_outcomes(path, len(perm), name)
    return row.__getitem__, RankedTruth(row, perm)


def _sums_path(perm_path: str | Path) -> Path:
    return Path(perm_path).with_suffix(".llsm")


def _derived_seed(seed: int, *parts: int) -> int:
    value = seed
    for part in parts:
        value = value * 1_000_003 + part + 1
    return value


# -- commands ----------------------------------------------------------------


def _cmd_import(args: argparse.Namespace) -> int:
    _check_targets([("--out", args.out)], [("--csv", args.csv)])
    cache = import_csv(args.csv, has_confidence=args.confidence)
    save_cache(cache, args.out)
    print(f"wrote {cache.num_models}x{cache.num_samples} cache to {args.out}")
    return 0


def _cmd_sort(args: argparse.Namespace) -> int:
    # the sidecar first, so --out onto it is "its own totals sidecar"
    targets = [("--out's totals sidecar", _sums_path(args.out)), ("--out", args.out)]
    _check_targets(targets, [("--cache", args.cache)])
    cache = load_cache(args.cache)
    rank = sort_by_sum if args.method == "sum" else sort_by_confidence_sum
    result = rank(cache)
    save_permutation(result.permutation, args.out)
    save_sums(result.sums, _sums_path(args.out))
    print(f"wrote permutation of {len(result.permutation)} columns to {args.out}")
    return 0


def _cmd_eval_model(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    perm = load_permutation(args.perm)  # first: its length names the budgets and files
    total = len(perm)
    budgets = _parse_budgets(args.budgets, total)
    kinds = ("report", "prediction") if args.truth is not None else ("prediction",)
    paths = {(kind, b): out_dir / f"{kind}_{b}.json" for b in budgets for kind in kinds}
    curve = out_dir / "curve.csv" if args.truth is not None else None
    inputs = [("--perm", args.perm), ("--truth", args.truth)]
    _check_targets([("--out", path) for path in [*paths.values(), curve]], inputs)
    oracle, scorer = _oracle(args.truth, "truth", args.oracle_cmd, perm)  # for every budget
    reports = []
    for budget in budgets:
        seed = _derived_seed(args.seed, budget)
        pred, sel = evaluate(perm, oracle, budget, args.strategy, seed)
        if scorer is not None:
            reports.append(scorer.report(pred.k, budget))
            _write_json(paths["report", budget], reports[-1].to_dict())
        _write_json(paths["prediction", budget], prediction_to_dict(pred, sel))
    if reports:
        write_error_curve(curve, reports)
    print(f"evaluated {len(budgets)} budgets into {out_dir}")
    return 0


def _cmd_insert_sample(args: argparse.Namespace) -> int:
    # the one exemption: --append-out may grow its own --cache; its map outlives the rename
    grows = args.append_out and Path(args.append_out).resolve() == Path(args.cache).resolve()
    inputs = [("--cache", None if grows else args.cache), ("--outcomes", args.outcomes)]
    _check_targets([("--append-out", args.append_out), ("--report", args.report)], inputs)
    cache = load_cache(args.cache)
    if cache.num_models == 0:
        raise ValueError("cache has no models to rank")
    _check_budget(args.budget, cache.num_models)  # before the grown file is reserved
    models = sort_models_by_sum(cache).permutation
    oracle, scorer = _oracle(args.outcomes, "outcomes", args.oracle_cmd, models)
    # the grown cache is written while the oracle answers, its new column zero
    # until ``put`` sets it
    grown = (_appending_writer(cache, args.append_out) if args.append_out
             else contextlib.nullcontext())
    with grown as put:
        pred, sel = evaluate(models, oracle, args.budget, args.strategy, args.seed)
        record = prediction_to_dict(pred, sel)
        record["difficulty_rank"] = pred.k  # models expected to solve it
        if scorer is not None:
            record["report"] = scorer.report(pred.k, args.budget).to_dict()
        if args.report:
            _write_json(args.report, record)
        else:
            print(json.dumps(record, indent=2, sort_keys=True))
        if put:
            column = np.zeros(cache.num_models, dtype=bool)
            column[models.order[: pred.k]] = True
            # a stored confidence binarizes at 0.5, so 0/1 round-trips the column
            put(column, None if cache.confidence is None else column.astype(np.float32))
    return 0


def _thread_count() -> int:
    """``LLEVAL_THREADS``: a positive count, or unset or 0 for every core."""
    raw = os.environ.get("LLEVAL_THREADS", "0")
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(
            f"LLEVAL_THREADS must be a positive integer, or 0 for all cores; got {raw!r}"
        )
    return int(raw) or (os.cpu_count() or 1)


# the simulate flags that set each SynthSpec field it can reject; --models
# and --holdout are checked before the spec is built, and --seed in main
_SPEC_FLAGS = {
    "num_samples": "--samples",
    "ability_range": "--ability-lo/--ability-hi",
    "temperature": "--tau",
    "noise": "--noise",
}


def _cmd_simulate(args: argparse.Namespace) -> int:
    threads = _thread_count()
    if args.holdout < 1:
        raise ValueError("--holdout must be at least 1")
    if args.models < 1:
        raise ValueError("--models must be at least 1")
    try:
        spec = SynthSpec(
            num_models=args.models + args.holdout,
            num_samples=args.samples,
            ability_range=(args.ability_lo, args.ability_hi),
            temperature=args.tau,
            noise=args.noise,
            seed=args.seed,
        )
    except _SpecError as exc:  # the spec knows the rule, the flag names it
        raise ValueError(f"{_SPEC_FLAGS[exc.field]} {exc.rule}, not {exc.value}") from None
    budgets = _parse_budgets(args.budgets, spec.num_samples)
    out_dir = Path(args.out)
    files = [out_dir / n for n in ("curve.csv", "baseline.csv", "fit.json", "summary.json")]
    curve, baseline, fit_path, summary_path = files
    _check_targets([("--out", f) for f in files] + [("--save-cache", args.save_cache)], [])
    # rows, then held-out models; the pool starts a worker only when a task
    # finds none idle, so LLEVAL_THREADS past the work starts no extra thread.
    # Each worker packs the row it draws, so no drawn row waits for another
    with ThreadPoolExecutor(max_workers=threads) as pool:
        cache_full, _, _ = synthgen.generate(spec, map=pool.map)
        if args.save_cache:
            save_cache(cache_full, args.save_cache)
        sort_cache = cache_full.first_models(args.models)
        sort_result = sort_by_sum(sort_cache)

        def work(h: int) -> tuple[list[ErrorReport], list[float]]:
            truth = cache_full.row(args.models + h)
            scorer = RankedTruth(truth, sort_result.permutation)
            reports, baseline_maes = [], []
            for budget in budgets:
                seed = _derived_seed(spec.seed, h, budget)
                pred, _ = evaluate(sort_result.permutation, truth.__getitem__,
                                   budget, args.strategy, seed)
                reports.append(scorer.report(pred.k, budget))
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
    write_error_curve(curve, medians)

    baseline_rows = [
        {"budget": budget, "mae": float(np.median([res[1][bi] for res in per_model]))}
        for bi, budget in enumerate(budgets)
    ]
    rows = [(r["budget"], repr(r["mae"])) for r in baseline_rows]
    _write_rows(baseline, [("budget", "mae")] + rows)

    if len(budgets) >= 4:
        fit = fit_exp_decay(np.asarray(budgets, dtype=float), [m.mae for m in medians])
        fit_record = fit._asdict()
    else:  # the decay fit needs four points
        fit_record = dict.fromkeys(ExpDecayFit._fields)
    _write_json(fit_path, fit_record)
    summary = {
        "spec": spec.to_dict(),
        "sort_models": args.models,
        "holdout_models": args.holdout,
        "strategy": args.strategy,
        "budgets": budgets,
        "curve": [m.to_dict() for m in medians],
        "baseline": baseline_rows,
        "fit": fit_record,
    }
    _write_json(summary_path, summary)
    print(f"simulated {args.holdout} models over {len(budgets)} budgets into {out_dir}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    inputs = [("--pred", args.pred), ("--truth", args.truth), ("--perm", args.perm)]
    _check_targets([("--out", args.out)], inputs)
    pred, selection = prediction_from_dict(_read_json(args.pred))
    perm = load_permutation(args.perm)
    if len(perm) != pred.length:  # before --truth, which is read at the total
        raise ValueError(
            f"prediction total {pred.length} does not match "
            f"permutation length {len(perm)}"
        )
    truth = _read_outcomes(args.truth, pred.length, "truth")
    report = RankedTruth(truth, perm).report(pred.k, selection.budget)
    payload = report.to_dict()
    if args.out:
        _write_json(args.out, payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


# -- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        """A usage error: one ``error:`` line, exit status 2."""
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _path(text: str) -> str:
    """The type of every path option: an empty path is refused as it is parsed."""
    if not text:
        raise argparse.ArgumentTypeError("the path is empty")
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lleval",
        description="Difficulty-ranked, budget-limited model evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("import", help="convert a CSV outcome matrix to LLBC")
    p.add_argument("--csv", type=_path, required=True)
    p.add_argument("--out", type=_path, required=True)
    p.add_argument("--confidence", action="store_true")
    p.set_defaults(func=_cmd_import)

    p = sub.add_parser("sort", help="rank cache columns by difficulty")
    p.add_argument("--cache", type=_path, required=True)
    p.add_argument("--method", choices=["sum", "conf"], default="sum")
    p.add_argument("--out", type=_path, required=True)
    p.set_defaults(func=_cmd_sort)

    p = sub.add_parser("eval-model", help="predict a new model from few samples")
    p.add_argument("--perm", type=_path, required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--truth", type=_path, help="full 0/1 outcome row for scoring")
    source.add_argument("--oracle-cmd", help="command answering 0/1 per sample index")
    p.add_argument("--budgets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=_path, required=True)
    p.set_defaults(func=_cmd_eval_model)

    p = sub.add_parser("insert-sample", help="rank a new sample from few models")
    p.add_argument("--cache", type=_path, required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--outcomes", type=_path, help="full 0/1 outcome column for scoring")
    source.add_argument("--oracle-cmd", help="command answering 0/1 per model index")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", type=_path, help="write the rank estimate JSON here")
    p.add_argument("--append-out", type=_path,
                   help="write the cache with the predicted column")
    p.set_defaults(func=_cmd_insert_sample)

    p = sub.add_parser("simulate", help="synthetic end-to-end budget sweep")
    p.add_argument("--models", type=int, required=True, help="models used for sorting")
    p.add_argument("--holdout", type=int, required=True, help="models evaluated")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--tau", type=float, default=SynthSpec.temperature)
    p.add_argument("--noise", type=float, default=SynthSpec.noise)
    p.add_argument("--ability-lo", type=float, default=SynthSpec.ability_range[0])
    p.add_argument("--ability-hi", type=float, default=SynthSpec.ability_range[1])
    p.add_argument("--seed", type=int, default=SynthSpec.seed)
    p.add_argument("--budgets")
    p.add_argument("--save-cache", type=_path, help="also write the generated cache as LLBC")
    p.add_argument("--out", type=_path, required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("metrics", help="score a prediction against a truth row")
    p.add_argument("--truth", type=_path, required=True)
    p.add_argument("--pred", type=_path, required=True)
    p.add_argument("--perm", type=_path, required=True)
    p.add_argument("--out", type=_path)
    p.set_defaults(func=_cmd_metrics)

    for name in ("eval-model", "insert-sample", "simulate"):  # the Search commands
        sub.choices[name].add_argument("--strategy", default=SamplingStrategy.UNIFORM.value,
                                       choices=[s.value for s in SamplingStrategy])
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "seed", 0) < 0:  # before any command reads, draws or asks
            raise ValueError(f"--seed must be non-negative, not {args.seed}")
        return args.func(args)
    except SystemExit as exc:  # a usage error (2) or --help (0)
        return exc.code
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
