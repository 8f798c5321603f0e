"""The four benchmark workloads: seeded inputs, one op each, reference checks.

Inputs come from this file's own numpy generator, never from
``lleval.synthgen``, so they stay byte-identical when the program changes.
Every reference an op is checked against is computed here too, by a
different route than the program takes.

Each workload class provides:

- ``__init__(size, seed)``: one set of inputs; the same seed, the same inputs.
- ``setup(work)``: write the inputs into ``work``.  Runs in a fresh process,
  several times per run; what it returns goes to ``references``.
- ``references(work, ctx)``: write the references; returns input statistics.
  Runs once per run and is not part of the set-up time.
- ``open(work)``: load what set-up wrote; runs once in the measured process.
- ``prepare(i)`` / ``run(prep, tracer)`` / ``check(prep, out)``: one op.
  Only ``run`` is timed.  ``check`` returns ``(ok, info)`` and raises
  nothing on a wrong answer.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

# The paper's budget sweep, kept here so references do not read the program.
PAPER_BUDGETS = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768)
MAE_BUDGET = 512

_LLBC_HEADER = struct.Struct("<4sIQQQ")  # magic, version, m, n, flags


# -- input generation ----------------------------------------------------------


def difficulty_levels(rng: np.random.Generator, n: int) -> np.ndarray:
    """One shared difficulty level in [0, 255] per sample."""
    return rng.integers(0, 256, size=n, dtype=np.uint8)


def abilities(rng: np.random.Generator, m: int) -> np.ndarray:
    """One ability per model: it solves every sample whose level is below it."""
    return rng.integers(0, 257, size=m)


def packed_rows(
    rng: np.random.Generator, levels: np.ndarray, ability: np.ndarray
) -> np.ndarray:
    """LLBC-packed outcome rows: the shared difficulty order plus noise.

    Each bit flips with probability 1/16 (the AND of four random bytes), so
    column sums over 500 rows span roughly 20 to 480 instead of clustering
    binomially around m/2, as real benchmark caches do.
    """
    n = levels.size
    row_bytes = (n + 7) // 8
    words = (row_bytes + 7) // 8
    bits = np.empty((ability.size, row_bytes), dtype=np.uint8)
    for i, a in enumerate(ability):
        row = np.packbits(levels < a, bitorder="little")
        raw = rng.bit_generator.random_raw(4 * words).view(np.uint8)
        raw = raw.reshape(4, -1)[:, :row_bytes]
        noise = raw[0] & raw[1] & raw[2] & raw[3]
        if n % 8:
            noise[-1] &= (1 << (n % 8)) - 1  # padding bits stay zero
        np.bitwise_xor(row, noise, out=bits[i])
    return bits


def write_llbc(path: Path, bits: np.ndarray, n: int) -> None:
    """LLBC version 1 without confidences, written by the benchmark itself."""
    with open(path, "wb") as fh:
        fh.write(_LLBC_HEADER.pack(b"LLBC", 1, bits.shape[0], n, 0))
        fh.write(memoryview(np.ascontiguousarray(bits)))


def read_llbc_bits(path: Path) -> np.ndarray:
    with open(path, "rb") as fh:
        _, _, m, n, _ = _LLBC_HEADER.unpack(fh.read(_LLBC_HEADER.size))
    bits = np.fromfile(path, dtype=np.uint8, offset=_LLBC_HEADER.size)
    return bits.reshape(m, (n + 7) // 8)


# -- references ------------------------------------------------------------------


def column_sums_ref(bits: np.ndarray, n: int) -> np.ndarray:
    """Per-column popcounts, one bit plane at a time (not row unpacking)."""
    m, row_bytes = bits.shape
    per_bit = np.zeros((8, row_bytes), dtype=np.int32)
    for lo in range(0, m, 64):
        block = bits[lo : lo + 64]
        for b in range(8):
            per_bit[b] += ((block >> b) & 1).sum(axis=0, dtype=np.int32)
    return np.ascontiguousarray(per_bit.T).reshape(-1)[:n]


def descending_order_ref(totals: np.ndarray) -> np.ndarray:
    """Descending totals, ties by ascending index."""
    return np.lexsort((np.arange(totals.size), -totals.astype(np.int64)))


def grid_ref(total: int, budget: int) -> np.ndarray:
    """Uniform interior grid: floor(j * total / (budget + 1)), j = 1..budget."""
    return np.arange(1, budget + 1, dtype=np.int64) * total // (budget + 1)


def cut_ref(ranked_truth: np.ndarray, budget: int) -> tuple[int, np.ndarray]:
    """Extrapolated cut from a prefix-sum best cut and half-up scaling.

    Returns the cut and the rank positions that had to be observed.
    """
    total = ranked_truth.size
    positions = grid_ref(total, budget)
    steps = np.where(ranked_truth[positions], 1, -1)
    score = np.concatenate(([0], np.cumsum(steps)))
    best = int(np.argmax(score))  # first maximum: the smallest cut on ties
    return (2 * best * total + budget) // (2 * budget), positions


# -- workloads ---------------------------------------------------------------------


class RankPaper:
    """`lleval sort --method sum` on a 500 x 1.7M LLBC file (the paper's scale)."""

    name = "rank-paper"
    sizes = {"full": {"models": 500, "samples": 1_700_000},
             "tiny": {"models": 20, "samples": 5_003}}

    def __init__(self, size: dict, seed: int) -> None:
        self.m, self.n = size["models"], size["samples"]
        self.seed = seed

    def setup(self, work: Path) -> np.ndarray:
        rng = np.random.default_rng([self.seed, 1])
        levels = difficulty_levels(rng, self.n)
        bits = packed_rows(rng, levels, abilities(rng, self.m))
        write_llbc(work / "cache.llbc", bits, self.n)
        return bits

    def references(self, work: Path, bits: np.ndarray) -> dict:
        return _ranking_refs(work, bits, self.n)

    def open(self, work: Path) -> None:
        import lleval.cli

        self.cli = lleval.cli
        self.work = work
        self.cache = work / "cache.llbc"
        self.out = work / "sorted.llpm"

    def prepare(self, i: int) -> None:
        return None

    def run(self, prep: None, tracer) -> int:
        argv = ["sort", "--method", "sum", "--cache", str(self.cache),
                "--out", str(self.out)]
        return self.cli.main(argv)

    def check(self, prep: None, rc: int) -> tuple[bool, dict]:
        import lleval

        if rc != 0:
            return False, {"error": f"sort exited {rc}"}
        perm = lleval.load_permutation(self.out)
        sums = lleval.load_sums(self.out.with_suffix(".llsm"))
        ok = np.array_equal(perm.order, np.load(self.work / "ref_order.npy"))
        ok = ok and np.array_equal(sums, np.load(self.work / "ref_sums.npy"))
        return ok, {} if ok else {"error": "permutation or totals differ"}

    def computed_bytes(self) -> dict:
        packed = self.m * ((self.n + 7) // 8)
        return {"llbc_read": _LLBC_HEADER.size + packed,
                "column_sums_packed_read": packed,
                "llpm_written": 16 + 8 * self.n,
                "llsm_written": 16 + 8 * self.n}


class CountingOracle:
    """The benchmark's oracle for a new model: answers from a truth row."""

    def __init__(self, answers: bytes) -> None:
        self.answers = answers
        self.calls = 0

    def __call__(self, index: int) -> bool:
        self.calls += 1
        return self.answers[index] == 1


class EvalStream:
    """New models arrive one by one against a ranking made once in set-up."""

    name = "eval-stream"
    sizes = {"full": {"models": 500, "samples": 1_700_000, "new_models": 40},
             "tiny": {"models": 20, "samples": 40_000, "new_models": 3}}

    def __init__(self, size: dict, seed: int) -> None:
        self.m, self.n = size["models"], size["samples"]
        self.new_models = size["new_models"]
        self.seed = seed

    def setup(self, work: Path) -> np.ndarray:
        import lleval

        rng = np.random.default_rng([self.seed, 2])
        levels = difficulty_levels(rng, self.n)
        bits = packed_rows(rng, levels, abilities(rng, self.m))
        truth = packed_rows(rng, levels, abilities(rng, self.new_models))
        np.save(work / "truth.npy", truth)
        ranking = lleval.sort_by_sum(lleval.AccuracyCache(self.m, self.n, bits))
        lleval.save_permutation(ranking.permutation, work / "rank.llpm")
        lleval.save_sums(ranking.sums, work / "rank.llsm")
        return bits

    def references(self, work: Path, bits: np.ndarray) -> dict:
        """Also each truth row's reference cut and mismatch count per budget.

        The ranking's order never changes across ops (the check makes sure),
        so these hold for every op, and the measured process keeps no
        length-n scratch for its checks.
        """
        stats = _ranking_refs(work, bits, self.n)
        order = np.load(work / "ref_order.npy")
        truth = np.load(work / "truth.npy")
        cuts = np.empty((self.new_models, len(PAPER_BUDGETS), 2), dtype=np.int64)
        for row, packed in enumerate(truth):
            ranked = np.unpackbits(packed, count=self.n, bitorder="little")[order]
            prefix = np.concatenate(([0], np.cumsum(ranked, dtype=np.int64)))
            for j, budget in enumerate(PAPER_BUDGETS):
                k, _ = cut_ref(ranked.view(np.bool_), budget)
                cuts[row, j] = k, (k - prefix[k]) + (prefix[-1] - prefix[k])
        np.save(work / "ref_cuts.npy", cuts)
        return stats

    def open(self, work: Path) -> None:
        import lleval

        self.lleval = lleval
        self.ranking = lleval.SortResult(
            lleval.load_permutation(work / "rank.llpm"),
            lleval.load_sums(work / "rank.llsm"),
            lleval.SortMethod.SUM,
        )
        self.truth = np.load(work / "truth.npy")
        self.ref_order = np.load(work / "ref_order.npy")
        self.ref_sums = np.load(work / "ref_sums.npy")  # follows stable_append
        self.ref_cuts = np.load(work / "ref_cuts.npy")

    def prepare(self, i: int) -> dict:
        index = i % self.new_models
        row = np.unpackbits(self.truth[index], count=self.n, bitorder="little")
        return {"index": index, "truth": row.view(np.bool_),
                "oracle": CountingOracle(row.tobytes())}

    def run(self, prep: dict, tracer) -> list:
        search, metrics = self.lleval.search, self.lleval.metrics
        oracle = prep["oracle"]
        if tracer is not None:
            oracle = tracer.timed_leaf("search.oracle", oracle)
        results = []
        for budget in PAPER_BUDGETS:
            pred, _ = search.evaluate_new_model(self.ranking, oracle, budget)
            report = metrics.error_decomposition(
                prep["truth"], pred, self.ranking.permutation, budget=budget
            )
            results.append((pred, report))
        self.ranking = self.lleval.sort.stable_append(self.ranking, results[-1][0])
        return results

    def check(self, prep: dict, results: list) -> tuple[bool, dict]:
        calls = prep["oracle"].calls
        info = {"oracle_calls": calls}
        problems = []
        refs = self.ref_cuts[prep["index"]].tolist()
        for budget, (pred, report), (k, mismatches) in zip(PAPER_BUDGETS, results, refs):
            if pred.k != k:
                problems.append(f"budget {budget}: k={pred.k}, reference {k}")
            if report.mae != mismatches / self.n:
                problems.append(f"budget {budget}: mae {report.mae}")
            if budget == MAE_BUDGET:
                info["mae"] = report.mae
        if calls != sum(PAPER_BUDGETS):
            problems.append(f"{calls} oracle calls, expected {sum(PAPER_BUDGETS)}")
        self.ref_sums[: results[-1][0].k] += 1
        if not np.array_equal(self.ranking.permutation.order, self.ref_order):
            problems.append("permutation changed across stable_append")
        if not np.array_equal(self.ranking.sums, self.ref_sums):
            problems.append("totals after stable_append differ")
        if problems:
            info["error"] = "; ".join(problems[:3])
        return not problems, info

    def computed_bytes(self) -> dict:
        n, budgets = self.n, len(PAPER_BUDGETS)
        return {"oracle_answers_read": sum(PAPER_BUDGETS),
                "error_decomposition_gather": budgets * n * (8 + 1 + 1),
                "error_decomposition_scan": budgets * n * 8,
                "stable_append_copy": 2 * 8 * n}


class InsertSample:
    """`lleval insert-sample --oracle-cmd` over a 500 x 400k LLBC file."""

    name = "insert-sample"
    budget = 16
    sizes = {"full": {"models": 500, "samples": 400_000, "new_samples": 16},
             "tiny": {"models": 40, "samples": 1_001, "new_samples": 8}}

    def __init__(self, size: dict, seed: int) -> None:
        self.m, self.n = size["models"], size["samples"]
        self.new_samples = size["new_samples"]
        self.seed = seed

    def setup(self, work: Path) -> np.ndarray:
        rng = np.random.default_rng([self.seed, 3])
        levels = difficulty_levels(rng, self.n)
        ability = abilities(rng, self.m)
        bits = packed_rows(rng, levels, ability)
        write_llbc(work / "cache.llbc", bits, self.n)
        new_levels = difficulty_levels(rng, self.new_samples)
        flips = rng.random((self.new_samples, self.m)) < 1 / 16
        np.save(work / "columns.npy", (new_levels[:, None] < ability) ^ flips)
        return bits

    def references(self, work: Path, bits: np.ndarray) -> dict:
        popcounts = np.bitwise_count(bits).sum(axis=1, dtype=np.int64)
        np.save(work / "ref_model_order.npy", descending_order_ref(popcounts))
        return {"model_accuracy_min": int(popcounts.min()),
                "model_accuracy_max": int(popcounts.max())}

    def open(self, work: Path) -> None:
        import lleval.cli

        self.cli = lleval.cli
        self.cache = work / "cache.llbc"
        self.report = work / "rank.json"
        self.grown = work / "grown.llbc"
        self.log = work / "oracle.log"
        self.oracle_sh = Path(__file__).resolve().parent / "oracle.sh"
        self.columns = np.load(work / "columns.npy")
        self.ref_order = np.load(work / "ref_model_order.npy")

    def prepare(self, i: int) -> dict:
        column = self.columns[i % self.new_samples]
        self.log.write_text("")
        answers = " ".join("1" if v else "0" for v in column)
        return {"column": column,
                "oracle_cmd": f"sh {self.oracle_sh} {self.log} {answers}"}

    def run(self, prep: dict, tracer) -> int:
        argv = ["insert-sample", "--cache", str(self.cache),
                "--oracle-cmd", prep["oracle_cmd"], "--budget", str(self.budget),
                "--report", str(self.report), "--append-out", str(self.grown)]
        return self.cli.main(argv)

    def check(self, prep: dict, rc: int) -> tuple[bool, dict]:
        import lleval

        asked = [int(line) for line in self.log.read_text().split()]
        info = {"oracle_calls": len(asked), "oracle_cmd_calls": len(asked)}
        if rc != 0:
            info["error"] = f"insert-sample exited {rc}"
            return False, info
        k, positions = cut_ref(prep["column"][self.ref_order], self.budget)
        expected = np.zeros(self.m, dtype=bool)
        expected[self.ref_order[:k]] = True
        problems = []
        if asked != self.ref_order[positions].tolist():
            problems.append(f"oracle asked {asked}")
        rank = json.loads(self.report.read_text())["difficulty_rank"]
        if rank != k:
            problems.append(f"difficulty_rank {rank}, reference {k}")
        grown = lleval.load_cache(self.grown)
        n = self.n
        if (grown.num_models, grown.num_samples) != (self.m, n + 1):
            problems.append("grown cache has the wrong shape")
        else:
            old = read_llbc_bits(self.cache)
            low = (1 << (n % 8)) - 1
            last = (grown.bits[:, n // 8] >> (n % 8)) & 1
            if not (np.array_equal(grown.bits[:, : n // 8], old[:, : n // 8])
                    and (n % 8 == 0 or np.array_equal(
                        grown.bits[:, n // 8] & low, old[:, n // 8]))):
                problems.append("grown cache changed existing columns")
            if not np.array_equal(last.astype(bool), expected):
                problems.append("grown cache's last column differs")
        if problems:
            info["error"] = "; ".join(problems)
        return not problems, info

    def computed_bytes(self) -> dict:
        m, n = self.m, self.n
        return {"llbc_read": _LLBC_HEADER.size + m * ((n + 7) // 8),
                "transpose_dense": 2 * m * n,
                "transposed_column_sums_packed_read": n * ((m + 7) // 8),
                "llbc_written": _LLBC_HEADER.size + m * ((n + 8) // 8)}


class Sweep:
    """The README `simulate` sweep: generator, method, baseline, decay fit."""

    name = "sweep"
    sizes = {"full": {"models": 200, "holdout": 100, "samples": 100_000},
             "tiny": {"models": 20, "holdout": 4, "samples": 40_000}}

    def __init__(self, size: dict, seed: int) -> None:
        self.models, self.holdout = size["models"], size["holdout"]
        self.samples = size["samples"]
        self.seed = seed

    def setup(self, work: Path) -> None:
        import lleval  # noqa: F401  (the set-up a user pays: interpreter and imports)

        (work / "sweep").mkdir(exist_ok=True)

    def references(self, work: Path, ctx: None) -> dict:
        return {}

    def open(self, work: Path) -> None:
        import lleval.cli

        self.cli = lleval.cli
        self.out = work / "sweep"

    def prepare(self, i: int) -> int:
        return self.seed * 1000 + i

    def run(self, seed: int, tracer) -> int:
        argv = ["simulate", "--models", str(self.models),
                "--holdout", str(self.holdout), "--samples", str(self.samples),
                "--tau", "0.2", "--noise", "0.05", "--seed", str(seed),
                "--out", str(self.out)]
        return self.cli.main(argv)

    def check(self, seed: int, rc: int) -> tuple[bool, dict]:
        if rc != 0:
            return False, {"error": f"simulate exited {rc}"}
        summary = json.loads((self.out / "summary.json").read_text())
        curve = summary["curve"]
        values = [v for row in curve for key, v in row.items() if key != "budget"]
        values += [row["mae"] for row in summary["baseline"]]
        ok = (summary["budgets"] == list(PAPER_BUDGETS)
              and [row["budget"] for row in curve] == list(PAPER_BUDGETS)
              and all(0.0 <= v <= 1.0 for v in values))
        info = {"mae": curve[PAPER_BUDGETS.index(MAE_BUDGET)]["mae"]} if ok else {}
        if not ok:
            info["error"] = "summary.json budgets or curve values out of range"
        return ok, info

    def computed_bytes(self) -> dict:
        rows = self.models + self.holdout
        return {"generated_packed": rows * ((self.samples + 7) // 8),
                "baseline_row_unpacks": self.holdout * len(PAPER_BUDGETS)
                * self.samples}


def _ranking_refs(work: Path, bits: np.ndarray, n: int) -> dict:
    sums = column_sums_ref(bits, n)
    order = descending_order_ref(sums)
    np.save(work / "ref_order.npy", order.astype(np.int32))
    np.save(work / "ref_sums.npy", sums[order].astype(np.int32))
    return {"column_sum_min": int(sums.min()), "column_sum_max": int(sums.max())}


WORKLOADS = {cls.name: cls for cls in (RankPaper, EvalStream, InsertSample, Sweep)}

