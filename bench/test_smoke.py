"""Smoke test of the benchmark harness at tiny input sizes.

    python3 -m pytest -q bench/test_smoke.py

Checks that BENCHMARK.json keeps to the benchmark contract's limits, that
every workload emits every metric BENCHMARK.json names with its unit, that
the oracle counts are exact, that the spans account for the traced op time
(the root span's own time is small), that a wrong
program output is caught, and that the benchmark refuses to run without the
program's source.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_keeps_to_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["command"] == ["python3", "bench/run.py"]
    assert BENCH["paths"] == ["bench"]
    assert 1 <= BENCH["run_seconds"] <= 60
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    specs = {m["name"]: m for m in BENCH["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in specs.values())
    assert specs["setup_s"]["bound"] == max(m["bound"] for m in specs.values())
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    names = [m["name"] for m in metrics] + WORKLOAD_NAMES
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0, m["name"]
    expected_calls = {"eval-stream": sum(workloads.PAPER_BUDGETS), "insert-sample": 16}
    assert info["oracle_calls_per_op"] == expected_calls.get(workload, 0)
    assert info["env"]["LLEVAL_THREADS"] == run.THREADS
    if trace:
        # time inside the op that no wrapped function accounts for
        for op in info["traced_ops"]:
            assert op["op_self_ms"] < 0.02 * op["latency_ms"], op


def test_a_wrong_permutation_fails_the_check(tmp_path):
    wl = workloads.RankPaper(workloads.RankPaper.sizes["tiny"], seed=3)
    wl.references(tmp_path, wl.setup(tmp_path))
    wl.open(tmp_path)
    assert wl.check(None, wl.run(None, None)) == (True, {})

    import lleval

    order = lleval.load_permutation(wl.out).order.copy()
    order[[0, -1]] = order[[-1, 0]]
    lleval.save_permutation(lleval.Permutation(order), wl.out)
    ok, info = wl.check(None, 0)
    assert not ok and "differ" in info["error"]


def test_a_wrong_rank_fails_the_check(tmp_path):
    wl = workloads.InsertSample(workloads.InsertSample.sizes["tiny"], seed=3)
    wl.references(tmp_path, wl.setup(tmp_path))
    wl.open(tmp_path)
    prep = wl.prepare(0)
    assert wl.check(prep, wl.run(prep, None))[0]

    record = json.loads(wl.report.read_text())
    record["difficulty_rank"] += 1
    wl.report.write_text(json.dumps(record))
    ok, info = wl.check(prep, 0)
    assert not ok and "difficulty_rank" in info["error"]


def test_same_seed_same_inputs(tmp_path):
    def inputs(seed):
        bits = workloads.EvalStream(workloads.EvalStream.sizes["tiny"], seed).setup(tmp_path)
        return bits, np.load(tmp_path / "truth.npy")

    first = inputs(8)
    assert all(np.array_equal(a, b) for a, b in zip(inputs(8), first))
    assert not np.array_equal(inputs(9)[0], first[0])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
