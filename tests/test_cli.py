"""End-to-end command flows, exit codes, and artifact idempotency."""

import json
import sys

import numpy as np
import pytest

from lleval import load_cache
from lleval.cli import main


def write_matrix_csv(path, dense):
    path.write_text("\n".join(",".join(str(int(v)) for v in row) for row in dense) + "\n")


def write_vector(path, vec):
    path.write_text(",".join(str(int(v)) for v in vec) + "\n")


@pytest.fixture
def small_setup(tmp_path):
    rng = np.random.default_rng(90)
    dense = rng.random((12, 60)) < 0.6
    csv_path = tmp_path / "matrix.csv"
    write_matrix_csv(csv_path, dense)
    cache_path = tmp_path / "cache.llbc"
    perm_path = tmp_path / "sorted.llpm"
    assert main(["import", "--csv", str(csv_path), "--out", str(cache_path)]) == 0
    assert main(["sort", "--cache", str(cache_path), "--out", str(perm_path)]) == 0
    return tmp_path, dense, cache_path, perm_path


class TestImport:
    def test_round_trip(self, tmp_path):
        csv_path = tmp_path / "m.csv"
        csv_path.write_text("1,0,1\n0,1,1\n")
        out = tmp_path / "c.llbc"
        assert main(["import", "--csv", str(csv_path), "--out", str(out)]) == 0
        cache = load_cache(out)
        assert np.array_equal(
            cache.to_dense(), [[True, False, True], [False, True, True]]
        )

    def test_malformed_csv_names_the_row(self, tmp_path, capsys):
        csv_path = tmp_path / "m.csv"
        csv_path.write_text("1,0\n1\n")
        out = tmp_path / "c.llbc"
        rc = main(["import", "--csv", str(csv_path), "--out", str(out)])
        assert rc != 0
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "row 2" in err
        assert err.count("\n") == 1  # one-line diagnostic

    def test_missing_file(self, tmp_path, capsys):
        rc = main(
            ["import", "--csv", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "c")]
        )
        assert rc != 0
        assert "error:" in capsys.readouterr().err


class TestSort:
    def test_writes_permutation_and_sums(self, small_setup):
        tmp_path, dense, _, perm_path = small_setup
        from lleval import load_permutation, load_sums

        perm = load_permutation(perm_path)
        sums = load_sums(perm_path.with_suffix(".llsm"))
        assert len(perm) == 60
        assert np.all(np.diff(sums) <= 0)
        assert np.array_equal(
            sums, dense.sum(axis=0)[perm.order].astype(float)
        )

    def test_recursive_and_conf_methods(self, tmp_path):
        conf = np.array([[0.9, 0.4, 0.6], [0.2, 0.8, 0.7]])
        csv_path = tmp_path / "m.csv"
        csv_path.write_text("\n".join(",".join(str(v) for v in r) for r in conf))
        cache_path = tmp_path / "c.llbc"
        assert (
            main(
                [
                    "import",
                    "--csv",
                    str(csv_path),
                    "--out",
                    str(cache_path),
                    "--confidence",
                ]
            )
            == 0
        )
        for method in ("sum", "conf", "recursive"):
            out = tmp_path / f"{method}.llpm"
            assert (
                main(
                    [
                        "sort",
                        "--cache",
                        str(cache_path),
                        "--method",
                        method,
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            assert out.exists()


class TestEvalModel:
    def test_full_budget_mae_equals_aleatoric(self, small_setup):
        tmp_path, dense, cache_path, perm_path = small_setup
        rng = np.random.default_rng(91)
        truth = rng.random(60) < 0.5
        truth_path = tmp_path / "truth.csv"
        write_vector(truth_path, truth)
        out_dir = tmp_path / "eval"
        rc = main(
            [
                "eval-model",
                "--perm",
                str(perm_path),
                "--cache",
                str(cache_path),
                "--truth",
                str(truth_path),
                "--budgets",
                "60",
                "--out",
                str(out_dir),
            ]
        )
        assert rc == 0
        report = json.loads((out_dir / "report_60.json").read_text())
        assert report["epistemic"] == 0.0
        assert report["mae"] == report["aleatoric"]
        assert (out_dir / "curve.csv").exists()
        curve = (out_dir / "curve.csv").read_text().splitlines()
        assert curve[0] == "budget,mae,agg_error,aleatoric,epistemic"

    def test_default_budget_grid_clipped(self, small_setup):
        tmp_path, dense, cache_path, perm_path = small_setup
        truth_path = tmp_path / "truth.csv"
        write_vector(truth_path, np.ones(60, dtype=bool))
        out_dir = tmp_path / "eval_default"
        rc = main(
            [
                "eval-model",
                "--perm",
                str(perm_path),
                "--truth",
                str(truth_path),
                "--out",
                str(out_dir),
            ]
        )
        assert rc == 0
        budgets = sorted(
            int(p.stem.split("_")[1]) for p in out_dir.glob("report_*.json")
        )
        assert budgets == [8, 16, 32]  # grid clipped to n=60

    def test_idempotent_outputs(self, small_setup):
        tmp_path, dense, cache_path, perm_path = small_setup
        truth_path = tmp_path / "truth.csv"
        write_vector(truth_path, np.ones(60, dtype=bool))
        args = [
            "eval-model",
            "--perm",
            str(perm_path),
            "--truth",
            str(truth_path),
            "--budgets",
            "8,32",
            "--strategy",
            "random",
            "--seed",
            "5",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        for name in ("prediction_8.json", "report_8.json", "curve.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_oracle_command(self, small_setup):
        tmp_path, dense, cache_path, perm_path = small_setup
        out_dir = tmp_path / "oracle_eval"
        oracle = f"{sys.executable} -c \"import sys; print(1 if int(sys.argv[1]) % 2 else 0)\""
        rc = main(
            [
                "eval-model",
                "--perm",
                str(perm_path),
                "--oracle-cmd",
                oracle,
                "--budgets",
                "4",
                "--out",
                str(out_dir),
            ]
        )
        assert rc == 0
        record = json.loads((out_dir / "prediction_4.json").read_text())
        assert record["total"] == 60
        assert len(record["positions"]) == 4

    def test_requires_truth_or_oracle(self, small_setup, capsys):
        tmp_path, dense, cache_path, perm_path = small_setup
        rc = main(
            ["eval-model", "--perm", str(perm_path), "--out", str(tmp_path / "x")]
        )
        assert rc == 2
        assert "truth" in capsys.readouterr().err


class TestInsertSample:
    def test_rank_estimate_and_append(self, small_setup):
        tmp_path, dense, cache_path, perm_path = small_setup
        outcomes = np.ones(12, dtype=bool)  # every model solves it: easiest
        outcomes_path = tmp_path / "col.csv"
        write_vector(outcomes_path, outcomes)
        report_path = tmp_path / "rank.json"
        appended_path = tmp_path / "grown.llbc"
        rc = main(
            [
                "insert-sample",
                "--cache",
                str(cache_path),
                "--outcomes",
                str(outcomes_path),
                "--budget",
                "12",
                "--report",
                str(report_path),
                "--append-out",
                str(appended_path),
            ]
        )
        assert rc == 0
        record = json.loads(report_path.read_text())
        assert record["total"] == 12
        assert record["threshold"] == 12
        assert record["difficulty_rank"] == 12
        assert record["report"]["epistemic"] == 0.0
        grown = load_cache(appended_path)
        assert grown.num_samples == 61
        assert np.array_equal(grown.column(60), outcomes)

    def test_partial_budget(self, small_setup):
        tmp_path, dense, cache_path, perm_path = small_setup
        outcomes_path = tmp_path / "col.csv"
        write_vector(outcomes_path, np.zeros(12, dtype=bool))
        rc = main(
            [
                "insert-sample",
                "--cache",
                str(cache_path),
                "--outcomes",
                str(outcomes_path),
                "--budget",
                "4",
                "--report",
                str(tmp_path / "r.json"),
            ]
        )
        assert rc == 0
        record = json.loads((tmp_path / "r.json").read_text())
        assert record["threshold"] == 0  # hardest possible sample


    def test_append_onto_the_input_cache(self, small_setup):
        tmp_path, dense, cache_path, perm_path = small_setup
        outcomes_path = tmp_path / "col.csv"
        write_vector(outcomes_path, dense[:, 0] ^ (np.arange(12) % 5 == 0))
        args = ["insert-sample", "--cache", str(cache_path),
                "--outcomes", str(outcomes_path), "--budget", "5"]
        separate = tmp_path / "grown.llbc"
        assert main(args + ["--append-out", str(separate)]) == 0
        # the input is memory-mapped while the grown cache replaces it
        assert main(args + ["--append-out", str(cache_path)]) == 0
        grown = load_cache(cache_path)
        assert grown == load_cache(separate)
        assert np.array_equal(grown.to_dense()[:, :60], dense)
        assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]


class TestSimulate:
    def test_smoke_writes_all_artifacts(self, tmp_path):
        out_dir = tmp_path / "sim"
        rc = main(
            [
                "simulate",
                "--models",
                "50",
                "--holdout",
                "12",
                "--samples",
                "2000",
                "--tau",
                "0.2",
                "--noise",
                "0.05",
                "--seed",
                "3",
                "--out",
                str(out_dir),
            ]
        )
        assert rc == 0
        for name in ("curve.csv", "baseline.csv", "fit.json", "summary.json"):
            assert (out_dir / name).exists(), name
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["budgets"] == [8, 16, 32, 64, 128, 256, 512, 1024]
        assert len(summary["curve"]) == len(summary["budgets"])
        # epistemic medians trend downward in budget: per-point medians can
        # jitter (flat score regions), but the curve's tail stays below its head
        epi = [row["epistemic"] for row in summary["curve"]]
        assert epi[-1] <= epi[0] + 1e-9
        assert max(epi[len(epi) // 2 :]) <= epi[0] + 1e-9

    def test_spec_json_and_save_cache(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "num_models": 30,
                    "num_samples": 400,
                    "ability_range": [0.0, 1.0],
                    "temperature": 0.1,
                    "noise": 0.05,
                    "seed": 4,
                }
            )
        )
        out_dir = tmp_path / "sim"
        cache_path = tmp_path / "generated.llbc"
        rc = main(
            [
                "simulate",
                "--spec-json",
                str(spec_path),
                "--holdout",
                "10",
                "--budgets",
                "8,16,32,64",
                "--save-cache",
                str(cache_path),
                "--out",
                str(out_dir),
            ]
        )
        assert rc == 0
        cache = load_cache(cache_path)
        assert (cache.num_models, cache.num_samples) == (30, 400)
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["sort_models"] == 20
        assert summary["holdout_models"] == 10

    def test_idempotent_and_thread_invariant(self, tmp_path, monkeypatch):
        args = [
            "simulate",
            "--models",
            "20",
            "--holdout",
            "6",
            "--samples",
            "500",
            "--seed",
            "2",
            "--budgets",
            "8,32,128",
        ]
        monkeypatch.setenv("LLEVAL_THREADS", "1")
        assert main(args + ["--out", str(tmp_path / "serial")]) == 0
        monkeypatch.setenv("LLEVAL_THREADS", "4")
        assert main(args + ["--out", str(tmp_path / "threaded")]) == 0
        for name in ("curve.csv", "baseline.csv", "fit.json", "summary.json"):
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "threaded" / name
            ).read_bytes()


class TestMetricsCommand:
    def test_score_prediction_file(self, small_setup, capsys):
        tmp_path, dense, cache_path, perm_path = small_setup
        truth = np.ones(60, dtype=bool)
        truth_path = tmp_path / "truth.csv"
        write_vector(truth_path, truth)
        out_dir = tmp_path / "eval"
        assert (
            main(
                [
                    "eval-model",
                    "--perm",
                    str(perm_path),
                    "--truth",
                    str(truth_path),
                    "--budgets",
                    "16",
                    "--out",
                    str(out_dir),
                ]
            )
            == 0
        )
        capsys.readouterr()
        rc = main(
            [
                "metrics",
                "--truth",
                str(truth_path),
                "--pred",
                str(out_dir / "prediction_16.json"),
                "--perm",
                str(perm_path),
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        stored = json.loads((out_dir / "report_16.json").read_text())
        assert payload == stored

    def test_corrupt_cache_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.llbc"
        bad.write_bytes(b"JUNKJUNKJUNK")
        rc = main(["sort", "--cache", str(bad), "--out", str(tmp_path / "p.llpm")])
        assert rc == 1
        assert "magic" in capsys.readouterr().err
