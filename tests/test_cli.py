"""End-to-end command flows, exit codes, and artifact idempotency."""

import hashlib
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from _child import PEAK, run_child, traced
from _oracles import append_column
from lleval import (
    AccuracyCache,
    SynthSpec,
    error_decomposition,
    evaluate,
    generate,
    load_cache,
    save_cache,
    save_sums,
    sort_by_sum,
    sort_models_by_sum,
)
import lleval
from lleval import cli
from lleval.cli import _derived_seed, main


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

    def test_sum_and_conf_methods(self, tmp_path):
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
        for method in ("sum", "conf"):
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


    def test_paper_scale_sort_keeps_two_arrays(self, tmp_path, capsys):
        m, n = 500, 1_700_000
        rng = np.random.default_rng(21)
        bits = rng.integers(0, 256, size=(m, n // 8), dtype=np.uint8)
        cache_path, out = tmp_path / "paper.llbc", tmp_path / "paper.llpm"
        save_cache(AccuracyCache(m, n, bits), cache_path)
        del bits
        with traced() as memory:
            rc = main(["sort", "--cache", str(cache_path), "--out", str(out)])
            _, peak = memory()
        assert rc == 0
        # int32 totals and an int32 order; the memory-mapped cache is untraced
        assert peak <= 8 * n + (4 << 20)
        from lleval import load_permutation, load_sums

        sums = load_sums(out.with_suffix(".llsm"))
        assert len(load_permutation(out)) == sums.size == n
        assert np.all(np.diff(sums) <= 0)

    def test_mapped_passes_keep_the_file_out_of_rss(self, tmp_path):
        """A child's own peak RSS while ``lleval sort`` ranks a 64 MB mapped
        cache stays below the file's size plus the child's RSS once it has
        imported lleval.  ``load_cache``'s padding check (n % 8 != 0 here)
        and then ``insert-sample --append-out``, which reads every row twice,
        each add under half the file."""
        m, n = 320, 1_680_005  # 210,001-byte rows
        rng = np.random.default_rng(24)
        bits = rng.integers(0, 256, size=(m, (n + 7) // 8), dtype=np.uint8)
        bits[:, -1] &= (1 << n % 8) - 1
        save_cache(AccuracyCache(m, n, bits), tmp_path / "big.llbc")
        del bits
        write_vector(tmp_path / "col.csv", rng.random(m) < 0.5)
        size = (tmp_path / "big.llbc").stat().st_size
        assert size >= 64 << 20
        child = PEAK + (
            "from lleval import load_cache\n"
            "from lleval.cli import main\n"
            "cache, out = sys.argv[1] + '/big.llbc', sys.argv[1] + '/big.llpm'\n"
            "peaks = [peak()]\n"
            "load_cache(cache)\n"
            "peaks.append(peak())\n"
            "rcs = [main(['sort', '--cache', cache, '--out', out])]\n"
            "peaks.append(peak())\n"
            "rcs.append(main(['insert-sample', '--cache', cache, '--budget', '16',\n"
            "                 '--outcomes', sys.argv[1] + '/col.csv',\n"
            "                 '--report', sys.argv[1] + '/r.json',\n"
            "                 '--append-out', sys.argv[1] + '/grown.llbc']))\n"
            "print(*rcs, *peaks, peak())\n"
        )
        *rcs, imported, loaded, ranked, inserted = run_child(child, tmp_path)
        assert rcs == [0, 0]
        assert loaded - imported < size // 2
        assert ranked < imported + size
        assert inserted - imported < size // 2
        assert load_cache(tmp_path / "grown.llbc").num_samples == n + 1

    def test_conf_sort_keeps_the_block_out_of_rss(self, tmp_path):
        """``lleval sort --method conf`` on a mapped 100 x 200,000 cache,
        whose confidence block is 80 MB, adds under half the file to the
        child's peak RSS: it sums a band of rows at a time."""
        m, n = 100, 200_000
        conf = np.random.default_rng(25).random((m, n), dtype=np.float32)
        save_cache(AccuracyCache.from_dense(conf >= 0.5, conf), tmp_path / "conf.llbc")
        want = conf.sum(axis=0, dtype=np.float64)
        del conf
        size = (tmp_path / "conf.llbc").stat().st_size
        child = PEAK + (
            "from lleval.cli import main\n"
            "imported = peak()\n"
            "rc = main(['sort', '--method', 'conf', '--cache', sys.argv[1] + '/conf.llbc',\n"
            "           '--out', sys.argv[1] + '/conf.llpm'])\n"
            "print(rc, imported, peak())\n"
        )
        rc, imported, ranked = run_child(child, tmp_path)
        assert rc == 0
        assert ranked - imported < size // 2
        from lleval import load_permutation, load_sums

        order = load_permutation(tmp_path / "conf.llpm").order
        assert np.array_equal(order, np.lexsort((np.arange(n), -want)))
        assert np.array_equal(load_sums(tmp_path / "conf.llsm"), want[order])


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

    @pytest.mark.parametrize("strategy", ["uniform", "random"])
    def test_runs_without_the_totals_sidecar(self, small_setup, strategy):
        tmp_path, dense, cache_path, perm_path = small_setup
        truth_path = tmp_path / "truth.csv"
        write_vector(truth_path, dense[3])
        alone = tmp_path / "alone" / "sorted.llpm"
        alone.parent.mkdir()
        alone.write_bytes(perm_path.read_bytes())
        args = ["eval-model", "--truth", str(truth_path), "--budgets", "8,60",
                "--strategy", strategy, "--seed", "4"]
        assert main(args + ["--perm", str(perm_path), "--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--perm", str(alone), "--out", str(tmp_path / "b")]) == 0
        assert not alone.with_suffix(".llsm").exists()
        for name in ("prediction_8.json", "report_60.json", "curve.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_paper_scale_truth_memory(self, tmp_path):
        """``eval-model --truth`` at n = 1.7M peaks at about 14 B/sample: the
        int64 order (8n) and, while the truth file is read, its bytes and
        masks (about 6n).  Not the float64 totals sidecar (8n more), which
        it never reads."""
        from lleval import Permutation, save_permutation

        n = 1_700_000
        rng = np.random.default_rng(94)
        perm_path, truth_path = tmp_path / "paper.llpm", tmp_path / "truth.txt"
        save_permutation(Permutation(rng.permutation(n)), perm_path)
        save_sums(np.zeros(n), perm_path.with_suffix(".llsm"))
        truth_path.write_bytes(np.where(rng.random(n) < 0.5, b"1\n", b"0\n").tobytes())
        with traced() as memory:
            rc = main(["eval-model", "--perm", str(perm_path), "--truth", str(truth_path),
                       "--out", str(tmp_path / "eval")])
            _, peak = memory()
        assert rc == 0
        assert len(list((tmp_path / "eval").glob("report_*.json"))) == 13
        assert peak <= 16 * n + (4 << 20)

    @pytest.mark.parametrize("command", ["eval-model", "simulate"])
    @pytest.mark.parametrize("token", ["x", "8.5"])
    def test_bad_budget_names_the_flag_and_token(self, small_setup, capsys, command, token):
        tmp_path, dense, cache_path, perm_path = small_setup
        if command == "eval-model":
            truth_path = tmp_path / "truth.csv"
            write_vector(truth_path, dense[0])
            argv = ["eval-model", "--perm", str(perm_path), "--truth", str(truth_path)]
        else:
            argv = ["simulate", "--models", "4", "--holdout", "1", "--samples", "60"]
        out = tmp_path / "out"
        assert main(argv + ["--budgets", f"8, {token} ,16", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: --budgets has {token!r}, not a whole number\n"
        )
        assert not out.exists()


class TestUsageErrors:
    @pytest.mark.parametrize(
        "args",
        [
            ["eval-model", "--perm", "{perm}", "--truth", "{row}", "--out", "{out}"],
            ["insert-sample", "--cache", "{cache}", "--outcomes", "{col}",
             "--budget", "4"],
        ],
        ids=["eval-model", "insert-sample"],
    )
    def test_truth_with_oracle_rejected(self, small_setup, capsys, args):
        tmp_path, dense, cache_path, perm_path = small_setup
        paths = {"perm": perm_path, "cache": cache_path, "out": tmp_path / "out"}
        for name, length in (("row", dense.shape[1]), ("col", dense.shape[0])):
            paths[name] = tmp_path / f"{name}.csv"
            write_vector(paths[name], np.ones(length, dtype=bool))
        asked = tmp_path / "asked"
        touch = f"import pathlib; pathlib.Path('{asked}').touch(); print(1)"
        oracle = f'{sys.executable} -c "{touch}"'
        argv = [a.format(**paths) for a in args] + ["--oracle-cmd", oracle]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not allowed" in err
        assert not asked.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["rank"],
            ["sort", "--cache", "c.llbc"],
            ["simulate", "--holdout", "1", "--out", "o"],
            ["simulate", "--spec-json", "s.json", "--models", "9", "--holdout", "1",
             "--samples", "8", "--out", "o"],
            # sort offers neither a recursive method nor --depth
            ["sort", "--cache", "c.llbc", "--out", "o.llpm", "--method", "recursive"],
            ["sort", "--cache", "c.llbc", "--out", "o.llpm", "--depth", "2"],
        ],
    )
    def test_one_line(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["eval-model", "insert-sample"])
    def test_negative_seed_rejected_before_any_query(self, small_setup, capsys, command):
        tmp_path, dense, cache_path, perm_path = small_setup
        asked = tmp_path / "asked"
        touch = f"import pathlib; pathlib.Path('{asked}').touch(); print(1)"
        if command == "eval-model":
            argv = ["eval-model", "--perm", str(perm_path), "--budgets", "8",
                    "--out", str(tmp_path / "out")]
        else:
            argv = ["insert-sample", "--cache", str(cache_path), "--budget", "4"]
        argv += ["--oracle-cmd", f'{sys.executable} -c "{touch}"',
                 "--strategy", "random", "--seed", "-1"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: --seed must be non-negative, not -1\n"
        assert not asked.exists()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags, err",
        [
            (["--seed", "-1"], "--seed must be non-negative, not -1"),
            (["--tau", "0"], "--tau must be positive, not 0.0"),
            (["--noise", "0.7"], "--noise must lie in [0, 0.5], not 0.7"),
            (["--ability-lo", "2", "--ability-hi", "1"],
             "--ability-lo/--ability-hi must be ordered, not (2.0, 1.0)"),
            (["--samples", "-1"], "--samples must be non-negative, not -1"),
        ],
        ids=["seed", "tau", "noise", "ability", "samples"],
    )
    def test_simulate_names_the_rejected_flag(self, tmp_path, capsys, flags, err):
        out = tmp_path / "sim"
        argv = ["simulate", "--models", "3", "--holdout", "1", "--samples", "50",
                "--out", str(out), *flags]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        assert main(["sort", "--help"]) == 0
        assert "--method" in capsys.readouterr().out

    def test_eval_model_takes_no_cache(self, small_setup, capsys):
        """A new model is evaluated from the permutation alone; a cache
        beside it could only be paired with it unchecked."""
        tmp_path, dense, cache_path, perm_path = small_setup
        write_vector(tmp_path / "truth.csv", dense[0])
        assert main(["eval-model", "--perm", str(perm_path), "--cache", str(cache_path),
                     "--truth", str(tmp_path / "truth.csv"),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unrecognized arguments: --cache") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_budgets_naming_none_rejected(self, small_setup, capsys):
        tmp_path, dense, cache_path, perm_path = small_setup
        write_vector(tmp_path / "truth.csv", dense[0])
        assert main(["eval-model", "--perm", str(perm_path), "--truth",
                     str(tmp_path / "truth.csv"), "--budgets", ",",
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: no budgets to evaluate\n"
        assert not (tmp_path / "out").exists()

    def test_insert_sample_into_a_cache_of_no_models(self, tmp_path, capsys):
        cache_path = tmp_path / "empty.llbc"
        save_cache(AccuracyCache.from_dense(np.zeros((0, 5), dtype=bool)), cache_path)
        write_vector(tmp_path / "col.csv", [])
        assert main(["insert-sample", "--cache", str(cache_path), "--outcomes",
                     str(tmp_path / "col.csv"), "--budget", "1"]) == 1
        assert capsys.readouterr().err == "error: cache has no models to rank\n"

    @pytest.mark.parametrize("flag", ["--holdout", "--models"])
    def test_simulate_needs_a_model_on_each_side(self, tmp_path, capsys, flag):
        counts = {"--models": "3", "--holdout": "1", flag: "0"}
        argv = ["simulate", *[a for pair in counts.items() for a in pair],
                "--samples", "50", "--out", str(tmp_path / "sim")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {flag} must be at least 1\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, status",
        [(["--help"], 0), (["rank"], 2),
         (["import", "--csv", "{d}/absent.csv", "--out", "{d}/c.llbc"], 1)],
        ids=["help", "usage-error", "bad-input"],
    )
    def test_module_entry_point_exits_with_the_status(self, tmp_path, argv, status):
        src = os.path.dirname(os.path.dirname(lleval.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "lleval.cli", *(a.format(d=tmp_path) for a in argv)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == status
        if status:
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


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
        assert np.array_equal(grown.to_dense()[:, 60], outcomes)

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

    def test_full_disk_is_one_error_line(self, small_setup, monkeypatch, capsys):
        """No space for the grown cache: one ``error:`` line, exit 1, and the
        input it was to replace is kept whole."""
        import errno

        tmp_path, dense, cache_path, perm_path = small_setup
        outcomes_path = tmp_path / "col.csv"
        write_vector(outcomes_path, dense[:, 0])
        old = cache_path.read_bytes()
        capsys.readouterr()

        def full(fd, offset, length):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "posix_fallocate", full, raising=False)
        rc = main(["insert-sample", "--cache", str(cache_path), "--outcomes",
                   str(outcomes_path), "--budget", "5", "--append-out", str(cache_path)])
        monkeypatch.undo()
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert os.strerror(errno.ENOSPC) in err
        assert cache_path.read_bytes() == old
        assert load_cache(cache_path).num_samples == 60
        assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]

    @pytest.mark.parametrize("confidence", [False, True])
    @pytest.mark.parametrize("n", [16, 19, 23])  # n % 8 in {0, 3, 7}
    def test_streamed_append_out_is_save_of_append_column(self, tmp_path, n, confidence):
        rng = np.random.default_rng(n)
        conf = rng.random((9, n)).astype(np.float32)
        cache = AccuracyCache.from_dense(conf >= 0.5, conf if confidence else None)
        cache_path = tmp_path / "cache.llbc"
        save_cache(cache, cache_path)
        outcomes_path = tmp_path / "col.csv"
        write_vector(outcomes_path, rng.random(9) < 0.5)
        grown_path, report_path = tmp_path / "grown.llbc", tmp_path / "r.json"
        assert main(["insert-sample", "--cache", str(cache_path),
                     "--outcomes", str(outcomes_path), "--budget", "4",
                     "--report", str(report_path),
                     "--append-out", str(grown_path)]) == 0
        k = json.loads(report_path.read_text())["difficulty_rank"]
        column = np.zeros(9, dtype=bool)
        column[sort_models_by_sum(cache).permutation.order[:k]] = True
        want = tmp_path / "want.llbc"
        save_cache(append_column(cache, column, column.astype(np.float32)
                                 if confidence else None), want)
        assert grown_path.read_bytes() == want.read_bytes()

    def test_append_out_memory_is_one_chunk(self, tmp_path):
        """Ranking the models of a 16.8 MB cache and writing it grown hold
        one chunk and length-m arrays, never the cache."""
        from lleval.cache import _CHUNK_BYTES

        m, n = 128, 1_048_579
        rng = np.random.default_rng(93)
        bits = rng.integers(0, 256, size=(m, (n + 7) // 8), dtype=np.uint8)
        bits[:, -1] &= (1 << n % 8) - 1
        assert bits.nbytes >= 16 << 20
        cache_path = tmp_path / "cache.llbc"
        save_cache(AccuracyCache(m, n, bits), cache_path)
        del bits
        outcomes_path = tmp_path / "col.csv"
        write_vector(outcomes_path, rng.random(m) < 0.5)
        argv = ["insert-sample", "--cache", str(cache_path),
                "--outcomes", str(outcomes_path), "--budget", "16",
                "--report", str(tmp_path / "r.json"),
                "--append-out", str(tmp_path / "grown.llbc")]
        with traced() as memory:
            rc = main(argv)
            _, peak = memory()
        assert rc == 0
        assert load_cache(tmp_path / "grown.llbc").num_samples == n + 1
        # one chunk at a time; the cache is 16.8 MB
        assert peak <= 1024 * m + _CHUNK_BYTES + (1 << 20)

    def test_append_to_confidence_cache(self, tmp_path):
        rng = np.random.default_rng(91)
        conf = rng.random((9, 20))
        csv_path = tmp_path / "conf.csv"
        csv_path.write_text(
            "\n".join(",".join(f"{v:.3f}" for v in row) for row in conf) + "\n"
        )
        cache_path = tmp_path / "conf.llbc"
        assert main(["import", "--csv", str(csv_path), "--out", str(cache_path),
                     "--confidence"]) == 0
        cache = load_cache(cache_path)
        outcomes = np.zeros(9, dtype=bool)
        outcomes[sort_models_by_sum(cache).permutation.order[:4]] = True
        outcomes_path = tmp_path / "col.csv"
        write_vector(outcomes_path, outcomes)
        grown_path = tmp_path / "grown.llbc"
        assert main(["insert-sample", "--cache", str(cache_path),
                     "--outcomes", str(outcomes_path), "--budget", "9",
                     "--report", str(tmp_path / "r.json"),
                     "--append-out", str(grown_path)]) == 0
        grown = load_cache(grown_path)
        assert np.array_equal(grown.to_dense()[:, 20], outcomes)
        assert np.array_equal(grown.confidence[:, 20], outcomes.astype(np.float32))
        assert np.array_equal(grown.confidence[:, :20], cache.confidence)
        assert np.array_equal(grown.confidence >= 0.5, grown.to_dense())


# ``sh SCRIPT LOG FAIL_AT A0 A1 ... INDEX``: logs INDEX, sleeps 10 ms, then
# exits 3 if this is call FAIL_AT (0: never) and prints answer A<INDEX> if not
SLOW_ORACLE = """log=$1 fail=$2
shift 2
eval "index=\\${$#}"
printf '%s\\n' "$index" >> "$log"
sleep 0.01
if [ "$(wc -l < "$log")" -eq "$fail" ]; then exit 3; fi
shift "$index"
printf '%s\\n' "$1"
"""


class TestAppendWhileAsking:
    """``insert-sample --oracle-cmd --append-out`` writes the grown cache
    while the oracle answers, and sets the new column once it is known."""

    def _oracle(self, tmp_path, answers, fail_at=0):
        script = tmp_path / "oracle.sh"
        script.write_text(SLOW_ORACLE)
        log = tmp_path / "asked.log"
        log.write_text("")
        words = " ".join("1" if a else "0" for a in answers)
        return log, f"sh {script} {log} {fail_at} {words}"

    @pytest.mark.parametrize("confidence", [False, True])
    @pytest.mark.parametrize("n", [64_000, 64_003])  # n % 8 in {0, 3}
    def test_grown_file_is_save_of_append_column(
        self, tmp_path, monkeypatch, n, confidence
    ):
        import lleval.cache

        rng = np.random.default_rng(n)
        conf = rng.random((40, n)).astype(np.float32)
        cache = AccuracyCache.from_dense(conf >= 0.5, conf if confidence else None)
        cache_path = tmp_path / "cache.llbc"
        save_cache(cache, cache_path)
        log, oracle = self._oracle(tmp_path, rng.random(40) < 0.5)
        # many chunks, so the rows are still being written as the oracle answers
        monkeypatch.setattr(lleval.cache, "_CHUNK_BYTES", 1 << 16)
        grown_path, report_path = tmp_path / "grown.llbc", tmp_path / "r.json"
        assert main(["insert-sample", "--cache", str(cache_path),
                     "--oracle-cmd", oracle, "--budget", "8",
                     "--report", str(report_path),
                     "--append-out", str(grown_path)]) == 0
        assert len(log.read_text().split()) == 8
        k = json.loads(report_path.read_text())["difficulty_rank"]
        column = np.zeros(40, dtype=bool)
        column[sort_models_by_sum(cache).permutation.order[:k]] = True
        want = tmp_path / "want.llbc"
        save_cache(append_column(cache, column, column.astype(np.float32)
                                 if confidence else None), want)
        assert grown_path.read_bytes() == want.read_bytes()

    def test_file_is_reserved_before_the_first_query(self, small_setup, monkeypatch):
        tmp_path, dense, cache_path, perm_path = small_setup
        grown_path = tmp_path / "new" / "grown.llbc"
        seen = []

        def oracle(command):
            def ask(indices):
                if not seen:
                    # in tmp_path, the nearest directory that exists
                    seen.extend(p.stat().st_size for p in tmp_path.glob(".*.tmp"))
                return [True] * indices.size
            return ask

        monkeypatch.setattr(cli, "_command_oracle", oracle)
        assert main(["insert-sample", "--cache", str(cache_path), "--oracle-cmd", "x",
                     "--budget", "5", "--append-out", str(grown_path)]) == 0
        assert seen == [grown_path.stat().st_size]

    @pytest.mark.parametrize("target", ["new", "cache"])
    def test_failing_oracle_leaves_no_trace(self, small_setup, capsys, target):
        tmp_path, dense, cache_path, perm_path = small_setup
        old = cache_path.read_bytes()
        before = sorted(tmp_path.rglob("*"))
        log, oracle = self._oracle(tmp_path, np.ones(12, dtype=bool), fail_at=5)
        grown_path = tmp_path / "new" / "g.llbc" if target == "new" else cache_path
        threads = threading.active_count()
        capsys.readouterr()
        assert main(["insert-sample", "--cache", str(cache_path), "--oracle-cmd", oracle,
                     "--budget", "8", "--append-out", str(grown_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: oracle command failed") and err.count("\n") == 1
        assert len(log.read_text().split()) == 5
        assert threading.active_count() == threads
        assert not list(tmp_path.rglob("*.tmp"))
        assert not (tmp_path / "new").exists()
        assert cache_path.read_bytes() == old
        assert load_cache(cache_path).num_samples == 60
        assert sorted(tmp_path.rglob("*")) == sorted(before + [log, log.parent / "oracle.sh"])

    def test_full_disk_costs_no_query(self, small_setup, monkeypatch, capsys):
        import errno

        tmp_path, dense, cache_path, perm_path = small_setup
        log, oracle = self._oracle(tmp_path, np.ones(12, dtype=bool))
        grown_path = tmp_path / "new" / "g.llbc"

        def full(fd, offset, length):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "posix_fallocate", full, raising=False)
        capsys.readouterr()
        rc = main(["insert-sample", "--cache", str(cache_path), "--oracle-cmd", oracle,
                   "--budget", "8", "--report", str(tmp_path / "r.json"),
                   "--append-out", str(grown_path)])
        monkeypatch.undo()
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        assert log.read_text() == ""
        assert not list(tmp_path.rglob("*.tmp"))
        assert not (tmp_path / "new").exists() and not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("spelling", ["P", "sub/../P"])
    def test_report_onto_the_append_out_file_is_refused(
        self, small_setup, monkeypatch, capsys, spelling
    ):
        """Two writes of one file: refused before the cache is read."""
        tmp_path, dense, cache_path, perm_path = small_setup
        log, oracle = self._oracle(tmp_path, np.ones(12, dtype=bool))
        loaded = []
        monkeypatch.setattr(cli, "load_cache", loaded.append)
        report_path = tmp_path / "P"
        capsys.readouterr()
        assert main(["insert-sample", "--cache", str(cache_path), "--oracle-cmd", oracle,
                     "--budget", "8", "--report", str(report_path),
                     "--append-out", str(tmp_path / spelling)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --report {report_path} is the --append-out file")
        assert err.count("\n") == 1
        assert loaded == [] and log.read_text() == ""
        assert not report_path.exists() and not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("budget", [0, 13])
    def test_budget_is_checked_before_the_file_is_reserved(
        self, small_setup, monkeypatch, capsys, budget
    ):
        tmp_path, dense, cache_path, perm_path = small_setup
        log, oracle = self._oracle(tmp_path, np.ones(12, dtype=bool))
        grown_path = tmp_path / "new" / "g.llbc"
        reserved = []
        monkeypatch.setattr(os, "posix_fallocate", lambda *args: reserved.append(args),
                            raising=False)
        capsys.readouterr()
        rc = main(["insert-sample", "--cache", str(cache_path), "--oracle-cmd", oracle,
                   "--budget", str(budget), "--report", str(tmp_path / "r.json"),
                   "--append-out", str(grown_path)])
        monkeypatch.undo()
        assert rc == 1
        assert capsys.readouterr().err == f"error: budget {budget} outside [1, 12]\n"
        assert reserved == [] and log.read_text() == ""
        assert not list(tmp_path.rglob("*.tmp"))
        assert not (tmp_path / "new").exists() and not (tmp_path / "r.json").exists()

    def test_interrupt_leaves_no_trace(self, small_setup, monkeypatch):
        tmp_path, dense, cache_path, perm_path = small_setup
        grown_path = tmp_path / "new" / "g.llbc"
        asked = []

        def oracle(command):
            def ask(indices):
                for index in indices.tolist():
                    asked.append(index)
                    if len(asked) == 5:
                        raise KeyboardInterrupt
                return [True] * indices.size
            return ask

        monkeypatch.setattr(cli, "_command_oracle", oracle)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            main(["insert-sample", "--cache", str(cache_path), "--oracle-cmd", "x",
                  "--budget", "8", "--append-out", str(grown_path)])
        assert len(asked) == 5
        assert threading.active_count() == threads
        assert not list(tmp_path.rglob("*.tmp"))
        assert not (tmp_path / "new").exists()


class TestOracleCommand:
    """A failing ``--oracle-cmd`` call ends the command with one short line."""

    @pytest.fixture
    def asked(self, tmp_path):
        return tmp_path / "asked.log"

    def _oracle(self, asked, body):
        log = f"open({str(asked)!r}, 'a').write(sys.argv[-1] + chr(10))"
        # a long command, as an oracle given every model's answer would be
        return f'{sys.executable} -c "import sys; {log}; {body}" ' + " ".join(["1"] * 500)

    def _run(self, small_setup, command, oracle):
        tmp_path, dense, cache_path, perm_path = small_setup
        if command == "eval-model":
            argv = ["eval-model", "--perm", str(perm_path), "--budgets", "8",
                    "--out", str(tmp_path / "eval")]
        else:
            argv = ["insert-sample", "--cache", str(cache_path), "--budget", "5"]
        return main(argv + ["--oracle-cmd", oracle])

    @pytest.mark.parametrize("command", ["eval-model", "insert-sample"])
    def test_failure_names_index_status_and_last_stderr_line(
        self, small_setup, capsys, asked, command
    ):
        crash = "sys.stderr.write('loading weights\\nmodel crashed\\n\\n'); sys.exit(3)"
        assert self._run(small_setup, command, self._oracle(asked, crash)) == 1
        (index,) = asked.read_text().split()
        assert capsys.readouterr().err == (
            f"error: oracle command failed on index {index} "
            "with exit status 3: model crashed\n"
        )

    def test_failure_without_stderr(self, small_setup, capsys, asked):
        assert self._run(small_setup, "eval-model", self._oracle(asked, "sys.exit(3)")) == 1
        (index,) = asked.read_text().split()
        assert capsys.readouterr().err == (
            f"error: oracle command failed on index {index} with exit status 3\n"
        )

    @pytest.mark.parametrize("oracle", ["", "  "], ids=["empty", "blank"])
    @pytest.mark.parametrize("command", ["eval-model", "insert-sample"])
    def test_empty_command_is_one_error_line(self, small_setup, capsys, command, oracle):
        assert self._run(small_setup, command, oracle) == 1
        assert capsys.readouterr().err == (
            "error: --oracle-cmd is empty; give the command to run\n"
        )
        assert not (small_setup[0] / "eval").exists()

    def test_output_that_is_not_utf8(self, small_setup, capsys, asked):
        answer = "sys.stdout.buffer.write(bytes([255, 10]))"
        assert self._run(small_setup, "eval-model", self._oracle(asked, answer)) == 1
        assert capsys.readouterr().err == (
            "error: oracle command returned '\ufffd', expected 0 or 1\n"
        )


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

    def test_save_cache(self, tmp_path):
        out_dir = tmp_path / "sim"
        cache_path = tmp_path / "generated.llbc"
        rc = main(
            [
                "simulate",
                "--models",
                "20",
                "--holdout",
                "10",
                "--samples",
                "400",
                "--noise",
                "0.05",
                "--seed",
                "4",
                "--budgets",
                "8,16,32,64",
                "--save-cache",
                str(cache_path),
                "--out",
                str(out_dir),
            ]
        )
        assert rc == 0
        spec = SynthSpec(30, 400, noise=0.05, seed=4)
        assert load_cache(cache_path) == generate(spec)[0]
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["spec"] == spec.to_dict()
        assert summary["sort_models"] == 20
        assert summary["holdout_models"] == 10

    def test_fewer_than_four_budgets_fit_is_null(self, tmp_path):
        out_dir = tmp_path / "sim"
        assert main(["simulate", "--models", "10", "--holdout", "2", "--samples", "200",
                     "--budgets", "8,16", "--out", str(out_dir)]) == 0
        null_fit = {"a": None, "b": None, "c": None, "r2": None}
        assert json.loads((out_dir / "fit.json").read_text()) == null_fit
        assert json.loads((out_dir / "summary.json").read_text())["fit"] == null_fit

    def test_curve_matches_library_scoring(self, tmp_path):
        budgets = [3, 8, 50, 128, 700]
        out_dir = tmp_path / "sim"
        rc = main(
            ["simulate", "--models", "20", "--holdout", "1", "--samples", "700",
             "--tau", "0.2", "--noise", "0.05", "--seed", "6",
             "--budgets", ",".join(map(str, budgets)), "--strategy", "random",
             "--out", str(out_dir)]
        )
        assert rc == 0
        spec = SynthSpec(21, 700, temperature=0.2, noise=0.05, seed=6)
        cache, _, _ = generate(spec)
        ranking = sort_by_sum(AccuracyCache(20, 700, cache.bits[:20]))
        truth = cache.row(20)
        rows = (out_dir / "curve.csv").read_text().splitlines()[1:]
        assert len(rows) == len(budgets)
        for row, budget in zip(rows, budgets):
            seed = _derived_seed(6, 0, budget)
            pred, _ = evaluate(ranking.permutation, truth.__getitem__, budget,
                               "random", seed)
            r = error_decomposition(truth, pred, ranking.permutation, budget)
            assert row.split(",") == [
                str(budget), repr(r.mae), repr(r.agg_error), repr(r.aleatoric),
                repr(r.epistemic),
            ]

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
        for threads, run in (("1", "serial"), ("4", "threaded")):
            monkeypatch.setenv("LLEVAL_THREADS", threads)
            assert main(args + ["--out", str(tmp_path / run),
                                "--save-cache", str(tmp_path / f"{run}.llbc")]) == 0
        for name in ("curve.csv", "baseline.csv", "fit.json", "summary.json"):
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "threaded" / name
            ).read_bytes()
        assert (tmp_path / "serial.llbc").read_bytes() == (
            tmp_path / "threaded.llbc"
        ).read_bytes()

    SMALL_SWEEP = ["simulate", "--models", "12", "--holdout", "3", "--samples",
                   "200", "--seed", "4", "--budgets", "8,32"]

    @pytest.mark.parametrize("value", ["abc", "-3", "1.5", " 2", "", "\u0662"])
    def test_bad_thread_count_rejected(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("LLEVAL_THREADS", value)
        assert main(self.SMALL_SWEEP + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: LLEVAL_THREADS ") and err.count("\n") == 1
        assert repr(value) in err
        assert not (tmp_path / "out").exists()

    def test_unset_and_zero_mean_every_core(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        monkeypatch.delenv("LLEVAL_THREADS", raising=False)
        assert cli._thread_count() == 3
        for value, count in (("0", 3), ("00", 3), ("1", 1), ("5", 5)):
            monkeypatch.setenv("LLEVAL_THREADS", value)
            assert cli._thread_count() == count
        monkeypatch.undo()
        runs = {"unset": None, "zero": "0", "one": "1", "many": "64"}
        for name, value in runs.items():
            if value is None:
                monkeypatch.delenv("LLEVAL_THREADS", raising=False)
            else:
                monkeypatch.setenv("LLEVAL_THREADS", value)
            assert main(self.SMALL_SWEEP + ["--out", str(tmp_path / name)]) == 0
        for name in ("curve.csv", "baseline.csv", "fit.json", "summary.json"):
            outputs = {(tmp_path / run / name).read_bytes() for run in runs}
            assert len(outputs) == 1


# a prediction of the 60-sample ``small_setup`` ranking
PREDICTION = {"positions": [10, 20, 30, 40], "outcomes": [1, 0, 1, 1],
              "strategy": "uniform", "threshold": 30, "total": 60}


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

    @pytest.mark.parametrize(
        "record, message",
        [
            pytest.param({**PREDICTION, "positions": [100, 200, 300, 400]},
                         "prediction position 100 outside [0, 60)", id="all-outside"),
            pytest.param({**PREDICTION, "positions": [10, 20, 60, 61]},
                         "prediction position 60 outside [0, 60)", id="last-outside"),
            pytest.param({**PREDICTION, "positions": [10.5, 20, 30, 40]},
                         "prediction positions must be whole numbers",
                         id="fractional-position"),
            pytest.param({**PREDICTION, "threshold": 30.7},
                         "prediction threshold 30.7 is not a whole number",
                         id="fractional-threshold"),
            *[pytest.param({**PREDICTION, key: True},
                           f"prediction {key} True is not a whole number", id=f"true-{key}")
              for key in ("threshold", "total")],
            *[pytest.param({k: v for k, v in PREDICTION.items() if k != key},
                           f"prediction has no {key!r}", id=f"no-{key}")
              for key in PREDICTION],
            pytest.param([PREDICTION], "prediction must be a JSON object, not list",
                         id="list"),
        ],
    )
    def test_bad_prediction_is_one_error_line(self, small_setup, capsys, record, message):
        tmp_path, dense, cache_path, perm_path = small_setup
        truth_path = tmp_path / "truth.csv"
        write_vector(truth_path, np.ones(60, dtype=bool))
        pred_path = tmp_path / "pred.json"
        pred_path.write_text(json.dumps(record))
        rc = main(["metrics", "--truth", str(truth_path), "--pred", str(pred_path),
                   "--perm", str(perm_path)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_prediction_total_against_permutation_is_one_error_line(
        self, small_setup, capsys
    ):
        # a truth file of the prediction's total: only --perm disagrees
        tmp_path, dense, cache_path, perm_path = small_setup
        truth_path = tmp_path / "truth.csv"
        write_vector(truth_path, np.ones(30, dtype=bool))
        pred_path = tmp_path / "pred.json"
        pred_path.write_text(json.dumps(
            {**PREDICTION, "positions": [5, 10, 15, 20], "threshold": 10, "total": 30}
        ))
        rc = main(["metrics", "--truth", str(truth_path), "--pred", str(pred_path),
                   "--perm", str(perm_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: prediction total 30 does not match permutation length 60\n"
        )

    def test_corrupt_cache_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.llbc"
        bad.write_bytes(b"JUNKJUNKJUNK")
        rc = main(["sort", "--cache", str(bad), "--out", str(tmp_path / "p.llpm")])
        assert rc == 1
        assert "magic" in capsys.readouterr().err


class TestOutputDirectories:
    """Every writer creates its target's missing parent directories."""

    def test_writers_create_missing_directories(self, small_setup, capsys):
        tmp_path, dense, cache_path, perm_path = small_setup
        fresh = tmp_path / "fresh"
        outcomes_path = tmp_path / "col.csv"
        write_vector(outcomes_path, np.ones(12, dtype=bool))
        truth_path = tmp_path / "truth.csv"
        write_vector(truth_path, np.ones(60, dtype=bool))
        eval_dir = tmp_path / "eval"
        runs = [
            ["sort", "--cache", str(cache_path), "--out", str(fresh / "a" / "s.llpm")],
            ["simulate", "--models", "10", "--holdout", "2", "--samples", "200",
             "--budgets", "8,16", "--out", str(fresh / "b" / "sim"),
             "--save-cache", str(fresh / "c" / "gen.llbc")],
            ["insert-sample", "--cache", str(cache_path), "--outcomes",
             str(outcomes_path), "--budget", "12",
             "--report", str(fresh / "d" / "rank.json"),
             "--append-out", str(fresh / "e" / "grown.llbc")],
            ["eval-model", "--perm", str(perm_path), "--truth", str(truth_path),
             "--budgets", "16", "--out", str(eval_dir)],
            ["metrics", "--truth", str(truth_path),
             "--pred", str(eval_dir / "prediction_16.json"),
             "--perm", str(perm_path), "--out", str(fresh / "f" / "m.json")],
        ]
        for argv in runs:
            assert main(argv) == 0, argv
        written = ["a/s.llpm", "a/s.llsm", "b/sim/summary.json", "c/gen.llbc",
                   "d/rank.json", "e/grown.llbc", "f/m.json"]
        for name in written:
            assert (fresh / name).is_file(), name
        assert not list(fresh.rglob(".*.tmp"))

    @pytest.mark.parametrize(
        "command",
        ["import", "sort", "eval-model", "insert-sample", "simulate", "metrics"],
    )
    def test_parent_that_is_a_file_is_one_error_line(
        self, small_setup, capsys, monkeypatch, command
    ):
        import lleval.synthgen

        tmp_path, dense, cache_path, perm_path = small_setup
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        target = blocker / "out.llbc"
        # an oracle that logs each index it is asked
        log = tmp_path / "asked.log"
        ask = f"import sys; open({str(log)!r}, 'a').write(sys.argv[1] + '\\n'); print(1)"
        oracle = ["--oracle-cmd", f'{sys.executable} -c "{ask}"']
        read = []  # inputs that import and sort read only after the check
        if command in ("import", "sort"):
            for name in ("import_csv", "load_cache"):
                monkeypatch.setattr(cli, name, lambda *a, **k: read.append(a))
        if command == "import":
            csv_path = tmp_path / "matrix.csv"
            runs = [["import", "--csv", str(csv_path), "--out", str(target)]]
        elif command == "sort":
            runs = [["sort", "--cache", str(cache_path), "--out", str(target)]]
        elif command == "eval-model":  # under a file, and a file itself
            evaluate = ["eval-model", "--perm", str(perm_path), "--budgets", "8", *oracle]
            runs = [evaluate + ["--out", str(blocker / "eval")],
                    evaluate + ["--out", str(blocker)]]
        elif command == "metrics":
            truth_path = tmp_path / "truth.csv"
            write_vector(truth_path, np.ones(60, dtype=bool))
            assert main(["eval-model", "--perm", str(perm_path), "--truth",
                         str(truth_path), "--budgets", "16",
                         "--out", str(tmp_path / "eval")]) == 0
            runs = [["metrics", "--truth", str(truth_path),
                     "--pred", str(tmp_path / "eval" / "prediction_16.json"),
                     "--perm", str(perm_path), "--out", str(blocker / "m.json")]]
        elif command == "simulate":  # each bad input is found before generating
            generated = []
            monkeypatch.setattr(
                lleval.synthgen, "generate", lambda *a, **k: generated.append(a)
            )
            sim = ["simulate", "--models", "10", "--holdout", "2", "--samples", "200"]
            runs = [
                sim + ["--budgets", "8,16", "--out", str(tmp_path / "sim"),
                       "--save-cache", str(target)],
                sim + ["--budgets", "8,16", "--out", str(blocker / "sim"),
                       "--save-cache", str(tmp_path / "gen.llbc")],
                sim + ["--budgets", "0,8", "--out", str(tmp_path / "sim"),
                       "--save-cache", str(tmp_path / "gen.llbc")],
            ]
        else:  # each bad target is found before the oracle is asked
            insert = ["insert-sample", "--cache", str(cache_path), "--budget", "5",
                      *oracle]
            runs = [
                insert + ["--report", str(blocker / "rank.json")],
                insert + ["--report", str(tmp_path / "rank.json"),
                          "--append-out", str(target)],
            ]
        for argv in runs:
            capsys.readouterr()
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            if "0,8" in argv:
                assert err == "error: budget 0 outside [1, 200]\n"
            else:
                assert err == f"error: {blocker} is not a directory\n"
            assert blocker.read_text() == "not a directory"
        assert not list(tmp_path.rglob("*.tmp"))
        assert not log.exists()  # no oracle call
        assert read == []
        if command == "simulate":
            assert generated == []
            assert not (tmp_path / "gen.llbc").exists()
            assert not (tmp_path / "sim").exists()  # no --out made before a failure
        if command == "insert-sample":
            assert not (tmp_path / "rank.json").exists()

    @pytest.mark.parametrize(
        "command", ["import", "sort", "eval-model", "insert-sample", "simulate"]
    )
    def test_failure_after_the_check_makes_no_directory(
        self, small_setup, capsys, monkeypatch, command
    ):
        import lleval.synthgen

        tmp_path, dense, cache_path, perm_path = small_setup
        new = tmp_path / "new"
        fail = ["--oracle-cmd", f'{sys.executable} -c "import sys; sys.exit(3)"']
        if command == "import":
            argv = ["import", "--csv", str(tmp_path / "missing.csv"),
                    "--out", str(new / "c.llbc")]
        elif command == "sort":
            argv = ["sort", "--cache", str(tmp_path / "missing.llbc"),
                    "--out", str(new / "s.llpm")]
        elif command == "eval-model":
            argv = ["eval-model", "--perm", str(perm_path), "--budgets", "8", *fail,
                    "--out", str(new / "eval")]
        elif command == "insert-sample":
            argv = ["insert-sample", "--cache", str(cache_path), "--budget", "5", *fail,
                    "--report", str(new / "a" / "r.json"),
                    "--append-out", str(new / "b" / "g.llbc")]
        else:
            def generate(*args, **kwargs):
                raise ValueError("generator failed")

            monkeypatch.setattr(lleval.synthgen, "generate", generate)
            argv = ["simulate", "--models", "10", "--holdout", "2", "--samples", "200",
                    "--budgets", "8", "--out", str(new / "sim"),
                    "--save-cache", str(new / "gen" / "c.llbc")]
        assert main(argv) == 1
        assert capsys.readouterr().err.count("\n") == 1
        assert not new.exists()

    def test_sort_output_that_is_its_own_sidecar_is_refused(
        self, small_setup, capsys, monkeypatch
    ):
        tmp_path, dense, cache_path, perm_path = small_setup
        loaded = []
        monkeypatch.setattr(cli, "load_cache", loaded.append)
        out = tmp_path / "rank.llsm"
        assert main(["sort", "--cache", str(cache_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {out} is its own totals sidecar")
        assert err.count("\n") == 1
        assert loaded == [] and not out.exists()


# (case, argv with {d} for the directory of the inputs, {t} for the target
# and {o} for its directory, the target's file name, the input it names, the
# target's flag, and what the error calls the input)
INSERT = ["insert-sample", "--cache", "{d}/cache.llbc", "--outcomes", "{d}/col.csv",
          "--budget", "5"]
METRICS = ["metrics", "--truth", "{d}/truth.csv", "--pred", "{d}/pred.json",
           "--perm", "{d}/sorted.llpm", "--out", "{t}"]
EVAL = ["eval-model", "--budgets", "16", "--out", "{o}"]
TARGET_ONTO_INPUT = [
    ("sort-out-cache", ["sort", "--cache", "{d}/cache.llbc", "--out", "{t}"],
     "cache.llbc", "cache.llbc", "--out", "the --cache file"),
    ("sort-sidecar-cache", ["sort", "--cache", "{d}/c.llsm", "--out", "{t}"],
     "c.llpm", "c.llsm", "--out's totals sidecar", "the --cache file"),
    ("insert-report-cache", INSERT + ["--report", "{t}"],
     "cache.llbc", "cache.llbc", "--report", "the --cache file"),
    ("insert-report-outcomes", INSERT + ["--report", "{t}"],
     "col.csv", "col.csv", "--report", "the --outcomes file"),
    ("insert-append-out-outcomes", INSERT + ["--append-out", "{t}"],
     "col.csv", "col.csv", "--append-out", "the --outcomes file"),
    ("import-out-csv", ["import", "--csv", "{d}/matrix.csv", "--out", "{t}"],
     "matrix.csv", "matrix.csv", "--out", "the --csv file"),
    ("metrics-out-pred", METRICS, "pred.json", "pred.json", "--out", "the --pred file"),
    ("metrics-out-truth", METRICS, "truth.csv", "truth.csv", "--out", "the --truth file"),
    ("metrics-out-perm", METRICS, "sorted.llpm", "sorted.llpm", "--out",
     "the --perm file"),
    ("eval-report-truth",
     EVAL + ["--perm", "{d}/sorted.llpm", "--truth", "{d}/report_16.json"],
     "report_16.json", "report_16.json", "--out", "the --truth file"),
    ("eval-prediction-perm",
     EVAL + ["--perm", "{d}/prediction_16.json", "--truth", "{d}/truth.csv"],
     "prediction_16.json", "prediction_16.json", "--out", "the --perm file"),
    ("eval-curve-truth",
     EVAL + ["--perm", "{d}/sorted.llpm", "--truth", "{d}/curve.csv"],
     "curve.csv", "curve.csv", "--out", "the --truth file"),
]


ASK = ["--oracle-cmd", "ask"]  # never run: _command_oracle is patched
NEST = " would nest, one inside the other; give them separate paths"
# a target that is a directory, or that holds or lies inside another target:
# (id, argv, the target's plain name P, directories made first, the error)
DIRECTORY_OR_NESTED = [
    ("insert-append-out-dir",
     ["insert-sample", "--cache", "{d}/cache.llbc", *ASK, "--budget", "4",
      "--append-out", "{t}"],
     "G", ["G"], "--append-out {t} is a directory; give a file path"),
    ("eval-prediction-dir",
     ["eval-model", "--perm", "{d}/sorted.llpm", *ASK, "--budgets", "4", "--out", "{t}"],
     "Ev", ["Ev/prediction_4.json"],
     "--out {t}/prediction_4.json is a directory; give a file path"),
    ("import-out-dir", ["import", "--csv", "{d}/matrix.csv", "--out", "{t}"],
     "D", ["D"], "--out {t} is a directory; give a file path"),
    ("simulate-save-cache-holds-out",
     ["simulate", "--models", "10", "--holdout", "2", "--samples", "200",
      "--budgets", "8", "--out", "{d}/X", "--save-cache", "{t}"],
     "X", [], "--save-cache {t} and --out {d}/X/curve.csv" + NEST),
    ("insert-report-inside-append-out",
     ["insert-sample", "--cache", "{d}/cache.llbc", *ASK, "--budget", "4",
      "--append-out", "{d}/R", "--report", "{t}"],
     "R/rank.json", [], "--report {t} and --append-out {d}/R" + NEST),
]


class TestTargetRule:
    """No target may be a directory, or name, hold or lie inside an input or
    another target, however it is spelled: one ``error:`` line before any
    input is read (but ``eval-model``'s ``--perm``, whose length names the
    budgets)."""

    @pytest.mark.parametrize("spelling", ["P", "sub/../P"])
    @pytest.mark.parametrize(
        "argv, target_name, name, flag, what", [case[1:] for case in TARGET_ONTO_INPUT],
        ids=[case[0] for case in TARGET_ONTO_INPUT],
    )
    def test_target_onto_an_input_is_refused(
        self, small_setup, monkeypatch, capsys, spelling, argv, target_name, name,
        flag, what
    ):
        tmp_path, dense, cache_path, perm_path = small_setup
        (tmp_path / "c.llsm").write_bytes(cache_path.read_bytes())
        write_vector(tmp_path / "col.csv", np.ones(12, dtype=bool))
        write_vector(tmp_path / "truth.csv", np.ones(60, dtype=bool))
        (tmp_path / "pred.json").write_text('{"threshold": 3}\n')
        write_vector(tmp_path / "report_16.json", np.ones(60, dtype=bool))
        (tmp_path / "prediction_16.json").write_bytes(perm_path.read_bytes())
        (tmp_path / "curve.csv").write_bytes(cache_path.read_bytes())
        readers = ["import_csv", "load_cache", "_read_json", "_read_outcomes"]
        if argv[0] != "eval-model":  # whose --perm length names its targets
            readers.append("load_permutation")
        loaded = []
        for reader in readers:
            monkeypatch.setattr(cli, reader, lambda *a, **k: loaded.append(a))
        target = tmp_path / spelling.replace("P", target_name)
        before = (tmp_path / name).read_bytes()
        capsys.readouterr()
        argv = [a.format(d=tmp_path, t=target, o=target.parent) for a in argv]
        assert main(argv) == 1
        # a sidecar is the --out path with the suffix .llsm
        shown = target.with_suffix(".llsm") if flag.endswith("sidecar") else target
        assert capsys.readouterr().err == (
            f"error: {flag} {shown} is {what}; give it another path\n"
        )
        assert loaded == []
        assert (tmp_path / name).read_bytes() == before
        assert not list(tmp_path.rglob("*.tmp"))
        assert not (tmp_path / "sub").exists()

    @pytest.mark.parametrize("spelling", ["P", "sub/../P"])
    @pytest.mark.parametrize(
        "argv, target_name, dirs, error", [case[1:] for case in DIRECTORY_OR_NESTED],
        ids=[case[0] for case in DIRECTORY_OR_NESTED],
    )
    def test_directory_or_nested_target_is_refused(
        self, small_setup, monkeypatch, capsys, spelling, argv, target_name, dirs, error
    ):
        """Refused before the work or the queries are paid for, not when the
        rename, or a write into the other target, would fail."""
        import lleval.synthgen

        tmp_path, dense, cache_path, perm_path = small_setup
        for name in dirs:
            (tmp_path / name).mkdir(parents=True)
        loaded, asked = [], []
        for reader in ["import_csv", "load_cache", "_read_json", "_read_outcomes"]:
            monkeypatch.setattr(cli, reader, lambda *a, **k: loaded.append(a))
        monkeypatch.setattr(lleval.synthgen, "generate", lambda *a, **k: loaded.append(a))
        monkeypatch.setattr(cli, "_command_oracle", lambda *a: asked.append(a))
        before = sorted(tmp_path.rglob("*"))
        target = tmp_path / spelling.replace("P", target_name)
        capsys.readouterr()
        assert main([a.format(d=tmp_path, t=target) for a in argv]) == 1
        assert capsys.readouterr().err == f"error: {error.format(d=tmp_path, t=target)}\n"
        assert loaded == [] and asked == []
        assert sorted(tmp_path.rglob("*")) == before  # no *.tmp, file or directory

    def test_root_as_a_target_is_refused(self, small_setup, monkeypatch, capsys):
        """``/`` has no parent; the rule names it, not an empty ``error:``."""
        tmp_path = small_setup[0]
        loaded = []
        monkeypatch.setattr(cli, "import_csv", lambda *a, **k: loaded.append(a))
        capsys.readouterr()
        assert main(["import", "--csv", str(tmp_path / "matrix.csv"), "--out", "/"]) == 1
        assert capsys.readouterr().err == "error: --out / is a directory; give a file path\n"
        assert loaded == []

    @pytest.mark.parametrize("spelling", ["P", "sub/../P"])
    def test_report_onto_the_cache_it_grows_is_refused(
        self, small_setup, monkeypatch, capsys, spelling
    ):
        """``--append-out`` may grow its own ``--cache``; ``--report`` may
        not name that file, as the grown cache would replace it."""
        tmp_path, dense, cache_path, perm_path = small_setup
        write_vector(tmp_path / "col.csv", np.ones(12, dtype=bool))
        loaded = []
        monkeypatch.setattr(cli, "load_cache", loaded.append)
        before = cache_path.read_bytes()
        report = str(tmp_path / spelling.replace("P", "cache.llbc"))
        capsys.readouterr()
        assert main(["insert-sample", "--cache", str(cache_path),
                     "--outcomes", str(tmp_path / "col.csv"), "--budget", "5",
                     "--append-out", str(cache_path), "--report", report]) == 1
        assert capsys.readouterr().err == (
            f"error: --report {report} is the --append-out file; give it another path\n"
        )
        assert loaded == [] and cache_path.read_bytes() == before
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("spelling", ["P", "sub/../P"])
    def test_save_cache_onto_a_simulate_file_is_refused(
        self, tmp_path, monkeypatch, capsys, spelling
    ):
        import lleval.synthgen

        generated = []
        monkeypatch.setattr(lleval.synthgen, "generate", lambda *a, **k: generated.append(a))
        out_dir = tmp_path / "sim"
        target = out_dir / spelling.replace("P", "summary.json")
        capsys.readouterr()
        assert main(["simulate", "--models", "10", "--holdout", "2", "--samples", "200",
                     "--budgets", "8", "--out", str(out_dir),
                     "--save-cache", str(target)]) == 1
        assert capsys.readouterr().err == (
            f"error: --save-cache {target} is the --out file; give it another path\n"
        )
        assert generated == [] and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("spelling", ["P", "sub/../P"])
    def test_append_out_may_grow_its_own_cache(self, small_setup, spelling):
        """The one exemption, under either spelling."""
        tmp_path, dense, cache_path, perm_path = small_setup
        write_vector(tmp_path / "col.csv", np.ones(12, dtype=bool))
        target = tmp_path / spelling.replace("P", "cache.llbc")
        assert main(["insert-sample", "--cache", str(cache_path),
                     "--outcomes", str(tmp_path / "col.csv"), "--budget", "5",
                     "--append-out", str(target)]) == 0
        grown = load_cache(cache_path)
        assert grown.num_samples == 61
        assert np.array_equal(grown.to_dense()[:, :60], dense)
        assert not list(tmp_path.rglob("*.tmp"))


# each command's arguments, as flag: value, with every path option given
VALID = {
    "import": {"--csv": "{d}/matrix.csv", "--out": "{d}/c.llbc"},
    "sort": {"--cache": "{d}/cache.llbc", "--out": "{d}/s.llpm"},
    "eval-model": {"--perm": "{d}/sorted.llpm", "--truth": "{d}/truth.csv",
                   "--out": "{d}/ev"},
    "insert-sample": {"--cache": "{d}/cache.llbc", "--outcomes": "{d}/col.csv",
                      "--budget": "4", "--report": "{d}/r.json", "--append-out": "{d}/g.llbc"},
    "simulate": {"--models": "3", "--holdout": "1", "--samples": "50",
                 "--save-cache": "{d}/sim.llbc", "--out": "{d}/sim"},
    "metrics": {"--truth": "{d}/truth.csv", "--pred": "{d}/pred.json",
                "--perm": "{d}/sorted.llpm", "--out": "{d}/m.json"},
}
NOT_PATHS = {"--budgets", "--oracle-cmd"}  # the string options that name no file


def _path_options():
    """(command, flag) of every option that takes a path, found from the
    parser: each that takes a string, from no fixed choices, but NOT_PATHS."""
    (commands,) = [a for a in cli._build_parser()._actions if a.choices]
    for command, parser in commands.choices.items():
        for action in parser._actions:
            if (action.option_strings and action.nargs is None and action.type
                    not in (int, float) and not action.choices):
                flag = action.option_strings[0]
                if flag not in NOT_PATHS:
                    yield command, flag


class TestEmptyPath:
    @pytest.mark.parametrize("command, flag", list(_path_options()),
                             ids=lambda v: v.lstrip("-"))
    def test_empty_path_is_refused(self, small_setup, monkeypatch, capsys, command, flag):
        """``""`` is no path: one line naming the flag before any input is
        read, not a file in the working directory, a dropped output or a
        reader's own error."""
        import lleval.synthgen

        tmp_path = small_setup[0]
        monkeypatch.chdir(tmp_path)
        write_vector(tmp_path / "col.csv", np.ones(12, dtype=bool))
        write_vector(tmp_path / "truth.csv", np.ones(60, dtype=bool))
        (tmp_path / "pred.json").write_text(json.dumps(PREDICTION))
        loaded = []
        for reader in ["import_csv", "load_cache", "load_permutation", "_read_json",
                       "_read_outcomes", "_command_oracle"]:
            monkeypatch.setattr(cli, reader, lambda *a, **k: loaded.append(a))
        monkeypatch.setattr(lleval.synthgen, "generate", lambda *a, **k: loaded.append(a))
        before = sorted(tmp_path.rglob("*"))
        argv = [command]
        for name, value in {**VALID[command], flag: ""}.items():
            argv += [name, value.format(d=tmp_path)]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: argument {flag}: the path is empty\n"
        assert loaded == []
        assert sorted(tmp_path.rglob("*")) == before


def _digests(out_dir):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


class TestGoldenArtifacts:
    """Artifact bytes pinned by sha256, so a refactor cannot drift outputs."""

    # the baseline ignores --strategy
    BASELINE = "f53b2029b290f6043f2b6168ac23a3738e6174f26adfac103b4c574c80fddad0"
    SIMULATE = {
        "uniform": {
            "baseline.csv": BASELINE,
            "curve.csv": "4a6c90306a772dd314e5a80b78ec7d00e4bcd01c58b1b7a9b5581a385429c78e",
            "fit.json": "5df6d20ad9999b0db514768782dbf165a1fed65d43c1382219278a720eada5cd",
            "summary.json": "21d3465543cedaf1a3b6cb522608a663f477a64eee6d639ef2267be3a8a4687d",
        },
        "random": {
            "baseline.csv": BASELINE,
            "curve.csv": "22665787e81edbcbceef6f433335cac6547e2cf8414a73d7c0e8cba54f181e88",
            "fit.json": "eea9ed82361f985d00b3aaa9031ed0fed1491a51eb1c639c2d6950661c6cb68c",
            "summary.json": "1c34cdcd5dd99dc1d04406d7f06e8004c6e0f6035917e8a5f53a3713815ed6e2",
        },
    }
    GENERATED_LLBC = "24915f0d24ecb6b750fcb841a95b868b60b104fda0ac9465c555e80904c81daf"
    EVAL_MODEL = {
        "curve.csv": "bb55e54c6ec52dc4966376d5f7f4ef3326cb00a1435ff4efa919d2ee715df05e",
        "prediction_4.json": "6ee2fb2911ce812be43dc99481214a363d2805cd6e857a253548dde70f0cec4a",
        "prediction_9.json": "c64b031cb697c61eac0421904a1da6a65572d708b5d0442f53b4bc153f8beaea",
        "prediction_30.json": "4f9f5412866ee447c416aee41b701ec27316349b44aa8adc4c41d0ba95e5b9b3",
        "prediction_60.json": "1ad10c5dd3a8e738bb5f40fe08065da44c4dcc9519c94ce986015295d59ba9ac",
        "report_4.json": "a514b344c5e407c1589718382cda5bcebed7dccab111b8ef73ff7142a5acefaa",
        "report_9.json": "15b2fbba33cdc9343e11b0af6a28dc147a629b555d0e84d67a99d78590a3d4cd",
        "report_30.json": "39f7a29761724d3c1a366f7738fd7f8ef8ec32b137fe846fc1f4bf2467c7ba6c",
        "report_60.json": "ac970376a679f2cc34de1190d13bbd82f4d110a3b6430eb7fe33504da5d346ce",
    }
    SORT = {
        "sum": {
            "rank.llpm": "a512126288f92f2197bde3ca354d871ef3e7fe0d936899e5aaa246c73118faea",
            "rank.llsm": "d40a58e6870391b44bf7581dc141638756e5ce0ae398654ffaa60ff105484a19",
        },
        "conf": {
            "rank.llpm": "360fc53935b4ca9e3891547fc4bd78ca670e8eb3e482a88d264f6a58afd94176",
            "rank.llsm": "451fd6a5fb723a9d54422495e55f0dcaedf2565473213c2049670b24a5517b6d",
        },
    }
    INSERT_SAMPLE = {
        "grown.llbc": "b9feb9ff6526af3df53ce50ef36726057271a16ab550fbcb405e3abea352472b",
        "rank.json": "b6265a9e3ad87e650b8689e41afa66335a64ff381da9f9c5ec7cc7034d0e106f",
    }

    @pytest.mark.parametrize("strategy", ["uniform", "random"])
    def test_simulate(self, tmp_path, strategy):
        out_dir = tmp_path / "sim"
        rc = main(
            ["simulate", "--models", "20", "--holdout", "5", "--samples", "600",
             "--tau", "0.2", "--noise", "0.05", "--seed", "11",
             "--budgets", "8,16,32,64,128", "--strategy", strategy,
             "--out", str(out_dir), "--save-cache", str(tmp_path / "generated.llbc")]
        )
        assert rc == 0
        assert _digests(out_dir) == self.SIMULATE[strategy]
        generated = (tmp_path / "generated.llbc").read_bytes()
        assert hashlib.sha256(generated).hexdigest() == self.GENERATED_LLBC

    def test_eval_model_truth(self, small_setup):
        tmp_path, dense, cache_path, perm_path = small_setup
        truth_path = tmp_path / "truth.csv"
        write_vector(truth_path, dense[3] ^ (np.arange(60) % 7 == 0))
        out_dir = tmp_path / "eval"
        rc = main(
            ["eval-model", "--perm", str(perm_path),
             "--truth", str(truth_path), "--budgets", "4,9,30,60",
             "--strategy", "random", "--seed", "5", "--out", str(out_dir)]
        )
        assert rc == 0
        assert _digests(out_dir) == self.EVAL_MODEL

    @pytest.fixture
    def confidence_cache(self, tmp_path):
        # 27 x 203: neither count is a multiple of 8, so padding bits matter
        spec = SynthSpec(num_models=27, num_samples=203, temperature=0.3,
                         noise=0.1, seed=4)
        cache, _, _ = generate(spec, include_confidence=True)
        path = tmp_path / "conf.llbc"
        save_cache(cache, path)
        return path

    @pytest.mark.parametrize("method", ["sum", "conf"])
    def test_sort(self, tmp_path, confidence_cache, method):
        out_dir = tmp_path / "sort"
        out_dir.mkdir()
        rc = main(["sort", "--cache", str(confidence_cache), "--method", method,
                   "--out", str(out_dir / "rank.llpm")])
        assert rc == 0
        assert _digests(out_dir) == self.SORT[method]

    def test_insert_sample(self, tmp_path, confidence_cache):
        outcomes_path = tmp_path / "col.csv"
        write_vector(outcomes_path, np.random.default_rng(7).random(27) < 0.4)
        out_dir = tmp_path / "insert"
        out_dir.mkdir()
        rc = main(["insert-sample", "--cache", str(confidence_cache),
                   "--outcomes", str(outcomes_path), "--budget", "9",
                   "--strategy", "random", "--seed", "3",
                   "--report", str(out_dir / "rank.json"),
                   "--append-out", str(out_dir / "grown.llbc")])
        assert rc == 0
        assert _digests(out_dir) == self.INSERT_SAMPLE
