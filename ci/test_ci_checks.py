"""The paper's headline claims at its width, and `lleval` against numpy.

    python -m pytest -q ci/

Each test runs `lleval` commands in full and checks their files: against
sha256 pins, against bounds on a child process's own peak RSS, or against a
reference computed here by numpy by a different route than the program
takes.  It lives outside `tests/`, as `bench/test_smoke.py` does, so the
Tier-1 command does not run it; CI runs it on every leg.  The whole module
takes 22 s on a 2-core host, 10 s of it at paper width.
"""

from __future__ import annotations

import filecmp
import hashlib
import json
import shlex
import shutil
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "tests"))

from _child import PEAK, run_child  # noqa: E402
from workloads import column_sums_ref  # noqa: E402

from lleval import AccuracyCache, save_cache  # noqa: E402
from lleval.cli import main  # noqa: E402

MiB = 1 << 20
LLBC_HEADER = struct.Struct("<4sIQQQ")  # magic, version, m, n, flags
BUDGETS = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768)

README = ["simulate", "--models", "200", "--holdout", "100", "--samples", "100000",
          "--tau", "0.2", "--noise", "0.05", "--seed", "7"]
# at this size nearest_row folds gathered blocks of up to ~12,000 rows, past
# any golden test's
PINS = {
    "sim-1/curve.csv": "cec7919910a6b1f512a006de35504104442f1ff3c00efcb18f93b4bfae1e9c89",
    "sim-1/baseline.csv": "b958a9134e77d36c0e148885036c78f724d6ad6d12181e8f8af9067d0fd1c6f7",
    "sim-1/fit.json": "7aad9bbe32e3bd572c9fb4652898294716dd7875cf7c0dc27c244c5250d0afb2",
    "sim-1/summary.json": "1e5f0e42c45296cbb02538dbf38b4c556d7b135d132816026e45d93800bacff6",
    "sim-1.llbc": "60a96d9e0f87ec7c0f6d7be9f85e74682b567a1c52417efb82daba7bf981e5bd",
}
PAPER = ["simulate", "--models", "500", "--holdout", "20", "--samples", "1700000",
         "--tau", "0.2", "--noise", "0.05", "--seed", "7",
         "--budgets", "64,256,1024,1700,4096,16384"]


# -- helpers -------------------------------------------------------------------


def _lleval(*args) -> None:
    """One `lleval` command, run in this process; it must exit 0."""
    assert main([str(a) for a in args]) == 0


def _simulate_readme(where: Path, threads: int) -> None:
    """The README `simulate`, writing sim-1/ and sim-1.llbc into ``where``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("LLEVAL_THREADS", str(threads))
        _lleval(*README, "--out", where / "sim-1", "--save-cache", where / "sim-1.llbc")


def _assert_pinned(where: Path) -> None:
    for name, want in PINS.items():
        assert hashlib.sha256((where / name).read_bytes()).hexdigest() == want, name


def _read_llbc(path: Path) -> tuple[tuple, np.ndarray]:
    """An LLBC file's header (magic, version, m, n, flags) and its m rows of
    ceil(n / 8) packed bytes, read by numpy alone."""
    with open(path, "rb") as fh:
        header = LLBC_HEADER.unpack(fh.read(LLBC_HEADER.size))
    m, n = header[2], header[3]
    bits = np.fromfile(path, np.uint8, count=m * ((n + 7) // 8), offset=LLBC_HEADER.size)
    return header, bits.reshape(m, -1)


def _descending(totals: np.ndarray) -> np.ndarray:
    """Signed totals in descending order, ties by ascending index."""
    return np.lexsort((np.arange(totals.size), -totals))


def _assert_ranked(base: Path, sums: np.ndarray) -> None:
    """``base``.llpm orders ``sums`` as `_descending` does, and ``base``.llsm
    holds them in that order."""
    order = _descending(sums)
    perm = np.fromfile(base.with_suffix(".llpm"), "<u8", offset=16)
    ranked = np.fromfile(base.with_suffix(".llsm"), "<f8", offset=16)
    assert np.array_equal(perm, order), "permutation differs"
    assert np.array_equal(ranked, sums[order]), "totals differ"


def _sort(base: Path, method: str = "sum") -> None:
    _lleval("sort", "--method", method, "--cache", base.with_suffix(".llbc"),
            "--out", base.with_suffix(".llpm"))


# -- the caches the checks read --------------------------------------------------


@pytest.fixture(scope="module")
def sim1(tmp_path_factory) -> Path:
    """The README `simulate` at one thread, and its cache ranked by `sort`:
    the base of sim-1/, sim-1.llbc, sim-1.llpm and sim-1.llsm."""
    where = tmp_path_factory.mktemp("readme")
    _simulate_readme(where, threads=1)
    _sort(where / "sim-1")
    return where / "sim-1"


@pytest.fixture(scope="module")
def ties(tmp_path_factory) -> Path:
    """A tie-heavy 301 x 100,003 cache, ranked by `sort`."""
    where = tmp_path_factory.mktemp("ties")
    _lleval("simulate", "--models", "300", "--holdout", "1", "--samples", "100003",
            "--noise", "0.5", "--budgets", "8", "--seed", "3",
            "--out", where / "ties", "--save-cache", where / "ties.llbc")
    _sort(where / "ties")
    return where / "ties"


# -- the README simulate, pinned --------------------------------------------------


def test_readme_simulate_pinned_at_one_thread(sim1):
    _assert_pinned(sim1.parent)


def test_readme_simulate_pinned_at_two_threads(tmp_path):
    _simulate_readme(tmp_path, threads=2)
    _assert_pinned(tmp_path)


def test_readme_simulate_pinned_on_tmpfs():
    """The writers reserve each file's length before writing it, here on a
    second file system, in a directory of this run's own."""
    with tempfile.TemporaryDirectory(prefix="lleval-", dir="/dev/shm") as shm:
        _simulate_readme(Path(shm), threads=2)
        _assert_pinned(Path(shm))


# -- the paper's headline at paper width, 500 x 1,700,000 ---------------------------
#
# Seeded and deterministic, so regression checks, not statistical tests.


def test_paper_width_simulate(tmp_path, monkeypatch):
    """About 1,000x fewer queries "with low approximation error": at
    b = 1,700 the median MAE of 20 held-out rows is within 0.002 of the
    floor, and S&S beats the baseline at every budget.  About 9 s at
    LLEVAL_THREADS=2 on a 2-core host, peaking at 326 MB.  The RSS bound
    fails a second transposed copy of the cache held beside the first
    (436 MB)."""
    monkeypatch.setenv("LLEVAL_THREADS", "2")
    child = PEAK + (
        "from lleval.cli import main\n"
        f"print(main({PAPER!r} + ['--out', sys.argv[1]]), peak())\n"
    )
    rc, peak = run_child(child, tmp_path)
    assert rc == 0
    assert peak / MiB <= 420, f"simulate peak RSS {peak / MiB:.0f} MB above 420 MB"
    summary = json.loads((tmp_path / "summary.json").read_text())
    budgets = np.array([c["budget"] for c in summary["curve"]])
    mae = np.array([c["mae"] for c in summary["curve"]])
    floor = np.array([c["aleatoric"] for c in summary["curve"]])
    baseline = np.array([b["mae"] for b in summary["baseline"]])
    assert np.array_equal(budgets, [b["budget"] for b in summary["baseline"]])
    excess = (mae - floor)[budgets == 1700].item()
    assert excess <= 0.002, f"median MAE {excess:.4f} above the floor at b = 1700"
    assert np.all(mae < baseline), "S&S MAE not below the baseline at every budget"


@pytest.fixture(scope="module")
def paper_cache(tmp_path_factory) -> Path:
    """A random 500 x 1,700,000 LLBC file of 106 MB, written once."""
    m, n = 500, 1_700_000
    bits = np.random.default_rng(7).integers(0, 256, size=(m, n // 8), dtype=np.uint8)
    path = tmp_path_factory.mktemp("paper") / "rank.llbc"
    save_cache(AccuracyCache(m, n, bits), path)
    return path


def test_paper_width_sort(paper_cache, tmp_path):
    """The abstract's "memory cost of <100MB": `sort` reads the mapped
    106 MB cache a band of rows at a time and releases each band, and its
    files equal the bit-plane reference.  At this width the column sums read
    32-row bands, 31 whole 16-row groups and 4 rows over.  It peaks at
    45 MB; the RSS bound fails a cache mapped whole (146 MB)."""
    child = PEAK + (
        "from lleval.cli import main\n"
        f"argv = ['sort', '--cache', {str(paper_cache)!r}, '--out', sys.argv[1] + '/rank.llpm']\n"
        "print(main(argv), peak())\n"
    )
    rc, peak = run_child(child, tmp_path)
    assert rc == 0
    assert peak / MiB <= 100, f"sort peak RSS {peak / MiB:.0f} MB above 100 MB"
    (_, _, m, n, _), bits = _read_llbc(paper_cache)
    assert (m, n) == (500, 1_700_000)
    _assert_ranked(tmp_path / "rank", column_sums_ref(bits, n))


def test_paper_width_save_cache(paper_cache, tmp_path):
    """`save_cache` writes the mapped 106 MB cache a band of rows at a time
    and releases each band, and the copy's bytes equal the input's.  It
    peaks at 40 MB; the RSS bound fails a cache read whole (132 MB)."""
    child = PEAK + (
        "from lleval import load_cache, save_cache\n"
        f"save_cache(load_cache({str(paper_cache)!r}), sys.argv[1] + '/copy.llbc')\n"
        "print(peak())\n"
    )
    (peak,) = run_child(child, tmp_path)
    assert peak / MiB <= 60, f"save_cache peak RSS {peak / MiB:.0f} MB above 60 MB"
    assert filecmp.cmp(paper_cache, tmp_path / "copy.llbc", shallow=False)


# -- sort, insert-sample and eval-model against numpy -------------------------------


@pytest.mark.parametrize("name, shape", [("sim1", (300, 100_000)), ("ties", (301, 100_003))],
                         ids=["sim1", "ties"])
def test_sort_matches_lexsort(name, shape, request):
    """Column sums of the unpacked bits.  Ties are ordered by the packed
    index under numpy's unstable sort, whose implementation differs between
    numpy versions: every leg checks."""
    base = request.getfixturevalue(name)
    (_, _, m, n, _), bits = _read_llbc(base.with_suffix(".llbc"))
    assert (m, n) == shape
    dense = np.unpackbits(bits, axis=1, count=n, bitorder="little")
    _assert_ranked(base, dense.sum(axis=0, dtype=np.int64))


def test_conf_sort_matches_lexsort(tmp_path):
    """`sort --method conf` takes the float argsort path.  Confidences in
    multiples of 0.25 sum exactly, with many ties; n % 8 == 5."""
    conf = np.random.default_rng(5).integers(0, 5, size=(40, 10005)) / 4
    np.savetxt(tmp_path / "conf.csv", conf, fmt="%g", delimiter=",")
    _lleval("import", "--confidence", "--csv", tmp_path / "conf.csv",
            "--out", tmp_path / "conf.llbc")
    _sort(tmp_path / "conf", method="conf")
    sums = np.loadtxt(tmp_path / "conf.csv", delimiter=",").sum(axis=0, dtype=np.float64)
    assert sums.size % 8
    _assert_ranked(tmp_path / "conf", sums)


@pytest.mark.parametrize("name", ["sim1", "ties"])
def test_insert_sample_grows_the_cache_as_numpy(name, request, tmp_path):
    """lleval streams the grown rows a chunk at a time; numpy builds the
    whole file from the input's bytes, its own model ranking and the
    reported difficulty rank, on n % 8 == 0 (sim-1) and n % 8 == 3 (ties)."""
    cache = request.getfixturevalue(name).with_suffix(".llbc")
    (magic, version, m, n, flags), bits = _read_llbc(cache)
    assert flags == 0, "the reference grows no confidences"
    j = n // 2  # the outcomes of an existing sample stand for the new one's
    column = (bits[:, j // 8] >> (j % 8)) & 1
    np.savetxt(tmp_path / "col.txt", column[None], fmt="%d")
    _lleval("insert-sample", "--cache", cache, "--outcomes", tmp_path / "col.txt",
            "--budget", "64", "--report", tmp_path / "rank.json",
            "--append-out", tmp_path / "grown.llbc")
    order = _descending(np.bitwise_count(bits).sum(axis=1, dtype=np.int64))
    k = json.loads((tmp_path / "rank.json").read_text())["difficulty_rank"]
    assert 0 < k < m, f"difficulty rank {k} of {m} models"
    solved = np.zeros(m, np.uint8)
    solved[order[:k]] = 1
    grown = np.zeros((m, (n + 8) // 8), np.uint8)
    grown[:, : bits.shape[1]] = bits
    grown[:, n // 8] |= solved << (n % 8)
    want = LLBC_HEADER.pack(magic, version, m, n + 1, flags) + grown.tobytes()
    assert (tmp_path / "grown.llbc").read_bytes() == want


@pytest.fixture(scope="module")
def alone(sim1, tmp_path_factory) -> tuple[Path, Path]:
    """A copy of sim-1.llpm with no .llsm beside it, since `eval-model`
    reads only the LLPM, and row 299 of sim-1.llbc as a truth file."""
    where = tmp_path_factory.mktemp("alone")
    perm = shutil.copy(sim1.with_suffix(".llpm"), where)
    (_, _, _, n, _), bits = _read_llbc(sim1.with_suffix(".llbc"))
    row = np.unpackbits(bits[299], count=n, bitorder="little")
    truth = where / "truth.txt"
    truth.write_text(" ".join(map(str, row)) + "\n")
    return Path(perm), truth


def test_eval_model_reports_equal_metrics(alone, tmp_path):
    perm, truth = alone
    _lleval("eval-model", "--perm", perm, "--truth", truth, "--out", tmp_path)
    for b in BUDGETS:
        _lleval("metrics", "--truth", truth, "--pred", tmp_path / f"prediction_{b}.json",
                "--perm", perm, "--out", tmp_path / f"metrics_{b}.json")
        got = (tmp_path / f"metrics_{b}.json").read_bytes()
        assert got == (tmp_path / f"report_{b}.json").read_bytes(), b


@pytest.mark.parametrize("strategy", [["uniform"], ["random", "--seed", "3"]],
                         ids=["uniform", "random"])
def test_oracle_cmd_predicts_as_truth(alone, strategy, tmp_path):
    """`--oracle-cmd`, answering from the truth row, predicts as `--truth`
    does: both are batch oracles of `lleval.search.evaluate`, the one
    evaluation body."""
    perm, truth = alone
    answer = "import sys; print(open(sys.argv[1]).read().split()[int(sys.argv[2])])"
    oracle = shlex.join([sys.executable, "-c", answer, str(truth)])
    asked = ["eval-model", "--perm", perm, "--budgets", "8,16,32", "--strategy", *strategy]
    _lleval(*asked, "--truth", truth, "--out", tmp_path / "truth")
    _lleval(*asked, "--oracle-cmd", oracle, "--out", tmp_path / "oracle")
    for b in (8, 16, 32):
        got = (tmp_path / "oracle" / f"prediction_{b}.json").read_bytes()
        assert got == (tmp_path / "truth" / f"prediction_{b}.json").read_bytes(), b
