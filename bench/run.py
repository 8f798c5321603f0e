"""lleval benchmark: one workload, one closed-loop client, one result line.

    python3 bench/run.py --workload rank-paper --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports the program from ``src/``.
The run sets its inputs up several times, each in a fresh process, then
starts one measured process that loads what set-up wrote and calls one
user-level command (an op) after another for ``--seconds``.  Each op's
output is checked against a reference the benchmark computes itself.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``; with ``--trace 1`` the per-layer
metrics, from every other op run under the span tracer (``spans.py``), the
ops in between giving the untraced time for the tracing overhead.  Op and
set-up times are wall times scaled by one factor per run: a reference time
over the run's median time of a calibration kernel that never calls the
program (``_kernel_s``), which keeps the host's speed drift between runs out
of the bounded metrics.  The line before the result records the environment,
input sizes, computed bytes per op, the raw wall times and kernel times, the
op-latency tail and the oracle counts.  The exit code is 0 when every op
passed its check, 1 when one failed or a phase broke, 2 when the program's
source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
TIME_LIMIT_S = 170.0
THREADS = "2"  # LLEVAL_THREADS for every phase; only `simulate` reads it
# The calibration kernel's typical time on the 2-core host the baseline comes
# from; reported times are wall times scaled by this / the run's median kernel
# time.
CALIBRATION_REF_S = 0.045

_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class PhaseError(RuntimeError):
    pass


def _parse(argv: list[str] | None) -> argparse.Namespace:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the harness's smoke test")
    p.add_argument("--phase", choices=("setup", "measure", "calibrate"),
                   help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    p.add_argument("--refs", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def _workload(args: argparse.Namespace):
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    return cls(cls.sizes["tiny" if args.tiny else "full"], args.seed)


# -- the two phases, each in its own process -----------------------------------


def _phase_setup(args: argparse.Namespace) -> None:
    work = Path(args.work)
    wl = _workload(args)
    ctx = wl.setup(work)
    record = {"ref_s": 0.0, "input_stats": {}, "calib_s": _kernel_s()}
    if args.refs:
        t0 = time.perf_counter()
        record["input_stats"] = wl.references(work, ctx)
        record["ref_s"] = time.perf_counter() - t0
    (work / "setup.json").write_text(json.dumps(record))


def _phase_measure(args: argparse.Namespace) -> None:
    work = Path(args.work)
    wl = _workload(args)
    helper = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--phase", "calibrate",
         "--workload", args.workload, "--seed", "0", "--seconds", "0"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        _measure_loop(args, wl, work, helper)
    finally:
        helper.stdin.close()
        helper.wait(timeout=30)


def _measure_loop(args, wl, work: Path, helper: subprocess.Popen) -> None:
    import numpy as np

    from spans import Tracer, targets

    def calibrate() -> float:
        helper.stdin.write("\n")
        helper.stdin.flush()
        return float(helper.stdout.readline())

    t0 = time.perf_counter()
    wl.open(work)
    load_s = time.perf_counter() - t0
    tracer = Tracer(targets()) if args.trace else None
    ops = []
    calib_s = [calibrate()]
    deadline = time.perf_counter() + args.seconds
    while True:
        i = len(ops)
        traced = tracer is not None and i % 2 == 1
        prep = wl.prepare(i)
        out, error = None, None
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.op():
                    out = wl.run(prep, tracer)
            else:
                out = wl.run(prep, None)
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        calib_s.append(calibrate())
        if error is None:
            try:
                ok, info = wl.check(prep, out)
            except Exception as exc:
                ok, info = False, {"error": f"check: {type(exc).__name__}: {exc}"}
        else:
            ok, info = False, {"error": error}
        record = {"latency_s": latency, "traced": traced, "ok": ok, **info}
        if traced:
            record["layers"] = tracer.summary()
        ops.append(record)
        if time.perf_counter() >= deadline and (tracer is None or len(ops) >= 2):
            break
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "load_s": load_s,
        "calib_s": calib_s,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB
        "ops": ops,
        "numpy": np.__version__,
        "computed_bytes_per_op": wl.computed_bytes(),
    }
    (work / "measure.json").write_text(json.dumps(result))


def _kernel_s() -> float:
    """Seconds a fixed mix of numpy calls, allocation and memory passes takes.

    The work never calls the program, so its time tracks how fast the host
    runs at the moment.  On a shared host that speed drifts by 10 to 35% over
    minutes, for every process alike; scaling a run's op and set-up times by
    CALIBRATION_REF_S / the run's median of this keeps the drift between runs
    out of the bounded metrics.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    rows = rng.integers(0, 256, size=(2000, 63), dtype=np.uint8)
    acc = np.zeros(500, dtype=np.int32)
    for row in rows:
        np.add(acc, np.unpackbits(row, count=500), out=acc)
    data = rng.integers(0, 256, size=8 << 20, dtype=np.uint8)
    data[rng.integers(0, data.size, size=1 << 19)].sum()
    np.cumsum(data[: 2 << 20], dtype=np.int64)
    return time.perf_counter() - t0


def _phase_calibrate() -> None:
    """Time the kernel once per line on stdin, until stdin closes.

    The measured process asks this helper instead of running the kernel
    itself, so the kernel's 28 MB of scratch stays out of its peak RSS.
    """
    for _ in sys.stdin:
        print(_kernel_s(), flush=True)


# -- one run: set-up passes, measurement, summary --------------------------


def _run_phase(args, phase: str, work: Path, deadline: float, refs=False) -> None:
    argv = [sys.executable, str(Path(__file__).resolve()), "--phase", phase,
            "--work", str(work), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    argv += ["--tiny"] * args.tiny + ["--refs"] * refs
    env = dict(os.environ, LLEVAL_THREADS=THREADS)
    log = work / f"{phase}.log"
    with open(log, "w") as fh:
        try:
            proc = subprocess.run(argv, stdout=fh, stderr=subprocess.STDOUT,
                                  env=env, cwd=ROOT,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise PhaseError(f"{phase} phase ran past {TIME_LIMIT_S:.0f} s") from None
    if proc.returncode != 0:
        tail = log.read_text().strip().splitlines()[-5:]
        raise PhaseError(f"{phase} phase exited {proc.returncode}: " + " | ".join(tail))


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _tail(latencies: list[float]) -> dict:
    """Highest of p50..p99.9 with at least ten ops beyond it, if any."""
    n = len(latencies)
    record = {"ops": n, "max_ms": max(latencies) * 1e3, "percentile": None}
    pct = next((p for p in (99.9, 99, 95, 90, 75, 50) if n * (100 - p) >= 1000), None)
    if pct is not None:
        cuts = statistics.quantiles(latencies, n=1000, method="inclusive")
        value = cuts[round(pct * 10) - 1]
        record.update(percentile=pct, value_ms=value * 1e3,
                      ops_beyond=sum(x > value for x in latencies))
    return record


def _layer_value(name: str, op: dict) -> float:
    layer, stat = name.rsplit(".", 1)
    if layer == "cli.oracle_cmd":
        return op.get("oracle_cmd_calls", 0)
    entry = op["layers"].get(layer)
    if entry is None:
        return 0.0
    if stat == "calls":
        return entry["calls"]
    if stat == "peak_mb":
        return entry["peak"] / 1e6
    if stat == "bytes":
        return entry["nbytes"]
    if stat == "gbps_computed":
        return entry["nbytes"] / entry["self_s"] / 1e9 if entry["self_s"] > 0 else 0.0
    return entry["self_s"]  # self_s, or s for a timed leaf


def _per_layer(ops: list[dict], outcomes: dict) -> dict[str, float]:
    traced = [op for op in ops if op["traced"]]
    plain = [op["latency_s"] for op in ops if not op["traced"]]
    traced_p50 = _median([op["latency_s"] for op in traced])
    values = {
        "trace.op_p50_ms": traced_p50 * 1e3,
        "trace.overhead_ms": (traced_p50 - _median(plain)) * 1e3,
        **outcomes,
    }
    for name in PER_LAYER:
        if name not in values:
            values[name] = _median([_layer_value(name, op) for op in traced])
    return values


def _l3_bytes() -> int | None:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text()
    except OSError:
        return None
    text = text.strip()
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def _drive(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "lleval" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'lleval'}; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_wall_s, setup_calib_s = [], []
        for rep in range(SETUP_REPS):
            refs = rep == SETUP_REPS - 1
            t0 = time.perf_counter()
            _run_phase(args, "setup", work, deadline, refs)
            wall = time.perf_counter() - t0
            record = json.loads((work / "setup.json").read_text())
            setup_wall_s.append(wall - record["ref_s"] - record["calib_s"])
            setup_calib_s.append(record["calib_s"])
        input_stats = record["input_stats"]
        _run_phase(args, "measure", work, deadline)
        measured = json.loads((work / "measure.json").read_text())
    except PhaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still uses it
            pass

    ops = measured["ops"]
    plain = [op["latency_s"] for op in ops if not op["traced"]]
    kernel_s = _median(setup_calib_s + measured["calib_s"])
    scale = CALIBRATION_REF_S / kernel_s
    failed = sum(not op["ok"] for op in ops)
    outcomes = {
        "oracle_calls_per_op": _median([op.get("oracle_calls", 0) for op in ops]),
        "mae_p50": _median([op["mae"] for op in ops if "mae" in op]),
        "fail_ratio": failed / len(ops),
    }
    if args.trace:
        metrics = _per_layer(ops, outcomes)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": (_median(setup_wall_s) + measured["load_s"]) * scale,
            "ops_per_s": len(plain) / sum(plain) / scale,
            "op_p50_ms": _median(plain) * scale * 1e3,
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        units = END_TO_END
    wl = _workload(args)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "l3_bytes": _l3_bytes(),
            "python": sys.version.split()[0],
            "numpy": measured["numpy"],
            "LLEVAL_THREADS": THREADS,
        },
        "sizes": wl.sizes["tiny" if args.tiny else "full"],
        "input_stats": input_stats,
        "computed_bytes_per_op": measured["computed_bytes_per_op"],
        "calibration_ref_s": CALIBRATION_REF_S,
        "calibration_median_s": kernel_s,
        "setup_wall_s": setup_wall_s,
        "setup_calib_s": setup_calib_s,
        "load_wall_s": measured["load_s"],
        "op_p50_wall_ms": _median(plain) * 1e3,
        "op_tail": _tail(plain),
        "op_latencies_ms": [op["latency_s"] * 1e3 for op in ops],
        "op_calib_ms": [c * 1e3 for c in measured["calib_s"]],
        **outcomes,
        "errors": [op["error"] for op in ops if "error" in op][:3],
    }
    if args.trace:
        record["traced_ops"] = [
            {"latency_ms": op["latency_s"] * 1e3,
             "op_self_ms": op["layers"]["op"]["self_s"] * 1e3}
            for op in ops if op["traced"]
        ]
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    args = _parse(argv)
    if args.phase is None:
        return _drive(args)
    sys.path.insert(0, str(ROOT / "src"))
    if args.phase == "setup":
        _phase_setup(args)
    elif args.phase == "calibrate":
        _phase_calibrate()
    else:
        _phase_measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
