"""Run the benchmark over several seeds per workload and summarise the spread.

    python3 bench/repeat.py --runs 10 --out result.json
    python3 bench/repeat.py --runs 10 --compare bench/baseline/seed.json

Every workload in BENCHMARK.json runs for its ``run_seconds``.  For every
end-to-end metric (per-layer with ``--trace 1``) it prints the
median, the quartiles from ``statistics.quantiles(values, n=4)`` and their
distance as a share of the median, next to the metric's bound from
BENCHMARK.json.  A spread under a third of the bound is marked steady.  With
``--compare`` it also prints how far each median moved against an earlier
summary, in the metric's worse direction.  Run it from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {"info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def _summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)  # med is the median
    spread = (q3 - q1) / abs(med) if med else None
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the raw values and the summary here")
    p.add_argument("--compare", help="an earlier --out file to compare medians with")
    args = p.parse_args(argv)
    specs = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}
    before = json.loads(Path(args.compare).read_text()) if args.compare else None

    seconds = bench["run_seconds"]
    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [_run(workload, args.first_seed + r, seconds, args.trace)
                for r in range(args.runs)]
        if not all(run["result"]["correct"] for run in runs):
            raise SystemExit(f"{workload}: a run reported a failed check")
        metrics = {name: _summary([run["result"]["metrics"][name]["value"]
                                   for run in runs]) for name in specs}
        report["workloads"][workload] = {
            "seeds": [args.first_seed + r for r in range(args.runs)],
            "metrics": metrics,
            "info": runs[0]["info"],
        }
        print(f"== {workload} ({args.runs} runs of {seconds} s)")
        for name, stats in metrics.items():
            spec = specs[name]
            spread = "n/a" if stats["spread"] is None else f"{stats['spread']:.2%}"
            line = f"  {name:<48} median {stats['median']:<12.6g} spread {spread:>7}"
            if "bound" in spec:
                steady = "steady" if stats["spread"] < spec["bound"] / 3 else "NOISY"
                line += f"  bound {spec['bound']:.0%} {steady}"
                old = before and before["workloads"].get(workload, {}).get(
                    "metrics", {}).get(name)
                if old:
                    sign = 1 if spec["better"] == "lower" else -1
                    worse = sign * (stats["median"] - old["median"]) / abs(old["median"])
                    verdict = "ok" if worse <= spec["bound"] else "WORSE"
                    line += f"  vs earlier {worse:+.2%} {verdict}"
            print(line, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
