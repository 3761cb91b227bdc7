#!/usr/bin/env python3
"""Run the benchmark many times and print every metric of every workload.

    python3 benchmark/report.py --runs 10 --sets 2 --out benchmark/steadiness.json

From the root of a source checkout.  For each workload in BENCHMARK.json,
each set makes `--runs` untraced runs and one traced run.  Seeds count up
from 1, one per run, so the first run is checked against reference.json.  It prints each end-to-end metric by name and unit as the median and
quartiles of the runs' values, with the run count, and the spread: the
distance between the quartiles (statistics.quantiles, n=4) as a share of
the median, against the metric's bound.  With two sets it also prints how
far the second set's median moved from the first's.  The traced run's
per-layer metrics follow.  `--out` keeps every run's result as evidence.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN_TIMEOUT_S = 900


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, trace=trace, elapsed_s=elapsed,
                  header=[l for l in proc.stdout.splitlines() if l.startswith("#")][:5])
    return result


def write_evidence(path: str, bench: dict, runs: list[dict]) -> None:
    Path(path).write_text(json.dumps({"benchmark": bench, "runs": runs}, indent=1) + "\n",
                          encoding="utf-8")


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and their distance over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="untraced runs per set")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", help="write every run's result here as JSON")
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    runs: list[dict] = []
    seed = 1
    for s in range(args.sets):
        for workload in names:
            for trace in [0] * args.runs + [1]:
                result = run_once(bench, workload, seed, trace)
                result["set"] = s
                runs.append(result)
                print(f"set {s} {workload} seed {seed} trace {trace}: "
                      f"{result['elapsed_s']:.1f} s, failed {result['failed']}/"
                      f"{result['attempted']}", file=sys.stderr)
                seed += 1
                if args.out:  # keep what is done if a later run fails
                    write_evidence(args.out, bench, runs)

    first = next(r for r in runs)
    for line in first["header"][1:4]:
        print(line)
    for workload in names:
        mine = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        attempted = sum(r["attempted"] for r in mine)
        failed = sum(r["failed"] for r in mine)
        print(f"\n== {workload}: {len(mine)} untraced runs, failed_frac "
              f"{failed / attempted:.4f} ({failed} of {attempted} jobs), "
              f"run time {max(r['elapsed_s'] for r in mine):.1f} s at most")
        print(f"{'metric':<14} {'unit':<5} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'n':>3} {'spread':>7} {'bound':>6}  shift")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s in range(args.sets):
                values = [r["metrics"][name]["value"] for r in mine if r["set"] == s]
                median, q1, q3, width = spread(values)
                medians.append(median)
                shift = f"{median / medians[0] - 1:+.3f}" if s else ""
                print(f"{name:<14} {metric['unit']:<5} {s:>3} {median:>12.6g} {q1:>12.6g} "
                      f"{q3:>12.6g} {len(values):>3} {width:>7.3f} {bound:>6.3f}  {shift}")
        for r in (r for r in runs if r["workload"] == workload and r["trace"] == 1):
            print(f"-- traced run, seed {r['seed']}, set {r['set']}")
            for name, m in r["metrics"].items():
                print(f"   {name:<45} {m['value']:>14.6g} {m['unit']}")

    return 0


if __name__ == "__main__":
    raise SystemExit(main())
