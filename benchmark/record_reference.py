#!/usr/bin/env python3
"""Record the headline numbers that default-seed runs are checked against.

    python3 benchmark/record_reference.py

Runs the first pass of every workload at the default seed, from the root of
a source checkout, checks each job's outputs and writes the jobs' headline
numbers to benchmark/reference.json.  If any job fails its checks, nothing
is written and the exit code is 1.  Re-record only when a change to the
program is meant to change its results, and say so with the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run  # pins BLAS/OpenMP threads before numpy loads
import checks
import workloads


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    out = Path.cwd() / ".bench_out" / "reference"
    reference = {}
    failed = 0
    try:
        for workload in workloads.WORKLOADS:
            headlines = []
            for job in workloads.make_pass(workload, run.DEFAULT_SEED, 0, out / workload):
                rc, stdout, result = workloads.execute(job)
                headline, problems = checks.check(job, rc, stdout, result)
                if problems:
                    failed += 1
                    print(f"error: {workload} {job.out.name} {job.kind} failed its "
                          f"checks: {'; '.join(problems)}", file=sys.stderr)
                headlines.append(headline)
            reference[workload] = headlines
            print(f"{workload}: {len(headlines)} jobs recorded")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if failed:
        print(f"error: {failed} jobs failed their checks; {run.REFERENCE} left unchanged",
              file=sys.stderr)
        return 1
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
