#!/usr/bin/env python3
"""One benchmark run of `oamsense`, from the root of a source checkout.

    python3 benchmark/run.py --workload beam_sim --seed 1 --seconds 30 --trace 0

The run is one interpreter running one client in a closed loop: jobs run one
after another, each starting when the previous one ends, and passes of the
workload's fixed job list repeat until about `--seconds` have been spent
(at least one pass; two with tracing).  Every job's outputs are checked
(checks.py); at the default seed the first pass's headline numbers must also
match reference.json.  The program is imported from ./src, with BLAS and
OpenMP pinned to one thread.

Between jobs, at a steady pace through the run, `SETUP_RUNS` fresh
interpreters each time `import oamsense` plus loading the bundled dataset;
their median is `setup_s`.  Their time counts towards `--seconds`.

--trace 0 reports the end-to-end metrics:
  setup_s      median set-up time of a fresh interpreter (s)
  wall_s       median wall time of one pass of the job list (s)
  peak_rss_mb  peak resident memory of this process (MB)

--trace 1 alternates untraced and traced passes over the same inputs and
reports per-layer metrics: for each wrapped function `<module>.<fn>.calls`
and `.self_s`, plus exact pixel and byte counts, the make_lg calls per
conversion_metrics call, the set-up split, and the tracer's own overhead and
the remainder of traced wall time not covered by any span.  Counts are those
of the first traced pass; times are means over traced passes.  The client
layer adds job latency p50/p90 over the untraced passes and failed_frac.
Job percentiles are not end-to-end metrics: short CLI jobs slow down more
than the pass total when the host is busy, so across runs their spread
exceeds any bound the pass time can hold.

A human-readable table goes to stdout first; the last line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

#: BLAS/OpenMP pools pinned to one thread, set before numpy loads here or in
#: any child interpreter.
THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, result_pixels, summarize, written_bytes  # noqa: E402

DEFAULT_SEED = 1
SETUP_RUNS = 11
FAILURES_SHOWN = 5
SETUP_TIMEOUT_S = 60
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Functions wrapped in traced passes, with their exact per-call counts.
#: Small helpers (noise.tau_*, beams.apply_mask, ...) are left unwrapped: a
#: wrapper costs about as much as they do, so their time shows in the
#: caller's self time.  cli.main's self time covers config parsing,
#: formatting and atomic writes of every subcommand.
TRACED = (
    ("beams", "make_lg", result_pixels),
    ("beams", "fidelity", None),
    ("beams", "conversion_metrics", None),
    ("beams", "fidelity_vs_wavelength", None),
    ("beams", "azimuthal_spectrum", None),
    ("beams", "save_raster", written_bytes),
    ("swg", "generate_layout", None),
    ("swg", "retune_layout", None),
    ("swg", "layout_to_mask", result_pixels),
    ("swg", "export_layout", written_bytes),
    ("device", "load_dataset", None),
    ("device", "interpolate", None),
    ("noise", "budget", None),
    ("noise", "optimize_ncav", None),
    ("noise", "write_budget_sweep", written_bytes),
    ("mechanics", "response_curve", None),
    ("mechanics", "save_response_curve", written_bytes),
    ("mechanics", "fit_gm", None),
    ("cli", "main", None),
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

SETUP_CODE = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import oamsense
t1 = time.perf_counter()
oamsense.device.load_sample_dataset()
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1, oamsense.__file__]))
"""


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name a traced run reports, with its unit."""
    units = {}
    for module, fn, count in TRACED:
        name = f"{module}.{fn}"
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if count is result_pixels:
            units[f"{name}.pixels"] = "count"
        elif count is written_bytes:
            units[f"{name}.bytes"] = "B"
    units["beams.conversion_metrics.total_s"] = "s"
    units["beams.conversion_metrics.make_lg_per_call"] = "count"
    units["setup.import_s"] = "s"
    units["setup.load_dataset_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.remainder_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    units["trace.spans"] = "count"
    units["client.jobs"] = "count"
    units["client.failed_frac"] = "ratio"
    units["client.job_p50_ms"] = "ms"
    units["client.job_p90_ms"] = "ms"
    return units


def environment() -> list[str]:
    import scipy

    load1, load5, load15 = os.getloadavg()
    pinned = " ".join(f"{k}={os.environ[k]}" for k in THREAD_VARS)
    return [
        f"python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}",
        f"nproc {len(os.sched_getaffinity(0))}, {pinned}",
        f"load average at start {load1:.2f} {load5:.2f} {load15:.2f}",
    ]


def time_setup(src: Path) -> tuple[float, float]:
    """Import and dataset-load time of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(src)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    import_s, load_s, module_file = json.loads(proc.stdout.splitlines()[-1])
    if not Path(module_file).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"set-up imported oamsense from {module_file}, not {src}")
    return import_s, load_s


class SetupTimer:
    """Set-up times of fresh interpreters, taken at a steady pace through the run.

    Host speed drifts over tens of seconds, so set-ups timed all at once
    would see another stretch of that drift than the passes do, and their
    median would spread more from run to run.  `keep_pace` runs between
    jobs: it times set-ups until their share of `SETUP_RUNS` catches up with
    the share of `seconds` elapsed.  `finish` times the rest.
    """

    def __init__(self, src: Path, seconds: float):
        self.src = src
        self.seconds = seconds
        self.times: list[tuple[float, float]] = []
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def keep_pace(self, due: int | None = None) -> None:
        if due is None:
            due = min(SETUP_RUNS, 1 + int((SETUP_RUNS - 1) * self.elapsed() / self.seconds))
        while len(self.times) < due:
            self.times.append(time_setup(self.src))

    def finish(self) -> list[tuple[float, float]]:
        self.keep_pace(SETUP_RUNS)
        return self.times


@dataclass
class PassRecord:
    """Timings and problems of one pass; `spans` is set for traced passes."""

    k: int
    traced: bool
    job_s: list[float] = field(default_factory=list)
    problems: list[tuple[str, list[str]]] = field(default_factory=list)
    spans: tuple[int, int] | None = None

    @property
    def wall_s(self) -> float:
        return sum(self.job_s)


def run_pass(workload: str, seed: int, k: int, input_set: int, run_dir: Path,
             tracer: Tracer | None, reference: list | None, targets,
             between_jobs) -> PassRecord:
    record = PassRecord(k, tracer is not None)
    pass_dir = run_dir / f"p{k:03d}"
    jobs = workloads.make_pass(workload, seed, input_set, pass_dir)
    if reference is not None and len(reference) != len(jobs):
        raise RuntimeError(f"reference holds {len(reference)} jobs, pass has {len(jobs)}")
    if tracer is not None:
        first = len(tracer.spans)
        tracer.install(targets)
    try:
        for i, job in enumerate(jobs):
            between_jobs()
            t0 = time.perf_counter()
            try:
                rc, stdout, result = workloads.execute(job)
            except Exception:  # a job that raises is a failed job; the run goes on
                rc, stdout, result = -1, "", None
                error = traceback.format_exc().strip().splitlines()[-1]
            t1 = time.perf_counter()
            record.job_s.append(t1 - t0)
            if rc == -1:
                problems = [error]
            else:
                headline, problems = checks.check(job, rc, stdout, result)
                if reference is not None and headline:
                    problems += checks.compare_reference(job.kind, headline, reference[i])
            if problems:
                record.problems.append((f"pass {k} {job.out.name} {job.kind}", problems))
            shutil.rmtree(job.out, ignore_errors=True)
    finally:
        if tracer is not None:
            tracer.uninstall()
            record.spans = (first, len(tracer.spans))
        shutil.rmtree(pass_dir, ignore_errors=True)
    return record


def run_loop(workload: str, seed: int, run_dir: Path, tracer: Tracer | None,
             targets, setup: SetupTimer) -> list[PassRecord]:
    """Closed loop of passes until the next one would mostly overrun `seconds`.

    With a tracer, even passes run untraced and odd passes traced, pass 2j
    and 2j + 1 sharing input set j, so their ratio is the tracing overhead.
    """
    reference = None
    if seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload]
    min_passes = 2 if tracer is not None else 1
    records: list[PassRecord] = []
    while True:
        k = len(records)
        traced = tracer is not None and k % 2 == 1
        input_set = k // 2 if tracer is not None else k
        records.append(run_pass(workload, seed, k, input_set, run_dir,
                                tracer if traced else None,
                                reference if input_set == 0 else None, targets,
                                setup.keep_pace))
        elapsed = setup.elapsed()
        if len(records) >= min_passes and \
                elapsed + 0.5 * elapsed / len(records) >= setup.seconds:
            return records


def quartiles(values) -> tuple[float, float, float]:
    q1, q2, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return float(q1), float(q2), float(q3)


def untraced_job_ms(records: list[PassRecord]) -> list[float]:
    return [s * 1e3 for r in records if not r.traced for s in r.job_s]


def end_to_end(records: list[PassRecord], setup) -> dict[str, tuple[float, list[float]]]:
    """Each metric's value with the samples it summarizes."""
    setup_s = [a + b for a, b in setup]
    walls = [r.wall_s for r in records]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setup_s), setup_s),
        "wall_s": (statistics.median(walls), walls),
        "peak_rss_mb": (rss_mb, [rss_mb]),
    }


def per_layer(records: list[PassRecord], setup, spans: list) -> dict[str, tuple[float, list[float]]]:
    traced = [r for r in records if r.traced]
    untraced = {r.k + 1: r for r in records if not r.traced}
    summaries = [summarize(spans[a:b], offset=a) for a, b in (r.spans for r in traced)]
    first = summaries[0]
    units = per_layer_units()
    out: dict[str, tuple[float, list[float]]] = {}

    def put(name, samples):
        """Counts are kept as measured; times are averaged over traced passes."""
        out[name] = (samples[0] if len(samples) == 1 else statistics.fmean(samples), samples)

    for module, fn, _ in TRACED:
        name = f"{module}.{fn}"
        rows = [s.get(name, {}) for s in summaries]
        put(f"{name}.calls", [first.get(name, {}).get("calls", 0)])
        put(f"{name}.self_s", [row.get("self_s", 0.0) for row in rows])
        for extra in ("pixels", "bytes"):
            if f"{name}.{extra}" in units:
                put(f"{name}.{extra}", [first.get(name, {}).get(extra, 0)])
    conv = "beams.conversion_metrics"
    put(f"{conv}.total_s", [s.get(conv, {}).get("total_s", 0.0) for s in summaries])
    conv_calls = first.get(conv, {}).get("calls", 0)
    under = first.get("beams.make_lg", {}).get(f"under.{conv}", 0)
    put(f"{conv}.make_lg_per_call", [under / conv_calls if conv_calls else 0.0])
    put("setup.import_s", [statistics.median(a for a, _ in setup)])
    put("setup.load_dataset_s", [statistics.median(b for _, b in setup)])
    put("trace.wall_s", [r.wall_s for r in traced])
    put("trace.remainder_s", [r.wall_s - sum(row["self_s"] for row in s.values())
                              for r, s in zip(traced, summaries)])
    paired = [(r.wall_s, untraced[r.k].wall_s) for r in traced if r.k in untraced]
    put("trace.overhead_frac", [sum(t for t, _ in paired) / sum(u for _, u in paired) - 1.0])
    put("trace.spans", [traced[0].spans[1] - traced[0].spans[0]])
    attempted = sum(len(r.job_s) for r in records)
    put("client.jobs", [attempted])
    put("client.failed_frac", [sum(len(r.problems) for r in records) / attempted])
    jobs_ms = untraced_job_ms(records)
    out["client.job_p50_ms"] = (float(np.percentile(jobs_ms, 50)), jobs_ms)
    out["client.job_p90_ms"] = (float(np.percentile(jobs_ms, 90)), jobs_ms)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "oamsense" / "__init__.py").is_file():
        print(f"error: {src / 'oamsense'} not found; run from the root of an oamsense "
              "source checkout", file=sys.stderr)
        return 2
    env_lines = environment()
    sys.path.insert(0, str(src))
    import oamsense

    targets = [(getattr(oamsense, m), fn, count) for m, fn, count in TRACED]
    tracer = Tracer() if args.trace else None
    out_root = root / ".bench_out"
    run_dir = out_root / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    timer = SetupTimer(src, args.seconds)
    try:
        records = run_loop(args.workload, args.seed, run_dir, tracer, targets, timer)
        setup = timer.finish()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if tracer is not None:
        tracer.write(out_root / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = per_layer(records, setup, tracer.spans)
        units = per_layer_units()
    else:
        metrics = end_to_end(records, setup)
        units = END_TO_END_UNITS

    attempted = sum(len(r.job_s) for r in records)
    failures = [(where, p) for r in records for where, p in r.problems]
    print(f"# oamsense benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {len(records)} passes, {attempted} jobs")
    for line in env_lines:
        print(f"# {line}")
    jobs_ms = untraced_job_ms(records)
    p50, p90 = np.percentile(jobs_ms, [50, 90])
    print(f"# job latency p50 {p50:.6g} ms, p90 {p90:.6g} ms over {len(jobs_ms)} untraced jobs")
    print(f"# failed_frac {len(failures) / attempted:.4f} ({len(failures)} of {attempted})")
    for where, problems in failures[:FAILURES_SHOWN]:
        print(f"# FAILED {where}: {'; '.join(problems)}")
    if len(failures) > FAILURES_SHOWN:
        print(f"# ... and {len(failures) - FAILURES_SHOWN} more failed jobs")
    print(f"{'metric':<45} {'value':>14} {'q1':>14} {'q3':>14} {'n':>5}  unit")
    for name, (value, samples) in metrics.items():
        q1, _, q3 = quartiles(samples)
        print(f"{name:<45} {value:>14.6g} {q1:>14.6g} {q3:>14.6g} {len(samples):>5}  {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
