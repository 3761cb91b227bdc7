#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of oamsense).

    python3 benchmark/selftest.py

* one seed yields byte-identical generated inputs;
* the tracer's self-time arithmetic is right on synthetic nested calls;
* a corrupted output file is counted as a failed job;
* pulse-budget still fails its checks (an expected failure that marks when
  it can rejoin design_sweep);
* BENCHMARK.json names exactly the metrics run.py reports.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
import types
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402  (pins BLAS/OpenMP threads before numpy loads)
import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times, summarize  # noqa: E402


class TempDirTest(unittest.TestCase):
    def setUp(self):
        scratch = ROOT / ".bench_out"
        scratch.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
        self.addCleanup(shutil.rmtree, self.tmp, True)


def snapshot(pass_dir: Path, jobs) -> tuple[dict, list]:
    """Generated files by relative name, and jobs with paths made relative."""
    files = {str(p.relative_to(pass_dir)): p.read_bytes()
             for p in sorted(pass_dir.rglob("*")) if p.is_file()}
    calls = [(j.kind, [a.replace(str(pass_dir), "<pass>") for a in j.argv], j.params)
             for j in jobs]
    return files, calls


class GeneratedInputs(TempDirTest):
    def test_same_seed_gives_identical_inputs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                a = snapshot(self.tmp / f"{workload}-a",
                             workloads.make_pass(workload, 7, 3, self.tmp / f"{workload}-a"))
                b = snapshot(self.tmp / f"{workload}-b",
                             workloads.make_pass(workload, 7, 3, self.tmp / f"{workload}-b"))
                c = snapshot(self.tmp / f"{workload}-c",
                             workloads.make_pass(workload, 8, 3, self.tmp / f"{workload}-c"))
                self.assertTrue(a[0])
                self.assertEqual(a, b)
                self.assertNotEqual(a[0], c[0])

    def test_seed_keeps_the_amount_of_work(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                shapes = []
                for seed in (1, 2):
                    jobs = workloads.make_pass(workload, seed, 0, self.tmp / f"{workload}{seed}")
                    shapes.append([(j.kind, j.params.get("rows"), j.params.get("n"),
                                    len(j.params.get("lambdas", ()))) for j in jobs])
                self.assertEqual(shapes[0], shapes[1])


class TracerArithmetic(unittest.TestCase):
    def test_self_time_of_nested_calls(self):
        ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
        tracer = Tracer(clock=lambda: next(ticks))
        inner = tracer.wrap("m.inner", lambda: None)

        def body():
            inner()
            inner()

        tracer.wrap("m.outer", body)()
        self.assertEqual([s[3] for s in tracer.spans], [-1, 0, 0])
        self.assertEqual(self_times(tracer.spans), [5.0, 2.0, 3.0])
        summary = summarize(tracer.spans)
        self.assertEqual(summary["m.outer"], {"calls": 1, "self_s": 5.0, "total_s": 10.0})
        self.assertEqual(summary["m.inner"],
                         {"calls": 2, "self_s": 5.0, "total_s": 5.0, "under.m.outer": 2})

    def test_overlapping_children_are_not_counted_twice(self):
        spans = [["p", 0.0, 10.0, -1, None], ["c", 1.0, 4.0, 0, None],
                 ["c", 3.0, 6.0, 0, None], ["c", 9.0, 12.0, 0, None]]
        self.assertEqual(self_times(spans)[0], 10.0 - 5.0 - 1.0)

    def test_slice_offset(self):
        spans = [["x", 0.0, 1.0, -1, None], ["p", 2.0, 6.0, -1, None], ["c", 3.0, 4.0, 1, None]]
        self.assertEqual(self_times(spans[1:], offset=1), [3.0, 1.0])

    def test_install_catches_calls_through_module_globals(self):
        module = types.ModuleType("fake.mod")
        exec("def leaf():\n    return 1\n\ndef root():\n    return leaf() + leaf()\n",
             module.__dict__)
        original = module.root
        tracer = Tracer()
        tracer.install([(module, "root", None), (module, "leaf", None)])
        self.assertEqual(module.root(), 2)
        tracer.uninstall()
        self.assertIs(module.root, original)
        self.assertEqual([(s[0], s[3]) for s in tracer.spans],
                         [("mod.root", -1), ("mod.leaf", 0), ("mod.leaf", 0)])


class CorruptedOutput(TempDirTest):
    CORRUPTIONS = {
        "non-finite value": lambda lines: lines[:5] + ["nan," + lines[5].split(",", 1)[1]]
        + lines[6:],
        "missing row": lambda lines: lines[:-1],
        "unparseable cell": lambda lines: lines[:3] + ["x" + lines[3]] + lines[4:],
    }

    def test_corrupted_file_counts_as_failed_job(self):
        import oamsense  # noqa: F401  (from ./src, via sys.path above)

        job = workloads.make_pass("design_sweep", 1, 0, self.tmp / "gen")[1]
        self.assertEqual(job.kind, "mech-response")

        def one_job(workload, seed, k, pass_dir):
            return [job]

        for label, corrupt in self.CORRUPTIONS.items():
            def execute_and_corrupt(j, corrupt=corrupt):
                outcome = workloads.execute(j)
                path = j.out / "response.csv"
                lines = path.read_text(encoding="utf-8").splitlines()
                path.write_text("\n".join(corrupt(lines)) + "\n", encoding="utf-8")
                return outcome

            with self.subTest(corruption=label), \
                    mock.patch.object(workloads, "make_pass", one_job):
                clean = run.run_pass("design_sweep", 1, 0, 0, self.tmp / "clean", None, None, [],
                                     lambda: None)
                self.assertEqual(clean.problems, [])
                with mock.patch.object(workloads, "execute", execute_and_corrupt):
                    record = run.run_pass("design_sweep", 1, 0, 0, self.tmp / "bad", None,
                                          None, [], lambda: None)
                self.assertEqual(len(record.job_s), 1)
                self.assertEqual(len(record.problems), 1, record.problems)

    def test_reference_mismatch_is_a_problem(self):
        self.assertEqual(checks.compare_reference("noise-sweep", {"a": 1.0}, {"a": 1.0}), [])
        self.assertTrue(checks.compare_reference("noise-sweep", {"a": 1.0}, {"a": 1.001}))

    def test_beam_sim_tolerance_is_one_printed_digit(self):
        ref = {"eta": 0.8312, "order_1": 0.966436}
        self.assertEqual(checks.compare_reference(
            "beam-sim", {"eta": 0.8313, "order_1": 0.966437}, ref), [])
        self.assertTrue(checks.compare_reference(
            "beam-sim", {"eta": 0.8314, "order_1": 0.966436}, ref))
        self.assertTrue(checks.compare_reference(
            "beam-sim", {"eta": 0.8312, "order_1": 0.966438}, ref))


class KnownDefect(TempDirTest):
    @unittest.expectedFailure
    def test_pulse_budget_passes_its_checks(self):
        """pulse-budget stays out of design_sweep while this fails.

        `noise.write_budget_sweep` writes `repr()` of NumPy scalars, so
        pulse_ncav_sweep.csv holds `np.float64(...)` cells under NumPy 2.
        When this reports an unexpected success, put pulse-budget back into
        `workloads.SWEEP_CYCLE`, re-record reference.json and drop this test.
        """
        import oamsense  # noqa: F401  (from ./src, via sys.path above)

        inputs = self.tmp / "inputs"
        inputs.mkdir()
        job = workloads.sweep_job("pulse-budget", 0, random.Random(1), inputs,
                                  self.tmp / "outputs")
        rc, stdout, result = workloads.execute(job)
        self.assertEqual(checks.check(job, rc, stdout, result)[1], [])


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_match_run(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.per_layer_units())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
