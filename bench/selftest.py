"""Tests of the benchmark's own logic.

Run from the repository root: ``python3 bench/selftest.py``.  They are kept
out of the library's pytest suite on purpose (the file name does not match
``test_*.py``) and take a few seconds.
"""

from __future__ import annotations

import csv
import importlib
import json
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import trace_run  # noqa: E402


def span(name, parent, start, end, n=None):
    return [name, parent, start, end, n]


class SelfTimeTest(unittest.TestCase):
    # root [0, 10] -> a [1, 4] -> b [1.5, 2.5], b [3, 3.5]; root -> a [5, 9]
    SPANS = [
        span("root", -1, 0.0, 10.0),
        span("a", 0, 1.0, 4.0, 64),
        span("b", 1, 1.5, 2.5, 64),
        span("b", 1, 3.0, 3.5, 16),
        span("a", 0, 5.0, 9.0, 64),
    ]

    def test_self_time_is_duration_minus_children(self):
        self.assertEqual(trace_run.self_times(self.SPANS), [3.0, 1.5, 1.0, 0.5, 4.0])

    def test_self_times_sum_to_root(self):
        self.assertAlmostEqual(sum(trace_run.self_times(self.SPANS)), 10.0, places=12)

    def test_summary(self):
        summary = trace_run.summarize(self.SPANS)
        self.assertEqual(summary["a"], {"calls": 2, "s": 7.0, "self_s": 5.5, "ms_n64": 3500.0})
        self.assertEqual(summary["b"], {"calls": 2, "s": 1.5, "self_s": 1.5, "ms_n64": 1000.0})
        self.assertEqual(summary["root"]["ms_n64"], 0.0)

    def test_tracer_nesting_and_redundant_trials(self):
        tracer = trace_run.Tracer()
        noop = lambda *args: None  # noqa: E731
        for _matrix in range(2):
            tracer.call("montecarlo.target_matrix", noop, 0, 4, 0)
            for deviation in (0.0, 0.0, 0.0, 0.1):
                tracer.call("outer", tracer.wrap("clements.apply_common_deviation", noop),
                            None, deviation, 0.0)
        # Per matrix, the second and third zero-deviation trials repeat the first.
        self.assertEqual(tracer.redundant_trials, 4)
        parents = [s[1] for s in tracer.spans]
        self.assertEqual(parents[:3], [-1, -1, 1])
        self.assertTrue(all(s[3] >= s[2] for s in tracer.spans))


class CheckerTest(unittest.TestCase):
    WORKLOAD = run.WORKLOADS["phase-svd"]
    SEED = run.DEFAULT_SEED

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.reference = run.load_reference(self.WORKLOAD, self.SEED)
        self.assertIsNotNone(self.reference, "reference CSV for the default seed is committed")

    def write(self, rows) -> Path:
        path = Path(self.tmp.name) / "out.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        return path

    def check(self, path, returncode=0):
        return run.check_csv(self.WORKLOAD, self.SEED, path, returncode, self.reference)

    def perturbed(self, index, delta):
        rows = [dict(r) for r in self.reference]
        rows[index]["fidelity_mean"] = repr(float(rows[index]["fidelity_mean"]) + delta)
        return rows

    def test_reference_passes(self):
        failed, problems, samples = self.check(self.write(self.reference))
        self.assertEqual((failed, problems), (0, []))
        self.assertEqual(samples, len(self.reference) * self.WORKLOAD.samples_per_point)

    def test_reordering_drift_passes(self):
        failed, _problems, _samples = self.check(self.write(self.perturbed(1, 1e-15)))
        self.assertEqual(failed, 0)

    def test_perturbed_row_fails(self):
        failed, problems, _samples = self.check(self.write(self.perturbed(1, 1e-6)))
        self.assertEqual(failed, 1)
        self.assertIn("reference", problems[0])

    def test_missing_row_fails(self):
        failed, _problems, _samples = self.check(self.write(self.reference[1:]))
        self.assertEqual(failed, 1)

    def test_missing_csv_fails_every_point(self):
        failed, _problems, samples = self.check(Path(self.tmp.name) / "absent.csv")
        self.assertEqual((failed, samples), (len(self.WORKLOAD.points()), 0))

    def test_nonzero_exit_fails_every_point(self):
        failed, problems, _samples = self.check(self.write(self.reference), returncode=2)
        self.assertEqual(failed, len(self.WORKLOAD.points()))
        self.assertEqual(problems, ["exit code 2"])

    def test_invariants_without_reference(self):
        rows = [dict(r) for r in self.reference]
        rows[0]["fidelity_mean"] = "0.99"  # a sigma = 0 row
        rows[1]["n_samples"] = "7"
        rows[2]["fidelity_mean"] = "nan"
        failed, _problems, _samples = run.check_csv(
            self.WORKLOAD, self.SEED, self.write(rows), 0, None)
        self.assertEqual(failed, 3)

    def test_spawn_reports_exit_code(self):
        log = Path(self.tmp.name) / "spawn.log"
        measured = run.spawn([sys.executable, "-c", "import sys; sys.exit(3)"], log)
        self.assertEqual(measured.returncode, 3)
        self.assertGreater(measured.wall_s, 0.0)

    def test_quartiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual([run.quartile(values, k) for k in range(3)], [2.0, 3.0, 4.0])
        self.assertEqual(run.quartile([1.5], 2), 1.5)


class RestoreTest(unittest.TestCase):
    def originals(self):
        return {
            (module, attr): getattr(importlib.import_module(module), attr)
            for module, attr, _span in trace_run.WRAPPED
        }

    def test_wrappers_restored_after_traced_run(self):
        before = self.originals()
        with tempfile.TemporaryDirectory() as tmp:
            out = str(Path(tmp) / "phase.csv")
            code, tracer, missing = trace_run.traced_run([
                "fidelity-phase", "--arch", "xbar,svd-clements", "--n", "4", "--sigma", "0:0.1:0.1",
                "--matrices", "1", "--trials", "2", "--threads", "1", "--out", out,
                "--svg", out + ".svg",
            ])
        self.assertEqual((code, missing), (0, []))
        self.assertEqual(self.originals(), before)
        names = {s[0] for s in tracer.spans}
        self.assertTrue({name for _m, _a, name in trace_run.WRAPPED} - names
                        <= {"montecarlo.loss_fidelity_sweep", "clements.with_loss",
                            "nodes.node_loss_model"})
        root = tracer.spans[0]
        self.assertAlmostEqual(sum(trace_run.self_times(tracer.spans)), root[3] - root[2], places=9)
        self.assertEqual(tracer.redundant_trials, 2)  # one sigma = 0 repeat per architecture

    def test_wrappers_restored_when_run_raises(self):
        from crossmesh import cli

        before = self.originals()
        real = cli.run_experiment

        def boom(argv):
            raise RuntimeError("boom")

        cli.run_experiment = boom
        try:
            with self.assertRaises(RuntimeError):
                trace_run.traced_run([])
        finally:
            cli.run_experiment = real
        self.assertEqual(self.originals(), before)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_runner(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual(spec["run_seconds"], run.DEFAULT_SECONDS)


if __name__ == "__main__":
    unittest.main()
