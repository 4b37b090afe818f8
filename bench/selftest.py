"""Tests of the benchmark itself: a tiny run of each workload through the
benchmark command, and corrupted outputs that must count as failed runs.

    python3 bench/selftest.py

The file name keeps it out of the repository's pytest collection, so the
tier-1 suite does not pay for these runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path
from unittest import mock

import run  # sets BLAS threads and sys.path before fedpod loads

import fedpod.cli
from checks import check_artifacts, check_records
from tracer import Tracer, current_functions
from workloads import WORKLOADS, PartitionSpec, write_inputs

# Each workload at a size that runs in well under a second; the shapes that
# matter (all nodes, the injected straggler, CSV ingest) are kept.
TINY = {
    "all-nodes-1000": replace(
        WORKLOADS["all-nodes-1000"], keys={**WORKLOADS["all-nodes-1000"].keys, "cohort.institutions": "40"}
    ),
    "deep-local-23": replace(
        WORKLOADS["deep-local-23"],
        keys={**WORKLOADS["deep-local-23"].keys, "cohort.mean_samples": "60", "max_rounds": "9"},
    ),
    "csv-pid-2000": replace(
        WORKLOADS["csv-pid-2000"],
        keys={**WORKLOADS["csv-pid-2000"].keys, "max_rounds": "6"},
        partition=PartitionSpec(institutions=60),
    ),
}
SPEC = json.loads(run.SPEC_PATH.read_text(encoding="utf-8"))


def _scratch() -> tempfile.TemporaryDirectory:
    run.WORK_DIR.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.WORK_DIR)


class SpecTest(unittest.TestCase):
    def test_benchmark_json_names_the_defined_workloads(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(WORKLOADS))
        self.assertEqual([w["why"] for w in SPEC["workloads"]], [w.why for w in WORKLOADS.values()])


class SmokeTest(unittest.TestCase):
    def _main(self, name: str, trace: int, spans_dir: Path) -> dict:
        out = io.StringIO()
        with mock.patch.dict(run.WORKLOADS, {name: TINY[name]}), mock.patch.object(run, "SPANS_DIR", spans_dir):
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
        self.assertEqual(code, 0)
        return json.loads(out.getvalue().strip().splitlines()[-1])

    def test_each_workload_end_to_end_and_traced(self):
        for name in TINY:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace), _scratch() as spans_dir:
                    result = self._main(name, trace, Path(spans_dir))
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(list(result["metrics"]), [m["name"] for m in SPEC[section]])
                    if trace:
                        self.assertTrue(any(Path(spans_dir).iterdir()), "spans were not written")
                    else:
                        self.assertGreater(result["metrics"]["run_s"]["value"], 0)
                        self.assertEqual(result["metrics"]["passed_share"]["value"], 1.0)

    def test_deep_local_drops_the_injected_straggler(self):
        with _scratch() as spans_dir:
            result = self._main("deep-local-23", 1, Path(spans_dir))
        self.assertGreater(result["metrics"]["engine.dropped_share"]["value"], 0)


class CorruptionTest(unittest.TestCase):
    def setUp(self):
        self.enterContext(contextlib.redirect_stderr(io.StringIO()))  # failed runs report there
        self._dir = _scratch()
        work = Path(self._dir.name)
        self.bench = run.Bench(write_inputs(TINY["csv-pid-2000"], 5, work / "inputs"), work / "out")
        self.assertIsNotNone(self.bench.full_run())
        self.report = self.bench.report

    def tearDown(self):
        self._dir.cleanup()

    def _scaled_weights(self, report, factor):
        records = tuple(
            replace(r, weights=tuple((node, w * factor) for node, w in r.weights)) for r in report.records
        )
        return replace(report, records=records)

    def test_truncated_model_bin_fails_the_check(self):
        path = self.bench.out_dir / "model.bin"
        path.write_bytes(path.read_bytes()[:-8])
        self.assertTrue(check_artifacts(self.report, self.bench.out_dir))

    def test_weights_summing_to_0_9_fail_the_check(self):
        self.assertEqual(check_records(self.report), [])
        self.assertTrue(check_records(self._scaled_weights(self.report, 0.9)))

    def test_dropped_node_back_next_round_fails_the_check(self):
        first, second = self.report.records[:2]
        back = replace(first, dropped=(second.participants[0],), participants=first.participants + second.participants[:1])
        report = replace(self.report, records=(back, second) + self.report.records[2:])
        self.assertTrue(check_records(report))

    def test_metrics_csv_row_count_is_checked(self):
        path = self.bench.out_dir / "metrics.csv"
        path.write_text("".join(path.read_text(encoding="utf-8").splitlines(keepends=True)[:-1]), encoding="utf-8")
        self.assertTrue(check_artifacts(self.report, self.bench.out_dir))

    def test_bench_counts_a_truncated_model_bin_as_failed(self):
        original = fedpod.cli.write_model_bin

        def truncated(model, path):
            original(model, path)
            path.write_bytes(path.read_bytes()[:-1])

        with mock.patch.object(fedpod.cli, "write_model_bin", truncated):
            self.assertIsNone(self.bench.full_run())
        self.assertEqual((self.bench.attempted, self.bench.failed), (2, 1))

    def test_bench_counts_bad_weights_as_failed(self):
        original = fedpod.cli.run_experiment
        with mock.patch.object(fedpod.cli, "run_experiment", lambda cfg: self._scaled_weights(original(cfg), 0.9)):
            self.assertIsNone(self.bench.full_run())
        self.assertEqual(self.bench.failed, 1)

    def test_bench_counts_a_changed_digest_as_failed(self):
        self.bench.reference_digest = "0" * 64
        self.assertIsNone(self.bench.full_run())
        self.assertEqual(self.bench.failed, 1)

    def test_bench_counts_a_raising_run_as_failed(self):
        with mock.patch.object(fedpod.cli, "run_experiment", side_effect=RuntimeError("boom")):
            self.assertIsNone(self.bench.full_run())
        self.assertEqual(self.bench.failed, 1)


class TracerTest(unittest.TestCase):
    def test_functions_are_restored(self):
        before = current_functions()
        with Tracer():
            self.assertNotEqual(current_functions(), before)
        self.assertEqual(current_functions(), before)

    def test_functions_are_restored_after_an_exception(self):
        before = current_functions()
        with self.assertRaises(RuntimeError), Tracer():
            raise RuntimeError("inside a traced run")
        self.assertEqual(current_functions(), before)


if __name__ == "__main__":
    unittest.main()
