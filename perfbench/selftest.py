"""Self-test of the benchmark on tiny seeded instances.

Run with ``python3 perfbench/selftest.py`` from the root of a checkout.
Checks that both passes emit every metric ``BENCHMARK.json`` names, and
that a corrupted output byte and a non-zero exit each count as failed.
"""

import dataclasses
import json
import shutil
import tempfile
import unittest
from pathlib import Path

import run
from trace_pass import traced

SEED = 5


def tiny(workload: run.Workload) -> run.Workload:
    """The same job shape on a 64-node planted input."""
    return dataclasses.replace(workload, input_kind="planted", planted_sizes=(16,) * 4)


class SelfTest(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(dir=run.WORK))
        self.launcher = run.Launcher()

    def tearDown(self):
        self.launcher.close()
        shutil.rmtree(self.workdir, ignore_errors=True)

    def test_every_metric_is_emitted(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        e2e = {m["name"] for m in bench["end_to_end"]}
        per_layer = {m["name"] for m in bench["per_layer"]}
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        for workload in map(tiny, run.WORKLOADS.values()):
            with self.subTest(workload=workload.name):
                result = run.end_to_end(self.launcher, workload, SEED, 0.0, self.workdir)
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]), e2e)
                result = traced(self.launcher, workload, SEED, self.workdir)
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]), per_layer)

    def test_corrupted_byte_is_a_failure(self):
        workload = tiny(run.WORKLOADS["planted-a1-lex"])
        inp = run.make_input(workload, SEED, self.workdir, 1)
        job = self.launcher.run(
            run.cli_argv(workload, inp.path), self.workdir / "out", self.workdir / "err"
        )
        corrupt = bytearray(job.output)
        corrupt[len(corrupt) // 2] ^= 0x01
        bad = dataclasses.replace(job, output=bytes(corrupt))

        checker = run.OutputChecker(workload, inp, SEED)
        self.assertTrue(checker.ok(job))
        self.assertFalse(checker.ok(bad))

        # first output of a run, checked against a golden hash
        golden = run.golden_hash
        run.golden_hash = lambda w, s: run.sha256(job.output)
        try:
            self.assertFalse(run.OutputChecker(workload, inp, SEED).ok(bad))
        finally:
            run.golden_hash = golden

        # first output of a run, checked structurally: a node listed twice
        doc = json.loads(job.output)
        doc["singletons"].append(doc["singletons"][0] if doc["singletons"] else "n00")
        extra = dataclasses.replace(job, output=json.dumps(doc).encode())
        self.assertFalse(run.OutputChecker(workload, inp, SEED).ok(extra))

    def test_nonzero_exit_is_a_failure(self):
        # alpha 3 on a two-layer network is a data error (exit code 2)
        workload = tiny(run.WORKLOADS["scenario-a1-measure"])
        workload = dataclasses.replace(workload, cli=("measure", "--alpha", "3"))
        result = run.end_to_end(self.launcher, workload, SEED, 0.0, self.workdir)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    run.import_clecc()
    unittest.main()
