"""Self-tests for the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

They take about a minute: every check spawns real operations.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNT, SPAN  # noqa: E402

ROOT = os.getcwd()
SEED = 0

# cheap operations that still reach every layer: actions and maps
# (commuting), families and structures (compare-lr on Z^2), the ball cache
# (ball on F(2)) and transfer (a library recipe and gromov)
SAMPLE = [
    ("readme-dihedral", "7:commuting"),
    ("readme-dihedral", "4:map-check"),
    ("abelian-battery", "2:mult-born"),
    ("free-growth", "3:fc"),
    ("transfer-tables", "1:transfer-power-3"),
    ("transfer-tables", "3:gromov"),
]


def _sample_ops() -> list:
    out = []
    for workload, op_id in SAMPLE:
        ops = {op["id"]: op for op in workloads.operations(workload, SEED)}
        out.append((workload, ops[op_id]))
    return out


def _counts(trace: dict) -> dict:
    return {k: v for k, v in trace.items() if not k.endswith("_s") and not k.endswith(".s")}


class TracingTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.records = {}
        for workload, op in _sample_ops():
            cls.records[op["id"]] = [run.spawn(ROOT, op, mode) for mode in (0, SPAN, COUNT, SPAN, COUNT)]

    def test_output_bytes_do_not_depend_on_tracing(self):
        for op_id, recs in self.records.items():
            for rec in recs:
                self.assertIsNone(rec.get("error"), op_id)
            self.assertEqual({r["sha256"] for r in recs}, {recs[0]["sha256"]}, op_id)

    def test_self_times_sum_to_the_traced_operation_time(self):
        for op_id, recs in self.records.items():
            for rec in (recs[1], recs[3]):
                self_sum = sum(v for k, v in rec["trace"].items() if k.endswith(".self_s"))
                self.assertAlmostEqual(self_sum, rec["op_s"], delta=max(0.002, 0.01 * rec["op_s"]),
                                       msg=op_id)

    def test_counts_repeat_exactly(self):
        for op_id, recs in self.records.items():
            self.assertEqual(_counts(recs[1]["trace"]), _counts(recs[3]["trace"]), op_id)
            self.assertEqual(recs[2]["trace"], recs[4]["trace"], op_id)
            self.assertTrue(recs[2]["trace"], op_id)

    def test_no_trace_target_is_missing(self):
        for op_id, recs in self.records.items():
            self.assertEqual(recs[1]["missing"] + recs[2]["missing"], [], op_id)


class CorrectnessTest(unittest.TestCase):
    def setUp(self):
        with open(run.EXPECTED) as fh:
            self.expected = json.load(fh)

    def test_a_wrong_frozen_digest_fails_the_operation(self):
        workload, op = _sample_ops()[0]
        rec = run.spawn(ROOT, op, 0)
        self.assertIsNone(run.check(rec, workload, op, SEED, self.expected))
        self.expected["digests"][str(SEED)][workload][op["id"]] = "0" * 64
        self.assertIn("digest", run.check(rec, workload, op, SEED, self.expected))
        passes = run.run_pass(ROOT, [op], 0, workload, SEED, self.expected)
        self.assertTrue(passes[0]["failure"])

    def test_other_seeds_check_exit_codes_and_verdicts(self):
        workload, op = _sample_ops()[0]
        rec = run.spawn(ROOT, op, 0)
        self.assertIsNone(run.check(rec, workload, op, 12345, self.expected))
        self.assertIn("verdicts", run.check(dict(rec, verdicts=["FAIL"]), workload, op, 12345,
                                            self.expected))

    def test_exits_nonzero_without_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "free-growth",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
