"""Self-test of the benchmark at tiny input sizes (stdlib unittest and numpy).

    python3 bench/selftest.py

Checks that every metric of BENCHMARK.json is printed with its unit, that a
corrupt shard or a failed check is counted as a failed op rather than
aborting the run, and that the benchmark exits non-zero without printing a
result in a directory that holds no program.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import types
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SCRATCH = os.path.join(ROOT, ".bench_runs", "selftest")
sys.path.insert(0, BENCH)

import tracer  # noqa: E402
import worker  # noqa: E402  (puts the checkout's src/ on sys.path)
from workloads import WORKLOADS  # noqa: E402

from subquant import solver  # noqa: E402


def run_bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run_bench.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170)


def fresh_dir(name: str) -> str:
    path = os.path.join(SCRATCH, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class MetricNames(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
        for wl in spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=wl["name"], trace=trace):
                    out = run_bench("--workload", wl["name"], "--seed", "3",
                                    "--seconds", "1", "--trace", str(trace),
                                    "--profile", "tiny")
                    self.assertEqual(out.returncode, 0, out.stderr)
                    res = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(res), {"correct", "attempted", "failed",
                                                "metrics"})
                    self.assertTrue(res["correct"], out.stderr)
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(
                        {name: m["unit"] for name, m in res["metrics"].items()},
                        {m["name"]: m["unit"] for m in spec[key]})
                    for name, m in res["metrics"].items():
                        self.assertTrue(math.isfinite(m["value"]), name)
                        if trace == 0:
                            self.assertGreater(m["value"], 0, name)

    def test_traced_run_writes_spans(self):
        out = run_bench("--workload", "wide", "--seed", "4", "--seconds", "1",
                        "--trace", "1", "--profile", "tiny")
        self.assertEqual(out.returncode, 0, out.stderr)
        spans = tracer.read_jsonl(os.path.join(ROOT, ".bench_runs",
                                               "wide-seed4-trace1", "spans.jsonl"))
        names = {s["name"] for s in spans}
        self.assertTrue({"op", "linalg.sym_eig", "synth.generate_instance"} <= names)
        for s in spans:
            self.assertTrue({"name", "start", "end", "parent", "op"} <= set(s))
            self.assertLessEqual(s["start"], s["end"])


class FailuresAreCounted(unittest.TestCase):
    def run_ops(self, name, corrupt=None):
        inputs = fresh_dir(name)
        WORKLOADS[name](inputs, 5, "tiny").setup()
        if corrupt is not None:
            corrupt(inputs)
        wl = WORKLOADS[name](inputs, 5, "tiny")
        wl.load()
        with contextlib.redirect_stderr(io.StringIO()):
            return worker.run_pass(wl, 0.2)

    def test_corrupt_shard(self):
        def truncate_shard(inputs):
            path = os.path.join(inputs, "attn-input.x001.cqt")
            with open(path, "r+b") as f:
                f.truncate(os.path.getsize(path) - 8)

        res = self.run_ops("pipeline", truncate_shard)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], res["attempted"])
        self.assertIn("calibrate exited with 2", res["errors"][0])

    def test_failed_check(self):
        rotation = solver.random_orthogonal
        solver.random_orthogonal = lambda d, seed: 1.001 * rotation(d, seed)
        try:
            res = self.run_ops("wide")
        finally:
            solver.random_orthogonal = rotation
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], res["attempted"])
        self.assertIn("u^T u", res["errors"][0])


class Spans(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            {"id": 0, "name": "op", "op": 0, "parent": None, "start": 0.0, "end": 10.0},
            {"id": 1, "name": "engine.build_plan", "op": 0, "parent": 0,
             "start": 1.0, "end": 9.0},
            {"id": 2, "name": "linalg.sym_eig", "op": 0, "parent": 1,
             "start": 2.0, "end": 5.0},
            {"id": 3, "name": "linalg.hadamard", "op": 0, "parent": 1,
             "start": 5.0, "end": 6.0},
        ]
        self.assertEqual(tracer.self_times(spans), {0: 2.0, 1: 4.0, 2: 3.0, 3: 1.0})

    def test_missing_boundary_reads_zero(self):
        t = tracer.Tracer()
        self.assertFalse(t.wrap(types.SimpleNamespace(), "sym_eig", "linalg.sym_eig"))
        summary = {"completed": 1, "seconds": 1.0, "cpu_s": 1.0,
                   "attempted": 1, "failed": 0}
        layers = tracer.per_layer([], summary, summary, [])
        self.assertEqual(layers["linalg.eig_calls"], 0)
        self.assertEqual(layers["linalg.eig_s"], 0)


class NoProgram(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        root = fresh_dir("no-program")
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
        shutil.copytree(BENCH, os.path.join(root, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = run_bench("--workload", "ablation", "--seed", "0", "--seconds", "1",
                        "--trace", "0", root=root)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
