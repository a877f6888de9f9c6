"""Self-test of the benchmark; takes about fifteen seconds.

    python3 perfbench/selftest.py

Tiny runs of every workload through the same code as run.py, the metric
list against BENCHMARK.json, the generator's determinism, tracing leaving
the event log unchanged, and a refusal to run without the simulator source.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from generate import RUN_MS, WORKLOADS, digest, generate  # noqa: E402

TINY_MS = {"kv_put_heavy": 30_000, "kv_read_churn": 60_000, "compute_fleet": 120_000}


def _benchmark_json() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_document(self):
        for w in WORKLOADS:
            self.assertEqual(digest(generate(w, 7, 1)), digest(generate(w, 7, 1)))
            self.assertEqual(generate(w, 7, 0)["run"]["until"], RUN_MS[w])

    def test_seeds_and_replications_differ(self):
        for w in WORKLOADS:
            docs = {digest(generate(w, s, r)) for s in (1, 2) for r in (0, 1)}
            self.assertEqual(len(docs), 4)

    def test_independent_of_hash_seed(self):
        code = ("import sys; sys.path.insert(0, sys.argv[1]); from generate import *; "
                "print([digest(generate(w, 3, 2)) for w in WORKLOADS])")
        outputs = {
            subprocess.run([sys.executable, "-c", code, HERE], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONHASHSEED=h), check=True).stdout
            for h in ("1", "2")
        }
        self.assertEqual(len(outputs), 1)


class MetricListTest(unittest.TestCase):
    def test_benchmark_json_names_every_metric(self):
        bench = _benchmark_json()
        self.assertEqual([w["name"] for w in bench["workloads"]], list(WORKLOADS))
        for key, spec in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            listed = {m["name"]: (m["unit"], m["better"]) for m in bench[key]}
            self.assertEqual(listed, spec)
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])

    def test_ungated_outcomes_are_per_layer(self):
        for name in run.UNGATED_OUTCOMES.values():
            self.assertIn(name, run.PER_LAYER)


class TinyRunTest(unittest.TestCase):
    """Every workload end to end and per layer, on short documents."""

    def _session(self, workload, replications):
        session = run.Session(workload, 5, "selftest")
        self.addCleanup(shutil.rmtree, session.dir, True)
        for r in range(replications):
            session.add_replication(r, run_ms=TINY_MS[workload])
        return session

    def _check_result(self, spec, metrics, counted, problems):
        self.assertEqual(problems, [])
        result = run.result_line(spec, metrics, counted, problems)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(spec))
        for name, entry in result["metrics"].items():
            self.assertEqual(entry["unit"], spec[name][0])
            self.assertTrue(math.isfinite(entry["value"]), name)
        json.dumps(result, allow_nan=False)

    def test_workloads(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                session = self._session(workload, run.REPLICATIONS)
                metrics, counted, _ = run.end_to_end(session, seconds=0)
                self._check_result(run.END_TO_END, metrics, counted, session.problems)
                for name in run.END_TO_END:
                    self.assertGreater(metrics[name], 0, name)

                session = self._session(workload, 1)
                metrics, counted, _ = run.per_layer(session, seconds=0)
                # per_layer compares the traced run's events.ndjson digest
                # with the untraced run's and reports any difference
                self._check_result(run.PER_LAYER, metrics, counted, session.problems)
                shares = sum(metrics[f"{layer}.self_share"] for layer in run.LAYERS)
                self.assertAlmostEqual(shares, 1.0, places=9)


class StrippedCheckoutTest(unittest.TestCase):
    def test_refuses_without_simulator_source(self):
        os.makedirs(run.OUT_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
