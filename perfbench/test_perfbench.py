#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Run from the root of a checkout; builds the benchmark on first use.  Checks
that a tiny run of every workload reports every metric BENCHMARK.json names,
that a corrupted oracle is caught, that program texts are a function of the
seed, that the process-tree CPU accounting counts reaped grandchildren, and
that the benchmark fails cleanly without the sources it builds.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py)

ROOT = run.ROOT
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    """Runs the benchmark; returns (exit code, result JSON or None)."""
    out = subprocess.run(RUN + list(args), cwd=cwd, capture_output=True,
                         text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith('{"correct"'):
        result = json.loads(lines[-1])
    return out.returncode, result, out


def tiny(workload, trace, *extra):
    return bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), *extra)


class MetricsTest(unittest.TestCase):
    def check_run(self, workload, trace, listed):
        code, result, out = tiny(workload, trace)
        self.assertEqual(code, 0, out.stderr)
        self.assertIsNotNone(result, out.stdout)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], out.stderr)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in listed))
        for m in listed:
            value = metrics[m["name"]]["value"]
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
            self.assertTrue(math.isfinite(value), m["name"])
            if trace == 0:
                self.assertGreater(value, 0, f"{workload} {m['name']}")
        return metrics

    def test_every_workload_emits_every_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 0, SPEC["end_to_end"])
                layers = self.check_run(workload, 1, SPEC["per_layer"])
                self.assertGreater(layers["job_samples"]["value"], 0)
                self.assertGreater(layers["host.burn_efficiency"]["value"], 0)
                self.assertGreater(layers["trace.unattributed_frac"]["value"],
                                   0)

    def test_layers_work_where_the_issue_says(self):
        _, result, _ = tiny("ir-cold", 1)
        m = result["metrics"]
        self.assertGreater(m["transform.pipeline_ms"]["value"], 0)
        self.assertGreater(m["compile_ms_p50"]["value"], 0)
        self.assertGreater(m["runtime.dep_waits"]["value"], 0)
        self.assertGreater(m["runtime.com_updates"]["value"], 0)
        self.assertEqual(m["bytecode.fallbacks"]["value"], 0)
        _, result, _ = tiny("paper-doall", 1)
        m = result["metrics"]
        self.assertGreater(m["runtime.init_ms"]["value"], 0)
        self.assertEqual(m["runtime.misspecs"]["value"], 0)
        self.assertGreater(m["perfmodel.err_pct"]["value"], 0)
        _, result, _ = tiny("service-warm", 1)
        m = result["metrics"]
        self.assertEqual(m["service.cache_hits"]["value"], 1)
        self.assertEqual(m["service.cache_misses"]["value"], 0)
        self.assertEqual(m["service.supervisor_forks"]["value"], 0)


class OracleTest(unittest.TestCase):
    def test_corrupted_oracle_fails_every_check(self):
        for workload in ("paper-doall", "ir-cold", "service-warm"):
            with self.subTest(workload=workload):
                code, result, out = tiny(workload, 1, "--corrupt-oracle")
                self.assertEqual(code, 0, out.stderr)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(result["metrics"]["failed_frac"]["value"],
                                   0)


class SeedTest(unittest.TestCase):
    def texts(self, workload, seed):
        code, _, out = bench("--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", "0",
                             "--print-programs")
        self.assertEqual(code, 0, out.stderr)
        return out.stdout

    def test_programs_are_a_function_of_the_seed(self):
        for workload in ("ir-cold", "service-warm"):
            with self.subTest(workload=workload):
                first = self.texts(workload, 11)
                self.assertTrue(first.strip())
                self.assertEqual(first, self.texts(workload, 11))
                self.assertNotEqual(first, self.texts(workload, 12))


class HostAccountingTest(unittest.TestCase):
    def test_tree_cpu_counts_reaped_grandchildren(self):
        run.build()
        subprocess.run(["cmake", "--build", run.BUILD_DIR, "--target",
                        "perfbench_host_test"], check=True,
                       capture_output=True)
        out = subprocess.run(
            [os.path.join(run.BUILD_DIR, "perfbench_host_test")],
            capture_output=True, text=True, timeout=120)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)


class IsolationTest(unittest.TestCase):
    def test_fails_without_the_sources(self):
        alone = os.path.join(ROOT, ".bench_build", "isolated")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, result, _ = bench("--workload", "paper-doall", "--seed",
                                    "1", "--seconds", "1", "--trace", "0",
                                    cwd=alone)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(alone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
