#!/usr/bin/env python3
"""The benchmark's own tests: one short run (a single episode) per workload
and mode.

    python3 perfbench/test_perfbench.py

Checks that
  - the probes are transparent: a traced run's simulated-outcome digest
    equals the untraced run's, and every traced episode passes its checks;
  - every count-type per-layer metric and every sim_* metric repeats
    exactly across two runs of the same seed;
  - the metric names printed are exactly those in BENCHMARK.json;
  - run.py refuses, without printing a result, to run where the simulator
    sources are missing.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

WORKLOADS = ["bulk", "churn", "service", "bulk-sharded"]
SEED = 5

# Per-layer metrics derived from how worker threads interleave, and so
# free to differ between runs of the sharded workload.
THREAD_TIMING = {
    "parallel.windows_per_op", "parallel.null_msg_share",
    "parallel.idle_wait_share", "parallel.barrier_wait_share",
    # Packets recycle into whichever thread's pool frees them.
    "net.pool_fresh_allocs_per_pkt", "net.pool_live_peak",
}


def is_count(name, unit, workload):
    """False for host times and shares of host time."""
    if unit in ("ns", "s") or name.endswith("self_share"):
        return False
    if name.startswith("trace."):
        return False
    return not (workload == "bulk-sharded" and name in THREAD_TIMING)


class PerfbenchTest(unittest.TestCase):
    binary = None
    results = {}

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(run.build_dir())

    def result(self, workload, trace, attempt=0):
        key = (workload, trace, attempt)
        if key not in self.results:
            out = subprocess.run(
                [str(self.binary), "--workload", workload, "--seed",
                 str(SEED), "--seconds", "0.01", "--trace", str(trace)],
                capture_output=True, text=True, check=True, timeout=170)
            self.results[key] = json.loads(out.stdout.strip().splitlines()[-1])
        return self.results[key]

    def test_probes_are_transparent(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                plain = self.result(w, 0)
                traced = self.result(w, 1)
                self.assertTrue(plain["correct"], plain["checks"])
                self.assertTrue(traced["correct"], traced["checks"])
                self.assertEqual(traced["traced_episodes"], 1)
                self.assertEqual(plain["digest"], traced["digest"])

    def test_counts_repeat_exactly(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    a = self.result(w, trace)["metrics"]
                    b = self.result(w, trace, attempt=1)["metrics"]
                    if trace:
                        names = [n for n in a
                                 if is_count(n, a[n]["unit"], w)]
                    else:
                        names = [n for n in a
                                 if n.startswith("sim_") or n == "ok_share"]
                    self.assertTrue(names)
                    for n in names:
                        self.assertEqual(a[n]["value"], b[n]["value"], n)

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for w in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    printed = self.result(w, trace)["metrics"]
                    self.assertEqual(list(printed),
                                     [m["name"] for m in spec[section]])
                    for m in spec[section]:
                        self.assertEqual(printed[m["name"]]["unit"], m["unit"])

    def test_enforcement_is_on_the_measured_path(self):
        for w in ("bulk", "bulk-sharded"):
            m = self.result(w, 1)["metrics"]
            self.assertGreater(m["acdc.pkts_per_op"]["value"], 0, w)
            self.assertGreater(m["acdc.windows_lowered_per_ack"]["value"], 0, w)
        churn = self.result("churn", 1)["metrics"]
        self.assertGreater(churn["acdc.evictions_per_flow"]["value"], 0)

    def test_refuses_without_sources(self):
        bare = run.build_dir() / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench")
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "bulk",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
