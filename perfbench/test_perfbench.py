#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then checks that the run's output
checks catch one flipped byte in a captured output, that plans are pinned by seed, that
every printed metric is declared in BENCHMARK.json, and that the
modelled metrics repeat exactly for one seed.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ("bulk-accel", "small-sw", "open-mix")
MODELLED = ("model_gbps", "ratio")
MODELLED_LAYER = ("nx.compress.cycles_per_kb", "nx.decompress.cycles_per_kb")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.bench = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
        cls.out = tempfile.TemporaryDirectory()

    @classmethod
    def tearDownClass(cls):
        cls.out.cleanup()

    def bin(self, *args):
        r = subprocess.run([self.binary, *args], capture_output=True,
                           text=True, timeout=170)
        return r

    def detail(self, workload, seed, trace, seconds="1"):
        r = self.bin("--workload", workload, "--seed", str(seed),
                     "--seconds", seconds, "--trace", str(trace),
                     "--out", self.out.name)
        self.assertEqual(r.returncode, 0, r.stderr)
        path = os.path.join(self.out.name,
                            f"{workload}-seed{seed}-trace{trace}.json")
        with open(path) as f:
            return json.load(f)

    def digest(self, workload, seed):
        r = self.bin("--plan-only", "--workload", workload, "--seed",
                     str(seed), "--seconds", "2")
        self.assertEqual(r.returncode, 0, r.stderr)
        return re.search(r"plan=(0x[0-9a-f]{16})", r.stdout).group(1)

    def test_verifier_catches_a_flipped_byte(self):
        r = self.bin("--self-test")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        cases = re.findall(r"^self-test (\S+) +(\S+) +(\S+) +outputs=\d+ "
                           r"flipped=(\d+) failed=(\d+) run=(\w+) (\w+)$",
                           r.stdout, re.M)
        kinds = {(f, op) for f, op, *_ in cases}
        self.assertEqual(kinds, {(f, op) for f in ("gzip", "zlib", "842")
                                 for op in ("compress", "decompress")})
        for *_, flipped, failed, run_verdict, verdict in cases:
            self.assertGreater(int(flipped), 0)
            self.assertEqual(failed, flipped)
            self.assertEqual(run_verdict, "fails")
            self.assertEqual(verdict, "caught")

    def test_plan_digest_is_pinned_by_seed(self):
        for w in WORKLOADS:
            self.assertEqual(self.digest(w, 11), self.digest(w, 11))
            self.assertNotEqual(self.digest(w, 11), self.digest(w, 12))

    def test_printed_metrics_are_declared(self):
        name = re.compile(r"[A-Za-z0-9_.-]+")
        for w in WORKLOADS:
            for trace in (0, 1):
                r = subprocess.run(
                    [sys.executable, os.path.join(run.HERE, "run.py"),
                     "--workload", w, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)],
                    capture_output=True, text=True, timeout=170)
                self.assertEqual(r.returncode, 0, r.stderr)
                result = json.loads(r.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed",
                                  "metrics"})
                declared = run.expected_metrics(self.bench, trace)
                self.assertEqual(set(result["metrics"]), set(declared))
                for n, m in result["metrics"].items():
                    self.assertTrue(name.fullmatch(n), n)
                    self.assertEqual(m["unit"], declared[n]["unit"])

    def test_modelled_metrics_repeat_exactly(self):
        for w in ("bulk-accel", "open-mix"):
            a = self.detail(w, 5, 0)
            b = self.detail(w, 5, 1)
            c = self.detail(w, 5, 1)
            for n in MODELLED:
                va = a["end_to_end"][n]["value"]
                self.assertEqual(va, b["end_to_end"][n]["value"], n)
                self.assertEqual(va, c["end_to_end"][n]["value"], n)
            for n in MODELLED_LAYER:
                self.assertEqual(b["per_layer"][n]["value"],
                                 c["per_layer"][n]["value"], n)
            self.assertGreater(a["end_to_end"]["model_gbps"]["value"], 0)

    def test_thread_budget(self):
        for w in WORKLOADS:
            self.assertLessEqual(self.detail(w, 2, 0)["threads"], 4, w)


if __name__ == "__main__":
    unittest.main()
