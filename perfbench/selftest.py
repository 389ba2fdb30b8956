#!/usr/bin/env python3
"""Self-tests of the strt benchmark.

    python3 perfbench/selftest.py

Builds strt_bench like run.py does, then checks that
  * the same seed gives a byte-identical request stream (and so request
    list) and a different seed a different one, on every workload;
  * the metric names a run emits are exactly those BENCHMARK.json lists:
    the end_to_end names untraced, the per_layer names traced;
  * the smallest-size run of every workload passes the answer check.
"""

import json
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

WORKLOADS = ["serve_mix", "oneshot_cold", "restart_warm"]
EXE = None


def setUpModule():
    global EXE
    EXE = run.build(run.build_dir())
    if EXE is None:
        raise RuntimeError("strt_bench did not build")


def dump(workload, seed, size="full"):
    proc = subprocess.run([EXE, "--workload", workload, "--seed", str(seed),
                           "--size", size, "--dump-inputs"],
                          stdout=subprocess.PIPE, check=True)
    return proc.stdout


def run_small(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "small"],
        stdout=subprocess.PIPE, text=True, timeout=600)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def declared(section):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


class Inputs(unittest.TestCase):
    def test_same_seed_same_stream(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first = dump(w, 7)
                self.assertGreater(len(first.splitlines()), 1000)
                self.assertEqual(first, dump(w, 7))

    def test_other_seed_other_stream(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertNotEqual(dump(w, 7, "small"), dump(w, 8, "small"))

    def test_restart_warm_serves_serve_mix_stream(self):
        self.assertEqual(dump("restart_warm", 7), dump("serve_mix", 7))


class SmallRuns(unittest.TestCase):
    def check(self, trace, section):
        want = declared(section)
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, result = run_small(w, trace)
                self.assertEqual(rc, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)

    def test_untraced_emits_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_traced_emits_per_layer_metrics(self):
        self.check(1, "per_layer")


if __name__ == "__main__":
    unittest.main()
