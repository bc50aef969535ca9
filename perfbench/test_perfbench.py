#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_perfbench.py

- a shortened run of every workload passes every check and prints every
  metric BENCHMARK.json names, with its unit, traced and untraced;
- a wrong expected value makes the run report a failed answer and exit 1;
- a directory holding only BENCHMARK.json and perfbench/ makes the run
  exit non-zero without a result.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "test")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(*args, cwd=ROOT):
    """Runs the benchmark command; returns (exit code, stdout lines)."""
    proc = subprocess.run(SPEC["command"] + list(args), cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines()


class ShortRuns(unittest.TestCase):
    def check_run(self, workload, trace, spec_key):
        code, lines = bench("--workload", workload, "--seed", "7",
                            "--seconds", "1", "--trace", str(trace))
        self.assertEqual(code, 0, lines[-5:])
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
        return result, lines

    def test_every_workload(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                result, lines = self.check_run(w["name"], 0, "end_to_end")
                self.assertEqual(
                    result["metrics"]["answers_ok_frac"]["value"], 1.0)
                self.assertTrue(any("answers_failed_frac 0.000000" in line
                                    for line in lines))
                self.assertGreater(result["metrics"]["setup_s"]["value"], 0)
            with self.subTest(workload=w["name"], trace=1):
                result, _ = self.check_run(w["name"], 1, "per_layer")
                self.assertGreaterEqual(
                    result["metrics"]["trace.attributed_frac"]["value"], 0.9)


class WrongExpectedValue(unittest.TestCase):
    def test_fails_the_answer_and_the_run(self):
        os.makedirs(SCRATCH, exist_ok=True)
        src = os.path.join(HERE, "expected", "trace_diagnose.txt")
        wrong = os.path.join(SCRATCH, "trace_diagnose.wrong.txt")
        with open(src) as f:
            lines = f.read().splitlines()
        # The first fixture is the warm-up and sits in every round.
        first = next(i for i, line in enumerate(lines)
                     if not line.startswith("#"))
        lines[first] = lines[first].replace("diag_digest=0x",
                                            "diag_digest=0xf")
        with open(wrong, "w") as f:
            f.write("\n".join(lines) + "\n")
        code, out = bench("--workload", "trace_diagnose", "--seed", "7",
                          "--seconds", "1", "--trace", "0",
                          "--expected", wrong)
        self.assertEqual(code, 1)
        result = json.loads(out[-1])
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["answers_ok_frac"]["value"], 1.0)


class WithoutTheRepository(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(bare, path))
        code, out = bench("--workload", SPEC["workloads"][0]["name"],
                          "--seed", "1", "--seconds", "1", "--trace", "0",
                          cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith("{") for line in out))
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main(verbosity=2)
