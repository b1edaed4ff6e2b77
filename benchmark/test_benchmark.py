#!/usr/bin/env python3
"""Smoke test of the benchmark, registered with the benchmark project's
own CTest (ctest --test-dir build-benchmark):

  - every workload runs end-to-end and traced at smoke scale;
  - the results and the one-line run output follow their schemas;
  - traced digests equal end-to-end digests;
  - bad input exits 2;
  - compare.py verdicts on synthetic inputs.

    python3 benchmark/test_benchmark.py --build-dir build-benchmark
"""

import argparse
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run as runner  # noqa: E402

BUILD_DIR = os.path.join(ROOT, "build-benchmark")
RUN = [sys.executable, os.path.join(HERE, "run.py")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
E2E_NAMES = [m["name"] for m in SPEC["end_to_end"]]
LAYER_NAMES = [m["name"] for m in SPEC["per_layer"]]
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def run(args, **kw):
    return subprocess.run(RUN + args + ["--build-dir", BUILD_DIR],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120, **kw)


class SmokeRun(unittest.TestCase):
    """One full smoke invocation, shared by the schema checks."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.mkdtemp(dir=BUILD_DIR)
        cls.out = os.path.join(cls.tmp, "smoke.json")
        cls.proc = run(["--smoke", "--out", cls.out, "--spans-dir", cls.tmp])
        with open(cls.out) as f:
            cls.results = json.load(f)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def test_exit_status(self):
        self.assertEqual(self.proc.returncode, 0, self.proc.stderr)

    def test_prints_every_metric(self):
        for name in E2E_NAMES + LAYER_NAMES:
            self.assertIn(name, self.proc.stdout)

    def test_results_schema(self):
        r = self.results
        self.assertEqual(r["seed"], 1)
        self.assertTrue(r["smoke"])
        self.assertIn("git_sha", r)
        self.assertIn("cleared", r["env"])
        self.assertEqual(sorted(r["workloads"]), sorted(WORKLOAD_NAMES))
        for w, entry in r["workloads"].items():
            self.assertGreater(entry["ops"], 0, w)
            self.assertEqual(entry["ops_failed"], 0, w)
            self.assertEqual(sorted(entry["e2e"]), sorted(E2E_NAMES))
            for name, s in entry["e2e"].items():
                # One value per end-to-end process, peak RSS included.
                self.assertEqual(s["n"], runner.FULL_RUN_REPS, (w, name))
                self.assertTrue(math.isfinite(s["median"]), (w, name))
                self.assertGreater(s["median"], 0, (w, name))
                self.assertLessEqual(s["min"], s["median"])
                self.assertLessEqual(s["median"], s["max"])
            self.assertEqual(sorted(entry["layers"]), sorted(LAYER_NAMES))
            for name, layer in entry["layers"].items():
                self.assertTrue(math.isfinite(layer["value"]), (w, name))
            self.assertLessEqual(
                entry["layers"]["harness.untraced_frac"]["value"], 0.10)
            with open(entry["spans"]) as f:
                spans = json.load(f)["traceEvents"]
            self.assertTrue(any(s["name"] == "core.run" for s in spans))

    def test_traced_digests_equal_e2e(self):
        for w, entry in self.results["workloads"].items():
            self.assertIn("traced-vs-e2e", entry["check"], w)
            self.assertIn("rep-to-rep", entry["check"], w)
            self.assertEqual(entry["traced_digests"],
                             [c["digest"] for c in entry["cells"]], w)


class SingleRunOutput(unittest.TestCase):
    """--workload mode ends with one JSON line of exactly four keys."""

    def check_line(self, trace, names):
        proc = run(["--workload", "long_trace", "--smoke", "--seed", "3",
                    "--seconds", "1", "--trace", trace])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        for metric in result["metrics"].values():
            self.assertEqual(sorted(metric), ["unit", "value"])

    def test_e2e_line(self):
        self.check_line("0", E2E_NAMES)

    def test_traced_line(self):
        self.check_line("1", LAYER_NAMES)


class InputValidation(unittest.TestCase):
    def assert_usage_error(self, proc):
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("usage:", proc.stderr)

    def test_run_py(self):
        for args in (["--workload", "nope"],
                     ["--workloads", "paper_grid,nope"],
                     ["--seed", "0"], ["--seed", "abc"],
                     ["--seed", str(2**64)], ["--seed", "-1"],
                     ["--workload", "observed", "--seconds", "0"],
                     ["--update-expected"],
                     ["--update-expected", "--reason", "x", "--seed", "2"]):
            self.assert_usage_error(run(args))

    def test_generator(self):
        binary = os.path.join(BUILD_DIR, "csim_benchmark")
        for args in (["--workload", "nope"],
                     ["--workload", "observed", "--seed", "0"],
                     ["--workload", "observed", "--seed", "1x"],
                     ["--workload", "observed", "--seed",
                      "99999999999999999999"],
                     ["--workload", "observed", "--mode", "fast"]):
            proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=30)
            self.assert_usage_error(proc)


class DeadProcess(unittest.TestCase):
    """A process that dies fails every cell of its workload, counted from
    the plan it announced, else from the goldens."""

    def test_count_from_announced_plan(self):
        self.assertEqual(runner.check("observed", 2, True, [None, None],
                                      [4, None]),
                         (4, 4, "process died"))

    def test_count_from_goldens(self):
        golden = len(runner.load_expected("paper_grid")["cells"])
        self.assertEqual(runner.check("paper_grid", 1, False, [None],
                                      [None]),
                         (golden, golden, "process died"))

    def test_announced_plan_is_the_first_line(self):
        self.assertEqual(runner.planned_cells(
            ['{"planned_cells":24}', '{"cells":[]}']), 24)
        self.assertIsNone(runner.planned_cells(["garbage"]))
        self.assertIsNone(runner.planned_cells([]))


def result_file(medians, ops=10, failed=0):
    """A synthetic run.py results object for workload 'w'."""
    return {"workloads": {"w": {
        "ops": ops, "ops_failed": failed,
        "e2e": {name: {"median": v} for name, v in medians.items()}}}}


class Compare(unittest.TestCase):
    SPEC = {"workloads": [{"name": "w"}],
            "end_to_end": [
                {"name": "wall_s", "better": "lower", "bound": 0.08},
                {"name": "sim_mips", "better": "higher", "bound": 0.08}]}

    def side(self, wall, mips, failed=0):
        return [result_file({"wall_s": a, "sim_mips": b}, failed=failed)
                for a, b in zip(wall, mips)]

    def run_compare(self, parent, change):
        out = io.StringIO()
        status = compare.compare(parent, change, self.SPEC, out)
        return status, out.getvalue()

    def test_unchanged(self):
        p = self.side([10.0, 10.1, 9.9, 10.0], [5.0, 5.02, 4.98, 5.0])
        c = self.side([10.05, 9.95, 10.0, 10.1], [5.01, 4.99, 5.0, 5.0])
        status, text = self.run_compare(p, c)
        self.assertEqual(status, 0)
        self.assertEqual(text.count("unchanged"), 2)

    def test_regression_beyond_bound_fails(self):
        p = self.side([10.0] * 4, [5.0] * 4)
        c = self.side([11.0] * 4, [5.0] * 4)
        status, text = self.run_compare(p, c)
        self.assertEqual(status, 1)
        self.assertIn("worse", text)
        self.assertEqual(compare.verdict([5.0] * 4, [4.0] * 4, "higher",
                                         0.08)[0], "worse")

    def test_better_needs_nine_tenths_of_pairs(self):
        parent = [10.0 + 0.01 * i for i in range(10)]
        change = [v * 0.95 for v in parent]
        self.assertEqual(compare.verdict(parent, change, "lower", 0.08),
                         ("better", 1.0))
        change[0] = parent[0] + 1.0
        change[1] = parent[1] + 1.0
        self.assertNotEqual(
            compare.verdict(parent, change, "lower", 0.08)[0], "better")

    def test_wide_parent_spread_is_unresolved(self):
        parent = [8.0, 10.0, 12.0, 9.0, 11.0]
        change = [9.0, 10.5, 11.0, 9.5, 10.0]
        self.assertEqual(
            compare.verdict(parent, change, "lower", 0.08)[0],
            "unresolved")

    def test_more_failed_ops_fails(self):
        p = self.side([10.0] * 3, [5.0] * 3)
        c = self.side([10.0] * 3, [5.0] * 3, failed=1)
        status, text = self.run_compare(p, c)
        self.assertEqual(status, 1)
        self.assertIn("change 3/30", text)

    def test_cli_reads_files_and_real_bounds(self):
        tmp = tempfile.mkdtemp(dir=BUILD_DIR)
        try:
            medians = {m: 1.0 for m in E2E_NAMES}
            entry = result_file(medians)["workloads"]["w"]
            data = {"workloads": {w: entry for w in WORKLOAD_NAMES}}
            paths = []
            for side in ("p", "c"):
                path = os.path.join(tmp, side + ".json")
                with open(path, "w") as f:
                    json.dump(data, f)
                paths.append(path)
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "compare.py"),
                 "--parent", paths[0], "--change", paths[1]],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=30)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertEqual(proc.stdout.count("unchanged"),
                             len(WORKLOAD_NAMES) * len(E2E_NAMES))
            with open(paths[1], "w") as f:
                f.write("{not json")
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "compare.py"),
                 "--parent", paths[0], "--change", paths[1]],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=30)
            self.assertEqual(proc.returncode, 2)
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--build-dir", default=BUILD_DIR)
    args, rest = ap.parse_known_args()
    BUILD_DIR = os.path.abspath(args.build_dir)
    unittest.main(argv=[sys.argv[0]] + rest, verbosity=2)
