#!/usr/bin/env python3
"""Regression tests for check_bench_json.py (run by ctest).

The validator accepts only schema version 7, the one the report writer
emits: a minimal v7 report and the committed BENCH_throughput.json
(under --require-host, as CI checks it) pass; an older version or a v7
report without its provenance block fails with a one-line diagnostic,
never a traceback. A run entry carrying a key the writer no longer
emits (the dropped "adaptive" block) fails the same way. A host block
may read 0 MIPS only when it measured no instructions. Everything here
drives the script as a subprocess, exactly as CI does.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS = os.path.dirname(os.path.abspath(__file__))
CHECKER = os.path.join(TOOLS, "check_bench_json.py")
BASELINE = os.path.join(os.path.dirname(TOOLS), "BENCH_throughput.json")


def minimal_report(version=7, provenance=True):
    """The smallest report the v7 schema allows."""
    d = {"schemaVersion": version, "benchmark": "bench_minimal",
         "threads": 1, "wallSeconds": 0.5, "grids": [], "scalars": {},
         "runs": [{"label": "gzip/1x8w/seed1",
                   "stats": {"sim.cycles": 1200, "sim.instructions": 1000}}]}
    if provenance:
        d["provenance"] = {
            "gitSha": "0123456789ab", "buildType": "RelWithDebInfo",
            "buildFlags": "-O2 -g", "hostProf": True,
            "cmdline": "bench_minimal --json r.json", "env": {},
            "traceHashes": {"gzip|1|1000": "0123456789abcdef"}}
    return d


class CheckBenchJsonTest(unittest.TestCase):
    def check(self, path, *extra):
        return subprocess.run(
            [sys.executable, CHECKER, "--min-stats", "0", *extra, path],
            capture_output=True, text=True)

    def check_report(self, report, *extra):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "report.json")
            with open(path, "w") as f:
                json.dump(report, f)
            return self.check(path, *extra)

    def assertCleanFailure(self, proc, needle):
        """Non-zero exit, one diagnostic line naming the cause."""
        out = proc.stdout + proc.stderr
        self.assertNotEqual(proc.returncode, 0, out)
        self.assertIn(needle, out)
        self.assertNotIn("Traceback", out)
        self.assertEqual(len(out.strip().splitlines()), 1, out)

    def test_minimal_v7_report_passes(self):
        proc = self.check_report(minimal_report())
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("OK", proc.stdout)

    def test_committed_baseline_passes_require_host(self):
        proc = self.check(BASELINE, "--require-host")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_run_with_adaptive_block_fails(self):
        # A well-formed block as the writer used to emit it: stale
        # reports must not pass silently.
        d = minimal_report()
        d["runs"][0]["adaptive"] = {
            "runs": 1, "intervals": 4, "transitions": 1, "reverts": 0,
            "phases": {"smooth": 4, "memory": 0, "steer": 0,
                       "imbalance": 0, "contention": 0},
            "finalKnobs": {"stallThreshold": 0.3, "locLowCutoff": 2,
                           "pressure": 0.75}}
        proc = self.check_report(d)
        self.assertCleanFailure(proc, "key 'adaptive' is not in the run "
                                      "schema")

    def test_v6_report_fails(self):
        proc = self.check_report(minimal_report(version=6,
                                                provenance=False))
        self.assertCleanFailure(proc, "schemaVersion 6 is not 7")

    def test_v7_report_without_provenance_fails(self):
        proc = self.check_report(minimal_report(provenance=False))
        self.assertCleanFailure(proc, "'provenance'")

    def with_cache_entry(self, names):
        d = minimal_report()
        d["runs"][0]["stats"].update(
            {f"sim.stat{k}": k for k in range(8)})
        d["runs"].append({"label": "traceCache",
                          "stats": {n: 1 for n in names}})
        return d

    def test_trace_cache_entry_is_exempt_from_min_stats(self):
        names = ["traceCache.requests", "traceCache.builds",
                 "traceCache.hits"]
        proc = self.check_report(self.with_cache_entry(names),
                                 "--min-stats", "10")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_trace_cache_entry_holds_only_cache_stats(self):
        proc = self.check_report(
            self.with_cache_entry(["traceCache.hits", "sim.cycles"]))
        self.assertCleanFailure(proc, "'sim.cycles' is not a traceCache")

    def test_simulated_run_below_min_stats_fails(self):
        proc = self.check_report(minimal_report(), "--min-stats", "10")
        self.assertCleanFailure(proc, "only 2 stats, expected >= 10")

    def with_host(self, measured, mips):
        d = minimal_report()
        d["host"] = {
            "wallSeconds": 0.25, "hostMips": mips,
            "measuredInstructions": measured, "peakRssBytes": 1 << 22,
            "currentRssBytes": 1 << 22, "heapBytes": 1 << 16,
            "heapHighWaterBytes": 1 << 16,
            "timerTree": {"name": "root", "calls": 1, "ns": 250000000,
                          "instructions": measured, "mips": mips,
                          "children": []}}
        return d

    def test_host_without_measured_instructions_may_read_zero_mips(self):
        # bench_table1_config simulates nothing, so it measures 0 MIPS.
        proc = self.check_report(self.with_host(0, 0))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_host_with_measured_instructions_needs_mips(self):
        proc = self.check_report(self.with_host(1000, 0))
        self.assertCleanFailure(proc, "host.hostMips must be > 0")


if __name__ == "__main__":
    unittest.main()
