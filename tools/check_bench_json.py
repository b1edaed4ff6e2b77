#!/usr/bin/env python3
"""Validate a bench binary's --json report (schema version 7).

Usage: check_bench_json.py [--min-stats N] [--require-host]
                           report.json [report2.json ...]

The report writer emits only schema version 7, so that is the only
version accepted; any other fails with one line. docs/SCHEMA.md keeps
the history of the earlier versions.

Schema (see src/harness/json_report.hh, docs/SCHEMA.md and README
"Observability"):

  {
    "schemaVersion": 7,
    "benchmark": "<name>",
    "threads": <int >= 1>,
    "wallSeconds": <number >= 0>,
    "provenance": {...},
    "grids":   [{"title", "columns", "rows", "averages"}, ...],
    "scalars": {"<name>": <number>, ...},
    "runs":    [{"label": str, "stats": {name: num | distribution},
                 "phases": [...],                # phased runs
                 "intervals": {...}}],           # profiled runs
    "host":    {...}                             # optional
  }

The "provenance" block is {"gitSha": str, "buildType": str,
"buildFlags": str, "hostProf": bool, "cmdline": str,
"env": {"CSIM_*": str}, "traceHashes": {"<cacheKey>": "<16 hex>"}}.
Only "cmdline" and "env" describe the invocation itself (and so vary
between otherwise-identical runs); the rest — including the trace
content hashes — belongs to the report's deterministic region.

A run entry carries no key outside {"label", "stats", "phases",
"intervals"}; any other (a stale report's "adaptive" or per-run
"host" block, say) fails with one line naming it. So does a key
repeated within one object (two scalars of one name, say), which
json.load would collapse to the last value without a word.

A run's "phases" list (present on runs with warmup/measure phases
or region sampling) holds {"name": str, "isWarmup": bool,
"instructions": uint, "cycles": uint, "cpi": number} records; warmup
entries are excluded from the run's top-level totals. The top-level
host block also carries "measuredInstructions" — the instruction count
its "hostMips" divides, pruned of warmup and trace-build subtrees.

A distribution is {"lo": num, "hi": num, "total": num, "buckets": [ints]}.
A run's "intervals" object is
{"intervalCycles": int, "clusterIssueWidth": int,
 "windowPerCluster": int, "mergeCount": int,
 "series": [record, ...]} where each record
carries "start", "cycles", a "cpiStack" object whose component values
must sum exactly to "cycles", event counters and a "clusters" lane
array.

The top-level "host" block carries the simulator's own cost: wall
seconds, "measuredInstructions" > 0 and "hostMips" > 0, memory
samples and a "timerTree" of
{"name", "calls", "ns", "instructions", "mips", "children"} nodes in
which every node's children's ns must sum to at most the node's own
ns and children are sorted by name. --require-host makes that block
mandatory. Exits non-zero on the first malformed report.
"""

import argparse
import json
import sys

DIST_KEYS = {"lo", "hi", "total", "buckets"}

CPI_STACK_KEYS = {
    "base", "window", "steerStall", "bypass", "contention",
    "loadImbalance", "execute", "memory", "frontend",
}

RECORD_COUNTER_KEYS = (
    "start", "cycles", "commits", "steers", "issued",
    "predictedCriticalSteers", "locLevelSum", "deniedIssue",
    "deniedCritical", "fetchStallCycles",
)


class SchemaError(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise SchemaError(msg)


def check_number(v, what):
    # bools are ints in Python; exclude them explicitly.
    require(isinstance(v, (int, float)) and not isinstance(v, bool),
            f"{what}: expected a number, got {type(v).__name__}")


def check_stat(name, v):
    if isinstance(v, dict):
        require(set(v.keys()) == DIST_KEYS,
                f"stat '{name}': distribution keys {sorted(v.keys())} "
                f"!= {sorted(DIST_KEYS)}")
        check_number(v["lo"], f"stat '{name}'.lo")
        check_number(v["hi"], f"stat '{name}'.hi")
        check_number(v["total"], f"stat '{name}'.total")
        require(isinstance(v["buckets"], list),
                f"stat '{name}': buckets is not a list")
        for i, b in enumerate(v["buckets"]):
            require(isinstance(b, int) and not isinstance(b, bool),
                    f"stat '{name}': bucket[{i}] is not an integer")
    elif v is not None:  # null encodes NaN/inf formula results
        check_number(v, f"stat '{name}'")


def check_uint(v, what):
    require(isinstance(v, int) and not isinstance(v, bool) and v >= 0,
            f"{what}: expected a non-negative integer, got {v!r}")


def check_intervals(where, iv):
    require(isinstance(iv, dict), f"{where}: not an object")
    check_uint(iv.get("intervalCycles"), f"{where}.intervalCycles")
    require(iv["intervalCycles"] >= 1,
            f"{where}.intervalCycles must be >= 1")
    check_uint(iv.get("clusterIssueWidth"),
               f"{where}.clusterIssueWidth")
    check_uint(iv.get("windowPerCluster"),
               f"{where}.windowPerCluster")
    check_uint(iv.get("mergeCount"), f"{where}.mergeCount")
    merged = iv["mergeCount"]
    require(merged >= 1, f"{where}.mergeCount must be >= 1")
    require(isinstance(iv.get("series"), list),
            f"{where}.series is not a list")
    for j, rec in enumerate(iv["series"]):
        rwhere = f"{where}.series[{j}]"
        require(isinstance(rec, dict), f"{rwhere}: not an object")
        for k in RECORD_COUNTER_KEYS:
            check_uint(rec.get(k), f"{rwhere}.{k}")
        stack = rec.get("cpiStack")
        require(isinstance(stack, dict), f"{rwhere}.cpiStack missing")
        require(set(stack.keys()) == CPI_STACK_KEYS,
                f"{rwhere}.cpiStack keys {sorted(stack.keys())} != "
                f"{sorted(CPI_STACK_KEYS)}")
        for k, v in stack.items():
            check_uint(v, f"{rwhere}.cpiStack.{k}")
        total = sum(stack.values())
        require(total == rec["cycles"],
                f"{rwhere}: cpiStack components sum to {total}, "
                f"not the interval's {rec['cycles']} cycles")
        require(rec["cycles"] <= merged * iv["intervalCycles"],
                f"{rwhere}: {rec['cycles']} cycles exceeds "
                f"mergeCount ({merged}) x intervalCycles "
                f"({iv['intervalCycles']})")
        require(isinstance(rec.get("clusters"), list),
                f"{rwhere}.clusters is not a list")
        for c, lane in enumerate(rec["clusters"]):
            require(isinstance(lane, dict),
                    f"{rwhere}.clusters[{c}]: not an object")
            for k in ("steered", "issued", "occupancySum"):
                check_uint(lane.get(k), f"{rwhere}.clusters[{c}].{k}")


def check_phases(where, phases):
    require(isinstance(phases, list) and phases,
            f"{where}: must be a non-empty list")
    for i, p in enumerate(phases):
        pwhere = f"{where}[{i}]"
        require(isinstance(p, dict), f"{pwhere}: not an object")
        require(set(p.keys()) == {"name", "isWarmup", "instructions",
                                  "cycles", "cpi"},
                f"{pwhere}: keys {sorted(p.keys())} are not the "
                f"phase schema")
        require(isinstance(p["name"], str) and p["name"],
                f"{pwhere}.name must be a non-empty string")
        require(isinstance(p["isWarmup"], bool),
                f"{pwhere}.isWarmup must be a boolean")
        check_uint(p["instructions"], f"{pwhere}.instructions")
        check_uint(p["cycles"], f"{pwhere}.cycles")
        check_number(p["cpi"], f"{pwhere}.cpi")
        require(p["cpi"] >= 0, f"{pwhere}.cpi must be >= 0")


# Every key a run entry may carry; "label" and "stats" are required.
RUN_KEYS = {"label", "stats", "phases", "intervals"}


def check_timer_node(where, node):
    require(isinstance(node, dict), f"{where}: not an object")
    require(isinstance(node.get("name"), str) and node["name"],
            f"{where}.name must be a non-empty string")
    for k in ("calls", "ns", "instructions"):
        check_uint(node.get(k), f"{where}.{k}")
    check_number(node.get("mips"), f"{where}.mips")
    require(node["mips"] >= 0, f"{where}.mips must be >= 0")
    require(isinstance(node.get("children"), list),
            f"{where}.children is not a list")
    child_ns = 0
    names = []
    for i, child in enumerate(node["children"]):
        cwhere = f"{where}.children[{i}]"
        check_timer_node(cwhere, child)
        child_ns += child["ns"]
        names.append(child["name"])
    require(child_ns <= node["ns"],
            f"{where}: children's ns sum to {child_ns}, exceeding "
            f"the node's {node['ns']}")
    require(names == sorted(names),
            f"{where}: children are not sorted by name")


def check_host(where, h):
    require(isinstance(h, dict), f"{where}: not an object")
    check_number(h.get("wallSeconds"), f"{where}.wallSeconds")
    require(h["wallSeconds"] > 0, f"{where}.wallSeconds must be > 0")
    check_number(h.get("hostMips"), f"{where}.hostMips")
    check_uint(h.get("measuredInstructions"),
               f"{where}.measuredInstructions")
    require(h["measuredInstructions"] > 0,
            f"{where}.measuredInstructions must be > 0")
    require(h["hostMips"] > 0, f"{where}.hostMips must be > 0")
    for k in ("peakRssBytes", "currentRssBytes", "heapBytes",
              "heapHighWaterBytes"):
        check_uint(h.get(k), f"{where}.{k}")
    require("timerTree" in h, f"{where}.timerTree missing")
    check_timer_node(f"{where}.timerTree", h["timerTree"])
    if "traceCache" in h:
        require(isinstance(h["traceCache"], dict),
                f"{where}.traceCache is not an object")
        for name, v in h["traceCache"].items():
            check_stat(name, v)


PROVENANCE_KEYS = {"gitSha", "buildType", "buildFlags", "hostProf",
                   "cmdline", "env", "traceHashes"}


def check_provenance(where, p):
    require(isinstance(p, dict), f"{where}: not an object")
    require(set(p.keys()) == PROVENANCE_KEYS,
            f"{where}: keys {sorted(p.keys())} != "
            f"{sorted(PROVENANCE_KEYS)}")
    for k in ("gitSha", "buildType", "buildFlags", "cmdline"):
        require(isinstance(p[k], str),
                f"{where}.{k} must be a string")
    require(p["gitSha"], f"{where}.gitSha must be non-empty")
    require(p["buildType"], f"{where}.buildType must be non-empty")
    require(isinstance(p["hostProf"], bool),
            f"{where}.hostProf must be a boolean")
    require(isinstance(p["env"], dict), f"{where}.env: not an object")
    for name, v in p["env"].items():
        require(isinstance(name, str) and name.startswith("CSIM_"),
                f"{where}.env: '{name}' is not a CSIM_* variable")
        require(isinstance(v, str),
                f"{where}.env['{name}'] must be a string")
    require(isinstance(p["traceHashes"], dict),
            f"{where}.traceHashes: not an object")
    for key, h in p["traceHashes"].items():
        require(isinstance(h, str) and len(h) == 16 and
                all(c in "0123456789abcdef" for c in h),
                f"{where}.traceHashes['{key}'] must be 16 lowercase "
                f"hex digits, got {h!r}")


def check_grid(i, g):
    where = f"grids[{i}]"
    require(isinstance(g, dict), f"{where}: not an object")
    for k in ("title", "columns", "rows", "averages"):
        require(k in g, f"{where}: missing key '{k}'")
    require(isinstance(g["title"], str), f"{where}: title not a string")
    require(isinstance(g["columns"], list) and
            all(isinstance(c, str) for c in g["columns"]),
            f"{where}: columns must be a list of strings")
    cols = set(g["columns"])
    require(isinstance(g["rows"], list), f"{where}: rows not a list")
    for j, row in enumerate(g["rows"]):
        require(isinstance(row, dict) and "name" in row and
                "cells" in row, f"{where}.rows[{j}]: bad row object")
        require(isinstance(row["name"], str),
                f"{where}.rows[{j}]: name not a string")
        for col, v in row["cells"].items():
            require(col in cols,
                    f"{where}.rows[{j}]: unknown column '{col}'")
            check_number(v, f"{where}.rows[{j}].cells['{col}']")
    require(isinstance(g["averages"], dict),
            f"{where}: averages not an object")
    for col, v in g["averages"].items():
        require(col in cols, f"{where}.averages: unknown column '{col}'")
        check_number(v, f"{where}.averages['{col}']")


def unique_keys(pairs):
    """json object_pairs_hook: fail on a repeated key, naming it."""
    obj = {}
    for key, value in pairs:
        require(key not in obj, f"duplicate key '{key}'")
        obj[key] = value
    return obj


def check_report(path, min_stats, require_host=False):
    with open(path) as f:
        d = json.load(f, object_pairs_hook=unique_keys)

    require(isinstance(d, dict), "top level is not an object")
    version = d.get("schemaVersion")
    require(version == 7 and not isinstance(version, bool),
            f"schemaVersion {version!r} is not 7, the only version "
            f"the report writer emits")
    require(isinstance(d.get("benchmark"), str) and d["benchmark"],
            "benchmark must be a non-empty string")
    threads = d.get("threads")
    require(isinstance(threads, int) and not isinstance(threads, bool)
            and threads >= 1,
            f"threads {threads!r} must be an integer >= 1")
    wall = d.get("wallSeconds")
    check_number(wall, "wallSeconds")
    require(wall >= 0, f"wallSeconds {wall!r} must be >= 0")
    require(isinstance(d.get("grids"), list), "grids is not a list")
    require(isinstance(d.get("scalars"), dict),
            "scalars is not an object")
    require(isinstance(d.get("runs"), list), "runs is not a list")

    for i, g in enumerate(d["grids"]):
        check_grid(i, g)
    for name, v in d["scalars"].items():
        check_number(v, f"scalars['{name}']")
    for i, run in enumerate(d["runs"]):
        require(isinstance(run, dict) and
                isinstance(run.get("label"), str) and
                isinstance(run.get("stats"), dict),
                f"runs[{i}]: needs string 'label' and object 'stats'")
        stray_keys = sorted(set(run) - RUN_KEYS)
        require(not stray_keys,
                f"runs[{i}] ('{run['label']}'): key "
                f"'{stray_keys[0] if stray_keys else ''}' is not in "
                f"the run schema {sorted(RUN_KEYS)}")
        if run["label"] == "traceCache":
            # The trace cache's activity counters, not a simulated
            # run: the per-run floor does not apply, but nothing else
            # may ride under this label.
            stray = [n for n in run["stats"]
                     if not n.startswith("traceCache.")]
            require(not stray, f"runs[{i}] ('traceCache'): stat "
                    f"'{stray[0] if stray else ''}' is not a "
                    f"traceCache.* counter")
        else:
            require(len(run["stats"]) >= min_stats,
                    f"runs[{i}] ('{run['label']}'): only "
                    f"{len(run['stats'])} stats, expected >= "
                    f"{min_stats}")
        for name, v in run["stats"].items():
            check_stat(name, v)
        if "phases" in run:
            check_phases(f"runs[{i}].phases", run["phases"])
        if "intervals" in run:
            check_intervals(f"runs[{i}].intervals", run["intervals"])

    require("provenance" in d, "schemaVersion 7 requires a "
            "'provenance' block")
    check_provenance("provenance", d["provenance"])

    if "host" in d:
        check_host("host", d["host"])
    if require_host:
        require("host" in d, "--require-host: no top-level host block")

    return len(d["grids"]), len(d["runs"]), len(d["scalars"])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-stats", type=int, default=10,
                    help="minimum stats required per simulated run "
                         "entry (the traceCache entry is exempt)")
    ap.add_argument("--require-host", action="store_true",
                    help="fail unless the top-level host block is "
                         "present")
    ap.add_argument("reports", nargs="+")
    args = ap.parse_args()

    status = 0
    for path in args.reports:
        try:
            grids, runs, scalars = check_report(path, args.min_stats,
                                                args.require_host)
        except (SchemaError, json.JSONDecodeError, OSError,
                KeyError, TypeError) as e:
            print(f"{path}: FAIL: {e}", file=sys.stderr)
            status = 1
        else:
            print(f"{path}: OK ({grids} grids, {runs} runs, "
                  f"{scalars} scalars)")
    return status


if __name__ == "__main__":
    sys.exit(main())
