#!/usr/bin/env python3
"""Build and run the clustersim benchmark.

One command for a full invocation (every workload: 5 end-to-end reps,
each in a fresh generator process, then a traced process of 1 rep):

    python3 benchmark/run.py [--seed S] [--workloads a,b] [--out r.json]
                             [--smoke]

One measured run of one workload (the form the BENCHMARK.json command
takes; prints one JSON object as its last line):

    python3 benchmark/run.py --workload W --seed S --seconds T --trace 0|1

Refreshing the golden digests (seed 1 only):

    python3 benchmark/run.py --update-expected --reason "why" [--workloads a,b]

Every generator output is checked: per-cell digests against
benchmark/expected/ at seed 1, rep against rep, and traced against
end-to-end. A failed check or a dead process exits non-zero.
"""

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_grid", "observed", "store_stream", "long_trace")
FULL_RUN_REPS = 5
SINGLE_RUN_MIN_REPS = 3
CLEARED_ENV = ("CSIM_THREADS", "CSIM_HOST_PROF", "CSIM_LOG",
               "CSIM_STATS_FILTER")
MAX_SEED = 2**64 - 3  # the plans also use seed + 1 and seed + 2
DEFAULT_SEED = 1
GENERATOR_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def int_arg(name, lo, hi):
    """argparse type: decimal digits only, within [lo, hi]."""
    def parse(text):
        if not re.fullmatch(r"[0-9]{1,20}", text) or not (
                lo <= int(text) <= hi):
            raise argparse.ArgumentTypeError(
                "%s must be an integer in [%d, %d], got %r"
                % (name, lo, hi, text))
        return int(text)
    return parse


def workloads_arg(text):
    names = text.split(",")
    for name in names:
        if name not in WORKLOADS:
            raise argparse.ArgumentTypeError(
                "unknown workload %r (choose from %s)"
                % (name, ",".join(WORKLOADS)))
    return names


def parse_args(argv):
    p = argparse.ArgumentParser(
        description="Build and run the clustersim benchmark.")
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload once and print one JSON line")
    p.add_argument("--trace", choices=("0", "1"), default="0",
                   help="with --workload: 1 runs the traced process")
    p.add_argument("--seconds", type=int_arg("seconds", 1, 3600),
                   default=30, help="with --workload: measured seconds")
    p.add_argument("--seed", type=int_arg("seed", 1, MAX_SEED),
                   default=DEFAULT_SEED)
    p.add_argument("--workloads", type=workloads_arg,
                   default=list(WORKLOADS))
    p.add_argument("--out", help="write the results JSON here")
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs: 4k instructions, 1 seed, 2 proxies, "
                        "a 1M-instruction store")
    p.add_argument("--build-dir", default=os.path.join(ROOT,
                                                       "build-benchmark"))
    p.add_argument("--spans-dir",
                   help="traced spans go here (default: BUILD_DIR/spans)")
    p.add_argument("--update-expected", action="store_true",
                   help="rewrite benchmark/expected/ from a seed-1 run")
    p.add_argument("--reason", help="required with --update-expected")
    args = p.parse_args(argv)
    if args.update_expected:
        if not args.reason or not args.reason.strip():
            p.error("--update-expected needs --reason \"...\"")
        if args.seed != DEFAULT_SEED or args.smoke or args.workload:
            p.error("--update-expected runs seed 1 at full scale only")
    return args


def fail(message):
    sys.stderr.write("run.py: %s\n" % message)
    sys.exit(1)


def child_env():
    env = dict(os.environ)
    for name in CLEARED_ENV:
        env.pop(name, None)
    return env


def build(build_dir):
    """Configure and build the generator; quiet unless it fails."""
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if (shutil.which("ninja") and
            not os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))):
        configure += ["-G", "Ninja"]
    steps = [configure,
             ["cmake", "--build", build_dir, "--target", "csim_benchmark",
              "-j", str(os.cpu_count() or 1)]]
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S, env=child_env())
        except (OSError, subprocess.TimeoutExpired) as exc:
            fail("build step %s failed: %s" % (cmd[:2], exc))
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-6000:])
            fail("build failed: %s" % " ".join(cmd))
    return os.path.join(build_dir, "csim_benchmark")


def json_line(line):
    try:
        value = json.loads(line)
    except ValueError:
        return None
    return value if isinstance(value, dict) else None


def run_generator(binary, workload, seed, smoke, mode, seconds, tmpdir,
                  spans=None):
    """One generator process. Returns (result, planned cells): the parsed
    result is None if the process died, and the planned cell count is
    None if it died before announcing its plan."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", str(seconds), "--tmpdir", tmpdir]
    if smoke:
        cmd.append("--smoke")
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=GENERATOR_TIMEOUT_S, env=child_env())
    except subprocess.TimeoutExpired as exc:
        sys.stderr.write("%s %s: timed out\n" % (workload, mode))
        # The output captured so far is bytes even in text mode.
        lines = (exc.stdout or b"").decode(errors="replace").splitlines()
        return None, planned_cells(lines)
    lines = proc.stdout.strip().splitlines()
    planned = planned_cells(lines)
    if proc.returncode != 0:
        sys.stderr.write("%s %s: exit %d\n%s" % (
            workload, mode, proc.returncode, proc.stderr[-4000:]))
        return None, planned
    result = json_line(lines[-1]) if len(lines) > 1 else None
    if result is None or "cells" not in result:
        sys.stderr.write("%s %s: unparsable output\n" % (workload, mode))
        return None, planned
    return result, planned


def planned_cells(lines):
    first = json_line(lines[0]) if lines else None
    count = first.get("planned_cells") if first else None
    return count if isinstance(count, int) and count > 0 else None


def e2e_reps(binary, workload, seed, smoke, tmpdir, min_reps, seconds):
    """End-to-end reps, one generator process each, as a user runs one
    sweep per process: every rep starts from a fresh heap, so neither
    its time nor its peak RSS depends on the reps before it. Runs at
    least `min_reps`, then more while another as long as the last still
    fits in `seconds`; stops at the first process that dies. Returns
    (results, planned cells), one entry per process."""
    results, planned = [], []
    start = time.monotonic()
    while True:
        rep_start = time.monotonic()
        result, n = run_generator(binary, workload, seed, smoke, "e2e", 0,
                                  tmpdir)
        results.append(result)
        planned.append(n)
        now = time.monotonic()
        if result is None or (len(results) >= min_reps and
                              now - start + now - rep_start > seconds):
            return results, planned


def load_expected(workload):
    path = os.path.join(HERE, "expected", workload + ".json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def check(workload, seed, smoke, runs, planned):
    """Per-cell checks over the generator outputs of one workload (None
    for a process that died; `planned` holds each process's announced
    cell count); returns (ops, failed, checks applied)."""
    expected = None if smoke or seed != DEFAULT_SEED else load_expected(
        workload)
    if any(run is None for run in runs):
        # Every cell of the workload fails. The count comes from a
        # process's announced plan, else from the goldens.
        counts = [n for n in planned if n]
        if not counts and expected is not None:
            counts = [len(expected["cells"])]
        n = max(counts) if counts else 1
        return n, n, "process died"
    labels = [c["label"] for c in runs[0]["cells"]]
    ops = len(labels)
    bad = set()
    applied = []
    if expected is not None:
        applied.append("golden")
        golden = {c["label"]: c["digest"] for c in expected["cells"]}
        if sorted(golden) != sorted(labels):
            bad.update(range(ops))
        for run in runs:
            for i, cell in enumerate(run["cells"]):
                if golden.get(cell["label"]) != cell["digest"]:
                    bad.add(i)
    reference = runs[0]["rep"]["digests"]
    if len(runs) > 1:
        applied.append("rep-to-rep")
    if any("traced" in run for run in runs):
        applied.append("traced-vs-e2e")
    for run in runs:
        reps = [run["rep"]] + (run["traced"]["reps"] if "traced" in run
                               else [])
        for rep in reps:
            for i, digest in enumerate(rep["digests"]):
                if digest != reference[i]:
                    bad.add(i)
        if "traced" in run and run["traced"]["bare_mismatches"]:
            # A bare rerun disagreed with its observed run: the job's
            # cell cannot be named from here, so fail them all.
            bad.update(range(ops))
    return ops, len(bad), "+".join(applied) or "none"


def median(values):
    return statistics.median(values) if values else 0.0


def e2e_metrics(results):
    """Per-rep series of every end-to-end metric, from the results of
    the end-to-end processes."""
    reps = [r["rep"] for r in results]
    return {
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "sim_mips": [r["instructions"] / r["sim_s"] / 1e6 for r in reps],
        "peak_rss_mib": [r["peak_rss_bytes"] / 2**20 for r in results],
    }


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment():
    return {
        "cleared": [n for n in CLEARED_ENV if n in os.environ],
        "csim_env": {k: v for k, v in sorted(child_env().items())
                     if k.startswith("CSIM_")},
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def single_run(args, binary, tmpdir, spans_dir, spec):
    """--workload mode: end-to-end reps for --seconds, or one traced
    process; one JSON line."""
    traced = args.trace == "1"
    if traced:
        spans = os.path.join(spans_dir, args.workload + ".spans.json")
        out, planned = run_generator(binary, args.workload, args.seed,
                                     args.smoke, "traced", args.seconds,
                                     tmpdir, spans)
        outs, planned = [out], [planned]
    else:
        outs, planned = e2e_reps(binary, args.workload, args.seed,
                                 args.smoke, tmpdir, SINGLE_RUN_MIN_REPS,
                                 args.seconds)
    ops, failed, applied = check(args.workload, args.seed, args.smoke,
                                 outs, planned)
    alive = None not in outs
    metrics = {}
    reps = 0
    if alive and traced:
        reps = len(outs[0]["traced"]["reps"])
        layers = outs[0]["traced"]["layers"]
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layers[m["name"]],
                                  "unit": m["unit"]}
    elif alive:
        reps = len(outs)
        series = e2e_metrics(outs)
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": median(series[m["name"]]),
                                  "unit": m["unit"]}
    print("%s seed=%d trace=%s check=%s reps=%d ops=%d ops_failed=%d" % (
        args.workload, args.seed, args.trace, applied, reps, ops, failed))
    for name, m in metrics.items():
        print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
    result = {"correct": failed == 0 and alive,
              "attempted": ops, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def summarize(series):
    return {"median": median(series), "min": min(series),
            "max": max(series), "n": len(series), "values": series}


def full_run(args, binary, tmpdir, spans_dir, spec):
    """Every selected workload: FULL_RUN_REPS end-to-end processes, then
    one traced process."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    results = {"schema": 1, "seed": args.seed, "smoke": args.smoke,
               "git_sha": git_sha(), "env": environment(), "workloads": {}}
    any_failed = False
    for w in args.workloads:
        e2e, planned = e2e_reps(binary, w, args.seed, args.smoke, tmpdir,
                                FULL_RUN_REPS, 0)
        spans = os.path.join(spans_dir, w + ".spans.json")
        traced, traced_planned = run_generator(binary, w, args.seed,
                                               args.smoke, "traced", 0,
                                               tmpdir, spans)
        ops, failed, applied = check(w, args.seed, args.smoke,
                                     e2e + [traced],
                                     planned + [traced_planned])
        any_failed |= failed > 0
        entry = {"ops": ops, "ops_failed": failed, "check": applied}
        print("== %s (seed %d): check %s, ops=%d ops_failed=%d" % (
            w, args.seed, applied, ops, failed))
        if None not in e2e:
            entry["e2e"] = {}
            for name, series in e2e_metrics(e2e).items():
                s = summarize(series)
                s["unit"] = units[name]
                entry["e2e"][name] = s
                print("  %-32s %12.6g %-8s min %.6g max %.6g n=%d" % (
                    name, s["median"], units[name], s["min"], s["max"],
                    s["n"]))
            entry["cells"] = e2e[0]["cells"]
        if traced is not None:
            t = traced["traced"]
            entry["layers"] = {
                name: {"value": t["layers"][name], "unit": unit}
                for name, unit in layer_units.items()}
            entry["jobs"] = t["jobs"]
            entry["traced_digests"] = t["reps"][0]["digests"]
            entry["spans"] = spans
            print("  traced: %d jobs, spans in %s" % (t["jobs"], spans))
            for name, unit in layer_units.items():
                print("    %-34s %12.6g %s" % (name, t["layers"][name],
                                               unit))
        results["workloads"][w] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
            f.write("\n")
        print("results written to %s" % args.out)
    return 1 if any_failed else 0


def update_expected(args, binary, tmpdir):
    for w in args.workloads:
        e2e, _ = e2e_reps(binary, w, DEFAULT_SEED, False, tmpdir, 2, 0)
        if None in e2e:
            fail("%s: generator failed; goldens left unchanged" % w)
        if e2e[0]["cells"] != e2e[1]["cells"]:
            fail("%s: reps disagree; goldens left unchanged" % w)
        path = os.path.join(HERE, "expected", w + ".json")
        with open(path, "w") as f:
            json.dump({"workload": w, "seed": DEFAULT_SEED,
                       "reason": args.reason.strip(),
                       "cells": e2e[0]["cells"]}, f, indent=1)
            f.write("\n")
        print("wrote %s (%d cells)" % (path, len(e2e[0]["cells"])))
    return 0


def main(argv):
    args = parse_args(argv)
    spec = load_spec()
    binary = build(args.build_dir)
    tmpdir = os.path.join(args.build_dir, "tmp")
    spans_dir = args.spans_dir or os.path.join(args.build_dir, "spans")
    os.makedirs(tmpdir, exist_ok=True)
    os.makedirs(spans_dir, exist_ok=True)
    if args.update_expected:
        return update_expected(args, binary, tmpdir)
    if args.workload:
        return single_run(args, binary, tmpdir, spans_dir, spec)
    return full_run(args, binary, tmpdir, spans_dir, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
