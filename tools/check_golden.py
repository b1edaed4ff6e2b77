#!/usr/bin/env python3
"""Diff the committed golden values and stdout against a fresh build.

tests/golden/digests.json pins, per bench invocation at smoke scale, the
run ledger's per-job FNV-1a ``statsDigest`` and ``cycles`` (one
``jobEnd`` event per (sweep, cell, seed)) as "<digest> cycles=<n>".
The cycles ride along because an ideal cell's stats are its 1x8w
reference run's, so its digest alone does not see the list schedule.
Beside it, tests/golden/<bench>.txt pins the bench's whole stdout: the
normalization, averages, tables and post-run analyses that no job value
covers. The flags of an invocation change what runs checked or
profiled, not what it prints, so every invocation of a bench must print
that one text. Any silent drift in simulated behaviour or in the
printed arithmetic changes at least one pinned value or line. This
script re-runs every invocation in ``BENCHES`` with ``--ledger-out``,
reports every job whose value changed, appeared or vanished, and prints
a unified diff of every stdout that moved.

    python3 tools/check_golden.py --bench-dir build/bench

Exit status: 0 when everything matches, 1 on any drift, 2 on a usage or
environment error. A deliberate change is recorded with
tools/update_golden.py, which demands a reason.
"""

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(REPO, "tests", "golden")
MANIFEST = os.path.join(GOLDEN_DIR, "digests.json")

# Every bench runs at this scale. Job values and stdout are
# thread-count invariant, so the two worker threads only save wall
# time. Each entry is one invocation, keyed by its bench and extra
# args: bench_paper's jobs are pinned plain, checked (the checker adds
# verify.* stats) and profiled (profiler.* stats).
COMMON_ARGS = ["--instructions", "4000", "--seeds", "1,2"]
BENCHES = [
    "bench_paper",
    "bench_paper --check",
    "bench_paper --profile",
]

# Lines of one stdout diff shown on a failure.
DIFF_LINES = 80


def fail(msg):
    print(f"{os.path.basename(sys.argv[0])}: {msg}", file=sys.stderr)
    sys.exit(2)


def stdout_path(entry):
    """tests/golden/<bench>.txt, the stdout every invocation of one
    BENCHES entry's bench must print."""
    return os.path.join(GOLDEN_DIR, entry.split()[0] + ".txt")


def pinned(digest, cycles):
    """The manifest value of one jobEnd."""
    return f"{digest} cycles={cycles}"


def run_bench(bench_dir, entry):
    """({"sweep:cell:seed": "<statsDigest> cycles=<n>"}, stdout) for
    one BENCHES entry."""
    name, *extra_args = entry.split()
    exe = os.path.join(bench_dir, name)
    if not os.access(exe, os.X_OK):
        fail(f"no executable bench at {exe}")
    with tempfile.TemporaryDirectory() as tmp:
        ledger = os.path.join(tmp, "run.ledger")
        cmd = [exe, *COMMON_ARGS, *extra_args, "--threads", "2",
               "--ledger-out", ledger]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, encoding="utf-8")
        if proc.returncode != 0:
            fail(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                 f"{proc.stderr.strip()}")
        by_key = {}
        with open(ledger) as f:
            for line in f:
                event = json.loads(line)
                if event["kind"] != "jobEnd":
                    continue
                p = event["payload"]
                key = f"{p['sweep']}:{p['cell']}:{p['seed']}"
                by_key.setdefault(key, []).append(
                    (p["statsDigest"], p["cycles"]))
    # Some sweeps repeat a label across cells that differ only in a
    # knob the label does not show (an ablation setting, a forwarding
    # latency). Their jobs finish in thread order, so their values are
    # compared as a multiset: sorted and keyed "sweep:cell:seed#k".
    digests = {}
    for key, values in by_key.items():
        if len(values) == 1:
            digests[key] = pinned(*values[0])
        else:
            for k, value in enumerate(sorted(values)):
                digests[f"{key}#{k}"] = pinned(*value)
    return dict(sorted(digests.items())), proc.stdout


def collect(bench_dir):
    """(manifest, {entry: stdout}) from a fresh run of every golden
    bench."""
    manifest = {"commonArgs": COMMON_ARGS, "benches": {}}
    texts = {}
    for entry in BENCHES:
        jobs, texts[entry] = run_bench(bench_dir, entry)
        manifest["benches"][entry] = {"jobs": jobs}
    return manifest, texts


def read_text(entry):
    """The committed stdout of one entry (None when absent)."""
    try:
        with open(stdout_path(entry), encoding="utf-8") as f:
            return f.read()
    except OSError:
        return None


def diff_jobs(golden, fresh):
    """One line per job value that changed, appeared or vanished."""
    out = []
    if golden.get("commonArgs") != fresh["commonArgs"]:
        out.append(f"common args {golden.get('commonArgs')} != "
                   f"{fresh['commonArgs']}")
    gb = golden.get("benches", {})
    for name, entry in fresh["benches"].items():
        if name not in gb:
            out.append(f"{name}: not in the manifest")
            continue
        want, got = gb[name].get("jobs", {}), entry["jobs"]
        for key in sorted(want.keys() | got.keys()):
            if key not in got:
                out.append(f"{name}: {key} missing from this run")
            elif key not in want:
                out.append(f"{name}: {key} not in the manifest")
            elif want[key] != got[key]:
                out.append(f"{name}: {key} {want[key]} -> {got[key]}")
    for name in gb.keys() - fresh["benches"].keys():
        out.append(f"{name}: in the manifest but no longer checked")
    return out


def diff_texts(texts):
    """{entry: unified diff lines} for every stdout that moved."""
    out = {}
    for entry, got in texts.items():
        path = os.path.relpath(stdout_path(entry), REPO)
        want = read_text(entry)
        if want is None:
            out[entry] = [f"no pinned stdout at {path}"]
        elif want != got:
            out[entry] = list(difflib.unified_diff(
                want.splitlines(), got.splitlines(), path,
                "this run", lineterm=""))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--bench-dir", required=True,
                    help="directory holding the built bench_* binaries")
    args = ap.parse_args()

    try:
        with open(MANIFEST) as f:
            golden = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read manifest {MANIFEST}: {e}")

    fresh, texts = collect(args.bench_dir)
    text_diffs = diff_texts(texts)
    for entry, lines in text_diffs.items():
        print(f"{entry}: stdout differs", file=sys.stderr)
        for line in lines[:DIFF_LINES]:
            print(f"  {line}", file=sys.stderr)
        if len(lines) > DIFF_LINES:
            print(f"  ... {len(lines) - DIFF_LINES} more diff lines",
                  file=sys.stderr)
    mismatches = diff_jobs(golden, fresh)
    if mismatches:
        print(f"{len(mismatches)} golden digest mismatch(es):",
              file=sys.stderr)
        for line in mismatches[:40]:
            print(f"  {line}", file=sys.stderr)
    if mismatches or text_diffs:
        print("If the change is deliberate, run tools/update_golden.py "
              "--reason '...'", file=sys.stderr)
        return 1
    jobs = sum(len(b["jobs"]) for b in golden["benches"].values())
    print(f"golden digests and stdout match ({jobs} jobs over "
          f"{len(golden['benches'])} bench runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
