#!/usr/bin/env python3
"""Diff the committed golden stats digests against a fresh build.

tests/golden/digests.json pins, per bench invocation at smoke scale, the
run ledger's per-job FNV-1a ``statsDigest`` and ``cycles`` (one
``jobEnd`` event per (sweep, cell, seed)) as "<digest> cycles=<n>".
The cycles ride along because an ideal cell's stats are its 1x8w
reference run's, so its digest alone does not see the list schedule.
Any silent drift in simulated behaviour changes at least one pinned
value. This script re-runs every invocation in ``BENCHES`` with
``--ledger-out``, collects the jobEnd values and reports every job
whose value changed, appeared or vanished.

    python3 tools/check_golden.py --bench-dir build/bench

Exit status: 0 when every digest matches, 1 on any drift, 2 on a
usage or environment error. A deliberate behaviour change is
recorded with tools/update_golden.py, which demands a reason.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(REPO, "tests", "golden", "digests.json")

# Every bench runs at this scale. The digests are thread-count
# invariant, so the two worker threads only save wall time. Each entry
# is one invocation, keyed by its bench and extra args, so a bench can
# be pinned under several flag sets (bench_fig4_focused: checked and
# profiled).
COMMON_ARGS = ["--instructions", "4000", "--seeds", "1,2"]
BENCHES = [
    "bench_fig14_policies",
    "bench_fig4_focused --profile",
    "bench_adaptive",
    "bench_ablation --check",
    "bench_cluster_sweep --check",
    "bench_fig4_focused --check",
    "bench_global_traffic --check",
    "bench_latency_sweep --check",
    "bench_sec4_loc_ideal --check",
]


def fail(msg):
    print(f"{os.path.basename(sys.argv[0])}: {msg}", file=sys.stderr)
    sys.exit(2)


def pinned(digest, cycles):
    """The manifest value of one jobEnd."""
    return f"{digest} cycles={cycles}"


def bench_digests(bench_dir, entry):
    """{"sweep:cell:seed": "<statsDigest> cycles=<n>"} for one BENCHES
    entry."""
    name, *extra_args = entry.split()
    exe = os.path.join(bench_dir, name)
    if not os.access(exe, os.X_OK):
        fail(f"no executable bench at {exe}")
    with tempfile.TemporaryDirectory() as tmp:
        ledger = os.path.join(tmp, "run.ledger")
        cmd = [exe, *COMMON_ARGS, *extra_args, "--threads", "2",
               "--ledger-out", ledger]
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
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
    if not by_key:
        fail(f"{entry}: ledger holds no jobEnd events")
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
    return dict(sorted(digests.items()))


def collect(bench_dir):
    """The manifest a fresh run of every golden bench produces."""
    return {
        "commonArgs": COMMON_ARGS,
        "benches": {
            entry: {"jobs": bench_digests(bench_dir, entry)}
            for entry in BENCHES
        },
    }


def diff(golden, fresh):
    """Human-readable mismatch lines (empty when identical)."""
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

    mismatches = diff(golden, collect(args.bench_dir))
    if mismatches:
        print(f"{len(mismatches)} golden digest mismatch(es):",
              file=sys.stderr)
        for line in mismatches[:40]:
            print(f"  {line}", file=sys.stderr)
        print("If the change is deliberate, run tools/update_golden.py "
              "--reason '...'", file=sys.stderr)
        return 1
    jobs = sum(len(b["jobs"]) for b in golden["benches"].values())
    print(f"golden digests match ({jobs} jobs over "
          f"{len(golden['benches'])} bench runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
