#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

    python3 benchmark/compare.py --parent P1.json P2.json ... \
                                 --change C1.json C2.json ...

Each file is the --out of one full `benchmark/run.py` invocation. Run
the two sides alternately (parent, change, parent, ...) with identical
settings; the i-th parent file is paired with the i-th change file.

For each workload x end-to-end metric it prints each side's median and
quartiles over the files' medians, the fraction of pairs the change
won (ties count for neither), and a verdict against the metric's bound
in BENCHMARK.json:

  worse       the change's median is worse than the parent's by more
              than the bound (a regression)
  better      the change won at least 9/10 of the pairs and the medians
              differ by more than the parent's interquartile range
  unresolved  the parent's own spread is wider than the bound, and not
              every change run beat every parent run
  unchanged   otherwise

It also prints each side's failed-op share. Exit status 1 on any
regression or on a higher failed-op share for the change, else 0.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def improves(new, old, better):
    """True when `new` is strictly better than `old`."""
    return new < old if better == "lower" else new > old


def verdict(parent, change, better, bound):
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if improves(c, p, better))
    won_frac = won / len(pairs) if pairs else 0.0
    worsening = (c_med - p_med) if better == "lower" else (p_med - c_med)
    rel_worse = worsening / abs(p_med) if p_med else 0.0
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    every_run_better = all(improves(c, p, better)
                           for c in change for p in parent)
    if rel_worse > bound:
        v = "worse"
    elif won_frac >= 0.9 and worsening < 0 and -worsening > p_q3 - p_q1:
        v = "better"
    elif spread > bound and not every_run_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return v, won_frac


def load(paths):
    runs = []
    for path in paths:
        try:
            with open(path) as f:
                data = json.load(f)
            if not isinstance(data.get("workloads"), dict):
                raise ValueError("no 'workloads' object")
        except (OSError, ValueError) as exc:
            sys.stderr.write("compare.py: %s: %s\n" % (path, exc))
            sys.exit(2)
        runs.append(data)
    return runs


def failed_share(runs):
    ops = failed = 0
    for run in runs:
        for entry in run["workloads"].values():
            ops += entry.get("ops", 0)
            failed += entry.get("ops_failed", 0)
    return failed / ops if ops else 0.0, failed, ops


def compare(parent_runs, change_runs, spec, out=sys.stdout):
    """Print the comparison; returns the exit status."""
    workloads = [w["name"] for w in spec["workloads"]]
    status = 0
    out.write("%-13s %-13s %27s %27s %6s  %s\n" % (
        "workload", "metric", "parent q1/median/q3",
        "change q1/median/q3", "won", "verdict"))
    for w in workloads:
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [r["workloads"][w]["e2e"][name]["median"]
                 for r in parent_runs
                 if "e2e" in r["workloads"].get(w, {})]
            c = [r["workloads"][w]["e2e"][name]["median"]
                 for r in change_runs
                 if "e2e" in r["workloads"].get(w, {})]
            if not p or not c:
                out.write("%-13s %-13s missing on one side\n" % (w, name))
                status = 1
                continue
            v, won = verdict(p, c, m["better"], m["bound"])
            out.write("%-13s %-13s %27s %27s %5.0f%%  %s (bound %g%%)\n" % (
                w, name, "%.4g/%.4g/%.4g" % quartiles(p),
                "%.4g/%.4g/%.4g" % quartiles(c), 100 * won, v,
                100 * m["bound"]))
            if v == "worse":
                status = 1
    p_share, p_failed, p_ops = failed_share(parent_runs)
    c_share, c_failed, c_ops = failed_share(change_runs)
    out.write("failed ops: parent %d/%d (%.2f%%), change %d/%d (%.2f%%)\n"
              % (p_failed, p_ops, 100 * p_share, c_failed, c_ops,
                 100 * c_share))
    if c_share > p_share:
        status = 1
    return status


def main(argv):
    ap = argparse.ArgumentParser(
        description="Compare parent and change benchmark results.")
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--spec", default=DEFAULT_SPEC,
                    help="BENCHMARK.json holding the bounds")
    args = ap.parse_args(argv)
    with open(args.spec) as f:
        spec = json.load(f)
    return compare(load(args.parent), load(args.change), spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
