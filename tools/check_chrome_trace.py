#!/usr/bin/env python3
"""Validate a --trace-out Chrome trace-event JSON file.

Usage: check_chrome_trace.py trace.json [trace2.json ...]

Checks the JSON object format emitted by src/obs/chrome_trace.cc
(loadable in chrome://tracing and Perfetto):

  * top level is {"displayTimeUnit": ..., "traceEvents": [...]}
  * every event is an object with string "name", a "ph" of "M", "X"
    or "C" (the writer emits no other phase), and integer "pid"/"tid"
  * metadata ("M") events carry args.name; every pid has a
    process_name and every (pid, tid>0) used by a slice has a
    thread_name
  * complete ("X") events carry integer ts >= 0 and dur >= 1, and
    slices on one track do not overlap
  * counter ("C") events carry a flat numeric args object; "cpiStack"
    counters carry exactly the CPI-stack component keys

Exits non-zero on the first malformed trace.
"""

import json
import sys

CPI_STACK_KEYS = {
    "base", "window", "steerStall", "bypass", "contention",
    "loadImbalance", "execute", "memory", "frontend",
}


class TraceError(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise TraceError(msg)


def check_uint(v, what):
    require(isinstance(v, int) and not isinstance(v, bool) and v >= 0,
            f"{what}: expected a non-negative integer, got {v!r}")


def check_event_common(i, ev):
    where = f"traceEvents[{i}]"
    require(isinstance(ev, dict), f"{where}: not an object")
    require(isinstance(ev.get("name"), str) and ev["name"],
            f"{where}: missing string 'name'")
    require(ev.get("ph") in ("M", "X", "C"),
            f"{where}: unexpected phase {ev.get('ph')!r}")
    check_uint(ev.get("pid"), f"{where}.pid")
    check_uint(ev.get("tid"), f"{where}.tid")
    return where


def check_trace(path):
    with open(path) as f:
        d = json.load(f)

    require(isinstance(d, dict), "top level is not an object")
    require(isinstance(d.get("traceEvents"), list),
            "traceEvents is not a list")

    process_names = {}
    thread_names = set()
    slice_tracks = {}  # (pid, tid) -> [(ts, dur)]
    counters = 0

    for i, ev in enumerate(d["traceEvents"]):
        where = check_event_common(i, ev)
        ph = ev["ph"]
        if ph == "M":
            require(ev["name"] in ("process_name", "thread_name"),
                    f"{where}: unknown metadata event '{ev['name']}'")
            args = ev.get("args")
            require(isinstance(args, dict) and
                    isinstance(args.get("name"), str) and args["name"],
                    f"{where}: metadata needs args.name")
            if ev["name"] == "process_name":
                require(ev["pid"] not in process_names,
                        f"{where}: duplicate process_name for pid "
                        f"{ev['pid']}")
                process_names[ev["pid"]] = args["name"]
            else:
                thread_names.add((ev["pid"], ev["tid"]))
        elif ph == "X":
            check_uint(ev.get("ts"), f"{where}.ts")
            check_uint(ev.get("dur"), f"{where}.dur")
            require(ev["dur"] >= 1, f"{where}: empty slice (dur 0)")
            require(isinstance(ev.get("args"), dict),
                    f"{where}: slice needs an args object")
            slice_tracks.setdefault((ev["pid"], ev["tid"]), []).append(
                (ev["ts"], ev["dur"], where))
        else:  # "C"
            check_uint(ev.get("ts"), f"{where}.ts")
            args = ev.get("args")
            require(isinstance(args, dict) and args,
                    f"{where}: counter needs a non-empty args object")
            for k, v in args.items():
                require(isinstance(v, (int, float)) and
                        not isinstance(v, bool),
                        f"{where}.args['{k}']: not a number")
            if ev["name"] == "cpiStack":
                require(set(args.keys()) == CPI_STACK_KEYS,
                        f"{where}: cpiStack keys "
                        f"{sorted(args.keys())} != "
                        f"{sorted(CPI_STACK_KEYS)}")
            counters += 1

    for (pid, tid), slices in slice_tracks.items():
        require(pid in process_names,
                f"pid {pid} has slices but no process_name")
        require((pid, tid) in thread_names,
                f"track (pid {pid}, tid {tid}) has slices but no "
                f"thread_name")
        slices.sort()
        for (ts_a, dur_a, wa), (ts_b, _, wb) in zip(slices, slices[1:]):
            require(ts_a + dur_a <= ts_b,
                    f"{wb} overlaps {wa} on track "
                    f"(pid {pid}, tid {tid})")

    n_slices = sum(len(s) for s in slice_tracks.values())
    return len(process_names), len(slice_tracks), n_slices, counters


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    status = 0
    for path in sys.argv[1:]:
        try:
            procs, tracks, slices, counters = check_trace(path)
        except (TraceError, json.JSONDecodeError, OSError,
                KeyError, TypeError) as e:
            print(f"{path}: FAIL: {e}", file=sys.stderr)
            status = 1
        else:
            print(f"{path}: OK ({procs} processes, {tracks} tracks, "
                  f"{slices} slices, {counters} counter samples)")
    return status


if __name__ == "__main__":
    sys.exit(main())
