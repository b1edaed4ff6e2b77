#!/usr/bin/env python3
"""Regenerate the golden manifest and stdout from a fresh build.

    python3 tools/update_golden.py --bench-dir build/bench \\
        --reason "why the simulated behaviour or printed output changed"

Writes tests/golden/digests.json and one tests/golden/<bench>.txt per
golden bench, and deletes the .txt of a bench no longer checked. Every
invocation of a bench must print the same stdout; when two differ,
nothing is written. A change means the simulator's output changed, so
the update must say why: ``--reason`` is mandatory and is appended to
CHANGES.md next to the regenerated files.
"""

import argparse
import glob
import json
import os
import sys

from check_golden import (GOLDEN_DIR, MANIFEST, REPO, collect,
                          diff_jobs, diff_texts, stdout_path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--bench-dir", required=True,
                    help="directory holding the built bench_* binaries")
    ap.add_argument("--reason", required=True,
                    help="why the golden values change (goes to "
                         "CHANGES.md)")
    args = ap.parse_args()
    reason = " ".join(args.reason.split())
    if not reason:
        ap.error("--reason must not be blank")

    fresh, texts = collect(args.bench_dir)
    by_path = {}
    for entry, text in texts.items():
        first = by_path.setdefault(stdout_path(entry), (entry, text))
        if first[1] != text:
            print(f"'{first[0]}' and '{entry}' print different stdout; "
                  f"nothing written", file=sys.stderr)
            return 1
    wanted = set(by_path)
    stale = set(glob.glob(os.path.join(GOLDEN_DIR, "*.txt"))) - wanted
    if os.path.exists(MANIFEST):
        with open(MANIFEST) as f:
            changed = diff_jobs(json.load(f), fresh)
        moved = diff_texts(texts)
        if not changed and not moved and not stale:
            print("golden digests and stdout already up to date; "
                  "nothing written")
            return 0
        print(f"{len(changed)} digest change(s), {len(moved)} stdout "
              f"change(s), {len(stale)} stale stdout file(s)")

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(MANIFEST, "w") as f:
        json.dump(fresh, f, indent=2)
        f.write("\n")
    for path, (_, text) in by_path.items():
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    for path in stale:
        os.remove(path)
    with open(os.path.join(REPO, "CHANGES.md"), "a") as f:
        f.write(f"- Golden digests and stdout regenerated "
                f"(tests/golden/): {reason}\n")
    print(f"wrote {os.path.relpath(GOLDEN_DIR, REPO)}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
