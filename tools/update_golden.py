#!/usr/bin/env python3
"""Regenerate tests/golden/digests.json from a fresh build.

    python3 tools/update_golden.py --bench-dir build/bench \\
        --reason "why the simulated behaviour changed"

A digest change means the simulator's output changed, so the update
must say why: ``--reason`` is mandatory and is appended to CHANGES.md
next to the regenerated manifest.
"""

import argparse
import json
import os
import sys

from check_golden import MANIFEST, REPO, collect, diff


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--bench-dir", required=True,
                    help="directory holding the built bench_* binaries")
    ap.add_argument("--reason", required=True,
                    help="why the digests change (goes to CHANGES.md)")
    args = ap.parse_args()
    reason = " ".join(args.reason.split())
    if not reason:
        ap.error("--reason must not be blank")

    fresh = collect(args.bench_dir)
    if os.path.exists(MANIFEST):
        with open(MANIFEST) as f:
            changed = diff(json.load(f), fresh)
        if not changed:
            print("golden digests already up to date; nothing written")
            return 0
        print(f"{len(changed)} digest change(s)")

    os.makedirs(os.path.dirname(MANIFEST), exist_ok=True)
    with open(MANIFEST, "w") as f:
        json.dump(fresh, f, indent=2)
        f.write("\n")
    with open(os.path.join(REPO, "CHANGES.md"), "a") as f:
        f.write(f"- Golden digests regenerated "
                f"(tests/golden/digests.json): {reason}\n")
    print(f"wrote {os.path.relpath(MANIFEST, REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
