#!/usr/bin/env python3
"""Checks that the exact counters of two traced runs agree bit for bit.

Each argument is the standard output of one traced run
(`--trace 1`) of the same workload and seed, for example:

    cargo run --release --manifest-path perfbench/Cargo.toml -- \
        --workload kron --seed 3 --seconds 30 --trace 1 > a.txt
    (same command) > b.txt
    python3 perfbench/compare_counters.py a.txt b.txt

A traced run prints its exact counters (the `EXACT` list in
`perfbench/src/metrics.rs`) on one line starting with `exact `. This
script compares those lines in full, prints every counter that differs or
is missing from one run, and exits with status 1 if any does.
"""

import json
import sys


def exact(path):
    with open(path) as f:
        for line in f:
            if line.startswith("exact "):
                obj = json.loads(line[len("exact "):])
                return {k: v["value"] for k, v in obj.items()}
    sys.exit(f"{path}: no 'exact' line (not a traced run?)")


def main(a, b):
    ea, eb = exact(a), exact(b)
    names = sorted(set(ea) | set(eb))
    differ = [k for k in names if ea.get(k) != eb.get(k)]
    for k in differ:
        print(f"{k}: {ea.get(k)!r} != {eb.get(k)!r}")
    print(f"{len(names) - len(differ)} of {len(names)} exact counters agree")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
