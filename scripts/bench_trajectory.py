#!/usr/bin/env python3
"""Print the benchmark trajectory recorded in the BENCH_<n>.json files.

Usage:
    python3 scripts/bench_trajectory.py [root]

For each BENCH_<n>.json in `root` (default: the repository root), in
order of n, prints one row per workload and end-to-end metric from
``workloads[w].summary``: the parent's and the change's median with
their q1-q3, the number of runs per side, and in how many pairs the
change read lower.  Then it prints each workload's ``info_speedup``
(alist time over hybrid time, the paper's figure) as the parent's
median -> the change's, and the file's claim result, or ``(none)`` for
a file that records no claim (``"claim": null``).
"""

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEADER = ("bench", "workload", "metric", "parent", "parent q1-q3",
          "change", "change q1-q3", "n", "lower")


def bench_files(root):
    found = [(int(m.group(1)), p) for p in Path(root).glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return [p for _, p in sorted(found)]


def rows(name, data):
    """One tuple of HEADER's fields per workload and metric."""
    for workload, w in data["workloads"].items():
        for metric, s in w["summary"].items():
            par, chg = s["parent"], s["change"]
            yield (name, workload, metric,
                   f"{par['median']:g}", f"{par['q1']:g}-{par['q3']:g}",
                   f"{chg['median']:g}", f"{chg['q1']:g}-{chg['q3']:g}",
                   f"{par['n']}/{chg['n']}", s["change_lower_in_pairs"])


def speedups(name, data):
    """One line per workload: its info_speedup, parent -> change median."""
    for workload, w in data["workloads"].items():
        sp = w.get("info_speedup")
        if sp:
            yield (f"{name} {workload} info_speedup: "
                   f"{sp['parent']['median']:g} -> {sp['change']['median']:g}")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else ROOT
    for path in bench_files(root):
        data = json.loads(path.read_text())
        table = [HEADER, *rows(path.stem, data)]
        widths = [max(len(r[i]) for r in table) for i in range(len(HEADER))]
        for r in table:
            print("  ".join(f.ljust(w) for f, w in zip(r, widths)).rstrip())
        for line in speedups(path.stem, data):
            print(line)
        claim = data.get("claim") or {}
        print(f"{path.stem} claim: {claim.get('result', '(none)')}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
