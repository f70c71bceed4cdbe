#!/usr/bin/env python3
"""A/B the repository benchmark between two checkouts.

Usage:
    python3 scripts/ab.py PARENT_DIR CHANGE_DIR --workload W
        [--pairs N] [--seconds S] [--seed S] [--out FILE]

Each pair runs ``searchbench/run.py --workload W --seed S --trace 0
--seconds S`` once in each checkout, one after the other; the first
pair runs the parent first, the next the change first, and so on.
Pair i uses seed ``--seed + i``, the same on both sides.  Then it
prints, per end-to-end metric, each side's median and q1-q3 (the
inclusive quartiles) and in how many pairs the change read lower, and
the same for the run's alist/hybrid ``speedup``.

With ``--out``, the workload's entry ``workloads[W]`` of FILE is
written, in the layout ``scripts/bench_trajectory.py`` reads: the
seeds, ``summary``, ``info_speedup``, the failed and attempted solves,
and every run's final line, info and environment.  Other entries of an
existing FILE are kept, so one file can collect several workloads.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def stats(values):
    """Median, inclusive quartiles and count, rounded as BENCH files
    record them."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "n": len(values)}


def compare(pairs):
    """``{"parent": stats, "change": stats, "change_lower_in_pairs"}``
    over ``pairs``, a list of (parent value, change value)."""
    lower = sum(c < p for p, c in pairs)
    return {"parent": stats([p for p, _ in pairs]),
            "change": stats([c for _, c in pairs]),
            "change_lower_in_pairs": f"{lower}/{len(pairs)}"}


def summary(pairs):
    """Per end-to-end metric, ``compare`` over ``pairs``: a list of
    (parent, change) final lines, each the JSON object run.py prints
    last, ``{"correct", "attempted", "failed", "metrics"}``."""
    names = pairs[0][0]["metrics"]
    return {name: compare([(p["metrics"][name]["value"],
                            c["metrics"][name]["value"]) for p, c in pairs])
            for name in names}


def report_lines(summ):
    """One printable line per entry of a ``summary`` (or of any dict of
    ``compare`` results)."""
    for name, s in summ.items():
        par, chg = s["parent"], s["change"]
        yield (f"{name}: parent {par['median']:g} ({par['q1']:g}-"
               f"{par['q3']:g})  change {chg['median']:g} ({chg['q1']:g}-"
               f"{chg['q3']:g})  change lower in {s['change_lower_in_pairs']}")


def run_once(checkout, workload, seed, seconds):
    """One run in ``checkout``: its final line, info and environment."""
    cmd = [sys.executable, "searchbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0", "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                         check=True).stdout
    final = json.loads(out.strip().splitlines()[-1])
    saved = Path(checkout, "searchbench", "out",
                 f"{workload}-s{seed}-trace0.json")
    report = json.loads(saved.read_text())
    return {"final": final, "info": report["info"], "env": report["env"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    dirs = {"parent": args.parent_dir, "change": args.change_dir}

    runs = []
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        got = {}
        for position, side in enumerate(order):
            got[side] = run_once(dirs[side], args.workload, seed, args.seconds)
            runs.append({"seed": seed, "side": side, "position": position,
                         **got[side]})
            print(f"pair {i} seed {seed} {side}: "
                  f"{json.dumps(got[side]['final']['metrics'])}",
                  file=sys.stderr)
        pairs.append((got["parent"], got["change"]))

    summ = summary([(p["final"], c["final"]) for p, c in pairs])
    speedup = compare([(p["info"]["speedup"], c["info"]["speedup"])
                       for p, c in pairs])
    for line in report_lines({**summ, "info.speedup": speedup}):
        print(line)

    if args.out:
        path = Path(args.out)
        data = json.loads(path.read_text()) if path.exists() else {}
        data.setdefault("workloads", {})[args.workload] = {
            "seeds": [args.seed + i for i in range(args.pairs)],
            "summary": summ,
            "info_speedup": {side: speedup[side] for side in SIDES},
            "failed": sum(r["final"]["failed"] for r in runs),
            "attempted": sum(r["final"]["attempted"] for r in runs),
            "runs": runs,
        }
        path.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
