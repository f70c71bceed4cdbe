#!/usr/bin/env python3
"""Run acceptance criteria 5 and 6 N times and tally criterion 6.

Usage:
    python3 scripts/criterion6.py N

Each run is ``pytest tests/test_acceptance.py -k "criterion_5 or
criterion_6" -s`` from the repository root, one after another.  From
each run's ``ACCEPTANCE speedup-trend: PASS|FAIL (...)`` line it prints
the verdict, the median speedup and the worst row, then how many runs
passed and the range of the medians.  The bounds live only in the
test: a run passes when the test printed PASS and pytest exited 0, so
a criterion-5 failure fails the run too.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = [sys.executable, "-m", "pytest", "tests/test_acceptance.py",
           "-k", "criterion_5 or criterion_6", "-s", "-q",
           "-p", "no:cacheprovider"]
LINE = re.compile(r"ACCEPTANCE speedup-trend: (PASS|FAIL) \(\d+ pairs, "
                  r"median speedup ([\d.]+)x, worst ([\d.]+)x \((.*)\)\)")


def parse(output):
    """``(verdict, median, worst, worst_row)`` from one run's output,
    or None if it printed no speedup-trend line."""
    m = LINE.search(output)
    if m is None:
        return None
    verdict, med, worst, row = m.groups()
    return verdict, float(med), float(worst), row


def passed(got, code):
    return got is not None and got[0] == "PASS" and code == 0


def run_line(i, got, code):
    """One run's line from its parsed output and pytest's exit code."""
    exit_note = "" if code == 0 else f", exit {code}"
    if got is None:
        return f"run {i}: FAIL (no speedup-trend line{exit_note})"
    _, med, worst, row = got
    return (f"run {i}: {'PASS' if passed(got, code) else 'FAIL'} "
            f"median {med:.2f}x, worst {worst:.2f}x ({row}){exit_note}")


def tally(runs):
    """The pass count and the range of the medians over ``runs``, a
    list of ``(parsed, exit code)``."""
    lines = [f"passed {sum(passed(*r) for r in runs)}/{len(runs)}"]
    medians = [got[1] for got, _ in runs if got is not None]
    if medians:
        lines.append(f"medians {min(medians):.2f}x-{max(medians):.2f}x")
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or not argv[0].isdigit() or int(argv[0]) < 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    runs = []
    for i in range(1, int(argv[0]) + 1):
        proc = subprocess.run(COMMAND, cwd=ROOT, capture_output=True, text=True)
        runs.append((parse(proc.stdout), proc.returncode))
        print(run_line(i, *runs[-1]), flush=True)
    print("\n".join(tally(runs)))
    return 0 if all(passed(*r) for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
