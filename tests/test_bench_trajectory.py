"""scripts/bench_trajectory.py reads the committed BENCH_<n>.json files."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_trajectory_reads_the_committed_files():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_trajectory.py")],
        capture_output=True, text=True, check=True).stdout
    rows = [line.split() for line in out.splitlines()]
    assert ["BENCH_17", "vc-mix", "hybrid_solve_s", "0.9962", "0.9691-1.0167",
            "0.897", "0.8657-0.9738", "20/20", "18/20"] in rows
    # files in the order they were committed, 13 before 14 before 17
    order = [r[0] for r in rows if r and r[0].startswith("BENCH_")]
    numbers = [int(name[6:]) for name in dict.fromkeys(order)]
    assert numbers[:3] == [13, 14, 17] and numbers == sorted(numbers)
    assert "BENCH_17 claim: change lower in 18/20 pairs" in out
