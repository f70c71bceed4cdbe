"""scripts/bench_trajectory.py reads the committed BENCH_<n>.json files."""

import json
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
    assert "BENCH_18 vc-mix info_speedup: 1.4932 -> 1.4725" in out


def test_trajectory_reads_a_file_without_a_claim(tmp_path):
    summary = {"parent": {"median": 1.0, "q1": 0.9, "q3": 1.1, "n": 2},
               "change": {"median": 0.8, "q1": 0.7, "q3": 0.9, "n": 2},
               "change_lower_in_pairs": "2/2"}
    data = {"workloads": {"vc-mix": {
        "summary": {"hybrid_solve_s": summary},
        "info_speedup": {"parent": {"median": 1.4}, "change": {"median": 1.5}},
    }}, "claim": None}
    (tmp_path / "BENCH_3.json").write_text(json.dumps(data))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_trajectory.py"),
         str(tmp_path)], capture_output=True, text=True, check=True).stdout
    assert ["BENCH_3", "vc-mix", "hybrid_solve_s", "1", "0.9-1.1", "0.8",
            "0.7-0.9", "2/2", "2/2"] in [line.split() for line in
                                        out.splitlines()]
    assert "BENCH_3 vc-mix info_speedup: 1.4 -> 1.5" in out
    assert "BENCH_3 claim: (none)" in out
