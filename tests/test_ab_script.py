"""scripts/ab.py summarizes paired benchmark runs."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def _line(hybrid, alist, setup=0.02, rss=26.0):
    metrics = {"hybrid_solve_s": (hybrid, "s"), "alist_solve_s": (alist, "s"),
               "setup_s": (setup, "s"), "peak_rss_mb": (rss, "MB")}
    return {"correct": True, "attempted": 100, "failed": 0,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


# four pairs of canned final lines, as run.py prints them: (parent, change)
PAIRS = [
    (_line(0.50, 0.90), _line(0.41, 0.83)),
    (_line(0.52, 0.92), _line(0.42, 0.84, setup=0.03)),
    (_line(0.49, 0.91), _line(0.40, 0.95)),
    (_line(0.51, 0.93, rss=25.0), _line(0.52, 0.85, rss=26.0)),
]


def test_summary_gives_medians_quartiles_and_lower_pairs():
    summ = ab.summary(PAIRS)
    assert list(summ) == ["hybrid_solve_s", "alist_solve_s", "setup_s",
                          "peak_rss_mb"]
    hyb = summ["hybrid_solve_s"]
    # inclusive quartiles of 0.49, 0.50, 0.51, 0.52 and of 0.40 .. 0.52
    assert hyb["parent"] == {"median": 0.505, "q1": 0.4975, "q3": 0.5125,
                             "n": 4}
    assert hyb["change"] == {"median": 0.415, "q1": 0.4075, "q3": 0.445,
                             "n": 4}
    assert hyb["change_lower_in_pairs"] == "3/4"
    assert summ["alist_solve_s"]["change_lower_in_pairs"] == "3/4"
    # ties are not lower
    assert summ["setup_s"]["change_lower_in_pairs"] == "0/4"
    assert summ["peak_rss_mb"]["change_lower_in_pairs"] == "0/4"
    assert summ["peak_rss_mb"]["parent"]["median"] == 26.0


def test_summary_is_the_layout_the_trajectory_reads():
    summ = ab.summary(PAIRS[:1])
    assert summ["setup_s"]["parent"] == {"median": 0.02, "q1": 0.02,
                                         "q3": 0.02, "n": 1}
    line = next(ab.report_lines(ab.summary(PAIRS)))
    assert line == ("hybrid_solve_s: parent 0.505 (0.4975-0.5125)  "
                    "change 0.415 (0.4075-0.445)  change lower in 3/4")
    trajectory_spec = importlib.util.spec_from_file_location(
        "bench_trajectory", ROOT / "scripts" / "bench_trajectory.py")
    trajectory = importlib.util.module_from_spec(trajectory_spec)
    trajectory_spec.loader.exec_module(trajectory)
    data = {"workloads": {"ce-planted": {"summary": ab.summary(PAIRS)}}}
    rows = list(trajectory.rows("BENCH_0", data))
    assert rows[0] == ("BENCH_0", "ce-planted", "hybrid_solve_s", "0.505",
                       "0.4975-0.5125", "0.415", "0.4075-0.445", "4/4", "3/4")
