"""scripts/criterion6.py reads the criterion-6 line of each run."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "criterion6", ROOT / "scripts" / "criterion6.py")
criterion6 = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(criterion6)

PASSING = """\
..
ACCEPTANCE representation-independence: PASS (12 hybrid/alist pairs, identical answers and node counts)
.
ACCEPTANCE speedup-trend: PASS (12 pairs, median speedup 1.56x, worst 1.12x (vcp-70))
.
2 passed, 6 deselected in 41.02s
"""
FAILING = PASSING.replace(
    "PASS (12 pairs, median speedup 1.56x, worst 1.12x (vcp-70))",
    "FAIL (12 pairs, median speedup 1.61x, worst 0.94x (ds-100-a))")


def test_parse_reads_the_verdict_median_and_worst_row():
    assert criterion6.parse(PASSING) == ("PASS", 1.56, 1.12, "vcp-70")
    assert criterion6.parse(FAILING) == ("FAIL", 1.61, 0.94, "ds-100-a")
    assert criterion6.parse("1 error in 0.30s\n") is None


def test_a_run_passes_only_on_pass_and_exit_zero():
    runs = [(criterion6.parse(PASSING), 0),
            (criterion6.parse(FAILING), 1),
            (criterion6.parse(PASSING), 1),   # criterion 5 failed
            (None, 2)]
    lines = [criterion6.run_line(i, *r) for i, r in enumerate(runs, 1)]
    assert lines == [
        "run 1: PASS median 1.56x, worst 1.12x (vcp-70)",
        "run 2: FAIL median 1.61x, worst 0.94x (ds-100-a), exit 1",
        "run 3: FAIL median 1.56x, worst 1.12x (vcp-70), exit 1",
        "run 4: FAIL (no speedup-trend line, exit 2)",
    ]
    assert criterion6.tally(runs) == ["passed 1/4", "medians 1.56x-1.61x"]
