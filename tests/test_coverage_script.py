"""scripts/coverage.py lists exactly the statements that never ran."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "coverage_script", ROOT / "scripts" / "coverage.py")
coverage = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(coverage)

SAMPLE = '''\
"""Module docstring."""

LIMIT = 3


class Box:
    """Class docstring."""
    size = 1


def pick(x):
    """Function docstring."""
    global LIMIT
    try:
        y = int(x)
    except ValueError:
        y = 0
    if (y
            > LIMIT):
        return "big"
    total = (
        y + 1
    )
    return total


if __name__ == "__main__":
    pick(9)
'''


def _run_sample(pkg):
    pkg.mkdir()
    (pkg / "sample.py").write_text(SAMPLE)
    spec = importlib.util.spec_from_file_location("sample", pkg / "sample.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.pick("2") == 3


def test_lists_the_statements_that_never_ran(tmp_path):
    pkg = tmp_path / "pkg"
    hits = coverage.trace(str(pkg), _run_sample, pkg)
    assert list(hits) == [str(pkg / "sample.py")]
    assert coverage.report(tmp_path, pkg, hits) == [
        "pkg/sample.py:17: y = 0",
        "pkg/sample.py:20: return \"big\"",
        "pkg/sample.py:28: pick(9)",
        "3 of 11 statements never ran",
    ]


def test_statements_leave_out_docstrings_defs_and_globals():
    spans = coverage.statements(SAMPLE)
    assert spans == [(3, 3), (8, 8), (14, 14), (15, 15), (17, 17),
                     (18, 19), (20, 20), (21, 23), (24, 24), (27, 27),
                     (28, 28)]
