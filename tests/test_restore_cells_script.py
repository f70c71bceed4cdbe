"""scripts/restore_cells.py reads restore costs from bench records."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "restore_cells", ROOT / "scripts" / "restore_cells.py")
restore_cells = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(restore_cells)


def op(calls, reads, writes):
    return {"calls": calls, "reads": reads, "writes": writes}


def record(name, repr_name, nodes=None, speedup=None, counters=None,
           status="ok"):
    return {"name": name, "repr": repr_name, "status": status,
            "nodes": nodes, "speedup": speedup, "counters": counters}


RECORDS = [
    # 6 mutations over 3 nodes; restores of 8 and 16 cells per call, out
    # of 120 counted cells on each side
    record("ds-a", "hybrid", 3, 1.5, {
        "delete_vertex": op(6, 30, 40), "restore": op(3, 12, 12),
        "is_adjacent": op(10, 26, 0)}),
    record("ds-a", "alist", 3, 1.5, {
        "delete_vertex": op(6, 20, 30), "restore": op(3, 30, 18),
        "is_adjacent": op(10, 22, 0)}),
    # the alist timed out, or the run had no counters: no line
    record("vc-b", "hybrid", 5, None, {"restore": op(1, 4, 4)}),
    record("vc-b", "alist", status="timeout"),
    record("vc-e", "hybrid", 5, 1.2), record("vc-e", "alist", 5, 1.2),
    # a missing optional file: one record, no line
    record("vc-c", None, status="skipped"),
    # every mutation class counts
    record("ce-d", "hybrid", 4, 2.345, {
        "delete_edge": op(1, 100, 100), "add_edge": op(2, 200, 200),
        "contract": op(3, 300, 300), "delete_vertex": op(4, 400, 400),
        "restore": op(2, 1000, 1000), "snapshot": op(2, 0, 0)}),
    record("ce-d", "alist", 4, 2.345, {
        "delete_edge": op(1, 100, 150), "delete_vertex": op(9, 100, 150),
        "restore": op(2, 300, 200)}),
]


def test_table_prints_one_line_per_solved_pair():
    lines = restore_cells.table(RECORDS)
    assert lines[2:] == [
        "| ds-a | 2.0 | 8 | 16 | 2.00 | 0.20 / 0.40 | 1.50 |",
        "| ce-d | 2.5 | 1,000 | 250 | 0.25 | 0.50 / 0.50 | 2.35 |",
    ]
    assert lines[0].count("|") == lines[1].count("|") == 8


def test_main_reads_a_bench_file(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(RECORDS))
    assert restore_cells.main([str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == restore_cells.table(RECORDS)
    assert restore_cells.main([]) == 2
