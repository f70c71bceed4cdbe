"""CLI and bench-runner tests."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from hybridgraph import bench as benchmod
from hybridgraph.bench import run_manifest
from hybridgraph.cli import main
from hybridgraph.instances import gen_random_gnm, write_edge_list
from hybridgraph.solvers import SolveTimeout, SolverResult


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def petersen_file(tmp_path):
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spec = gen_random_gnm(1, 0, seed=0)
    spec.name, spec.n, spec.edges = "petersen", 10, sorted(edges)
    path = tmp_path / "petersen.el"
    write_edge_list(spec, path)
    return str(path)


def test_solve_vc_human_output(runner, petersen_file):
    res = runner.invoke(main, ["solve", "vc", "--input", petersen_file])
    assert res.exit_code == 0
    assert "size 6" in res.stdout
    assert "nodes=" in res.stdout


def test_solve_ds_json(runner, petersen_file):
    res = runner.invoke(
        main, ["solve", "ds", "--input", petersen_file, "--json"])
    assert res.exit_code == 0
    record = json.loads(res.stdout)
    assert record["size"] == 3
    assert record["problem"] == "ds"
    assert record["repr"] == "hybrid"


def test_solve_decision_exit_codes(runner, petersen_file):
    yes = runner.invoke(
        main, ["solve", "vc-parm", "--input", petersen_file, "--k", "6"])
    no = runner.invoke(
        main, ["solve", "vc-parm", "--input", petersen_file, "--k", "5"])
    assert yes.exit_code == 0 and "yes" in yes.stdout
    assert no.exit_code == 1 and "no" in no.stdout


def test_solve_flag_validation(runner, petersen_file):
    missing_k = runner.invoke(main, ["solve", "ce", "--input", petersen_file])
    assert missing_k.exit_code == 2
    assert "requires --k" in missing_k.stderr
    stray_k = runner.invoke(
        main, ["solve", "vc", "--input", petersen_file, "--k", "3"])
    assert stray_k.exit_code == 2
    bad_fold = runner.invoke(
        main, ["solve", "ds", "--input", petersen_file, "--fold"])
    assert bad_fold.exit_code == 2
    assert "--fold" in bad_fold.stderr
    fold_alist = runner.invoke(
        main, ["solve", "vc-parm", "--input", petersen_file, "--k", "6",
               "--fold", "--repr", "alist"])
    assert fold_alist.exit_code == 2
    for problem, extra in (("vc", []), ("ds", []), ("vc-parm", ["--k", "6"]),
                           ("ce", ["--k", "3"])):
        bad_lb = runner.invoke(main, ["solve", problem, "--input", petersen_file,
                                      "--lb", "matching", *extra])
        assert bad_lb.exit_code == 2
        assert "--lb" in bad_lb.stderr


def test_solve_missing_and_malformed_files(runner, tmp_path):
    gone = runner.invoke(main, ["solve", "vc", "--input", str(tmp_path / "x.el")])
    assert gone.exit_code == 2
    bad = tmp_path / "bad.el"
    bad.write_text("3 1\n0 0\n")
    malformed = runner.invoke(main, ["solve", "vc", "--input", str(bad)])
    assert malformed.exit_code == 2
    assert "self-loop" in malformed.stderr


def test_solve_timeout_exit_code(runner, tmp_path):
    spec = gen_random_gnm(60, 700, seed=5)
    path = tmp_path / "dense.el"
    write_edge_list(spec, path)
    res = runner.invoke(
        main, ["solve", "vc", "--input", str(path), "--timeout-s", "0"])
    assert res.exit_code == 3
    assert "timeout" in res.stderr


@pytest.mark.parametrize("seconds", ["nan", "-1"])
def test_solve_bad_timeout_is_an_error(runner, petersen_file, seconds):
    res = runner.invoke(
        main, ["solve", "vc", "--input", petersen_file, "--timeout-s", seconds])
    assert res.exit_code == 2
    assert "timeout must be a non-negative number" in res.stderr


def test_solve_ce_huge_budget(runner, tmp_path):
    path = tmp_path / "p3.el"
    path.write_text("3 2\n0 1\n1 2\n")
    res = runner.invoke(
        main, ["solve", "ce", "--input", str(path), "--k", "9999999999"])
    assert res.exit_code == 0
    assert "yes" in res.stdout


def test_solve_counters_output(runner, petersen_file):
    res = runner.invoke(
        main, ["solve", "vc", "--input", petersen_file, "--counters"])
    assert res.exit_code == 0
    line = next(l for l in res.stdout.splitlines() if "delete_vertex:" in l)
    parts = dict(kv.split("=") for kv in line.split()[1:])
    assert int(parts["calls"]) > 0
    assert int(parts["reads"]) > int(parts["calls"])


def test_solve_fold_counters_output(runner, tmp_path):
    path = tmp_path / "c9.el"
    path.write_text("9 9\n" + "".join(f"{i} {(i + 1) % 9}\n" for i in range(9)))
    res = runner.invoke(main, ["solve", "vc-parm", "--input", str(path),
                               "--k", "5", "--fold", "--counters"])
    assert res.exit_code == 0
    ops = {line.split(":")[0].strip() for line in res.stdout.splitlines()[1:]}
    assert {"contract", "delete_vertex", "snapshot", "restore"} <= ops


def test_solve_dimacs_with_warning(runner, tmp_path):
    path = tmp_path / "dup.col"
    path.write_text("p edge 3 3\ne 1 2\ne 2 1\ne 2 3\n")
    res = runner.invoke(main, ["solve", "vc", "--input", str(path)])
    assert res.exit_code == 0
    assert "duplicate" in res.stderr
    assert "size 1" in res.stdout


def test_gen_gnm_is_byte_deterministic(runner, tmp_path):
    a = tmp_path / "a.el"
    b = tmp_path / "b.el"
    for out in (a, b):
        res = runner.invoke(
            main, ["gen", "gnm", "--n", "30", "--m", "60", "--seed", "9",
                   "--out", str(out)])
        assert res.exit_code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_gnm_infeasible(runner, tmp_path):
    res = runner.invoke(
        main, ["gen", "gnm", "--n", "4", "--m", "7", "--out",
               str(tmp_path / "x.el")])
    assert res.exit_code == 2


def test_gen_gnm_rejects_negative_n(runner, tmp_path):
    out = tmp_path / "x.el"
    res = runner.invoke(main, ["gen", "gnm", "--n", "-3", "--m", "2",
                               "--out", str(out)])
    assert res.exit_code == 2
    assert "n must be >= 0" in res.output
    assert not out.exists()


def test_gen_ce_writes_sidecar(runner, tmp_path):
    out = tmp_path / "planted.el"
    res = runner.invoke(
        main, ["gen", "ce", "--n", "20", "--clusters", "4", "--k", "5",
               "--seed", "3", "--out", str(out)])
    assert res.exit_code == 0
    meta = json.loads((tmp_path / "planted.meta.json").read_text())
    assert meta["planted_k"] == 5
    assert meta["generator"]["clusters"] == 4


def _manifest(tmp_path, rows, defaults=None):
    data = {"defaults": defaults or {"reps": 2, "timeout_s": 60}, "runs": rows}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(data))
    return path


def test_bench_pairs_and_speedup(tmp_path):
    path = _manifest(tmp_path, [
        {"name": "row0", "problem": "ds",
         "generator": {"kind": "gnm", "n": 30, "m": 70, "seed": 1}},
        {"name": "row1", "problem": "ce", "k": "planted",
         "generator": {"kind": "ce", "n": 18, "clusters": 3, "flips": 4, "seed": 2}},
    ])
    records, all_ok = run_manifest(path)
    assert all_ok
    assert len(records) == 4
    assert [r["name"] for r in records] == ["row0", "row0", "row1", "row1"]
    assert [r["repr"] for r in records] == ["hybrid", "alist"] * 2
    for hy, al in zip(records[::2], records[1::2]):
        assert hy["nodes"] == al["nodes"]
        assert hy["answer"] == al["answer"]
        assert hy["speedup"] == al["speedup"] is not None


def test_bench_row_error_continues_and_exit_code(runner, tmp_path):
    path = _manifest(tmp_path, [
        {"problem": "vc", "path": "missing.el"},
        {"problem": "ds", "generator": {"kind": "gnm", "n": 12, "m": 20, "seed": 1}},
    ])
    res = runner.invoke(main, ["bench", str(path)])
    assert res.exit_code == 2
    rows = json.loads(res.stdout)
    assert rows[0]["status"] == "error"
    assert [r["status"] for r in rows[1:]] == ["ok", "ok"]


def test_bench_optional_row_skips_cleanly(runner, tmp_path):
    path = _manifest(tmp_path, [
        {"problem": "vc", "path": "missing.clq", "optional": True},
    ])
    res = runner.invoke(main, ["bench", str(path)])
    assert res.exit_code == 0
    rows = json.loads(res.stdout)
    assert [r["status"] for r in rows] == ["skipped"]


def test_bench_empty_manifest(runner, tmp_path):
    path = _manifest(tmp_path, [])
    res = runner.invoke(main, ["bench", str(path)])
    assert res.exit_code == 0
    rows = json.loads(res.stdout)
    assert rows == []


def test_bench_counters_column(tmp_path):
    path = _manifest(tmp_path, [
        {"problem": "vc", "generator": {"kind": "gnm", "n": 16, "m": 30, "seed": 4},
         "reprs": ["hybrid"]},
    ])
    records, all_ok = run_manifest(path, counters=True)
    assert all_ok
    counters = records[0]["counters"]
    assert counters["restore"]["calls"] > 0
    assert counters["delete_vertex"]["writes"] > 0


def test_bench_alternates_representations(tmp_path, monkeypatch):
    calls = []

    def fake_solve(problem, n, edges, repr_name, timeout=None, **kw):
        calls.append((problem, repr_name))
        if calls.count(("vc", "alist")) == 2 and repr_name == "alist":
            raise SolveTimeout
        return SolverResult(problem, n, 2, [0, 1], 5, 1.0, repr_name, size=2)

    monkeypatch.setattr(benchmod, "dispatch_solve", fake_solve)
    gen = {"kind": "gnm", "n": 8, "m": 10, "seed": 1}
    path = _manifest(tmp_path, [{"problem": "ds", "generator": gen},
                                {"problem": "vc", "generator": gen}],
                     defaults={"reps": 3, "timeout_s": 5})
    records, all_ok = run_manifest(path)
    assert calls[:6] == [("ds", "hybrid"), ("ds", "alist")] * 3
    # alist times out on its second vc rep and drops out; hybrid goes on
    assert calls[6:] == [("vc", "hybrid"), ("vc", "alist")] * 2 + [("vc", "hybrid")]
    assert [(r["repr"], r["status"]) for r in records] == [
        ("hybrid", "ok"), ("alist", "ok"), ("hybrid", "ok"), ("alist", "timeout")]
    assert records[2]["nodes"] == 5 and records[2]["speedup"] is None
    assert records[3]["error"] == "timeout after 5s"
    assert not all_ok


def test_bench_rejects_reps_below_one_flag(runner, tmp_path):
    path = _manifest(tmp_path, [
        {"problem": "ds", "generator": {"kind": "gnm", "n": 12, "m": 20, "seed": 1}},
    ])
    res = runner.invoke(main, ["bench", str(path), "--reps", "0"])
    assert res.exit_code == 2
    assert "reps" in res.stderr
    assert res.stdout == ""


def test_bench_rejects_reps_below_one_row(runner, tmp_path):
    gen = {"kind": "gnm", "n": 12, "m": 20, "seed": 1}
    path = _manifest(tmp_path, [{"problem": "ds", "generator": gen},
                                {"problem": "ds", "generator": gen, "reps": 0}])
    res = runner.invoke(main, ["bench", str(path)])
    assert res.exit_code == 2
    assert "row 1: reps" in res.stderr
    assert res.stdout == ""
    with pytest.raises(ValueError, match="defaults: reps"):
        run_manifest(_manifest(tmp_path, [], defaults={"reps": 0}))


def test_bench_rejects_unknown_keys(tmp_path):
    gen = {"kind": "gnm", "n": 12, "m": 20, "seed": 1}
    for row, key in (({"problem": "vc", "generator": gen, "lb": "clique"}, "lb"),
                     ({"problem": "ds", "generator": gen, "rep": 2}, "rep"),
                     ({"problem": "ds", "generator": gen, "counters": True},
                      "counters")):
        with pytest.raises(ValueError, match=f"row 0: unknown key '{key}'"):
            run_manifest(_manifest(tmp_path, [row]))
    with pytest.raises(ValueError, match="defaults: unknown key 'lb'"):
        run_manifest(_manifest(tmp_path, [], defaults={"lb": "matching"}))


@pytest.mark.parametrize("key, value", [
    ("k", "x"), ("k", True), ("k", 2.5), ("reps", 2.5), ("timeout_s", "5"),
    ("fold", "false"), ("complement", 0), ("optional", "true"),
    ("path", 5), ("reprs", "hybrid"), ("reprs", []),
    ("reprs", ["hybrid", "hybrid"]), ("reprs", ["hybrid", "matrix"]),
    ("reprs", [["hybrid"]]), ("path", None),
    ("generator", "gnm"), ("generator", None),
    ("generator", {"kind": "gnm", "n": "12", "m": 20, "seed": 1}),
    ("generator", {"kind": "gnm", "n": 12, "m": 20, "seed": True}),
    ("generator", {"kind": "gnm", "n": 12, "m": 20}),
    ("generator", {"kind": "gnm", "n": 12, "m": 20, "seed": 1, "flips": 2}),
    ("generator", {"kind": "ce", "n": 12, "m": 20, "seed": 1}),
    ("generator", {"kind": "er", "n": 12, "m": 20, "seed": 1}),
    ("generator", {"kind": ["gnm"], "n": 12, "m": 20, "seed": 1}),
    ("generator", {"n": 12, "m": 20, "seed": 1})])
def test_bench_rejects_malformed_values(runner, tmp_path, key, value):
    gen = {"kind": "gnm", "n": 12, "m": 20, "seed": 1}
    path = _manifest(tmp_path, [{"problem": "vc-parm", "k": 3, "generator": gen},
                                {"problem": "vc-parm", "k": 3, "generator": gen,
                                 key: value}])
    res = runner.invoke(main, ["bench", str(path)])
    assert res.exit_code == 2
    assert f"row 1: {key} must be" in res.stderr
    assert res.stdout == ""


def test_bench_row_reads_defaults(tmp_path):
    gen = {"kind": "gnm", "n": 12, "m": 20, "seed": 1}
    path = _manifest(tmp_path, [{"problem": "vc-parm", "generator": gen}],
                     defaults={"k": 6, "reps": 1})
    records, all_ok = run_manifest(path)
    assert all_ok
    assert [(r["repr"], r["k"]) for r in records] == [("hybrid", 6), ("alist", 6)]
    # a row with no problem anywhere is an error row, not a crash
    records, all_ok = run_manifest(_manifest(tmp_path, [{"generator": gen}]))
    assert not all_ok
    assert [(r["status"], r["error"]) for r in records] == [
        ("error", "unknown problem None")]


@pytest.mark.parametrize("problem, repr_name, extra, row", [
    ("ds", "hybrid", [], {}),
    ("vc", "alist", [], {}),
    ("vc-parm", "hybrid", ["--k", "6", "--fold"], {"k": 6, "fold": True}),
    ("ce", "alist", ["--k", "3"], {"k": 3}),
])
def test_solve_and_bench_records_agree(runner, petersen_file, problem,
                                       repr_name, extra, row):
    # one record format: the bench record is the solve record plus row
    # fields, with the median wall time over the reps
    res = runner.invoke(main, ["solve", problem, "--input", petersen_file,
                               "--repr", repr_name, "--counters", "--json",
                               *extra])
    assert res.exit_code in (0, 1)   # ce at k = 3 answers no
    solved = json.loads(res.stdout)
    out = Path(petersen_file).with_suffix(".json")
    path = _manifest(Path(petersen_file).parent,
                     [{"problem": problem, "path": petersen_file,
                       "reprs": [repr_name], **row}])
    res = runner.invoke(main, ["bench", str(path), "--counters",
                               "--out", str(out)])
    assert res.exit_code == 0
    [record] = json.loads(out.read_text())
    assert record["status"] == "ok"
    keys = set(SolverResult("vc", 0, 0, [], 0, 0.0, "hybrid").as_dict())
    assert keys <= set(solved) and keys <= set(record)
    assert record["counters"]
    for key in keys - {"wall_ms"}:
        assert solved[key] == record[key], key
