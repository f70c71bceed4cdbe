"""CLI and bench-runner tests."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from hybridgraph import bench as benchmod
from hybridgraph.bench import run_manifest
from hybridgraph.cli import main
from hybridgraph.instances import gen_random_gnm
from hybridgraph.solvers import SolveTimeout, SolverResult

from helpers import write_dimacs


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
    path = tmp_path / "petersen.clq"
    write_dimacs(spec, path)
    return str(path)


def test_solve_vc_human_output(runner, petersen_file):
    res = runner.invoke(main, ["solve", "vc", "--input", petersen_file])
    assert res.exit_code == 0
    record = json.loads(res.stdout)
    assert record["size"] == 6
    assert record["nodes"] > 0
    assert record["instance"] == "petersen"


def test_solve_ds_json(runner, petersen_file):
    res = runner.invoke(main, ["solve", "ds", "--input", petersen_file])
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
    assert yes.exit_code == 0 and json.loads(yes.stdout)["answer"] is True
    assert no.exit_code == 1 and json.loads(no.stdout)["answer"] is False


def test_solve_has_no_json_flag(runner, petersen_file):
    # the record is the one output format, so no flag asks for it
    res = runner.invoke(main, ["solve", "vc", "--input", petersen_file,
                               "--json"])
    assert res.exit_code == 2
    assert "No such option" in res.stderr and "--json" in res.stderr
    assert res.stdout == ""


def test_solve_flag_validation(runner, petersen_file):
    missing_k = runner.invoke(main, ["solve", "ce", "--input", petersen_file])
    assert missing_k.exit_code == 2
    assert "ce requires k" in missing_k.stderr
    stray_k = runner.invoke(
        main, ["solve", "vc", "--input", petersen_file, "--k", "3"])
    assert stray_k.exit_code == 2
    bad_fold = runner.invoke(
        main, ["solve", "ds", "--input", petersen_file, "--fold"])
    assert bad_fold.exit_code == 2
    assert "fold is only valid for vc-parm" in bad_fold.stderr
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
    gone = runner.invoke(main, ["solve", "vc", "--input", str(tmp_path / "x.clq")])
    assert gone.exit_code == 2
    bad = tmp_path / "bad.clq"
    bad.write_text("p edge 3 1\ne 1 1\n")
    malformed = runner.invoke(main, ["solve", "vc", "--input", str(bad)])
    assert malformed.exit_code == 2
    assert "self-loop" in malformed.stderr
    # an "n m" header is no DIMACS record, whatever the file is called
    old = tmp_path / "old.el"
    old.write_text("3 2\n0 1\n1 2\n")
    res = runner.invoke(main, ["solve", "vc", "--input", str(old)])
    assert res.exit_code == 2
    assert res.stderr == ("error: line 1: unrecognized record '3'; DIMACS "
                          "lines are 'c ...', 'p edge N M' or 'e U V'\n")


def test_solve_timeout_exit_code(runner, tmp_path):
    spec = gen_random_gnm(60, 700, seed=5)
    path = tmp_path / "dense.clq"
    write_dimacs(spec, path)
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
    path = tmp_path / "p3.clq"
    path.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
    res = runner.invoke(
        main, ["solve", "ce", "--input", str(path), "--k", "9999999999"])
    assert res.exit_code == 0
    assert json.loads(res.stdout)["answer"] is True


def test_solve_counters_output(runner, petersen_file):
    res = runner.invoke(
        main, ["solve", "vc", "--input", petersen_file, "--counters"])
    assert res.exit_code == 0
    tally = json.loads(res.stdout)["counters"]["delete_vertex"]
    assert tally["calls"] > 0
    assert tally["reads"] > tally["calls"]


def test_solve_fold_counters_output(runner, tmp_path):
    path = tmp_path / "c9.clq"
    path.write_text("p edge 9 9\n"
                    + "".join(f"e {i + 1} {(i + 1) % 9 + 1}\n" for i in range(9)))
    res = runner.invoke(main, ["solve", "vc-parm", "--input", str(path),
                               "--k", "5", "--fold", "--counters"])
    assert res.exit_code == 0
    ops = set(json.loads(res.stdout)["counters"])
    assert {"contract", "delete_vertex", "snapshot", "restore"} <= ops


def test_counters_rerun_has_no_deadline(runner, petersen_file, monkeypatch):
    # the instrumented rerun walks the tree the timed run has finished,
    # several times slower, so --timeout-s must bound the timed run only
    calls = []

    def spy_solver(n, edges, repr_name="hybrid", timeout=None,
                   instrumented=False):
        calls.append((timeout, instrumented))
        res = SolverResult("ds", n, 2, [0, 1], 5, 1.0, repr_name, size=2)
        res.counters = {"restore": {"calls": 1}} if instrumented else None
        return res

    monkeypatch.setitem(benchmod.PROBLEMS, "ds", (spy_solver, False, False))
    res = runner.invoke(main, ["solve", "ds", "--input", petersen_file,
                               "--timeout-s", "0.25", "--counters"])
    assert res.exit_code == 0
    assert calls == [(0.25, False), (None, True)]
    assert json.loads(res.stdout)["counters"] == {"restore": {"calls": 1}}


def test_solve_dimacs_with_warning(runner, tmp_path):
    path = tmp_path / "dup.col"
    path.write_text("p edge 3 3\ne 1 2\ne 2 1\ne 2 3\n")
    res = runner.invoke(main, ["solve", "vc", "--input", str(path)])
    assert res.exit_code == 0
    assert "duplicate" in res.stderr
    assert json.loads(res.stdout)["size"] == 1


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
        {"problem": "vc", "path": "missing.clq"},
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
        {"problem": "vc", "generator": {"kind": "gnm", "n": 16, "m": 30, "seed": 4}},
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


def test_bench_reps_flag_overrides_row_reps(runner, tmp_path, monkeypatch):
    calls = []

    def fake_solve(problem, n, edges, repr_name, **kw):
        calls.append(repr_name)
        return SolverResult(problem, n, 2, [0, 1], 5, 1.0, repr_name, size=2)

    monkeypatch.setattr(benchmod, "dispatch_solve", fake_solve)
    gen = {"kind": "gnm", "n": 8, "m": 10, "seed": 1}
    path = _manifest(tmp_path, [{"problem": "ds", "generator": gen, "reps": 2}],
                     defaults={"reps": 3})
    res = runner.invoke(main, ["bench", str(path), "--reps", "1"])
    assert res.exit_code == 0
    assert calls == ["hybrid", "alist"]
    calls.clear()
    records, all_ok = run_manifest(path)
    assert all_ok and calls == ["hybrid", "alist"] * 2


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


def test_bench_rejects_unknown_keys(runner, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(benchmod, "dispatch_solve",
                        lambda *args, **kw: calls.append(args))
    gen = {"kind": "gnm", "n": 12, "m": 20, "seed": 1}
    good = {"problem": "vc-parm", "k": 3, "generator": gen}
    # every row runs the hybrid/alist pair, so neither reprs nor fold
    # (which only the hybrid can run) is a key
    for rows, defaults, where, key in (
            ([{"problem": "vc", "generator": gen, "lb": "clique"}], {}, "row 0",
             "lb"),
            ([{"problem": "ds", "generator": gen, "rep": 2}], {}, "row 0", "rep"),
            ([{"problem": "ds", "generator": gen, "counters": True}], {},
             "row 0", "counters"),
            ([good, {**good, "reprs": ["hybrid"]}], {}, "row 1", "reprs"),
            ([good, {**good, "fold": True}], {}, "row 1", "fold"),
            ([], {"lb": "matching"}, "defaults", "lb"),
            ([good], {"reprs": ["hybrid", "alist"]}, "defaults", "reprs"),
            ([good], {"fold": False}, "defaults", "fold")):
        path = _manifest(tmp_path, rows, defaults={"reps": 1, **defaults})
        res = runner.invoke(main, ["bench", str(path)])
        assert res.exit_code == 2
        assert f"error: {where}: unknown key '{key}'\n" in res.stderr
        assert res.stdout == ""
    assert calls == []


@pytest.mark.parametrize("key, value", [
    ("k", "x"), ("k", True), ("k", 2.5), ("k", -1), ("reps", 2.5),
    ("timeout_s", "5"), ("timeout_s", -1), ("optional", "true"),
    ("optional", 1), ("name", 5), ("name", ["x"]), ("name", ""),
    ("name", None), ("path", 5), ("path", None),
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


@pytest.mark.parametrize("row, defaults, key", [
    ({"problem": "ds", "k": 3}, {}, "k"),
    ({"problem": "vc", "k": 3}, {}, "k"),
    ({"problem": "ds", "k": "planted"}, {}, "k"),
    ({"problem": "vc"}, {"k": 3}, "k"),
    ({"problem": "vc", "k": 0}, {}, "k"),
    ({"problem": "ds"}, {"k": 3}, "k"),
])
def test_bench_rejects_keys_a_row_cannot_use(runner, tmp_path, row, defaults,
                                             key):
    gen = {"kind": "gnm", "n": 12, "m": 20, "seed": 1}
    path = _manifest(tmp_path, [{"problem": "vc-parm", "k": 3, "generator": gen},
                                {**row, "generator": gen}],
                     defaults={"reps": 1, **defaults})
    res = runner.invoke(main, ["bench", str(path)])
    assert res.exit_code == 2
    assert f"row 1: {key} is only valid for" in res.stderr
    assert res.stdout == ""


GEN = {"kind": "gnm", "n": 12, "m": 20, "seed": 1}


@pytest.mark.parametrize("defaults, first, bad, message", [
    ({}, {"problem": "ds", "generator": GEN},
     {"problem": "ds", "generator": GEN, "path": "g.clq"},
     "row 1: needs exactly one of 'generator' or 'path'"),
    ({}, {"problem": "ds", "generator": GEN},
     {"problem": "ce", "k": "planted", "generator": GEN},
     "row 1: 'planted' k needs a ce generator"),
    ({}, {"problem": "ds", "generator": GEN},
     {"problem": "ce", "k": "planted", "path": "missing.clq"},
     "row 1: 'planted' k needs a ce generator"),
    ({}, {"problem": "ds", "generator": GEN},
     {"problem": "mis", "generator": GEN}, "row 1: unknown problem 'mis'"),
    ({}, {"problem": "ds", "generator": GEN}, {"generator": GEN},
     "row 1: missing 'problem'"),
    ({"path": "g.clq"}, {"problem": "ds"}, {"problem": "ds", "generator": GEN},
     "row 1: needs exactly one of 'generator' or 'path'"),
], ids=["generator-and-path", "planted-on-gnm", "planted-on-path",
        "unknown-problem", "no-problem", "path-from-defaults"])
def test_bench_rejects_rows_that_cannot_run_before_any_row_runs(
        runner, tmp_path, monkeypatch, defaults, first, bad, message):
    calls = []
    monkeypatch.setattr(benchmod, "dispatch_solve",
                        lambda *args, **kw: calls.append(args))
    write_dimacs(gen_random_gnm(12, 20, seed=1), tmp_path / "g.clq")
    path = _manifest(tmp_path, [first, bad], defaults={"reps": 1, **defaults})
    res = runner.invoke(main, ["bench", str(path)])
    assert res.exit_code == 2
    assert f"error: {message}\n" in res.stderr
    assert res.stdout == ""
    assert calls == []


def test_bench_unwritable_out_fails_before_any_row(runner, tmp_path,
                                                    monkeypatch):
    calls = []
    monkeypatch.setattr(benchmod, "dispatch_solve",
                        lambda *args, **kw: calls.append(args))
    path = _manifest(tmp_path, [{"problem": "ds", "generator": GEN}])
    out = tmp_path / "missing" / "r.json"
    res = runner.invoke(main, ["bench", str(path), "--out", str(out)])
    assert res.exit_code == 2
    assert f"error: [Errno 2] No such file or directory: '{out}'" in res.stderr
    assert calls == []


@pytest.mark.parametrize("text, message", [
    (json.dumps({"runs": [{"problem": "mis", "generator": GEN}]}),
     "row 0: unknown problem 'mis'"),
    (json.dumps({"defaults": {"reprs": ["hybrid"]}, "runs": []}),
     "defaults: unknown key 'reprs'"),
    ('{"runs": [', "Expecting value"),
    (None, "No such file or directory"),
], ids=["unknown-problem", "unknown-key", "bad-json", "no-manifest"])
def test_bench_rejected_manifest_keeps_the_out_file(runner, tmp_path, text,
                                                    message):
    path = tmp_path / "manifest.json"
    if text is not None:
        path.write_text(text)
    out = tmp_path / "old.json"
    out.write_text('[{"old": true}]\n')
    res = runner.invoke(main, ["bench", str(path), "--out", str(out)])
    assert res.exit_code == 2
    assert message in res.stderr
    assert out.read_text() == '[{"old": true}]\n'


def test_bench_replaces_the_out_file(runner, tmp_path):
    out = tmp_path / "old.json"
    out.write_text('[{"old": true}]\n' * 100)
    path = _manifest(tmp_path, [{"problem": "ds", "generator": GEN}],
                     defaults={"reps": 1})
    res = runner.invoke(main, ["bench", str(path), "--out", str(out)])
    assert res.exit_code == 0
    assert [r["repr"] for r in json.loads(out.read_text())] == ["hybrid", "alist"]


def test_bench_pair_that_disagrees_fails_both(tmp_path, monkeypatch):
    def fake_solve(problem, n, edges, repr_name, **kw):
        nodes = 5 if repr_name == "hybrid" else 6
        return SolverResult(problem, n, 2, [0, 1], nodes, 1.0, repr_name,
                            size=2)

    monkeypatch.setattr(benchmod, "dispatch_solve", fake_solve)
    path = _manifest(tmp_path, [{"problem": "ds", "generator": GEN}])
    records, all_ok = run_manifest(path)
    assert not all_ok
    assert [(r["repr"], r["status"], r["speedup"]) for r in records] == [
        ("hybrid", "error", None), ("alist", "error", None)]
    assert records[0]["error"] == records[1]["error"] == (
        "representation mismatch: hybrid=(2,2,5) alist=(2,2,6)")


def test_bench_nondeterministic_node_counts_fail_the_record(tmp_path,
                                                           monkeypatch):
    calls = []

    def fake_solve(problem, n, edges, repr_name, **kw):
        calls.append(repr_name)
        nodes = 5 if repr_name == "alist" else 5 + len(calls)
        return SolverResult(problem, n, 2, [0, 1], nodes, 1.0, repr_name,
                            size=2)

    monkeypatch.setattr(benchmod, "dispatch_solve", fake_solve)
    path = _manifest(tmp_path, [{"problem": "ds", "generator": GEN}])
    records, all_ok = run_manifest(path)
    assert calls == ["hybrid", "alist"] * 2
    assert not all_ok
    assert [(r["repr"], r["status"]) for r in records] == [
        ("hybrid", "error"), ("alist", "ok")]
    assert records[0]["error"] == "nondeterministic node counts [6, 8]"


@pytest.mark.parametrize("data, message", [
    ([{"problem": "vc"}], "manifest: must be an object"),
    ({"runs": [5]}, "row 0: must be an object, got 5"),
    ({"run": [{"problem": "vc", "path": "g.clq"}]},
     "manifest: unknown key 'run'"),
    ({"runs": {"problem": "vc", "path": "g.clq"}},
     "manifest: runs must be a list"),
    ({"defaults": [], "runs": []}, "defaults: must be an object, got []"),
])
def test_bench_rejects_malformed_manifest_shapes(runner, tmp_path, data,
                                                 message):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(data))
    res = runner.invoke(main, ["bench", str(path)])
    assert res.exit_code == 2
    assert f"error: {message}" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("problem, k, fold, repr_name", [
    ("vc", 3, None, "hybrid"),
    ("ds", 0, None, "alist"),
    ("vc-parm", None, None, "hybrid"),
    ("ce", None, None, "alist"),
    ("vc", None, True, "hybrid"),
    ("ce", 3, True, "hybrid"),
    ("vc-parm", None, True, "hybrid"),
    ("vc-parm", 3, True, "alist"),
])
def test_solve_and_bench_reject_the_same_options(runner, tmp_path,
                                                 petersen_file, problem, k,
                                                 fold, repr_name):
    # both front ends ask check_options, so their messages cannot drift;
    # fold is a solve flag only, and build_representation refuses it on
    # a representation without the contraction mode
    with pytest.raises(ValueError) as exc:
        benchmod.check_options(problem, k, fold)
        benchmod.dispatch_solve(problem, 2, [(0, 1)], repr_name, k=k,
                                fold=fold)
    message = str(exc.value)
    assert any(word in message for word in ("k", "fold", "contraction"))
    flags = [*(["--k", str(k)] if k is not None else []),
             *(["--fold"] if fold else [])]
    res = runner.invoke(main, ["solve", problem, "--input", petersen_file,
                               "--repr", repr_name, *flags])
    assert res.exit_code == 2
    assert f"error: {message}\n" in res.stderr
    if fold:
        return
    path = _manifest(tmp_path, [{"problem": problem, "path": petersen_file,
                                 **({} if k is None else {"k": k})}])
    res = runner.invoke(main, ["bench", str(path)])
    assert res.exit_code == 2
    assert f"error: row 0: {message}\n" in res.stderr
    assert res.stdout == ""


def test_bench_row_reads_defaults(tmp_path):
    gen = {"kind": "gnm", "n": 12, "m": 20, "seed": 1}
    path = _manifest(tmp_path, [{"problem": "vc-parm", "generator": gen}],
                     defaults={"k": 6, "reps": 1})
    records, all_ok = run_manifest(path)
    assert all_ok
    assert [(r["repr"], r["k"]) for r in records] == [("hybrid", 6), ("alist", 6)]
    # a row with no problem anywhere is rejected before any row runs
    with pytest.raises(ValueError, match="row 0: missing 'problem'"):
        run_manifest(_manifest(tmp_path, [{"generator": gen}]))


@pytest.mark.parametrize("problem, repr_name, extra, row", [
    ("ds", "hybrid", [], {}),
    ("vc", "alist", [], {}),
    ("vc-parm", "hybrid", ["--k", "6"], {"k": 6}),
    ("ce", "alist", ["--k", "3"], {"k": 3}),
])
def test_solve_and_bench_records_agree(runner, petersen_file, problem,
                                       repr_name, extra, row):
    # one record format: the bench record of the matching representation
    # is the solve record plus row fields, with the median wall time over
    # the reps
    res = runner.invoke(main, ["solve", problem, "--input", petersen_file,
                               "--repr", repr_name, "--counters", *extra])
    assert res.exit_code in (0, 1)   # ce at k = 3 answers no
    solved = json.loads(res.stdout)
    out = Path(petersen_file).with_suffix(".json")
    path = _manifest(Path(petersen_file).parent,
                     [{"problem": problem, "path": petersen_file, **row}])
    res = runner.invoke(main, ["bench", str(path), "--counters",
                               "--out", str(out)])
    assert res.exit_code == 0
    records = json.loads(out.read_text())
    assert [r["repr"] for r in records] == ["hybrid", "alist"]
    [record] = [r for r in records if r["repr"] == repr_name]
    assert record["status"] == "ok"
    keys = set(SolverResult("vc", 0, 0, [], 0, 0.0, "hybrid").as_dict())
    assert keys <= set(solved) and keys <= set(record)
    assert record["counters"]
    for key in keys - {"wall_ms"}:
        assert solved[key] == record[key], key


def test_only_solve_and_bench_are_commands(runner):
    res = runner.invoke(main, ["--help"])
    assert res.exit_code == 0
    commands = res.stdout.split("Commands:\n")[1].splitlines()
    assert [line.split()[0] for line in commands] == ["bench", "solve"]
    assert runner.invoke(main, ["gen", "gnm", "--n", "3"]).exit_code == 2
