"""Tests of the benchmark itself, on tiny instances.

Run from the repository root with ``python3 -m pytest searchbench -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

TINY = {
    "ds": run.Workload("ds-sweep", "ds", ((30, 200), (24, 120))),
    "vc": run.Workload("vc-mix", "vc", ((30, 100), (26, 90))),
    "ce": run.Workload("ce-planted", "ce", ((30, 4, 5), (24, 3, 4))),
}


def _declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_declared_names_and_units_match_the_code():
    spec = _declared()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("problem", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_main_prints_every_metric_with_its_unit(problem, trace, monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, TINY[problem].name, TINY[problem])
    assert run.main(["--workload", TINY[problem].name, "--seed", "3",
                     "--seconds", "0.01", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = run.per_layer_units() if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _flip_answer(res):
    res.answer = not res.answer


def _drop_witness_vertex(res):
    res.witness = res.witness[1:]
    res.answer = len(res.witness)


def _extra_node(res):
    res.nodes += 1


@pytest.mark.parametrize("problem,solver,fault", [
    ("ds", "ds", _drop_witness_vertex),   # invalid witness
    ("vc", "vc", _extra_node),            # representations disagree on the tree
    ("vc", "vc-parm", _flip_answer),      # k = opt says no, k = opt - 1 says yes
    ("ce", "ce", _flip_answer),           # planted budget answered no
])
def test_injected_wrong_answer_raises_fail_frac(problem, solver, fault, monkeypatch):
    real = run.SOLVE[solver]

    def wrong(*args, repr_name, **kw):
        res = real(*args, repr_name=repr_name, **kw)
        if repr_name == "alist":
            fault(res)
        return res

    monkeypatch.setitem(run.SOLVE, solver, wrong)
    _, records, _, _ = run.timed_run(TINY[problem], seed=3, seconds=0.01)
    failed = [r for r in records if not r["ok"]]
    assert failed
    assert all(r["error"] for r in failed)


def test_exception_is_counted_and_the_run_goes_on(monkeypatch):
    def broken(*args, **kw):
        raise RuntimeError("boom")

    monkeypatch.setitem(run.SOLVE, "ce", broken)
    _, records, _, _ = run.timed_run(TINY["ce"], seed=3, seconds=0.01)
    assert len(records) == 2 * 2 * len(TINY["ce"].params)
    assert all(not r["ok"] and "boom" in r["error"] for r in records)


@pytest.mark.parametrize("problem", sorted(TINY))
def test_traced_outer_calls_equal_instrumented_calls(problem):
    _, records, _, info = run.traced_run(TINY[problem], seed=3)
    spans = {(s["instance"], s["label"], s["repr"]): s for s in info["spans"]}
    compared = 0
    for rec in records:
        if rec["mode"] != "instrumented":
            continue
        ops = spans[(rec["instance"], rec["label"], rec["repr"])]["ops"]
        for op, c in rec["counters"].items():
            assert ops[op]["calls"] == c["calls"], (rec["label"], rec["repr"], op)
            compared += 1
    assert compared


def test_timed_run_scales_every_solve_and_repeats_setup():
    _, records, metrics, info = run.timed_run(TINY["vc"], seed=3, seconds=0.01)
    assert all(r["scaled_s"] > 0 and r["ref_s"] > 0 for r in records)
    assert info["setup_reps"] >= run.SETUP_REPS
    assert metrics["setup_s"] > 0 and info["unscaled_setup_s"] > 0


def test_host_scaled_cancels_a_uniform_slowdown():
    base = run.host_scaled(1.0, run.REF_NOMINAL_S, run.REF_NOMINAL_S)
    assert base == pytest.approx(1.0)
    assert run.host_scaled(1.5, 1.5 * run.REF_NOMINAL_S,
                           1.5 * run.REF_NOMINAL_S) == pytest.approx(base)


def test_tracer_restores_the_classes():
    before = {name: getattr(run.hg.HybridGraph, name) for name in run.OPS
              if hasattr(run.hg.HybridGraph, name)}
    with run.Tracer():
        assert run.hg.HybridGraph.delete_edge is not before["delete_edge"]
    assert {name: getattr(run.hg.HybridGraph, name) for name in before} == before


def test_fails_without_the_package_source(tmp_path):
    bench = tmp_path / "searchbench"
    bench.mkdir()
    shutil.copy(run.__file__, bench / "run.py")
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "searchbench/run.py", "--workload", "ds-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
