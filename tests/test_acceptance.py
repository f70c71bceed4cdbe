"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s``
to see the lines as they complete).

The DIMACS criterion needs instance files that are not bundled; it
skips with instructions when they are absent (see
scripts/fetch_dimacs.py and the HYBRIDGRAPH_DIMACS_DIR variable).
"""

import os
import random
import statistics
import time
from pathlib import Path

import networkx as nx
import pytest

from hybridgraph.addition import AdditionGraph
from hybridgraph.bench import run_manifest
from hybridgraph.contraction import ContractionGraph
from hybridgraph.core import HybridGraph
from hybridgraph.instances import gen_cluster_editing, gen_random_gnm, read_instance
from hybridgraph.instrumented import counting
from hybridgraph.solvers import (
    SolveTimeout,
    solve_ce_parm,
    solve_ds_opt,
    solve_vc_opt,
    solve_vc_parm,
    verify_ce,
)
from helpers import color_members, edge_count
from mirrors import EdgeSetMirror, QuotientMirror
from oracle import brute_ce, brute_ds, brute_vc

REPO_ROOT = Path(__file__).resolve().parents[1]
MANIFEST = REPO_ROOT / "benchmarks" / "manifest.json"

DIMACS_TARGETS = [("p_hat700-2.clq", 651), ("p_hat1500-3.clq", 1488)]


def _line(tag, ok, detail=""):
    mark = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {tag}: {mark}{suffix}", flush=True)


def _dimacs_dir():
    override = os.environ.get("HYBRIDGRAPH_DIMACS_DIR")
    return Path(override) if override else REPO_ROOT / "data" / "dimacs"


def test_criterion_1_dimacs_vertex_cover_sizes():
    d = _dimacs_dir()
    missing = [name for name, _ in DIMACS_TARGETS if not (d / name).exists()]
    if missing:
        print(f"\nACCEPTANCE dimacs-vc: SKIP (missing {', '.join(missing)} "
              f"in {d}; run scripts/fetch_dimacs.py)", flush=True)
        pytest.skip(f"DIMACS files not present in {d}")
    outcomes = []
    for name, want in DIMACS_TARGETS:
        spec, _ = read_instance(d / name)
        try:
            res = solve_vc_opt(spec.n, spec.edges, timeout=1800)
            outcomes.append((name, res.size, want))
        except SolveTimeout:
            outcomes.append((name, "timeout", want))
    ok = all(got == want for _, got, want in outcomes)
    detail = ", ".join(f"{name}: {got} (want {want})" for name, got, want in outcomes)
    _line("dimacs-vc", ok, detail)
    assert ok, detail


def test_criterion_2_oracle_equivalence():
    t0 = time.monotonic()
    mismatches = []
    for i in range(200):
        n = 5 + (i % 12)
        total = n * (n - 1) // 2
        spec = gen_random_gnm(n, (i * 37) % (total + 1), seed=1000 + i)
        vc = solve_vc_opt(spec.n, spec.edges).size
        ds = solve_ds_opt(spec.n, spec.edges).size
        if vc != brute_vc(spec.n, spec.edges):
            mismatches.append(f"vc {spec.name}")
        if ds != brute_ds(spec.n, spec.edges):
            mismatches.append(f"ds {spec.name}")
    for i in range(100):
        n = 4 + (i % 7)
        total = n * (n - 1) // 2
        spec = gen_random_gnm(n, (i * 11) % (total + 1), seed=2000 + i)
        for k in range(7):
            got = solve_ce_parm(spec.n, spec.edges, k).answer
            if got != brute_ce(spec.n, spec.edges, k):
                mismatches.append(f"ce {spec.name} k={k}")
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < 120
    _line("oracle-equivalence", ok,
          f"200 vc/ds + 100 ce instances, 0..6 budgets, {elapsed:.1f}s"
          + (f"; mismatches: {mismatches[:4]}" if mismatches else ""))
    assert ok, mismatches


def _same_subgraph(g, mir, rng):
    if set(g.active_vertices()) != mir.active:
        return False
    for v in mir.active:
        if set(g.neighbors(v)) != mir.neighbors(v):
            return False
    for _ in range(40):
        u, v = rng.randrange(g.n), rng.randrange(g.n)
        if u != v and g.is_adjacent(u, v) != mir.is_adjacent(u, v):
            return False
    return True


def _same_quotient(g, mir):
    if set(g.active_vertices()) != mir.colors():
        return False
    for c in mir.colors():
        if set(color_members(g, c)) != mir.members[c]:
            return False
        if g.degree(c) != mir.degree(c):
            return False
        if set(g.neighbors(c)) != mir.neighbor_colors(c):
            return False
    return edge_count(g) == len(mir.qedges)


def _plain_trials(count, rng):
    from hybridgraph.core import HybridGraph

    failures = 0
    g = base = None
    base_edges = []
    for t in range(count):
        if t % 200 == 0:
            spec = gen_random_gnm(50, 150 + (t // 200) * 23 % 400, seed=30 + t)
            g = HybridGraph(spec.n, spec.edges)
            base = EdgeSetMirror(spec.n, spec.edges)
            base_edges = list(spec.edges)
        snap = g.snapshot()
        mir = base.copy()
        for _ in range(rng.randrange(1, 13)):
            if rng.random() < 0.3 and mir.active:
                v = rng.choice(sorted(mir.active))
                g.delete_vertex(v)
                mir.delete_vertex(v)
            elif base_edges:
                for _ in range(6):
                    u, v = base_edges[rng.randrange(len(base_edges))]
                    if frozenset((u, v)) in mir.edges:
                        g.delete_edge(u, v)
                        mir.delete_edge(u, v)
                        break
        g.restore(snap)
        if not _same_subgraph(g, base, rng):
            failures += 1
    return failures


def _addition_trials(count, rng):
    from hybridgraph.addition import AdditionGraph

    failures = 0
    g = base = None
    base_edges = []
    for t in range(count):
        if t % 200 == 0:
            spec = gen_random_gnm(50, 120 + (t // 200) * 31 % 300, seed=60 + t)
            g = AdditionGraph(spec.n, spec.edges)
            base = EdgeSetMirror(spec.n, spec.edges)
            base_edges = list(spec.edges)
        snap = g.snapshot()
        mir = base.copy()
        edited = set()
        for _ in range(rng.randrange(1, 13)):
            if rng.random() < 0.5 and base_edges:
                for _ in range(6):
                    u, v = base_edges[rng.randrange(len(base_edges))]
                    if (u, v) not in edited and frozenset((u, v)) in mir.edges:
                        g.delete_edge(u, v)
                        mir.delete_edge(u, v)
                        edited.add((u, v))
                        break
            else:
                for _ in range(6):
                    u, v = rng.randrange(50), rng.randrange(50)
                    if u > v:
                        u, v = v, u
                    if u != v and (u, v) not in edited \
                            and not mir.is_adjacent(u, v):
                        g.add_edge(u, v)
                        mir.add_edge(u, v)
                        edited.add((u, v))
                        break
        g.restore(snap)
        if not _same_subgraph(g, base, rng):
            failures += 1
    return failures


def _contraction_trials(count, rng):
    failures = 0
    g = base = None
    base_edges = []
    for t in range(count):
        if t % 200 == 0:
            spec = gen_random_gnm(50, 140 + (t // 200) * 27 % 350, seed=90 + t)
            g = ContractionGraph(spec.n, spec.edges)
            base = QuotientMirror(spec.n, spec.edges)
            base_edges = list(spec.edges)
        snap = g.snapshot()
        mir = base.copy()
        for _ in range(rng.randrange(1, 10)):
            if rng.random() < 0.25:
                live = sorted(c for c in mir.colors())
                if not live:
                    break
                c = rng.choice(live)
                g.delete_vertex(c)
                mir.delete_color(c)
            else:
                for _ in range(8):
                    u, v = base_edges[rng.randrange(len(base_edges))]
                    cu = next((c for c, s in mir.members.items() if u in s), None)
                    cv = next((c for c, s in mir.members.items() if v in s), None)
                    if cu is not None and cv is not None and cu != cv:
                        g.contract(cu, cv)
                        mir.contract(cu, cv)
                        break
        g.restore(snap)
        if not _same_quotient(g, base):
            failures += 1
    return failures


def test_criterion_3_undo_integrity():
    rng = random.Random(93)
    failures = _plain_trials(4000, rng)
    failures += _addition_trials(3000, rng)
    failures += _contraction_trials(3000, rng)
    ok = failures == 0
    _line("undo-integrity", ok,
          f"10000 snapshot/burst/restore trials on 50-vertex graphs, "
          f"{failures} failures")
    assert ok


def test_criterion_4_operation_cost_contracts():
    rng = random.Random(17)
    problems = []

    spec = gen_random_gnm(40, 260, seed=5)
    g = counting(HybridGraph)(spec.n, spec.edges)
    mir = EdgeSetMirror(spec.n, spec.edges)
    snap = g.snapshot()
    base = mir.copy()
    for _ in range(400):
        c = g.counters
        if rng.random() < 0.4 and mir.active:
            v = rng.choice(sorted(mir.active))
            d = g.degree(v)
            r0, w0 = c.reads.get("delete_vertex", 0), c.writes.get("delete_vertex", 0)
            g.delete_vertex(v)
            mir.delete_vertex(v)
            delta = (c.reads["delete_vertex"] - r0) + (c.writes["delete_vertex"] - w0)
            if delta > 17 * (d + 1):
                problems.append(f"delete_vertex d={d} accesses={delta}")
        elif mir.edges:
            u, v = rng.choice(sorted(tuple(sorted(e)) for e in mir.edges))
            w0 = c.writes.get("delete_edge", 0)
            g.delete_edge(u, v)
            mir.delete_edge(u, v)
            if c.writes["delete_edge"] - w0 > 12:
                problems.append("delete_edge writes")
        u, v = rng.randrange(40), rng.randrange(40)
        if u != v:
            r0 = c.reads.get("is_adjacent", 0)
            g.is_adjacent(u, v)
            if c.reads["is_adjacent"] - r0 > 2:
                problems.append("is_adjacent reads")
        if not mir.edges or len(mir.active) < 4:
            g.restore(snap)
            mir = base.copy()

    # restore cost must not depend on how many operations it undoes
    def restore_delta(burst):
        g2 = counting(HybridGraph)(spec.n, spec.edges)
        live = list(spec.edges)
        s = g2.snapshot()
        for u, v in live[:burst]:
            g2.delete_edge(u, v)
        r0, w0 = g2.counters.reads.get("restore", 0), g2.counters.writes.get("restore", 0)
        g2.restore(s)
        return (g2.counters.reads["restore"] - r0,
                g2.counters.writes["restore"] - w0)

    small, big = restore_delta(2), restore_delta(200)
    if small != big or small != (40, 40):
        problems.append(f"restore deltas {small} vs {big}")

    ga = counting(AdditionGraph)(spec.n, spec.edges)
    sa = ga.snapshot()
    added = 0
    for _ in range(300):
        u, v = rng.randrange(40), rng.randrange(40)
        if u != v and not ga.is_adjacent(u, v) and added < 120:
            ga.add_edge(min(u, v), max(u, v))
            added += 1
        r0 = ga.counters.reads.get("is_adjacent", 0)
        ga.is_adjacent(u, v)
        if ga.counters.reads["is_adjacent"] - r0 > 4:
            problems.append("addition is_adjacent reads")
    r0, w0 = ga.counters.reads.get("restore", 0), ga.counters.writes.get("restore", 0)
    ga.restore(sa)
    if (ga.counters.reads["restore"] - r0) != 2 * 40:
        problems.append("addition restore delta")

    ok = not problems
    _line("cost-contracts", ok,
          "delete_edge<=12w, is_adjacent<=2r (4r addition), delete_vertex<=17(d+1), "
          "restore O(n) flat" + (f"; violations: {problems[:3]}" if problems else ""))
    assert ok, problems


@pytest.fixture(scope="module")
def manifest_records():
    records, all_ok = run_manifest(MANIFEST)
    return records, all_ok


def _paired(records):
    by_name = {}
    for rec in records:
        if rec["status"] == "ok":
            by_name.setdefault(rec["name"], []).append(rec)
    return {name: rs for name, rs in by_name.items() if len(rs) == 2}


def test_criterion_5_representation_independence(manifest_records):
    records, all_ok = manifest_records
    pairs = _paired(records)
    bad = [r["name"] for r in records if r["status"] not in ("ok", "skipped")]
    for name, (a, b) in pairs.items():
        if (a["answer"], a["size"], a["nodes"]) != (b["answer"], b["size"], b["nodes"]):
            bad.append(name)
    ok = all_ok and not bad and pairs
    _line("representation-independence", bool(ok),
          f"{len(pairs)} hybrid/alist pairs, identical answers and node counts"
          + (f"; failures: {bad}" if bad else ""))
    assert ok, bad


def test_criterion_6_speedup_trend(manifest_records):
    records, _ = manifest_records
    ratios = {name: float(pair[0]["speedup"])
              for name, pair in _paired(records).items() if pair[0]["speedup"]}
    med = statistics.median(ratios.values()) if ratios else 0.0
    worst_row = min(ratios, key=ratios.get, default=None)
    worst = ratios[worst_row] if ratios else 0.0
    ok = len(ratios) >= 10 and med >= 1.5 and worst > 1.0
    _line("speedup-trend", ok,
          f"{len(ratios)} pairs, median speedup {med:.2f}x, "
          f"worst {worst:.2f}x ({worst_row})")
    assert ok, ratios


def test_criterion_7_folding_agreement_and_benefit():
    rows = []
    ok = True
    for seed in (1, 2, 3):
        G = nx.random_regular_graph(4, 60, seed=seed)
        edges = sorted(tuple(sorted(e)) for e in G.edges())
        tau = solve_vc_opt(60, edges, timeout=300).size
        plain_no = solve_vc_parm(60, edges, tau - 1, fold=False, timeout=300)
        fold_no = solve_vc_parm(60, edges, tau - 1, fold=True, timeout=300)
        plain_yes = solve_vc_parm(60, edges, tau, fold=False, timeout=300)
        fold_yes = solve_vc_parm(60, edges, tau, fold=True, timeout=300)
        agree = (plain_no.answer is fold_no.answer is False
                 and plain_yes.answer is fold_yes.answer is True)
        fewer = fold_no.nodes < plain_no.nodes
        ok = ok and agree and fewer
        rows.append(f"seed {seed}: tau={tau}, nodes {plain_no.nodes}->{fold_no.nodes}")
    _line("folding-benefit", ok, "; ".join(rows))
    assert ok, rows


def test_criterion_8_planted_cluster_editing():
    bad = []
    for i in range(50):
        n = 20 + (i % 31)
        clusters = 3 + (i % 4)
        flips = 2 + (i % 11)
        spec, planted = gen_cluster_editing(n, clusters, flips, seed=400 + i)
        res = solve_ce_parm(spec.n, spec.edges, planted, timeout=120)
        if res.answer is not True:
            bad.append(f"{spec.name}: answer {res.answer}")
        elif not verify_ce(spec.n, spec.edges, res.witness, planted):
            bad.append(f"{spec.name}: witness rejected")
    ok = not bad
    _line("planted-cluster-editing", ok,
          "50 planted instances solved at the planted budget, witnesses verified"
          + (f"; failures: {bad[:3]}" if bad else ""))
    assert ok, bad
