"""Solvers against the brute-force oracles and closed forms, on both
representations, with witness validity and node-count agreement."""

import random
import sys
import time
from functools import partial

import pytest

from hybridgraph.solvers import (
    SolveTimeout,
    solve_ce_parm,
    solve_ds_opt,
    solve_vc_opt,
    solve_vc_parm,
    verify_ce,
    verify_ds,
    verify_vc,
)

from hybridgraph.core import GraphBuildError
from hybridgraph.instances import gen_cluster_editing, gen_random_gnm
from hybridgraph.solvers import cluster_editing, dominating_set, vertex_cover
from hybridgraph.solvers.cluster_editing import _EditSearch
from hybridgraph.solvers.common import build_representation
from hybridgraph.solvers.dominating_set import _CoverSearch, cover_edges
from hybridgraph.solvers.vertex_cover import _OptSearch, _ParmSearch

from helpers import G8_EDGES, G8_N, clique, cycle, gnm, path, petersen, star
from oracle import brute_ce, brute_ds, brute_vc

REPRS = ("hybrid", "alist")


def test_vc_opt_closed_forms():
    for repr_name in REPRS:
        for maker, arg, want in [
            (cycle, 9, 5),
            (cycle, 4, 2),
            (path, 7, 3),
            (clique, 6, 5),
            (star, 9, 1),
        ]:
            n, edges = maker(arg)
            res = solve_vc_opt(n, edges, repr_name=repr_name)
            assert res.answer == want
            assert verify_vc(n, edges, res.witness)
            assert len(res.witness) == want


def test_vc_opt_petersen():
    res = solve_vc_opt(*petersen())
    assert res.answer == 6


def test_vc_opt_matches_oracle():
    rng = random.Random(1009)
    for trial in range(40):
        n = rng.randrange(4, 15)
        m = rng.randrange(0, n * (n - 1) // 2 + 1)
        n, edges = gnm(n, m, rng.randrange(1 << 30))
        want = brute_vc(n, edges)
        res = solve_vc_opt(n, edges)
        assert res.answer == want, (n, edges)
        assert verify_vc(n, edges, res.witness)


def test_vc_opt_node_counts_match_across_reprs():
    rng = random.Random(88)
    for trial in range(15):
        n = rng.randrange(6, 16)
        m = rng.randrange(n, n * (n - 1) // 2 + 1)
        n, edges = gnm(n, m, rng.randrange(1 << 30))
        a = solve_vc_opt(n, edges, repr_name="hybrid")
        b = solve_vc_opt(n, edges, repr_name="alist")
        assert a.answer == b.answer
        assert a.nodes == b.nodes
        assert a.witness == b.witness


def test_vc_parm_threshold_behavior():
    n, edges = petersen()
    for repr_name in REPRS:
        no = solve_vc_parm(n, edges, 5, repr_name=repr_name)
        yes = solve_vc_parm(n, edges, 6, repr_name=repr_name)
        assert no.answer is False and no.witness is None
        assert yes.answer is True
        assert verify_vc(n, edges, yes.witness)
        assert len(yes.witness) <= 6


def test_vc_parm_matches_oracle():
    rng = random.Random(2213)
    for trial in range(30):
        n = rng.randrange(4, 13)
        m = rng.randrange(0, n * (n - 1) // 2 + 1)
        n, edges = gnm(n, m, rng.randrange(1 << 30))
        opt = brute_vc(n, edges)
        for k in (max(0, opt - 2), opt - 1, opt, opt + 1):
            if k < 0:
                continue
            for fold in (False, True):
                res = solve_vc_parm(n, edges, k, fold=fold)
                assert res.answer == (k >= opt), (n, edges, k, fold)
                if res.answer:
                    assert verify_vc(n, edges, res.witness)
                    assert len(res.witness) <= k


def test_vc_fold_requires_hybrid():
    with pytest.raises(ValueError):
        solve_vc_parm(4, [(0, 1)], 1, repr_name="alist", fold=True)


@pytest.mark.parametrize("solve", [solve_vc_parm, solve_ce_parm])
def test_negative_budget_raises(solve):
    # a budget is an int >= 0: NaN compares false against every bound,
    # and a bool or a float would pass for one
    for k in (-1, True, 2.5, float("nan")):
        with pytest.raises(ValueError, match="k must be a non-negative int"):
            solve(*path(4), k)


@pytest.mark.parametrize("repr_name", REPRS)
@pytest.mark.parametrize("n, edges, message", [
    (3, [(0, 5)], "edge (0,5) out of range for n=3"),
    (3, [(4, 0)], "edge (4,0) out of range for n=3"),
    (3, [(1, 1)], "self-loop at vertex 1"),
    (3, [(0, 1), (1, 0)], "duplicate edge (1,0)"),
    (-1, [], "negative vertex count -1"),
    (2.5, [], "vertex count must be an int, got 2.5"),
    # the cover graph's 2n vertices would take True for 2
    (True, [], "vertex count must be an int, got True"),
    (3, [(0.0, 1)], "edge (0.0, 1) is not a pair of vertex ids"),
    # cover_edges itself fails on these, before any build
    (3, [("0", 1)], "edge ('0', 1) is not a pair of vertex ids"),
    (3, [5], "edge 5 is not a pair of vertex ids"),
    (3, [(0, 1, 2)], "edge (0, 1, 2) is not a pair of vertex ids"),
])
def test_ds_build_errors_name_the_input_graph(repr_name, n, edges, message):
    # the search runs on a 2n-vertex cover graph; its build errors are
    # reported as the input graph's
    with pytest.raises(GraphBuildError) as err:
        solve_ds_opt(n, edges, repr_name=repr_name)
    assert str(err.value) == message


@pytest.mark.parametrize("module, verify, solve", [
    (vertex_cover, "verify_vc", lambda: solve_vc_opt(*path(4))),
    (vertex_cover, "verify_vc", lambda: solve_vc_parm(*path(4), 2)),
    (dominating_set, "verify_ds", lambda: solve_ds_opt(*path(4))),
    (cluster_editing, "verify_ce", lambda: solve_ce_parm(*path(4), 1)),
], ids=["vc", "vc-parm", "ds", "ce"])
def test_rejected_witness_raises(monkeypatch, module, verify, solve):
    # every solver checks its witness before it returns one
    monkeypatch.setattr(module, verify, lambda *args: False)
    with pytest.raises(RuntimeError, match="invalid"):
        solve()


@pytest.mark.parametrize("verify", [verify_vc, verify_ds])
@pytest.mark.parametrize("witness", [[0, 0, 1, 2], [0, 1, 2, 4],
                                     [-1, 0, 1, 2], [True, 0, 2, 3],
                                     [0, 1, 2, 3.0]])
def test_verify_rejects_repeated_or_out_of_range_vertices(verify, witness):
    n, edges = path(4)
    assert verify(n, edges, [0, 1, 2, 3])
    assert not verify(n, edges, witness)


def test_verify_ce_rejects_bad_endpoints():
    edges = [(0, 1), (1, 2)]
    assert verify_ce(3, edges, [("del", 1, 2)], 1)
    for edit in [("del", True, 2), ("del", 1, 2.0), ("del", 1, 1),
                 ("del", 1, 3), ("add", -1, 2), ("del", "1", 2)]:
        assert not verify_ce(3, edges, [edit], 1), edit


@pytest.mark.parametrize("solve, reprs", [
    (solve_vc_opt, REPRS),
    (partial(solve_vc_parm, k=1), REPRS),
    (partial(solve_vc_parm, k=1, fold=True), ("hybrid",)),
    (solve_ds_opt, REPRS),
    (partial(solve_ce_parm, k=1), REPRS),
], ids=["vc", "vc-parm", "vc-parm-fold", "ds", "ce"])
@pytest.mark.parametrize("n, edges, message", [
    (2.5, [], "vertex count must be an int, got 2.5"),
    (True, [], "vertex count must be an int, got True"),
    (3, [(0.0, 1)], "edge (0.0, 1) is not a pair of vertex ids"),
    (3, [(0, 1, 2)], "edge (0, 1, 2) is not a pair of vertex ids"),
], ids=["float-n", "bool-n", "float-id", "triple"])
def test_malformed_graph_raises_build_error(solve, reprs, n, edges, message):
    for repr_name in reprs:
        with pytest.raises(GraphBuildError) as err:
            solve(n, edges, repr_name=repr_name)
        assert str(err.value) == message


def test_vc_fold_unfolds_path_and_cycle_witnesses():
    n, edges = path(9)  # folding collapses the whole path
    res = solve_vc_parm(n, edges, 4, fold=True)
    assert res.answer is True
    assert verify_vc(n, edges, res.witness)
    n, edges = cycle(30)
    res = solve_vc_parm(n, edges, 15, fold=True)
    assert res.answer is True
    assert verify_vc(n, edges, res.witness)
    res = solve_vc_parm(n, edges, 14, fold=True)
    assert res.answer is False


def test_vc_fold_uses_fewer_nodes_at_average_degree_four():
    rng = random.Random(31)
    slimmer = 0
    plain_total = fold_total = 0
    for trial in range(12):
        n, edges = gnm(26, 52, rng.randrange(1 << 30))
        opt = solve_vc_opt(n, edges).answer
        plain = solve_vc_parm(n, edges, opt - 1)
        folded = solve_vc_parm(n, edges, opt - 1, fold=True)
        assert plain.answer is False and folded.answer is False
        plain_total += plain.nodes
        fold_total += folded.nodes
        if folded.nodes < plain.nodes:
            slimmer += 1
    assert slimmer >= 9
    assert fold_total < plain_total


def test_ds_closed_forms():
    for repr_name in REPRS:
        for maker, arg, want in [
            (cycle, 9, 3),
            (path, 7, 3),
            (clique, 5, 1),
            (star, 8, 1),
        ]:
            n, edges = maker(arg)
            res = solve_ds_opt(n, edges, repr_name=repr_name)
            assert res.answer == want
            assert verify_ds(n, edges, res.witness)


def test_ds_petersen():
    res = solve_ds_opt(*petersen())
    assert res.answer == 3


def test_ds_matches_oracle():
    rng = random.Random(440)
    for trial in range(40):
        n = rng.randrange(2, 13)
        m = rng.randrange(0, n * (n - 1) // 2 + 1)
        n, edges = gnm(n, m, rng.randrange(1 << 30))
        want = brute_ds(n, edges)
        res = solve_ds_opt(n, edges)
        assert res.answer == want, (n, edges)
        assert verify_ds(n, edges, res.witness)


def test_ds_node_counts_match_across_reprs():
    rng = random.Random(89)
    for trial in range(10):
        n = rng.randrange(5, 14)
        m = rng.randrange(n // 2, n * (n - 1) // 2 + 1)
        n, edges = gnm(n, m, rng.randrange(1 << 30))
        a = solve_ds_opt(n, edges, repr_name="hybrid")
        b = solve_ds_opt(n, edges, repr_name="alist")
        assert a.answer == b.answer
        assert a.nodes == b.nodes
        assert a.witness == b.witness


def test_ds_scan_never_meets_an_uncovered_element(monkeypatch):
    """The invariant the DS node rests on instead of an infeasibility
    test and empty-set deletions: at every scan each active element
    has a set left, so a nonempty set is picked while one is left."""
    scan = _CoverSearch._scan
    scans = 0

    def checked(self):
        nonlocal scans
        scans += 1
        g = self.g
        n = g.n // 2
        assert all(g.degree(e) >= 1 for e in g.active_vertices() if e >= n)
        left, _, _, size = out = scan(self)
        assert size >= 1 or not left
        return out

    monkeypatch.setattr(_CoverSearch, "_scan", checked)
    rng = random.Random(31)
    for trial in range(300):
        n = rng.randrange(1, 41)
        m = rng.randrange(0, n * (n - 1) // 2 + 1)
        n, edges = gnm(n, m, rng.randrange(1 << 30))
        a = solve_ds_opt(n, edges, repr_name="hybrid")
        b = solve_ds_opt(n, edges, repr_name="alist")
        assert (a.answer, a.nodes, a.witness) == (b.answer, b.nodes, b.witness)
    assert scans > 2 * 300


def test_ce_small_cases():
    for repr_name in REPRS:
        # C4 needs two edits, P3 needs one
        res = solve_ce_parm(4, [(0, 1), (1, 2), (2, 3), (3, 0)], 1,
                            repr_name=repr_name)
        assert res.answer is False
        res = solve_ce_parm(4, [(0, 1), (1, 2), (2, 3), (3, 0)], 2,
                            repr_name=repr_name)
        assert res.answer is True
        assert verify_ce(4, [(0, 1), (1, 2), (2, 3), (3, 0)], res.witness, 2)
        res = solve_ce_parm(3, [(0, 1), (1, 2)], 0, repr_name=repr_name)
        assert res.answer is False
        res = solve_ce_parm(3, [(0, 1), (1, 2)], 1, repr_name=repr_name)
        assert res.answer is True


def test_ce_already_cliques():
    edges = clique(4)[1] + [(4, 5), (5, 6), (4, 6)] + [(7, 8)]
    res = solve_ce_parm(9, edges, 0)
    assert res.answer is True
    assert res.witness == []


def test_ce_matches_oracle():
    rng = random.Random(7117)
    for trial in range(30):
        n = rng.randrange(3, 9)
        m = rng.randrange(0, n * (n - 1) // 2 + 1)
        n, edges = gnm(n, m, rng.randrange(1 << 30))
        for k in range(0, 7):
            want = brute_ce(n, edges, k)
            res = solve_ce_parm(n, edges, k)
            assert res.answer == want, (n, edges, k)
            if want:
                assert verify_ce(n, edges, res.witness, k)


def _ce_oracle_cases():
    """(n, edges, k) up to the oracle's limits, n <= 12 and k <= 8:
    G(n, m) for n = 9..12 at every k, and gen_cluster_editing(12, 3,
    flips, seed) at the planted budget and one below."""
    rng = random.Random(7121)
    for trial in range(150):
        n = rng.randrange(9, 13)
        m = rng.randrange(0, n * (n - 1) // 2 + 1)
        n, edges = gnm(n, m, rng.randrange(1 << 30))
        for k in range(9):
            yield n, edges, k
    for flips in range(1, 9):
        for seed in range(6):
            spec, planted = gen_cluster_editing(12, 3, flips, seed)
            for k in (planted, planted - 1):
                yield spec.n, spec.edges, k


@pytest.mark.parametrize("repr_name", REPRS)
def test_ce_matches_oracle_to_its_limits(repr_name):
    # the branch order and the freeze of failed pairs change which
    # subtrees run; every answer must still be the oracle's
    yes = no = 0
    for n, edges, k in _ce_oracle_cases():
        want = brute_ce(n, edges, k)
        res = solve_ce_parm(n, edges, k, repr_name=repr_name)
        assert res.answer == want, (n, edges, k)
        if want:
            assert verify_ce(n, edges, res.witness, k)
        yes += want
        no += not want
    assert yes > 30 and no > 30


def test_ce_freezes_a_failed_pair_for_later_siblings():
    # the star K_{1,4} needs three deletions.  At k = 2 the root's
    # conflict is 1-0-2, branched as del 01 (4 nodes, fails), del 02 and
    # add 12 (cut off at once).  Under del 02 the conflict 1-0-3 offers
    # del 01, del 03 and add 13; 01 is frozen since its branch failed,
    # so that subtree is 3 nodes, not 4
    edges = [(0, 1), (0, 2), (0, 3), (0, 4)]
    for repr_name in REPRS:
        res = solve_ce_parm(5, edges, 2, repr_name=repr_name)
        assert (res.answer, res.nodes) == (False, 9)


def test_ce_node_counts_match_across_reprs():
    rng = random.Random(90)
    for trial in range(8):
        n = rng.randrange(5, 10)
        m = rng.randrange(n, n * (n - 1) // 2 + 1)
        n, edges = gnm(n, m, rng.randrange(1 << 30))
        for k in (2, 4):
            a = solve_ce_parm(n, edges, k, repr_name="hybrid")
            b = solve_ce_parm(n, edges, k, repr_name="alist")
            assert a.answer == b.answer
            assert a.nodes == b.nodes
            assert a.witness == b.witness


def test_ce_huge_budget():
    # the recursion limit follows the pairs a path can edit, not k
    res = solve_ce_parm(3, [(0, 1), (1, 2)], k=2**40)
    assert res.answer is True
    assert verify_ce(3, [(0, 1), (1, 2)], res.witness, 1)


@pytest.mark.parametrize("n", [0, 4])
@pytest.mark.parametrize("solve", [
    lambda n, **kw: solve_vc_opt(n, [], **kw),
    lambda n, **kw: solve_vc_parm(n, [], 1, **kw),
    lambda n, **kw: solve_vc_parm(n, [], 1, fold=True, **kw),
    lambda n, **kw: solve_ds_opt(n, [], **kw),
    lambda n, **kw: solve_ce_parm(n, [], 1, **kw),
], ids=["vc", "vc-parm", "vc-parm-fold", "ds", "ce"])
def test_unknown_representation_raises(solve, n):
    with pytest.raises(ValueError, match="unknown representation"):
        solve(n, repr_name="bogus")


def test_empty_graph_solves():
    for repr_name in REPRS:
        res = solve_ds_opt(0, [], repr_name=repr_name)
        assert (res.answer, res.nodes, res.witness) == (0, 1, [])
        res = solve_vc_opt(0, [], repr_name=repr_name)
        assert (res.answer, res.nodes, res.witness) == (0, 1, [])


@pytest.mark.parametrize("repr_name", REPRS)
def test_edges_as_an_iterator_solve_as_the_list(repr_name):
    # a solver reads edges more than once: to build, and again to
    # verify its witness
    spec = gen_random_gnm(12, 30, 1)
    ce, planted = gen_cluster_editing(12, 3, 3, 1)
    for solve, inst, args in [
        (solve_vc_opt, spec, ()),
        (solve_vc_parm, spec, (6,)),
        (solve_vc_parm, spec, (7,)),
        (solve_ds_opt, spec, ()),
        (solve_ce_parm, ce, (planted,)),
    ]:
        want = solve(inst.n, inst.edges, *args, repr_name=repr_name)
        got = solve(inst.n, iter(inst.edges), *args, repr_name=repr_name)
        assert ((got.answer, got.nodes, got.witness)
                == (want.answer, want.nodes, want.witness)), (solve, args)


@pytest.mark.parametrize("seconds", [float("nan"), -1, True, False])
def test_bad_timeout_raises(seconds):
    with pytest.raises(ValueError, match="timeout"):
        solve_vc_opt(*path(4), timeout=seconds)


def _frame_runs():
    n, edges = gnm(20, 70, 3)
    yield "vc", solve_vc_opt(n, edges, instrumented=True)
    res = solve_vc_opt(n, edges, repr_name="alist", instrumented=True)
    yield "vc", res
    for k in (res.answer, res.answer - 1):
        yield "vc-parm", solve_vc_parm(n, edges, k, instrumented=True)
        yield "vc-parm", solve_vc_parm(n, edges, k, repr_name="alist",
                                       instrumented=True)
        yield "vc-fold", solve_vc_parm(n, edges, k, fold=True,
                                       instrumented=True)
    yield "vc-empty", solve_vc_opt(5, [], instrumented=True)
    n, edges = gnm(13, 24, 8)
    for repr_name in REPRS:
        yield "ds", solve_ds_opt(n, edges, repr_name=repr_name,
                                 instrumented=True)
    spec, planted = gen_cluster_editing(12, 3, 5, 9)
    for k in (planted, planted - 1):
        for repr_name in REPRS:
            yield "ce", solve_ce_parm(spec.n, spec.edges, k,
                                      repr_name=repr_name, instrumented=True)


def test_one_frame_per_node():
    # every node takes one snapshot and restores it once, and no solver
    # takes any other
    for name, res in _frame_runs():
        snaps = res.counters["snapshot"]["calls"]
        restores = res.counters["restore"]["calls"]
        assert snaps == restores == res.nodes, (name, res.nodes, snaps)


def test_worked_example_all_problems():
    assert solve_vc_opt(G8_N, G8_EDGES).answer == brute_vc(G8_N, G8_EDGES)
    assert solve_ds_opt(G8_N, G8_EDGES).answer == brute_ds(G8_N, G8_EDGES)
    opt = next(k for k in range(9) if brute_ce(G8_N, G8_EDGES, k))
    assert solve_ce_parm(G8_N, G8_EDGES, opt).answer is True
    assert solve_ce_parm(G8_N, G8_EDGES, opt - 1).answer is False


# problem: G(n, m), and the search its solve_* function runs on graph
# g, started as the solve starts it, with a zero timeout
TIMEOUT_CASES = {
    "vc": (1500, 2250, lambda g: partial(
        _OptSearch(g, 0.0).run, list(range(1500)))),
    "vc-parm": (1500, 2250, lambda g: partial(
        _ParmSearch(g, 0.0, False).node, 700, ())),
    "vc-parm-fold": (1500, 2250, lambda g: partial(
        _ParmSearch(g, 0.0, True).node, 700, ())),
    "ds": (300, 450, lambda g: partial(
        _CoverSearch(g, 0.0).run, list(range(300)))),
    "ce": (40, 200, lambda g: partial(
        _EditSearch(g, 0.0).node, 104, frozenset())),
}
TIMEOUT_MODES = {"vc-parm-fold": "contraction", "ce": "addition"}


@pytest.mark.parametrize("problem, repr_name", [
    *((p, r) for p in ("vc", "vc-parm", "ds", "ce") for r in REPRS),
    ("vc-parm-fold", "hybrid")])
def test_timeout_raises(problem, repr_name):
    """With a zero timeout every solve raises SolveTimeout before it
    has touched 4 cells per vertex and edge of the graph it searches.
    Every search polls at its root node, before any cell: the
    optimizers seed their incumbent with every vertex or set, which
    reads no cell.  The bound leaves room for set-up work before the
    first poll, such as a snapshot and one degree pass; a search that
    ran a whole greedy or reduce before it polled would go past it."""
    n, m, start = TIMEOUT_CASES[problem]
    edges = gen_random_gnm(n, m, 5).edges
    if problem == "ds":
        edges = cover_edges(n, edges)
        n *= 2
    mode = TIMEOUT_MODES.get(problem, "plain")
    g = build_representation(repr_name, mode, n, edges, instrumented=True)
    with pytest.raises(SolveTimeout):
        start(g)()
    assert sum(g.counters.cells) <= 4 * (n + len(edges))


def test_solvers_restore_recursion_limit():
    n, edges = gnm(20, 60, 4)
    runs = [
        lambda t: solve_vc_opt(n, edges, timeout=t),
        lambda t: solve_vc_parm(n, edges, 12, timeout=t),
        lambda t: solve_vc_parm(n, edges, 12, fold=True, timeout=t),
        lambda t: solve_ds_opt(n, edges, timeout=t),
        lambda t: solve_ce_parm(n, edges, 8, timeout=t),
    ]
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(2345)
    try:
        for run in runs:
            run(None)
            assert sys.getrecursionlimit() == 2345
            with pytest.raises(SolveTimeout):
                run(0.0)
            assert sys.getrecursionlimit() == 2345
    finally:
        sys.setrecursionlimit(old)


def test_solvers_keep_a_higher_caller_recursion_limit():
    # lowering the limit to 10,000 from 12,000 frames deep would raise
    # RecursionError
    def descend(depth):
        return descend(depth - 1) if depth else solve_vc_opt(3, [(0, 1), (1, 2)])

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(50_000)
    try:
        assert descend(12_000).answer == 1
        assert sys.getrecursionlimit() == 50_000
    finally:
        sys.setrecursionlimit(old)


def test_deadline_holds_on_expensive_nodes():
    # about 5 ms per node here; a deadline polled every 1024 nodes
    # overran 0.2 s by about 6 s
    spec = gen_random_gnm(40, 200, seed=1)
    t0 = time.monotonic()
    with pytest.raises(SolveTimeout):
        solve_ce_parm(spec.n, spec.edges, 104, timeout=0.2)
    assert time.monotonic() - t0 < 2.0


def test_instrumented_run_returns_counters():
    n, edges = gnm(12, 30, 4)
    res = solve_vc_opt(n, edges, instrumented=True)
    assert res.counters is not None
    assert res.counters["delete_vertex"]["calls"] > 0
    assert res.counters["restore"]["reads"] % n == 0
    plain = solve_vc_opt(n, edges)
    assert plain.counters is None
    assert plain.answer == res.answer
    assert plain.nodes == res.nodes
