"""Plain-mode representation: worked-example tables, inverse-permutation
and live-prefix invariants, randomized undo integrity against the set
mirror, determinism, input validation; and, in every hybrid mode,
restore() bringing back each search-local vector."""

import copy
import random

import pytest

from hybridgraph.addition import AdditionGraph
from hybridgraph.baseline import BaselineGraph
from hybridgraph.contraction import ContractionGraph
from hybridgraph.core import GraphBuildError, HybridGraph

from helpers import (G8_AL, G8_DEG, G8_EDGES, G8_N, color_members,
                     edge_count, gnm, max_degree_vertex)
from mirrors import EdgeSetMirror


def check_invariants(g):
    n = g.n
    assert 0 <= g.n_c <= n
    assert sorted(g.vlist) == list(range(n))
    for v in range(n):
        assert g.vlist[g.idxlist[v]] == v
    for v in range(n):
        live = g.al[v][: g.deg[v]]
        assert len(set(live)) == len(live)
        for w in live:
            assert g.im[w][v] < g.deg[v]
            assert g.al[v][g.im[w][v]] == w


def check_against(g, mirror):
    assert set(g.active_vertices()) == mirror.active
    assert g.active_count() == len(mirror.active)
    act = sorted(mirror.active)
    for i, u in enumerate(act):
        assert g.degree(u) == mirror.degree(u)
        assert set(g.neighbors(u)) == mirror.neighbors(u)
        for v in act[i + 1 :]:
            expected = mirror.is_adjacent(u, v)
            assert g.is_adjacent(u, v) == expected
            assert g.is_adjacent(v, u) == expected
    assert edge_count(g) == len(mirror.edges)
    check_invariants(g)


def test_worked_example_tables():
    g = HybridGraph(G8_N, G8_EDGES)
    assert g.al == G8_AL
    assert g.deg == G8_DEG
    assert g.n_c == 8
    # spot values of the index table
    assert g.im[1][0] == 0
    assert g.im[3][0] == 2
    assert g.im[5][2] == 3
    assert g.im[2][5] == 0
    assert g.im[0][4] == -1
    check_invariants(g)


def test_adjacency_is_symmetric_and_range_checked():
    g = HybridGraph(G8_N, G8_EDGES)
    assert g.is_adjacent(0, 3) and g.is_adjacent(3, 0)
    assert not g.is_adjacent(0, 7)
    assert not g.is_adjacent(4, 4)
    g.delete_edge(0, 3)
    # stale index entries must not resurrect the pair
    assert g.im[0][3] == 2 and g.deg[3] == 2
    assert not g.is_adjacent(0, 3) and not g.is_adjacent(3, 0)


def test_delete_edge_worked_example():
    g = HybridGraph(G8_N, G8_EDGES)
    g.delete_edge(0, 3)
    assert g.al[3] == [6, 2, 0]
    assert g.im[6][3] == 0
    assert g.im[0][3] == 2
    assert g.deg[0] == 2 and g.deg[3] == 2
    # the other rows are untouched
    assert g.al[1] == G8_AL[1] and g.al[2] == G8_AL[2]
    check_invariants(g)


def test_delete_vertex_clears_neighborhood():
    g = HybridGraph(G8_N, G8_EDGES)
    g.delete_vertex(2)
    assert not g.is_active(2)
    assert g.deg[2] == 0
    assert g.n_c == 7
    for w in (0, 1, 3, 5):
        assert not g.is_adjacent(2, w)
        assert not g.is_adjacent(w, 2)
    assert set(g.neighbors(0)) == {1, 3}
    check_invariants(g)


def test_restore_is_set_semantics():
    g = HybridGraph(G8_N, G8_EDGES)
    snap = g.snapshot()
    g.delete_vertex(5)
    g.delete_edge(0, 1)
    g.delete_vertex(2)
    g.restore(snap)
    assert g.deg == G8_DEG
    assert g.n_c == 8
    for v in range(8):
        assert set(g.neighbors(v)) == set(G8_AL[v])
    check_invariants(g)


def test_empty_and_tiny_graphs():
    g = HybridGraph(0, [])
    assert g.active_vertices() == []
    s = g.snapshot()
    g.restore(s)
    g1 = HybridGraph(1, [])
    g1.delete_vertex(0)
    assert g1.active_count() == 0


def test_repr_names_the_class_and_the_active_count():
    g = HybridGraph(3, [(0, 1)])
    g.delete_vertex(2)
    assert repr(g) == "HybridGraph(n=3, active=2)"


@pytest.mark.parametrize("n, edges, exc, msg", [
    pytest.param(3, [(1, 1)], GraphBuildError, "self-loop at vertex 1",
                 id="self-loop"),
    pytest.param(3, [(0, 1), (1, 0)], GraphBuildError,
                 "duplicate edge (1,0)", id="duplicate-reversed"),
    pytest.param(3, [(0, 1), (0, 1)], GraphBuildError,
                 "duplicate edge (0,1)", id="duplicate"),
    pytest.param(3, [(2, 0), (1, 2), (0, 2)], GraphBuildError,
                 "duplicate edge (0,2)", id="duplicate-later"),
    pytest.param(3, [(0, 3)], GraphBuildError,
                 "edge (0,3) out of range for n=3", id="range-high"),
    pytest.param(3, [(-1, 2)], GraphBuildError,
                 "edge (-1,2) out of range for n=3", id="range-negative"),
    pytest.param(-1, [], GraphBuildError, "negative vertex count -1",
                 id="negative-n"),
    # the first bad edge in input order decides
    pytest.param(3, [(0, 5), (1, 1)], GraphBuildError,
                 "edge (0,5) out of range for n=3", id="first-range"),
    pytest.param(3, [(1, 1), (0, 5)], GraphBuildError,
                 "self-loop at vertex 1", id="first-self-loop"),
    pytest.param(3, [(0, 1), (1, 0), (2, 2)], GraphBuildError,
                 "duplicate edge (1,0)", id="first-duplicate"),
    pytest.param(3, [(0, 1), (2, 2), (1, 0)], GraphBuildError,
                 "self-loop at vertex 2", id="first-self-loop-before-duplicate"),
    # a vertex count is an int and a vertex id an int; a bool is no count
    pytest.param(2.5, [], GraphBuildError,
                 "vertex count must be an int, got 2.5", id="float-n"),
    pytest.param(True, [], GraphBuildError,
                 "vertex count must be an int, got True", id="bool-n"),
    pytest.param("3", [], GraphBuildError,
                 "vertex count must be an int, got '3'", id="str-n"),
    pytest.param(3, [(0.0, 1)], GraphBuildError,
                 "edge (0.0, 1) is not a pair of vertex ids", id="float-id"),
    pytest.param(3, [(0, 1), ("0", 2)], GraphBuildError,
                 "edge ('0', 2) is not a pair of vertex ids", id="str-id"),
    pytest.param(3, [5], GraphBuildError,
                 "edge 5 is not a pair of vertex ids", id="not-a-pair"),
    pytest.param(3, [(0, 1, 2)], GraphBuildError,
                 "edge (0, 1, 2) is not a pair of vertex ids", id="triple"),
    pytest.param(3, [(0, 5), (0, 1, 2)], GraphBuildError,
                 "edge (0,5) out of range for n=3", id="first-range-before-triple"),
])
@pytest.mark.parametrize("cls", [HybridGraph, BaselineGraph],
                         ids=lambda c: c.__name__)
def test_build_rejects_bad_input(cls, n, edges, exc, msg):
    with pytest.raises(exc) as info:
        cls(n, edges)
    assert type(info.value) is exc
    assert str(info.value) == msg


def test_contract_violations_assert():
    g = HybridGraph(G8_N, G8_EDGES)
    with pytest.raises(AssertionError):
        g.delete_edge(0, 7)
    g.delete_vertex(3)
    with pytest.raises(AssertionError):
        g.delete_vertex(3)


def test_randomized_undo_integrity_against_mirror():
    rng = random.Random(20260817)
    for trial in range(60):
        n = rng.randrange(2, 26)
        max_m = n * (n - 1) // 2
        m = rng.randrange(0, max_m + 1)
        _, edges = gnm(n, m, rng.randrange(1 << 30))
        g = HybridGraph(n, edges)
        mirror = EdgeSetMirror(n, edges)
        stack = []
        for _ in range(rng.randrange(10, 60)):
            ops = ["save"]
            if stack:
                ops.append("restore")
            if mirror.edges:
                ops += ["edge"] * 3
            if mirror.active:
                ops += ["vertex"] * 2
            op = rng.choice(ops)
            if op == "save":
                stack.append((g.snapshot(), mirror.copy()))
            elif op == "restore":
                snap, saved = stack.pop()
                g.restore(snap)
                mirror = saved
                check_against(g, mirror)
            elif op == "edge":
                u, v = rng.choice(sorted(tuple(sorted(e)) for e in mirror.edges))
                g.delete_edge(u, v)
                mirror.delete_edge(u, v)
            else:
                v = rng.choice(sorted(mirror.active))
                g.delete_vertex(v)
                mirror.delete_vertex(v)
        check_against(g, mirror)
        while stack:
            snap, saved = stack.pop()
            g.restore(snap)
            mirror = saved
        check_against(g, mirror)


def test_identical_scripts_are_bit_deterministic():
    def run(seed):
        rng = random.Random(seed)
        n, edges = gnm(18, 60, 7)
        g = HybridGraph(n, edges)
        snaps = []
        for _ in range(200):
            r = rng.random()
            if r < 0.15:
                snaps.append(g.snapshot())
            elif r < 0.25 and snaps:
                g.restore(snaps.pop())
            elif r < 0.7 and edge_count(g):
                v = max_degree_vertex(g)
                g.delete_edge(v, g.neighbors(v)[0])
            elif g.active_count():
                g.delete_vertex(g.active_vertices()[-1])
        return g

    a = run(99)
    b = run(99)
    assert a.al == b.al
    assert a.im == b.im
    assert a.vlist == b.vlist
    assert a.idxlist == b.idxlist
    assert a.deg == b.deg
    assert a.n_c == b.n_c


# global tables: never rolled back by design
GLOBAL_TABLES = {"al", "im", "vlist", "idxlist", "csl", "tail",
                 "_stamp", "_gen"}


def _random_edit(g, rng, edited):
    """One mutation valid on g's mode; `edited` holds the pairs edited on
    this path (addition mode edits each pair at most once per path)."""
    act = sorted(g.active_vertices())
    if isinstance(g, ContractionGraph):
        colors = [c for c in act if g.degree(c)]
        r = rng.random()
        if r < 0.4 and colors:
            c = rng.choice(colors)
            g.contract(c, g.neighbors(c)[0])
        elif r < 0.7 and colors:
            c = rng.choice(colors)
            u = next(x for x in color_members(g, c) if g.deg[x])
            g.delete_edge(u, HybridGraph.neighbors(g, u)[0])
        elif act:
            g.delete_vertex(rng.choice(act))
        return
    live = [(v, w) for v in act for w in g.al[v][: g.deg[v]]
            if v < w and (v, w) not in edited]
    if isinstance(g, AdditionGraph) and rng.random() < 0.5:
        pairs = [(u, v) for i, u in enumerate(act) for v in act[i + 1:]
                 if (u, v) not in edited and not g.is_adjacent(u, v)]
        if pairs:
            pair = rng.choice(pairs)
            edited.add(pair)
            g.add_edge(*pair)
    elif live and rng.random() < 0.7:
        pair = rng.choice(live)
        edited.add(pair)
        g.delete_edge(*pair)
    else:
        # addition mode may only delete a vertex without added edges
        free = [v for v in act if not isinstance(g, AdditionGraph)
                or not g.ndeg[v]]
        if free:
            g.delete_vertex(rng.choice(free))


@pytest.mark.parametrize("cls", [HybridGraph, AdditionGraph, ContractionGraph])
def test_restore_covers_every_undo_vector(cls):
    # every slot of the mode, inherited ones included, outside the
    # global tables must come back from restore()
    names = {name for k in cls.__mro__ for name in getattr(k, "__slots__", ())}
    names -= GLOBAL_TABLES
    assert {"deg", "n_c"} <= names
    rng = random.Random(4417)
    for trial in range(40):
        n = rng.randrange(2, 16)
        _, edges = gnm(n, rng.randrange(0, n * (n - 1) // 2 + 1),
                       rng.randrange(1 << 30))
        g = cls(n, edges)
        edited = set()
        for _ in range(rng.randrange(0, 6)):
            _random_edit(g, rng, edited)
        before = {name: copy.deepcopy(getattr(g, name)) for name in names}
        s = g.snapshot()
        for _ in range(rng.randrange(1, 12)):
            _random_edit(g, rng, edited)
        g.restore(s)
        assert {name: getattr(g, name) for name in names} == before


@pytest.mark.parametrize("cls", [HybridGraph, AdditionGraph, ContractionGraph])
def test_restore_rejects_a_snapshot_of_another_graph(cls):
    # every mode reaches the plain guard through HybridGraph.restore
    saved = cls(4, [(0, 1)]).snapshot()
    g = cls(5, [(0, 1)])
    with pytest.raises(AssertionError, match="snapshot from a different graph"):
        g.restore(saved)
