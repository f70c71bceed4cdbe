"""Linked-list baseline: log-replay undo correctness and observable
equivalence with the constant-undo representation on identical scripts."""

import random

import pytest

from hybridgraph.baseline import BaselineGraph
from hybridgraph.core import HybridGraph

from helpers import (G8_AL, G8_DEG, G8_EDGES, G8_N, edge_count, gnm,
                     max_degree_vertex)
from mirrors import EdgeSetMirror


def check_against(g, mirror):
    assert set(g.active_vertices()) == mirror.active
    act = sorted(mirror.active)
    for i, u in enumerate(act):
        assert g.degree(u) == mirror.degree(u)
        assert set(g.neighbors(u)) == mirror.neighbors(u)
        for v in act[i + 1 :]:
            assert g.is_adjacent(u, v) == mirror.is_adjacent(u, v)
    assert edge_count(g) == len(mirror.edges)


def check_twins(g):
    """Every live cell c of v's chain has its twin c ^ 1 owned by v."""
    for v in g.active_vertices():
        c = g.head[v]
        while c != -1:
            assert g.nbr[c ^ 1] == v
            c = g.nxt[c]


def test_build_matches_tables():
    g = BaselineGraph(G8_N, G8_EDGES)
    for v in range(8):
        assert g.degree(v) == G8_DEG[v]
        assert set(g.neighbors(v)) == set(G8_AL[v])
    assert edge_count(g) == len(G8_EDGES)


def test_build_from_an_iterator_matches_the_list_build():
    n, edges = gnm(20, 60, 5)
    a = BaselineGraph(n, edges)
    b = BaselineGraph(n, iter(edges))
    for name in ("nbr", "prv", "nxt", "head", "deg"):
        assert getattr(b, name) == getattr(a, name), name


def test_delete_and_undo_edge():
    g = BaselineGraph(G8_N, G8_EDGES)
    mark = g.snapshot()
    g.delete_edge(0, 3)
    assert not g.is_adjacent(0, 3)
    assert g.degree(0) == 2 and g.degree(3) == 2
    g.restore(mark)
    assert g.is_adjacent(0, 3) and g.is_adjacent(3, 0)
    assert g.degree(0) == 3 and g.degree(3) == 3


def test_delete_and_undo_vertex():
    g = BaselineGraph(G8_N, G8_EDGES)
    mark = g.snapshot()
    g.delete_vertex(2)
    assert not g.is_active(2)
    assert g.active_count() == 7
    for w in (0, 1, 3, 5):
        assert not g.is_adjacent(w, 2)
    g.restore(mark)
    assert g.is_active(2)
    assert g.degree(2) == 4
    assert set(g.neighbors(2)) == {0, 1, 3, 5}
    # neighbor chains regain their original order after replay
    for v in range(8):
        assert set(g.neighbors(v)) == set(G8_AL[v])


def test_add_edge_and_undo():
    g = BaselineGraph(G8_N, G8_EDGES)
    mark = g.snapshot()
    g.add_edge(0, 7)
    assert g.is_adjacent(0, 7) and g.is_adjacent(7, 0)
    g.restore(mark)
    assert not g.is_adjacent(0, 7)
    assert g.degree(0) == 3 and g.degree(7) == 3


def test_nested_marks_unwind_in_order():
    g = BaselineGraph(G8_N, G8_EDGES)
    m0 = g.snapshot()
    g.delete_vertex(5)
    m1 = g.snapshot()
    g.delete_edge(0, 1)
    g.delete_vertex(2)
    g.restore(m1)
    assert g.is_adjacent(0, 1)
    assert g.is_active(2) and not g.is_active(5)
    g.restore(m0)
    assert g.is_active(5)
    assert g.degree(5) == 4


def test_restore_rejects_a_mark_past_its_log():
    g = BaselineGraph(G8_N, G8_EDGES)
    g.delete_edge(0, 3)
    mark = g.snapshot()
    g.restore(0)
    with pytest.raises(AssertionError,
                       match="mark from a different graph or future"):
        g.restore(mark)


def test_randomized_against_mirror():
    rng = random.Random(777)
    for trial in range(40):
        n = rng.randrange(2, 22)
        max_m = n * (n - 1) // 2
        m = rng.randrange(0, max_m + 1)
        _, edges = gnm(n, m, rng.randrange(1 << 30))
        g = BaselineGraph(n, edges)
        mirror = EdgeSetMirror(n, edges)
        built = len(g.nbr)
        root = g.snapshot()
        stack = []
        for _ in range(rng.randrange(10, 50)):
            ops = ["save"]
            if stack:
                ops.append("restore")
            if mirror.edges:
                ops += ["edge"] * 3
            if mirror.active:
                ops += ["vertex"] * 2
                non = [
                    (u, v)
                    for i, u in enumerate(sorted(mirror.active))
                    for v in sorted(mirror.active)[i + 1 :]
                    if frozenset((u, v)) not in mirror.edges
                ]
                if non:
                    ops.append("add")
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
            elif op == "vertex":
                v = rng.choice(sorted(mirror.active))
                g.delete_vertex(v)
                mirror.delete_vertex(v)
            else:
                u, v = rng.choice(non)
                g.add_edge(u, v)
                mirror.add_edge(u, v)
            check_twins(g)
        check_against(g, mirror)
        while stack:
            snap, saved = stack.pop()
            g.restore(snap)
            mirror = saved
        check_against(g, mirror)
        # undone add_edge records free their cells
        g.restore(root)
        assert len(g.nbr) == len(g.prv) == len(g.nxt) == built
        check_against(g, EdgeSetMirror(n, edges))


def test_observable_equivalence_with_hybrid_on_same_script():
    rng = random.Random(5151)
    for trial in range(25):
        n = rng.randrange(3, 20)
        m = rng.randrange(1, n * (n - 1) // 2 + 1)
        _, edges = gnm(n, m, rng.randrange(1 << 30))
        a = HybridGraph(n, edges)
        b = BaselineGraph(n, edges)
        stack = []
        for _ in range(rng.randrange(10, 40)):
            r = rng.random()
            if r < 0.2:
                stack.append((a.snapshot(), b.snapshot()))
            elif r < 0.35 and stack:
                sa, sb = stack.pop()
                a.restore(sa)
                b.restore(sb)
            elif r < 0.75 and edge_count(a):
                v = max_degree_vertex(a)
                w = min(a.neighbors(v))
                a.delete_edge(v, w)
                b.delete_edge(v, w)
            elif a.active_count():
                v = max(a.active_vertices())
                a.delete_vertex(v)
                b.delete_vertex(v)
            assert a.active_count() == b.active_count()
            assert edge_count(a) == edge_count(b)
            assert max_degree_vertex(a) == max_degree_vertex(b)
            # every vertex, active or not: a deleted one has no neighbors
            for v in range(n):
                assert a.degree(v) == b.degree(v)
                assert set(a.neighbors(v)) == set(b.neighbors(v))
                for w in range(n):
                    assert a.is_adjacent(v, w) == b.is_adjacent(v, w)
