"""Edge-addition mode: tail-slot placement, stale-slot defense after
restore, the edit-once guard, the space the mode adds, and randomized
trials mixing deletions, additions, and undo."""

import random
import tracemalloc

import pytest

from hybridgraph.addition import AdditionGraph
from hybridgraph.core import HybridGraph
from hybridgraph.instances import gen_random_gnm

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
            expected = mirror.is_adjacent(u, v)
            assert g.is_adjacent(u, v) == expected
            assert g.is_adjacent(v, u) == expected
    assert edge_count(g) == len(mirror.edges)


def test_base_rows_keep_build_length_and_tails_start_empty():
    g = AdditionGraph(G8_N, G8_EDGES)
    for v in range(8):
        assert g.al[v] == G8_AL[v]
    assert g.tail == [[] for _ in range(8)]
    assert g.ndeg == [0] * 8


def test_added_edge_lands_in_tail_slots():
    g = AdditionGraph(G8_N, G8_EDGES)
    n = G8_N
    g.add_edge(2, 6)
    assert g.tail[2] == [6] and g.tail[6] == [2]
    assert g.im[6][2] == n and g.im[2][6] == n  # tail slot 0
    assert g.ndeg[2] == 1 and g.ndeg[6] == 1
    assert g.is_adjacent(2, 6) and g.is_adjacent(6, 2)
    assert g.degree(2) == 5
    assert set(g.neighbors(2)) == {0, 1, 3, 5, 6}
    g.add_edge(2, 4)
    assert g.tail[2] == [6, 4]  # second addition, next tail slot
    assert g.im[4][2] == n + 1
    assert g.degree(2) == 6


def test_add_requires_nonadjacent_pair():
    g = AdditionGraph(G8_N, G8_EDGES)
    with pytest.raises(AssertionError):
        g.add_edge(0, 1)
    g.add_edge(0, 7)
    with pytest.raises(AssertionError):
        g.add_edge(0, 7)


def test_stale_tail_slot_does_not_fake_adjacency():
    g = AdditionGraph(G8_N, G8_EDGES)
    snap = g.snapshot()
    g.add_edge(0, 7)
    g.restore(snap)
    assert not g.is_adjacent(0, 7)
    assert not g.is_adjacent(7, 0)
    # reuse the same tail slot for a different partner
    g.add_edge(0, 4)
    assert g.tail[0] == [4]
    assert g.is_adjacent(0, 4)
    # the stale index entry for 7 now points at tail slot 0, holding 4
    assert g.im[7][0] == G8_N
    assert not g.is_adjacent(7, 0)
    assert not g.is_adjacent(0, 7)


def test_restore_rolls_back_additions_and_deletions_together():
    g = AdditionGraph(G8_N, G8_EDGES)
    snap = g.snapshot()
    g.delete_edge(0, 1)
    g.add_edge(0, 7)
    g.add_edge(4, 2)
    g.delete_edge(4, 5)  # base edge removal after additions
    g.restore(snap)
    for v in range(8):
        assert set(g.neighbors(v)) == set(G8_AL[v])
        assert g.degree(v) == G8_DEG[v]
    assert edge_count(g) == len(G8_EDGES)


def test_readding_a_deleted_base_pair_raises_at_once():
    # editing a base pair twice on one path is forbidden; the index
    # entry still names a base slot, so the first re-add raises
    g = AdditionGraph(3, [(0, 1), (0, 2)])
    g.delete_edge(0, 1)
    with pytest.raises(AssertionError, match="add_edge on base pair"):
        g.add_edge(0, 1)
    with pytest.raises(AssertionError, match="add_edge on base pair"):
        g.add_edge(1, 0)
    assert g.tail == [[], [], []] and g.ndeg == [0, 0, 0]


def test_addition_build_holds_no_more_than_plain():
    # the tails start empty, so an addition build costs about what a
    # plain build does: the quadratic index and nothing else n by n
    spec = gen_random_gnm(800, 1200, 0)
    held = []
    for cls in (HybridGraph, AdditionGraph):
        tracemalloc.start()
        try:
            g = cls(spec.n, spec.edges)
            held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        del g
    plain, addition = held
    assert addition < 1.1 * plain


def test_max_degree_counts_added_edges():
    g = AdditionGraph(5, [(0, 1), (2, 3)])
    assert max_degree_vertex(g) == 0
    g.add_edge(2, 4)
    assert g.degree(2) == 2
    assert max_degree_vertex(g) == 2


def test_randomized_against_mirror():
    # each unordered pair is edited at most once per path: `edited` is
    # path-local state saved and restored alongside the mirror
    rng = random.Random(31337)
    for trial in range(50):
        n = rng.randrange(2, 22)
        max_m = n * (n - 1) // 2
        m = rng.randrange(0, max_m + 1)
        _, edges = gnm(n, m, rng.randrange(1 << 30))
        g = AdditionGraph(n, edges)
        mirror = EdgeSetMirror(n, edges)
        edited = set()
        stack = []
        for _ in range(rng.randrange(10, 50)):
            ops = ["save"]
            if stack:
                ops.append("restore")
            live = [
                (u, v)
                for e in mirror.edges
                for (u, v) in [tuple(sorted(e))]
                if (u, v) not in edited
            ]
            if live:
                ops += ["del"] * 3
            non = [
                (u, v)
                for i, u in enumerate(sorted(mirror.active))
                for v in sorted(mirror.active)[i + 1 :]
                if frozenset((u, v)) not in mirror.edges
                if (u, v) not in edited
            ]
            if non:
                ops += ["add"] * 2
            op = rng.choice(ops)
            if op == "save":
                stack.append((g.snapshot(), mirror.copy(), set(edited)))
            elif op == "restore":
                snap, saved, edited = stack.pop()
                g.restore(snap)
                mirror = saved
                check_against(g, mirror)
            elif op == "del":
                u, v = rng.choice(sorted(live))
                g.delete_edge(u, v)
                mirror.delete_edge(u, v)
                edited.add((u, v))
            else:
                u, v = rng.choice(non)
                g.add_edge(u, v)
                mirror.add_edge(u, v)
                edited.add((u, v))
            if op in ("del", "add"):
                act = sorted(mirror.active)
                assert [g.degree(v) for v in act] == \
                    [mirror.degree(v) for v in act]
        check_against(g, mirror)
        while stack:
            snap, saved, edited = stack.pop()
            g.restore(snap)
            mirror = saved
        check_against(g, mirror)
