"""Contraction mode: worked merge sequence, simple-quotient invariant,
randomized trials against an independent quotient-graph mirror."""

import functools
import random

import pytest

from hybridgraph.contraction import ContractionGraph
from hybridgraph.core import HybridGraph

from helpers import (G8_EDGES, G8_N, color_members, color_of, color_size,
                     edge_count, gnm, max_degree_vertex)
from mirrors import QuotientMirror


def check_quotient(g, mirror):
    assert set(g.active_vertices()) == set(mirror.members)
    for c in mirror.members:
        assert set(color_members(g, c)) == mirror.members[c]
        assert color_size(g, c) == len(mirror.members[c])
        assert g.degree(c) == mirror.degree(c)
        assert set(g.neighbors(c)) == mirror.neighbor_colors(c)
        for x in mirror.members[c]:
            assert color_of(g, x) == c
    cols = sorted(mirror.members)
    for i, a in enumerate(cols):
        for b in cols[i + 1 :]:
            expected = mirror.adjacent(a, b)
            assert g.is_adjacent(a, b) == expected
            assert g.is_adjacent(b, a) == expected
    # live member edges: at most one between any two colors, none inside
    seen = set()
    for c in mirror.members:
        for x in color_members(g, c):
            for y in HybridGraph.neighbors(g, x):
                cx, cy = color_of(g, x), color_of(g, y)
                assert cx != cy
                if x < y:
                    key = frozenset((cx, cy))
                    assert key not in seen
                    seen.add(key)
    assert seen == mirror.qedges
    assert edge_count(g) == len(mirror.qedges)


def test_initial_state_is_discrete_partition():
    g = ContractionGraph(G8_N, G8_EDGES)
    assert sorted(g.active_vertices()) == list(range(8))
    for v in range(8):
        assert color_members(g, v) == [v]
        assert g.degree(v) == HybridGraph.degree(g, v)
        assert color_of(g, v) == v


def _contract(g, cu, cv):
    """Contract and return the number of member edges it deleted."""
    before = edge_count(g)
    g.contract(cu, cv)
    return before - edge_count(g)


def test_worked_contraction_sequence():
    g = ContractionGraph(G8_N, G8_EDGES)
    deleted = _contract(g, 3, 6)
    assert deleted == 1  # just the connector, no common neighbors
    assert color_of(g, 6) == 3
    assert color_size(g, 3) == 2
    assert g.degree(3) == 4
    assert set(color_members(g, 3)) == {3, 6}
    assert set(g.neighbors(3)) == {0, 2, 5, 7}

    deleted = _contract(g, 5, 7)
    assert deleted == 3  # connector + one duplicate per common color (4, 3)
    assert set(g.neighbors(3)) == {0, 2, 5}
    assert g.degree(3) == 3
    assert set(g.neighbors(5)) == {2, 3, 4}

    deleted = _contract(g, 2, 5)
    assert deleted == 2  # connector plus the duplicate toward color 3
    assert color_of(g, 5) == 2 and color_of(g, 7) == 2
    assert color_size(g, 2) == 3
    assert set(g.neighbors(2)) == {0, 1, 3, 4}
    assert g.degree(2) == 4


def test_vertex_api_answers_over_colors():
    # after the merge, color 1 = {1, 2} has neighbor colors 0, 3 and 4,
    # while member 1 alone has degree 1 and vertex 0 the top member degree
    g = ContractionGraph(6, [(0, 1), (1, 2), (2, 3), (2, 4), (0, 5), (5, 3)])
    g.contract(1, 2)
    assert sorted(g.active_vertices()) == [0, 1, 3, 4, 5]
    assert g.degree(1) == 3
    assert sorted(g.neighbors(1)) == [0, 3, 4]
    assert max_degree_vertex(g) == 1
    assert g.is_adjacent(1, 3) and g.is_adjacent(4, 1)
    assert not g.is_adjacent(1, 5) and not g.is_adjacent(3, 4)
    g.delete_vertex(1)  # removes both members and their edges
    assert sorted(g.active_vertices()) == [0, 3, 4, 5]
    assert [g.degree(c) for c in (0, 3, 4, 5)] == [1, 1, 0, 2]
    assert sorted(g.neighbors(5)) == [0, 3]
    assert edge_count(g) == 2
    assert max_degree_vertex(g) == 5


def test_contract_requires_adjacent_distinct_colors():
    g = ContractionGraph(G8_N, G8_EDGES)
    with pytest.raises(AssertionError):
        g.contract(0, 7)
    g.contract(0, 1)
    with pytest.raises(AssertionError):
        g.contract(0, 1)


def test_delete_color_removes_all_member_edges():
    g = ContractionGraph(G8_N, G8_EDGES)
    g.contract(2, 5)
    before = edge_count(g)
    d = g.degree(2)
    g.delete_vertex(2)
    assert 2 not in g.active_vertices()
    assert edge_count(g) == before - d
    for c in g.active_vertices():
        assert 2 not in g.neighbors(c)


def test_two_vertex_collapse():
    g = ContractionGraph(2, [(0, 1)])
    assert _contract(g, 0, 1) == 1
    assert g.active_vertices() == [0]
    assert g.degree(0) == 0
    assert edge_count(g) == 0


def test_snapshot_restores_colors_and_degrees():
    g = ContractionGraph(G8_N, G8_EDGES)
    g.contract(3, 6)
    snap = g.snapshot()
    g.contract(5, 7)
    g.delete_vertex(2)
    g.restore(snap)
    assert set(g.active_vertices()) == {0, 1, 2, 3, 4, 5, 7}
    assert set(g.neighbors(3)) == {0, 2, 5, 7}
    assert g.degree(3) == 4
    assert color_of(g, 7) == 7
    # entries past a color's count are stale and masked by cc
    assert g.csl[3][:2] == [3, 6]


def test_member_lists_hold_n_cells_and_none_grows_past_n():
    """A fresh graph holds one member cell per vertex.  ``contract``
    cuts the survivor's stale tail before it appends, so no list grows
    past n however often a path contracts into the same color and is
    restored, and each active color's live prefix is exactly the
    vertices of that color."""
    rng = random.Random(4097)
    for trial in range(40):
        n = rng.randrange(2, 14)
        m = rng.randrange(n - 1, n * (n - 1) // 2 + 1)
        _, edges = gnm(n, m, rng.randrange(1 << 30))
        g = ContractionGraph(n, edges)
        assert [len(row) for row in g.csl] == [1] * n
        stack = [g.snapshot()]
        for _ in range(200):
            r = rng.random()
            colors = sorted(c for c in g.active_vertices() if g.degree(c))
            if r < 0.15:
                stack.append(g.snapshot())
            elif r < 0.4:
                g.restore(stack.pop() if len(stack) > 1 else stack[0])
            elif r < 0.9 and colors:
                c = rng.choice(colors)
                g.contract(c, rng.choice(sorted(g.neighbors(c))))
            elif g.active_count():
                g.delete_vertex(rng.choice(sorted(g.active_vertices())))
            assert max(map(len, g.csl)) <= n
            for c in g.active_vertices():
                assert sorted(color_members(g, c)) == \
                    [v for v in range(n) if color_of(g, v) == c]


def test_randomized_against_quotient_mirror():
    rng = random.Random(4096)
    for trial in range(40):
        n = rng.randrange(2, 20)
        max_m = n * (n - 1) // 2
        m = rng.randrange(min(1, max_m), max_m + 1)
        _, edges = gnm(n, m, rng.randrange(1 << 30))
        g = ContractionGraph(n, edges)
        mirror = QuotientMirror(n, edges)
        stack = []
        for _ in range(rng.randrange(8, 40)):
            ops = ["save"]
            if stack:
                ops.append("restore")
            if mirror.qedges:
                ops += ["contract"] * 3 + ["delete_color", "delete_edge"]
            elif len(mirror.members) > 0:
                ops += ["delete_color"]
            op = rng.choice(ops)
            if op == "save":
                stack.append((g.snapshot(), mirror.copy()))
            elif op == "restore":
                snap, saved = stack.pop()
                g.restore(snap)
                mirror = saved
                check_quotient(g, mirror)
            elif op == "contract":
                a, b = rng.choice(sorted(tuple(sorted(e)) for e in mirror.qedges))
                g.contract(a, b)
                mirror.contract(a, b)
            elif op == "delete_color":
                c = rng.choice(sorted(mirror.members))
                g.delete_vertex(c)
                mirror.delete_color(c)
            else:
                a, b = rng.choice(sorted(tuple(sorted(e)) for e in mirror.qedges))
                # pick live member endpoints of the connecting edge
                nbrs = functools.partial(HybridGraph.neighbors, g)
                u = next(x for x in color_members(g, a)
                         if any(color_of(g, y) == b for y in nbrs(x)))
                v = next(y for y in nbrs(u) if color_of(g, y) == b)
                g.delete_edge(u, v)
                mirror.delete_edge(a, b)
        check_quotient(g, mirror)
        while stack:
            snap, saved = stack.pop()
            g.restore(snap)
            mirror = saved
        check_quotient(g, mirror)
