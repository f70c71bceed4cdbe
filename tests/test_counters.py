"""Instrumented twins: behavior identical to the plain classes, exact
per-operation access constants, and the flat-undo versus log-replay
cost contrast on a star graph."""

import random

import pytest

from hybridgraph.addition import AdditionGraph
from hybridgraph.baseline import BaselineGraph
from hybridgraph.core import HybridGraph
from hybridgraph.instrumented import (
    CountingAdditionGraph,
    CountingBaselineGraph,
    CountingHybridGraph,
)

from helpers import G8_EDGES, G8_N, gnm, star


def test_delete_edge_constant_cost():
    g = CountingHybridGraph(G8_N, G8_EDGES)
    g.delete_edge(0, 3)
    assert g.counters.calls["delete_edge"] == 1
    assert g.counters.reads["delete_edge"] == 6
    assert g.counters.writes["delete_edge"] == 10
    g.delete_edge(2, 5)
    assert g.counters.reads["delete_edge"] == 12
    assert g.counters.writes["delete_edge"] == 20


def test_is_adjacent_cost():
    g = CountingHybridGraph(G8_N, G8_EDGES)
    g.is_adjacent(0, 7)  # im miss, one read
    assert g.counters.reads["is_adjacent"] == 1
    g.is_adjacent(0, 3)  # im hit plus degree check
    assert g.counters.reads["is_adjacent"] == 3
    assert g.counters.writes["is_adjacent"] == 0


def test_delete_vertex_linear_in_degree():
    g = CountingHybridGraph(G8_N, G8_EDGES)
    d = g.degree(2)
    g.delete_vertex(2)
    assert g.counters.reads["delete_vertex"] == 3 + 4 * d
    assert g.counters.writes["delete_vertex"] == 5 + 5 * d
    assert g.counters.accesses("delete_vertex") <= 17 * (d + 1)
    # deleting an isolated vertex is constant
    h = CountingHybridGraph(3, [])
    h.delete_vertex(1)
    assert h.counters.accesses("delete_vertex") == 8


def test_snapshot_restore_flat_cost():
    g = CountingHybridGraph(G8_N, G8_EDGES)
    s = g.snapshot()
    assert g.counters.accesses("snapshot") == 2 * (G8_N + 1)
    # burst of work, then one restore: cost stays n+1 regardless
    g.delete_vertex(2)
    g.delete_vertex(5)
    g.delete_edge(0, 1)
    g.restore(s)
    assert g.counters.reads["restore"] == G8_N + 1
    assert g.counters.writes["restore"] == G8_N + 1


def test_addition_mode_costs():
    g = CountingAdditionGraph(G8_N, G8_EDGES)
    g.add_edge(0, 7)
    assert g.counters.reads["add_edge"] == 2
    assert g.counters.writes["add_edge"] == 6
    g.is_adjacent(0, 7)  # tail hit: index, degree, content, count
    assert g.counters.reads["is_adjacent"] == 4
    s = g.snapshot()
    assert g.counters.accesses("snapshot") == 2 * (2 * G8_N + 1)
    g.restore(s)
    assert g.counters.reads["restore"] == 2 * G8_N + 1


def test_twin_matches_plain_hybrid():
    rng = random.Random(2200)
    n, edges = gnm(16, 40, 3)
    a = HybridGraph(n, edges)
    b = CountingHybridGraph(n, edges)
    stack = []
    for _ in range(300):
        r = rng.random()
        if r < 0.15:
            stack.append((a.snapshot(), b.snapshot()))
        elif r < 0.3 and stack:
            sa, sb = stack.pop()
            a.restore(sa)
            b.restore(sb)
        elif r < 0.7 and a.active_edge_count():
            v = a.max_degree_vertex()
            w = min(a.neighbors(v))
            a.delete_edge(v, w)
            b.delete_edge(v, w)
        elif a.active_count():
            v = min(a.active_vertices())
            a.delete_vertex(v)
            b.delete_vertex(v)
        assert a.al == b.al and a.im == b.im
        assert a.frame.deg == b.frame.deg
        assert a.frame.n_c == b.frame.n_c
        assert a.vlist == b.vlist


def test_twin_matches_plain_addition():
    rng = random.Random(2201)
    n, edges = gnm(12, 20, 9)
    a = AdditionGraph(n, edges)
    b = CountingAdditionGraph(n, edges)
    edited = set()
    for _ in range(200):
        r = rng.random()
        us = a.active_vertices()
        base_live = [
            (v, w)
            for v in sorted(us)
            for w in a.al[v][: a.frame.deg[v]]
            if v < w
        ]
        if r < 0.5 and base_live:
            v, w = rng.choice(base_live)
            a.delete_edge(v, w)
            b.delete_edge(v, w)
            edited.add((v, w))
        else:
            pairs = [
                (u, v)
                for i, u in enumerate(us)
                for v in us[i + 1 :]
                if not a.is_adjacent(u, v)
                if (u, v) not in edited
            ]
            if not pairs:
                continue
            u, v = rng.choice(pairs)
            a.add_edge(u, v)
            b.add_edge(u, v)
            edited.add((u, v))
        assert a.al == b.al and a.im == b.im
        assert a.frame.ndeg == b.frame.ndeg


def test_twin_matches_plain_baseline():
    rng = random.Random(2202)
    n, edges = gnm(14, 30, 5)
    a = BaselineGraph(n, edges)
    b = CountingBaselineGraph(n, edges)
    stack = []
    for _ in range(200):
        r = rng.random()
        if r < 0.15:
            stack.append((a.snapshot(), b.snapshot()))
        elif r < 0.3 and stack:
            sa, sb = stack.pop()
            a.restore(sa)
            b.restore(sb)
        elif r < 0.7 and a.active_edge_count():
            v = a.max_degree_vertex()
            w = min(a.neighbors(v))
            a.delete_edge(v, w)
            b.delete_edge(v, w)
        elif a.active_count():
            v = max(a.active_vertices())
            a.delete_vertex(v)
            b.delete_vertex(v)
        assert a.active_count() == b.active_count()
        assert a.active_edge_count() == b.active_edge_count()
        for v in a.active_vertices():
            assert a.neighbors(v) == b.neighbors(v)


def test_star_center_deletion_hybrid_beats_baseline():
    # K_{1,50}: deleting the oldest leaf forces the baseline to walk to
    # the far end of the hub's 50-cell chain to find the twin cell; the
    # hybrid pays a constant.  (Chains grow at the head, so leaf 1's
    # twin sits deepest.)
    n, edges = star(50)
    h = CountingHybridGraph(n, edges)
    b = CountingBaselineGraph(n, edges)
    h.delete_vertex(1)
    b.delete_vertex(1)
    hy = h.counters.accesses("delete_vertex")
    ba = b.counters.accesses("delete_vertex")
    assert hy <= 17 * 2
    assert ba > hy
    assert ba > 50  # chain walk dominates


def test_counter_dict_roundtrip():
    g = CountingHybridGraph(G8_N, G8_EDGES)
    g.delete_edge(0, 1)
    g.is_adjacent(0, 1)
    d = g.counters.as_dict()
    assert d["delete_edge"]["calls"] == 1
    assert d["delete_edge"]["reads"] == 6
    assert d["delete_edge"]["writes"] == 10
    assert g.counters.total_accesses() == sum(
        v["reads"] + v["writes"] for v in d.values()
    )
