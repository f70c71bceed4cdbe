"""One-sided vertex and color deletion against the per-edge reference.

``HybridGraph.delete_vertex`` updates only the far endpoint's row per
edge, and ``ContractionGraph.delete_vertex`` runs it on a singleton
color.  The reference bodies below are the per-edge formulation: one
full two-sided ``HybridGraph.delete_edge`` per live edge, taken from
the top of the prefix down.  Random operation sequences must leave every
table and search-local vector identical under both, and every color's
degree equal to its count of neighbor colors."""

import random

import pytest

from hybridgraph.addition import AdditionGraph
from hybridgraph.contraction import ContractionGraph
from hybridgraph.core import HybridGraph

from helpers import color_members, color_of, gnm, tables


def _swap_out(g, v):
    vlist = g.vlist
    idxlist = g.idxlist
    last = g.n_c - 1
    i = idxlist[v]
    w = vlist[last]
    vlist[i] = w
    idxlist[w] = i
    vlist[last] = v
    idxlist[v] = last
    g.n_c = last


def ref_delete_vertex(g, v):
    assert g.idxlist[v] < g.n_c
    _swap_out(g, v)
    row = g.al[v]
    for j in range(g.deg[v] - 1, -1, -1):
        HybridGraph.delete_edge(g, row[j], v)


def ref_delete_color(g, c):
    assert g.idxlist[c] < g.n_c
    deg = g.deg
    members = g.csl[c]
    for idx in range(g.cc[c]):
        b = members[idx]
        row = g.al[b]
        for j in range(deg[b] - 1, -1, -1):
            HybridGraph.delete_edge(g, b, row[j])
    g.cc[c] = 0
    _swap_out(g, c)


def assert_same(a, b):
    assert tables(a) == tables(b)
    if isinstance(a, ContractionGraph):
        for c in a.active_vertices():
            assert a.degree(c) == len(a.neighbors(c))


def _live_edge(g, rng):
    """A live base edge (v, w), or None."""
    vs = [v for v in g.active_vertices() if g.deg[v]]
    if not vs:
        return None
    v = rng.choice(sorted(vs))
    return v, rng.choice(sorted(g.al[v][: g.deg[v]]))


@pytest.mark.parametrize("cls", [HybridGraph, AdditionGraph])
def test_delete_vertex_matches_per_edge_reference(cls):
    rng = random.Random(7310 if cls is HybridGraph else 7311)
    for trial in range(60):
        n = rng.randrange(2, 24)
        max_m = n * (n - 1) // 2
        m = rng.randrange(0, max_m + 1)
        _, edges = gnm(n, m, rng.randrange(1 << 30))
        base = {frozenset(e) for e in edges}
        new = cls(n, edges)
        ref = cls(n, edges)
        stack = []
        for _ in range(rng.randrange(10, 50)):
            r = rng.random()
            if r < 0.15:
                stack.append((new.snapshot(), ref.snapshot()))
            elif r < 0.3 and stack:
                sn, sr = stack.pop()
                new.restore(sn)
                ref.restore(sr)
            elif r < 0.5 and (e := _live_edge(new, rng)):
                new.delete_edge(*e)
                ref.delete_edge(*e)
            elif r < 0.65 and cls is AdditionGraph:
                act = sorted(new.active_vertices())
                pairs = [(u, v) for i, u in enumerate(act) for v in act[i + 1:]
                         if frozenset((u, v)) not in base
                         and not new.is_adjacent(u, v)]
                if pairs:
                    u, v = rng.choice(pairs)
                    new.add_edge(u, v)
                    ref.add_edge(u, v)
            elif new.active_count():
                v = rng.choice(sorted(new.active_vertices()))
                new.delete_vertex(v)
                ref_delete_vertex(ref, v)
            assert_same(new, ref)


def _member_edge(g, rng):
    """Members (u, v) of two distinct adjacent active colors, or None."""
    cs = [c for c in g.active_vertices() if g.degree(c)]
    if not cs:
        return None
    c = rng.choice(sorted(cs))
    u = next(x for x in color_members(g, c) if g.deg[x])
    return u, rng.choice(sorted(HybridGraph.neighbors(g, u)))


def test_delete_color_matches_per_edge_reference():
    rng = random.Random(7312)
    for trial in range(60):
        n = rng.randrange(2, 24)
        max_m = n * (n - 1) // 2
        m = rng.randrange(0, max_m + 1)
        _, edges = gnm(n, m, rng.randrange(1 << 30))
        new = ContractionGraph(n, edges)
        ref = ContractionGraph(n, edges)
        stack = []
        for _ in range(rng.randrange(10, 50)):
            r = rng.random()
            if r < 0.15:
                stack.append((new.snapshot(), ref.snapshot()))
            elif r < 0.3 and stack:
                sn, sr = stack.pop()
                new.restore(sn)
                ref.restore(sr)
            elif r < 0.55 and (e := _member_edge(new, rng)):
                cu, cv = (color_of(new, x) for x in e)
                new.contract(cu, cv)
                ref.contract(cu, cv)
            elif r < 0.7 and (e := _member_edge(new, rng)):
                new.delete_edge(*e)
                ref.delete_edge(*e)
            elif new.active_count():
                c = rng.choice(sorted(new.active_vertices()))
                new.delete_vertex(c)
                ref_delete_color(ref, c)
            assert_same(new, ref)
