"""Cell counting on the plain op bodies: behavior identical to the
plain classes, measured per-operation access counts, and the
flat-undo versus log-replay cost contrast on a star graph.

Counts include the reads of ``assert`` guards, so each exact constant
is written as its guard-free part plus ``__debug__`` times the guard
reads; ``test_readme_costs_without_asserts`` checks the guard-free part
under ``python -O``.
"""

import json
import os
import random
import subprocess
import sys

import pytest

import hybridgraph
from hybridgraph.addition import AdditionGraph
from hybridgraph.baseline import BaselineGraph
from hybridgraph.contraction import ContractionGraph
from hybridgraph.core import HybridGraph
from hybridgraph.instances import gen_random_gnm
from hybridgraph.instrumented import Cells, counting
from hybridgraph.solvers import build_representation, solve_vc_parm
from hybridgraph.solvers.common import _CLASSES

from helpers import G8_EDGES, G8_N, edge_count, gnm, slot_names, star, tables


def test_delete_edge_constant_cost():
    g = counting(HybridGraph)(G8_N, G8_EDGES)
    g.delete_edge(0, 3)
    assert g.counters.calls["delete_edge"] == 1
    assert g.counters.reads["delete_edge"] == 6 + 2 * __debug__
    assert g.counters.writes["delete_edge"] == 10
    g.delete_edge(2, 5)
    assert g.counters.reads["delete_edge"] == 2 * (6 + 2 * __debug__)
    assert g.counters.writes["delete_edge"] == 20


def test_is_adjacent_cost():
    g = counting(HybridGraph)(G8_N, G8_EDGES)
    g.is_adjacent(0, 7)  # im miss, one read
    assert g.counters.reads["is_adjacent"] == 1
    g.is_adjacent(0, 3)  # im hit plus degree check
    assert g.counters.reads["is_adjacent"] == 3
    assert g.counters.writes["is_adjacent"] == 0


def test_delete_vertex_linear_in_degree():
    g = counting(HybridGraph)(G8_N, G8_EDGES)
    d = g.degree(2)
    g.delete_vertex(2)
    # guard: the activity check plus one index check per edge
    assert g.counters.reads["delete_vertex"] == 3 + 4 * d + (1 + d) * __debug__
    assert g.counters.writes["delete_vertex"] == 5 + 5 * d
    assert g.counters.accesses("delete_vertex") <= 17 * (d + 1)
    # deleting an isolated vertex is constant
    h = counting(HybridGraph)(3, [])
    h.delete_vertex(1)
    assert h.counters.accesses("delete_vertex") == 8 + __debug__


def test_snapshot_restore_flat_cost():
    g = counting(HybridGraph)(G8_N, G8_EDGES)
    s = g.snapshot()
    assert g.counters.accesses("snapshot") == 2 * G8_N
    # burst of work, then one restore: cost stays n regardless
    g.delete_vertex(2)
    g.delete_vertex(5)
    g.delete_edge(0, 1)
    g.restore(s)
    assert g.counters.reads["restore"] == G8_N
    assert g.counters.writes["restore"] == G8_N


def test_addition_mode_costs():
    g = counting(AdditionGraph)(G8_N, G8_EDGES)
    g.add_edge(0, 7)
    # guard: the base-pair check and the adjacency check (an index miss),
    # one read each
    assert g.counters.reads["add_edge"] == 2 + 2 * __debug__
    assert g.counters.writes["add_edge"] == 6
    assert g.counters.calls == {"add_edge": 1}  # the nested check is add_edge's
    g.is_adjacent(0, 7)  # tail hit: index, degree, count, content
    assert g.counters.reads["is_adjacent"] == 4
    s = g.snapshot()
    assert g.counters.accesses("snapshot") == 2 * (2 * G8_N)
    g.restore(s)
    assert g.counters.reads["restore"] == 2 * G8_N


def _random_op(rng, g, mode, edited):
    """One op valid on g in `mode`, as (name, args)."""
    r = rng.random()
    # delete_edge takes member endpoints, also in contraction mode
    nbrs = HybridGraph.neighbors if mode == "contraction" else type(g).neighbors
    live = sorted((v, w) for v in g.active_vertices() for w in nbrs(g, v)
                  if v < w and (v, w) not in edited)
    if mode == "contraction":
        colors = [c for c in g.active_vertices() if g.degree(c)]
        if r < 0.3 and colors:
            c = rng.choice(colors)
            return "contract", (c, g.neighbors(c)[0])
        if r < 0.45 and g.active_count():
            return "delete_vertex", (rng.choice(g.active_vertices()),)
    elif r < 0.3 and mode in ("addition", "alist"):
        us = sorted(g.active_vertices())
        pairs = [(u, v) for i, u in enumerate(us) for v in us[i + 1:]
                 if not g.is_adjacent(u, v) and (u, v) not in edited]
        if pairs:
            return "add_edge", rng.choice(pairs)
    elif r < 0.45 and mode != "addition" and g.active_count():
        return "delete_vertex", (rng.choice(sorted(g.active_vertices())),)
    if r < 0.75 and live:
        return "delete_edge", rng.choice(live)
    v = rng.randrange(g.n)
    return rng.choice((("is_adjacent", (v, rng.randrange(g.n))),
                       ("degree", (v,)), ("active_vertices", ())))


@pytest.mark.parametrize("repr_name, mode", [
    ("hybrid", "plain"), ("hybrid", "addition"), ("hybrid", "contraction"),
    ("alist", "addition")])
def test_counting_matches_plain(repr_name, mode):
    rng = random.Random(2200)
    n, edges = gnm(14, 30, 5)
    a = build_representation(repr_name, mode, n, edges)
    b = build_representation(repr_name, mode, n, edges, instrumented=True)
    assert type(b).__mro__[1] is type(a)
    op_mode = "alist" if repr_name == "alist" else mode
    stack = []
    edited = set()  # pairs edited on the current path (addition discipline)
    for _ in range(300):
        r = rng.random()
        if r < 0.12:
            stack.append((a.snapshot(), b.snapshot(), set(edited)))
        elif r < 0.24 and stack:
            sa, sb, edited = stack.pop()
            a.restore(sa)
            b.restore(sb)
        else:
            op, args = _random_op(rng, a, op_mode, edited)
            if op in ("add_edge", "delete_edge"):
                edited.add(args)
            assert getattr(a, op)(*args) == getattr(b, op)(*args), op
        assert tables(a) == tables(b, type(a))
    totals = b.counters.as_dict()
    assert {"snapshot", "restore", "delete_edge"} <= set(totals)
    assert sum(t["reads"] + t["writes"] for t in totals.values()) > 0


def test_every_slot_list_is_counted():
    # a list a representation holds in a slot but the counting layer
    # left plain would cost 0 cells in every op that touches it
    for cls in set(_CLASSES.values()):
        g = counting(cls)(G8_N, G8_EDGES)
        for name in slot_names(type(g)):
            cells = getattr(g, name)
            if not isinstance(cells, list):
                continue
            if cells and isinstance(cells[0], list):   # a list of rows
                assert all(type(row) is Cells for row in cells), (cls, name)
            else:
                assert type(cells) is Cells, (cls, name)


def test_star_leaf_deletion_cost_is_depth_free():
    # K_{1,50}: chains grow at the head, so leaf 1's twin sits deepest in
    # the hub's 50-cell chain and leaf 50's at its head.  The twin index
    # c ^ 1 reaches either without a walk: both cost the same constant,
    # within the one prv write that only a twin with a successor needs.
    n, edges = star(50)
    costs = []
    for leaf in (1, 50):
        h = counting(HybridGraph)(n, edges)
        b = counting(BaselineGraph)(n, edges)
        h.delete_vertex(leaf)
        b.delete_vertex(leaf)
        hy = h.counters.accesses("delete_vertex")
        assert hy <= 17 * 2
        costs.append(b.counters.accesses("delete_vertex"))
    deepest, shallowest = costs
    assert deepest == 10 + 9 + __debug__   # d = 1: 5 + 5d reads, 7 + 2d writes
    assert shallowest == deepest + 1


def test_baseline_delete_vertex_cost_is_order_free():
    # every call costs 5 + 5d reads and 7 + 2d to 7 + 3d writes (one prv
    # write per twin that has a successor, and the log cell), whatever was
    # deleted before
    spec = gen_random_gnm(100, 3000, 1000)
    order = list(range(0, 100, 3))
    reads = []
    for vs in (order, order[::-1]):
        g = counting(BaselineGraph)(spec.n, spec.edges)
        c = g.counters
        for v in vs:
            d = g.degree(v)
            r, w = c.reads.get("delete_vertex", 0), c.writes.get("delete_vertex", 0)
            g.delete_vertex(v)
            dr = c.reads["delete_vertex"] - r
            dw = c.writes["delete_vertex"] - w
            assert dr == 5 + 5 * d + __debug__
            assert 7 + 2 * d <= dw <= 7 + 3 * d
            assert dr + dw <= 12 + 8 * d + __debug__
        reads.append(c.reads["delete_vertex"])
    # the degrees at deletion time sum to the edges incident to the set
    assert reads[0] == reads[1]


def test_baseline_edge_and_restore_costs():
    # the README's adjacency-list column: a chain scan to position j
    # reads 2 + 2j cells (1 + 2d on a miss); every cell unlinked,
    # relinked or prepended writes one more cell when it has a successor;
    # each mutation writes its log cell and each undone record reads it
    rng = random.Random(41)
    n, edges = gnm(30, 150, 4)
    g = counting(BaselineGraph)(n, edges)
    c = g.counters

    def cost(op, *args):
        r, w = c.reads.get(op, 0), c.writes.get(op, 0)
        getattr(g, op)(*args)
        return c.reads[op] - r, c.writes[op] - w

    for _ in range(60):
        s = g.snapshot()
        u = rng.choice([x for x in g.active_vertices() if g.degree(x)])
        nbrs = g.neighbors(u)   # chain order
        j = rng.randrange(len(nbrs))
        assert cost("is_adjacent", u, nbrs[j]) == (2 + 2 * j, 0)
        r, w = cost("delete_edge", u, nbrs[j])
        assert r == 10 + 2 * j and 5 <= w <= 7
        r, w = cost("restore", s)
        assert r == 9 and 4 <= w <= 6
        miss = next(x for x in g.active_vertices()
                    if x != u and x not in nbrs)
        d = g.degree(u)
        assert cost("is_adjacent", u, miss) == (1 + 2 * d, 0)
        r, w = cost("add_edge", u, miss)
        # one prv write per endpoint whose chain was not empty
        assert r == 4 + (1 + 2 * d) * __debug__
        assert w == 11 + (d > 0) + (g.degree(miss) > 1)
        r, w = cost("restore", s)
        assert r == 9 and 4 <= w <= 6
        d = g.degree(u)
        cost("delete_vertex", u)
        r, w = cost("restore", s)
        assert r == 1 + 5 * d + __debug__ and 2 + 2 * d <= w <= 2 + 3 * d
        if edge_count(g) > 40:   # vary the chains between rounds
            g.delete_vertex(u)


def test_baseline_activity_scans_cost_active_count():
    # with all but a few vertices deleted, the baseline's whole-graph
    # scans read the active prefix, not every vertex
    n, edges = gnm(200, 400, 3)
    g = counting(BaselineGraph)(n, edges)
    keep = 5
    for v in range(n - keep):
        g.delete_vertex(v)
    n_c = g.active_count()
    assert n_c == keep
    c = g.counters

    def cost(op):
        before = c.accesses(op)
        getattr(g, op)()
        return c.accesses(op) - before

    assert cost("active_vertices") == n_c


def test_counter_dict_roundtrip():
    g = counting(HybridGraph)(G8_N, G8_EDGES)
    g.delete_edge(0, 1)
    g.is_adjacent(0, 1)
    d = g.counters.as_dict()
    assert d["delete_edge"]["calls"] == 1
    assert d["delete_edge"]["reads"] == 6 + 2 * __debug__
    assert d["delete_edge"]["writes"] == 10


_README_PROBE = """
import json
from hybridgraph import AdditionGraph, ContractionGraph, HybridGraph
from hybridgraph.instrumented import counting

def cost(g, op, *args):
    c = g.counters
    r, w = c.reads.get(op, 0), c.writes.get(op, 0)
    getattr(g, op)(*args)
    return [c.reads[op] - r, c.writes[op] - w]

n = 8
edges = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (4, 5)]
g = counting(HybridGraph)(n, edges)
out = {"is_adjacent miss": cost(g, "is_adjacent", 0, 7),
       "is_adjacent hit": cost(g, "is_adjacent", 0, 1),
       "delete_edge": cost(g, "delete_edge", 2, 3)}
s = g.snapshot()
out["snapshot"] = [g.counters.reads["snapshot"], g.counters.writes["snapshot"]]
for v in (4, 0, 6):  # degrees 1, 3, 0
    d = g.degree(v)
    out[f"delete_vertex d={d}"] = cost(g, "delete_vertex", v)
out["restore"] = cost(g, "restore", s)
a = counting(AdditionGraph)(n, edges)
out["add_edge"] = cost(a, "add_edge", 0, 7)
out["addition is_adjacent tail hit"] = cost(a, "is_adjacent", 0, 7)
s = a.snapshot()
out["addition restore"] = cost(a, "restore", s)
c = counting(ContractionGraph)(n, edges)
s = c.snapshot()
out["contraction snapshot"] = [c.counters.reads["snapshot"],
                               c.counters.writes["snapshot"]]
out["contract"] = cost(c, "contract", 0, 1)
out["delete_vertex of a singleton color"] = cost(c, "delete_vertex", 2)
out["delete_vertex of a 2-member color"] = cost(c, "delete_vertex", 0)
out["contraction restore"] = cost(c, "restore", s)
print(json.dumps(out))
"""


def test_readme_costs_without_asserts():
    """The README cost table's guard-free constants, measured under -O."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hybridgraph.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", _README_PROBE], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    got = json.loads(out.stdout)
    n = 8
    want = {"is_adjacent miss": [1, 0], "is_adjacent hit": [2, 0],
            "delete_edge": [6, 10], "snapshot": [n, n], "restore": [n, n],
            "add_edge": [2, 6], "addition is_adjacent tail hit": [4, 0],
            "addition restore": [2 * n, 2 * n]}
    for d in (1, 3, 0):
        want[f"delete_vertex d={d}"] = [3 + 4 * d, 5 + 5 * d]
    want["contraction snapshot"] = want["contraction restore"] = [3 * n, 3 * n]
    # contract(0, 1): cc_u = cc_v = 1, d_u = 3, d_v = 2 (color degrees),
    # and r = 1 (color 2), whose redundant edge (1, 2) goes
    su, du, sv, dv, r = 1, 3, 1, 2, 1
    want["contract"] = [12 + 2 * (su + du) + 3 * sv + 3 * dv + 6 * r,
                        15 + du + 2 * sv + dv + 9 * r]
    # color 2 is then a singleton of degree 2 (colors 0 and 3), and
    # color 0 = {0, 1} keeps one edge, to color 3
    d = 2
    want["delete_vertex of a singleton color"] = [4 + 4 * d, 6 + 5 * d]
    cc, d = 2, 1
    want["delete_vertex of a 2-member color"] = [3 + 2 * cc + 7 * d, 5 + 10 * d]
    assert got == want


def test_contraction_ops_counted():
    n, edges = gnm(16, 40, 7)
    res = solve_vc_parm(n, edges, 9, fold=True, instrumented=True)
    plain = solve_vc_parm(n, edges, 9, fold=True)
    assert (res.answer, res.nodes) == (plain.answer, plain.nodes)
    assert res.counters["contract"]["calls"] > 0
    assert res.counters["delete_vertex"]["calls"] > 0

    # delete_vertex is linear in cc(c) + d(c), the color's member count
    # and degree; contract in the sizes and degrees of both sides plus
    # r, the colors adjacent to both
    rng = random.Random(7)
    g = counting(ContractionGraph)(n, edges)
    g.snapshot()  # deg, vcolor and cc
    assert g.counters.accesses("snapshot") == 2 * (3 * n)
    checked = 0
    while edge_count(g):
        c = rng.choice([c for c in g.active_vertices() if g.degree(c)])
        c0 = g.counters.as_dict()
        if rng.random() < 0.3:
            cc, d = g.cc[c], g.degree(c)
            g.delete_vertex(c)
            if cc == 1:   # the plain vertex deletion
                reads, writes = 4 + 4 * d + (1 + d) * __debug__, 6 + 5 * d
            else:         # one delete_edge per member edge
                reads = 3 + 2 * cc + 7 * d + (1 + 2 * d) * __debug__
                writes = 5 + 10 * d
            want = {"delete_vertex": (reads, writes)}
        else:
            cv = g.neighbors(c)[0]
            su, sv, du, dv = g.cc[c], g.cc[cv], g.degree(c), g.degree(cv)
            r = len(set(g.neighbors(c)) & set(g.neighbors(cv)))
            g.contract(c, cv)
            want = {"contract": (12 + 2 * (su + du) + 3 * sv + 3 * dv + 6 * r
                                 + (4 + 2 * r) * __debug__,
                                 15 + du + 2 * sv + dv + 9 * r)}
        for op, (reads, writes) in want.items():
            before = c0.get(op, {"reads": 0, "writes": 0})
            after = g.counters.as_dict()[op]
            assert (after["reads"] - before["reads"],
                    after["writes"] - before["writes"]) == (reads, writes), op
            checked += 1
    assert checked > 3
