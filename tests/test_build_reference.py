"""The adjacency-list build and ``add_edge`` against the per-cell
reference.

``BaselineGraph`` allocates every cell in one loop, ``_add_cells``,
shared by the build and ``add_edge``.  The reference below is the
per-cell formulation it replaced: one ``_new_cell`` call per cell, in
twin pairs, with a tuple key per duplicate check.  Built graphs, and
graphs after random ``add_edge``/``delete_edge``/``delete_vertex``/
``restore`` sequences, must hold identical cell arrays and chains under
both."""

import random

from hybridgraph.baseline import BaselineGraph
from hybridgraph.core import GraphBuildError
from hybridgraph.solvers.dominating_set import cover_edges

from helpers import gnm, tables


class RefBaseline(BaselineGraph):
    """The per-cell build and ``add_edge``."""

    __slots__ = ()

    def __init__(self, n, edges):
        if n < 0:
            raise GraphBuildError(f"negative vertex count {n}")
        self.n = n
        self.nbr = []
        self.prv = []
        self.nxt = []
        self.head = [-1] * n
        self.deg = [0] * n
        self.vlist = list(range(n))
        self.idxlist = list(range(n))
        self.n_c = n
        self.log = []
        seen = set()
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise GraphBuildError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphBuildError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphBuildError(f"duplicate edge ({u},{v})")
            seen.add(key)
            self._new_cell(u, v)
            self._new_cell(v, u)

    def _new_cell(self, o, w):
        """Prepend a cell (neighbor w) to o's chain.  Called in twin
        pairs, (u, v) then (v, u), so the twin of cell c is c ^ 1."""
        c = len(self.nbr)
        self.nbr.append(w)
        self.prv.append(-1)
        first = self.head[o]
        self.nxt.append(first)
        if first != -1:
            self.prv[first] = c
        self.head[o] = c
        self.deg[o] += 1
        return c

    def add_edge(self, u, v):
        """Permanently add pair (u,v); undone only via restore."""
        assert u != v, "self-loop"
        assert not BaselineGraph.is_adjacent(self, u, v), \
            f"add_edge on adjacent pair ({u},{v})"
        cu = self._new_cell(u, v)
        self._new_cell(v, u)
        self.log.append(("add", cu))


def assert_same_cells(a, b):
    assert a.nbr == b.nbr
    assert a.prv == b.prv
    assert a.nxt == b.nxt
    assert a.head == b.head
    assert a.deg == b.deg


def assert_same(a, b):
    assert tables(a) == tables(b)


def oriented(edges, rng):
    """The edges in shuffled order, each in a random orientation."""
    out = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(out)
    return out


def test_build_matches_per_cell_reference():
    rng = random.Random(2401)
    for trial in range(80):
        n = rng.randrange(0, 30)
        m = rng.randrange(0, n * (n - 1) // 2 + 1)
        _, edges = gnm(n, m, rng.randrange(1 << 30))
        edges = oriented(edges, rng)
        assert_same(BaselineGraph(n, edges), RefBaseline(n, edges))


def test_build_matches_per_cell_reference_on_a_cover_graph():
    # the dominating-set search builds the set/element graph
    rng = random.Random(2402)
    n, edges = gnm(40, 300, 24)
    cover = cover_edges(n, oriented(edges, rng))
    assert_same(BaselineGraph(2 * n, cover), RefBaseline(2 * n, cover))


def test_mutations_match_per_cell_reference():
    rng = random.Random(2403)
    for trial in range(50):
        n = rng.randrange(2, 22)
        m = rng.randrange(0, n * (n - 1) // 2 + 1)
        _, edges = gnm(n, m, rng.randrange(1 << 30))
        edges = oriented(edges, rng)
        new = BaselineGraph(n, edges)
        ref = RefBaseline(n, edges)
        stack = []
        for _ in range(rng.randrange(10, 60)):
            act = sorted(new.active_vertices())
            live = [(u, w) for u in act for w in new.neighbors(u) if u < w]
            non = [(u, w) for i, u in enumerate(act) for w in act[i + 1:]
                   if not new.is_adjacent(u, w)]
            r = rng.random()
            if r < 0.15:
                stack.append(new.snapshot())
                assert ref.snapshot() == stack[-1]
            elif r < 0.3 and stack:
                mark = stack.pop()
                new.restore(mark)
                ref.restore(mark)
            elif r < 0.55 and non:
                u, w = rng.choice(non)
                if rng.random() < 0.5:
                    u, w = w, u
                new.add_edge(u, w)
                ref.add_edge(u, w)
            elif r < 0.8 and live:
                u, w = rng.choice(live)
                new.delete_edge(u, w)
                ref.delete_edge(u, w)
            elif act:
                v = rng.choice(act)
                new.delete_vertex(v)
                ref.delete_vertex(v)
            assert_same(new, ref)
        new.restore(0)
        ref.restore(0)
        assert_same(new, ref)
        # undo leaves the vertex order permuted, but every chain as built
        assert_same_cells(new, RefBaseline(n, edges))
