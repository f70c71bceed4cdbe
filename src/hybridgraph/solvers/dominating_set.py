"""Exact minimum dominating set, solved as minimum set cover.

The instance becomes a bipartite graph on 2n vertices: vertex i < n is
the candidate set "closed neighborhood of i", vertex n + j is the
element "j still needs domination", and an edge (i, n + j) means i
dominates j.  Including a set deletes it and every element it covers;
excluding a set just deletes it.  Elements of frequency one force
their set; elements of frequency zero kill the branch.  The bound is
elements-left over largest-set-size.  Branching picks the largest set
(lowest id on ties), so node counts are representation-independent.
"""

import time

from .common import (
    Deadline,
    SolveTimeout,
    SolverResult,
    build_representation,
    harvest_counters,
    recursion_limit,
)
from .verify import verify_ds


def cover_edges(n, edges):
    """Bipartite set/element edges for the closed neighborhoods."""
    out = [(i, n + i) for i in range(n)]
    out.extend((u, n + v) for u, v in edges)
    out.extend((v, n + u) for u, v in edges)
    return out


class _CoverSearch:
    def __init__(self, g, n, deadline):
        self.g = g
        self.n = n
        self.deadline = deadline
        self.nodes = 0
        self.partial = []
        self.best = None

    def _sets_and_elements(self):
        n = self.n
        sets = []
        elems = []
        for v in self.g.active_vertices():
            (sets if v < n else elems).append(v)
        return sets, elems

    def _include(self, s):
        g = self.g
        self.partial.append(s)
        for e in sorted(g.neighbors(s)):
            g.delete_vertex(e)
        g.delete_vertex(s)

    def greedy(self):
        g = self.g
        snap = g.snapshot()
        mark = len(self.partial)
        while True:
            sets, elems = self._sets_and_elements()
            if not elems:
                break
            best_s = None
            best_d = 0
            for s in sorted(sets):
                d = g.degree(s)
                if d > best_d:
                    best_s = s
                    best_d = d
            self._include(best_s)
        cover = list(self.partial)
        del self.partial[mark:]
        g.restore(snap)
        return cover

    def run(self):
        self.best = self.greedy()
        self.search()
        return sorted(self.best)

    def search(self):
        self.nodes += 1
        if self.deadline.expired():
            raise SolveTimeout
        g = self.g
        partial = self.partial
        mark = len(partial)
        snap = g.snapshot()
        feasible = True
        while True:
            reduced = False
            sets, elems = self._sets_and_elements()
            for e in sorted(elems):
                d = g.degree(e)
                if d == 0:
                    feasible = False
                    break
                if d == 1:
                    self._include(g.neighbors(e)[0])
                    reduced = True
                    break
            if not feasible:
                break
            if not reduced:
                for s in sorted(sets):
                    if g.degree(s) == 0:
                        g.delete_vertex(s)
                        reduced = True
            if not reduced:
                break
        if feasible:
            sets, elems = self._sets_and_elements()
            if not elems:
                if len(partial) < len(self.best):
                    self.best = list(partial)
            elif sets:
                max_card = 0
                pick = None
                for s in sorted(sets):
                    d = g.degree(s)
                    if d > max_card:
                        max_card = d
                        pick = s
                need = -(-len(elems) // max_card) if max_card else len(elems)
                if max_card and len(partial) + need < len(self.best):
                    s2 = g.snapshot()
                    self._include(pick)
                    self.search()
                    g.restore(s2)
                    partial.pop()
                    if len(partial) + 1 < len(self.best):
                        s2 = g.snapshot()
                        g.delete_vertex(pick)
                        self.search()
                        g.restore(s2)
        g.restore(snap)
        del partial[mark:]


def solve_ds_opt(n, edges, repr_name="hybrid", timeout=None,
                 instrumented=False):
    """Minimum dominating set size with a witness."""
    if n == 0:
        return SolverResult("ds", 0, 0, [], 0, 0.0, repr_name, size=0)
    g = build_representation(repr_name, "plain", 2 * n, cover_edges(n, edges),
                             instrumented)
    search = _CoverSearch(g, n, Deadline(timeout))
    with recursion_limit(max(10_000, 8 * n + 100)):
        t0 = time.perf_counter()
        witness = search.run()
        wall = (time.perf_counter() - t0) * 1e3
    if not verify_ds(n, edges, witness):
        raise RuntimeError("cover search produced an invalid dominating set")
    return SolverResult("ds", n, len(witness), witness, search.nodes, wall,
                        repr_name, size=len(witness),
                        counters=harvest_counters(g))
