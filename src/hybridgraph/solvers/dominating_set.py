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

from .common import Search, build_representation, timed
from .verify import verify_ds


def cover_edges(n, edges):
    """Bipartite set/element edges for the closed neighborhoods."""
    out = [(i, n + i) for i in range(n)]
    out.extend((u, n + v) for u, v in edges)
    out.extend((v, n + u) for u, v in edges)
    return out


class _CoverSearch(Search):
    def __init__(self, g, timeout, n):
        super().__init__(g, timeout)
        self.n = n
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
        self.trail.append(s)
        for e in sorted(g.neighbors(s)):
            g.delete_vertex(e)
        g.delete_vertex(s)

    def greedy(self):
        g = self.g
        snap = g.snapshot()
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
        g.restore(snap)
        cover, self.trail = self.trail, []
        return cover

    def run(self):
        self.best = self.greedy()
        self.node(())
        return sorted(self.best)

    def expand(self, take, drop=()):
        """Branch edit: include the sets in ``take``, exclude those in
        ``drop``."""
        g = self.g
        trail = self.trail
        for s in take:
            self._include(s)
        for s in drop:
            g.delete_vertex(s)
        while True:
            reduced = False
            sets, elems = self._sets_and_elements()
            for e in sorted(elems):
                d = g.degree(e)
                if d == 0:
                    return
                if d == 1:
                    self._include(g.neighbors(e)[0])
                    reduced = True
                    break
            if not reduced:
                for s in sorted(sets):
                    if g.degree(s) == 0:
                        g.delete_vertex(s)
                        reduced = True
            if not reduced:
                break
        sets, elems = self._sets_and_elements()
        if not elems:
            if len(trail) < len(self.best):
                self.best = list(trail)
        elif sets:
            max_card = 0
            pick = None
            for s in sorted(sets):
                d = g.degree(s)
                if d > max_card:
                    max_card = d
                    pick = s
            need = -(-len(elems) // max_card) if max_card else len(elems)
            if max_card and len(trail) + need < len(self.best):
                self.node((pick,))
                if len(trail) + 1 < len(self.best):
                    self.node((), (pick,))


def solve_ds_opt(n, edges, repr_name="hybrid", timeout=None,
                 instrumented=False):
    """Minimum dominating set size with a witness."""
    g = build_representation(repr_name, "plain", 2 * n, cover_edges(n, edges),
                             instrumented)
    search = _CoverSearch(g, timeout, n)
    witness, wall = timed(n + 1, search.run)
    if not verify_ds(n, edges, witness):
        raise RuntimeError("cover search produced an invalid dominating set")
    return search.result("ds", n, len(witness), witness, wall, repr_name)
