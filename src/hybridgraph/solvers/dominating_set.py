"""Exact minimum dominating set, solved as minimum set cover.

The instance becomes a bipartite graph on 2n vertices: vertex i < n is
the candidate set "closed neighborhood of i", vertex n + j is the
element "j still needs domination", and an edge (i, n + j) means i
dominates j.  Including a set deletes it and every element it covers;
excluding a set just deletes it.

Each round is one unsorted scan of the active vertices (``_scan``).
Every element of frequency one forces its set.  No scan meets an
uncovered element: set j covers element j, every element is at
frequency >= 2 after the forced sets, and an exclusion lowers it by
at most one, so every scan sees frequency >= 1.  All forced sets
are taken in one pass: including a set deletes the elements it covers
and no other element's frequency changes, so the forced sets are the
same whatever the order, and an element already covered by an earlier
forced set is skipped.  One more scan, only if a set was forced, gives
the bound, elements left over largest-set size, and the branching set:
the largest set, lowest id on ties.  The rule breaks ties explicitly,
so node counts do not depend on the scan order and are
representation-independent.  The incumbent starts as every set, and
the first dive is a greedy.
"""

from ..core import HybridGraph, check_vertex_count
from .common import Search, build_representation, timed
from .verify import verify_ds


def cover_edges(n, edges):
    """Bipartite set/element edges for the closed neighborhoods."""
    out = [(i, n + i) for i in range(n)]
    out.extend((u, n + v) for u, v in edges)
    out.extend((v, n + u) for u, v in edges)
    return out


class _CoverSearch(Search):
    def _scan(self):
        """One pass over the active vertices.  Returns the number of
        elements left, the elements of frequency one, and the largest
        set (lowest id on ties) with its size, which is >= 1 while an
        element is left: every element has frequency >= 1 here."""
        g = self.g
        n = g.n // 2   # sets are 0..n-1, elements n..2n-1
        left = 0
        ones = []
        pick = None
        size = 0
        for v in g.active_vertices():
            d = g.degree(v)
            if v >= n:
                left += 1
                if d == 1:
                    ones.append(v)
            elif d > size or (d == size and d and v < pick):
                pick = v
                size = d
        return left, ones, pick, size

    def _include(self, s):
        g = self.g
        self.trail.append(s)
        for e in g.neighbors(s):
            g.delete_vertex(e)
        g.delete_vertex(s)

    def expand(self, take, drop=()):
        """Branch edit: include the sets in ``take``, exclude those in
        ``drop``."""
        g = self.g
        trail = self.trail
        for s in take:
            self._include(s)
        for s in drop:
            g.delete_vertex(s)
        left, ones, pick, size = self._scan()
        if ones:
            for e in ones:
                if g.is_active(e):
                    self._include(g.neighbors(e)[0])
            left, _, pick, size = self._scan()
        if not left:
            if len(trail) < len(self.best):
                self.best = list(trail)
        elif len(trail) + -(-left // size) < len(self.best):
            self.node((pick,))
            if len(trail) + 1 < len(self.best):
                self.node((), (pick,))


def solve_ds_opt(n, edges, repr_name="hybrid", timeout=None,
                 instrumented=False):
    """Minimum dominating set size with a witness."""
    edges = list(edges)  # read again to verify the witness
    check_vertex_count(n)   # 2 * n would take True for 2
    try:
        g = build_representation(repr_name, "plain", 2 * n,
                                 cover_edges(n, edges), instrumented)
    except (TypeError, ValueError):
        # a valid graph has a valid cover graph, so an input fault raises
        # here, in the caller's numbering; any other error is re-raised
        HybridGraph(n, edges)
        raise
    search = _CoverSearch(g, timeout)
    witness, wall = timed(n + 1, search.run, list(range(n)))
    if not verify_ds(n, edges, witness):
        raise RuntimeError("cover search produced an invalid dominating set")
    return search.result("ds", n, len(witness), witness, wall, repr_name)
