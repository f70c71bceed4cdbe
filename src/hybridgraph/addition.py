"""Permanent-edge mode.

Edges added during the search live in per-vertex tails, apart from the
base rows: the t-th addition at v is ``tail[v][t]``, and its index entry
is ``n + t``, so an ``im`` value of n or more names a tail slot and
never a base slot.  The search-local ``ndeg`` counts the live tail the
way ``deg`` counts the live base prefix.  An added pair is permanent for
the rest of its search path; only ``restore()`` removes it, by rolling
``ndeg`` back and leaving the tail slots stale in place.  The next
addition at that vertex cuts the stale tail before it appends, so a
slot may come to hold a different partner: after the range check the
adjacency test confirms the slot still names the queried vertex.  Four
cell reads worst case.

Base edges keep plain-mode behavior.  ``delete_edge`` works on live
base edges only; added pairs must never be deleted (callers enforce
this, e.g. with a frozen-pair set).  ``delete_vertex`` clears only the
base prefix, so it is only safe for callers that remove whole
components at a time, where every added edge's endpoints leave the
active set together.

Caller discipline: each unordered pair may be edited (deleted or
added) at most once per root-to-node search path.  Re-adding a pair
whose base edge was deleted earlier on the same path would repoint the
pair's index entries at tail slots and silently break restores to
snapshots where the base edge was live.  ``add_edge`` asserts that the
pair's index entry names no base slot, which catches that re-add at
the call that makes it.
"""

from .core import HybridGraph


class AdditionGraph(HybridGraph):
    __slots__ = ("tail", "ndeg")

    def __init__(self, n, edges):
        super().__init__(n, edges)
        self.tail = [[] for _ in range(n)]
        self.ndeg = [0] * n

    def is_adjacent(self, u, v):
        i = self.im[u][v]
        if i == -1:
            return False
        if i < self.deg[v]:
            return True
        t = i - self.n
        return 0 <= t < self.ndeg[v] and self.tail[v][t] == u

    def neighbors(self, v):
        out = self.al[v][: self.deg[v]]
        nd = self.ndeg[v]
        if nd:
            out.extend(self.tail[v][:nd])
        return out

    def degree(self, v):
        return self.deg[v] + self.ndeg[v]

    def add_edge(self, u, v):
        """Permanently add non-adjacent pair (u,v) on this search path."""
        n = self.n
        im = self.im
        ndeg = self.ndeg
        assert u != v, "self-loop"
        assert not -1 < im[u][v] < n, f"add_edge on base pair ({u},{v})"
        assert not AdditionGraph.is_adjacent(self, u, v), \
            f"add_edge on adjacent pair ({u},{v})"
        t = ndeg[u]
        row = self.tail[u]
        del row[t:]  # cut the stale tail before appending
        row.append(v)
        im[v][u] = n + t
        ndeg[u] = t + 1
        t = ndeg[v]
        row = self.tail[v]
        del row[t:]
        row.append(u)
        im[u][v] = n + t
        ndeg[v] = t + 1

    def snapshot(self):
        return HybridGraph.snapshot(self), self.ndeg.copy()

    def restore(self, saved):
        plain, ndeg = saved
        HybridGraph.restore(self, plain)
        self.ndeg[:] = ndeg
