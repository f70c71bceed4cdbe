"""Permanent-edge mode.

Neighbor rows are padded to length n at build time so that edges added
during the search can live in tail slots: the t-th addition at a vertex
occupies slot n - t, growing downward, with the search-local ``ndeg``
counting additions the way ``deg`` counts the live base prefix.  An
added pair is permanent for the rest of its search path; only
``restore()`` removes it (by rolling ``ndeg`` back, which abandons the
tail slots in place).

Because abandoned tail slots are never cleaned, the adjacency test has
to defend against a slot being reused by a different later addition:
after the range check it confirms the slot still names the queried
vertex.  Four cell reads worst case.

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
snapshots where the base edge was live.  Under the discipline a
vertex's additions are distinct original non-neighbors, so the tail
never grows past the padded area; ``add_edge`` asserts that bound as a
backstop.
"""

from .core import HybridGraph


class AdditionGraph(HybridGraph):
    __slots__ = ("base_deg", "ndeg")

    def __init__(self, n, edges):
        super().__init__(n, edges)
        self.base_deg = list(self.deg)
        for row in self.al:
            row.extend([-1] * (n - len(row)))  # -1 marks never-written slots
        self.ndeg = [0] * n

    def is_adjacent(self, u, v):
        i = self.im[u][v]
        if i == -1:
            return False
        if i < self.deg[v]:
            return True
        return self.n - 1 - i < self.ndeg[v] and self.al[v][i] == u

    def neighbors(self, v):
        row = self.al[v]
        out = row[: self.deg[v]]
        nd = self.ndeg[v]
        if nd:
            out.extend(row[self.n - nd :])
        return out

    def degree(self, v):
        return self.deg[v] + self.ndeg[v]

    def add_edge(self, u, v):
        """Permanently add non-adjacent pair (u,v) on this search path."""
        n = self.n
        ndeg = self.ndeg
        assert u != v, "self-loop"
        assert not AdditionGraph.is_adjacent(self, u, v), \
            f"add_edge on adjacent pair ({u},{v})"
        # tail inside the padded area; holds iff each pair is edited at
        # most once per path
        assert ndeg[u] < n - self.base_deg[u], f"tail overflow at {u}"
        assert ndeg[v] < n - self.base_deg[v], f"tail overflow at {v}"
        slot = n - 1 - ndeg[u]
        self.al[u][slot] = v
        self.im[v][u] = slot
        ndeg[u] += 1
        slot = n - 1 - ndeg[v]
        self.al[v][slot] = u
        self.im[u][v] = slot
        ndeg[v] += 1

    def snapshot(self):
        return HybridGraph.snapshot(self), self.ndeg.copy()

    def restore(self, saved):
        plain, ndeg = saved
        HybridGraph.restore(self, plain)
        self.ndeg[:] = ndeg
