"""Counting twins of the representations.

These subclasses add explicit cell-access tallies (one count per
array slot read or written) to the hot operations, so tests can assert
the structural cost contracts: constant-cell edge deletion,
at-most-four-read adjacency, O(d) vertex deletion, O(n) restore
independent of how much work it undoes.  Guard reads made only by
``assert`` are not counted.

The hybrid twins' mutations call the plain bodies and bump the cells
those bodies touch; queries that count per branch (``is_adjacent``)
and the baseline's chain scans are re-implemented.  The plain classes
carry no counters at all; benchmarking uses them.  Equivalence of twin
and plain behavior is property-tested.

Counter attribution: nested work belongs to the outermost operation
(vertex deletion absorbs the cells its edge removals touch), so the
per-class totals partition all counted work.
"""

from .addition import AdditionGraph
from .baseline import BaselineGraph
from .core import HybridGraph


class OpCounters:
    """Monotone per-operation-class tallies of calls and cell accesses."""

    __slots__ = ("calls", "reads", "writes")

    def __init__(self):
        self.calls = {}
        self.reads = {}
        self.writes = {}

    def bump(self, op, reads, writes):
        self.calls[op] = self.calls.get(op, 0) + 1
        self.reads[op] = self.reads.get(op, 0) + reads
        self.writes[op] = self.writes.get(op, 0) + writes

    def accesses(self, op):
        return self.reads.get(op, 0) + self.writes.get(op, 0)

    def total_accesses(self):
        return sum(self.reads.values()) + sum(self.writes.values())

    def as_dict(self):
        return {
            op: {
                "calls": self.calls[op],
                "reads": self.reads.get(op, 0),
                "writes": self.writes.get(op, 0),
            }
            for op in sorted(self.calls)
        }


class CountingHybridGraph(HybridGraph):
    __slots__ = ("counters",)

    def _init_mode(self):
        super()._init_mode()
        self.counters = OpCounters()

    def is_adjacent(self, u, v):
        i = self.im[u][v]
        if i == -1:
            self.counters.bump("is_adjacent", 1, 0)
            return False
        self.counters.bump("is_adjacent", 2, 0)
        return i < self.frame.deg[v]

    def delete_edge(self, u, v):
        HybridGraph.delete_edge(self, u, v)
        # per endpoint: reads im, deg, al[j]; writes al x2, im x2, deg
        self.counters.bump("delete_edge", 6, 10)

    def delete_vertex(self, v):
        d = self.frame.deg[v]
        HybridGraph.delete_vertex(self, v)
        # swap-out: 3 reads (idxlist, vlist, deg), 4 writes; per edge:
        # reads al[v][j], im, deg and al[u][k], writes the neighbor's
        # row (al x2, im x2, deg); then deg[v] = 0
        self.counters.bump("delete_vertex", 3 + 4 * d, 5 + 5 * d)

    def snapshot(self):
        n = len(self.frame.deg)
        self.counters.bump("snapshot", n + 1, n + 1)
        return self.frame.copy()

    def restore(self, saved):
        n = len(self.frame.deg)
        self.frame.load(saved)
        self.counters.bump("restore", n + 1, n + 1)


class CountingAdditionGraph(AdditionGraph):
    __slots__ = ("counters",)

    def _init_mode(self):
        super()._init_mode()
        self.counters = OpCounters()

    def is_adjacent(self, u, v):
        i = self.im[u][v]
        if i == -1:
            self.counters.bump("is_adjacent", 1, 0)
            return False
        f = self.frame
        if i < f.deg[v]:
            self.counters.bump("is_adjacent", 2, 0)
            return True
        self.counters.bump("is_adjacent", 4, 0)
        return self.n - 1 - i < f.ndeg[v] and self.al[v][i] == u

    def add_edge(self, u, v):
        AdditionGraph.add_edge(self, u, v)
        # reads ndeg x2; writes al, im, ndeg per endpoint
        self.counters.bump("add_edge", 2, 6)

    # deletions touch only the base prefix, exactly as in plain mode
    delete_edge = CountingHybridGraph.delete_edge
    delete_vertex = CountingHybridGraph.delete_vertex

    def snapshot(self):
        n = len(self.frame.deg)
        self.counters.bump("snapshot", 2 * n + 1, 2 * n + 1)
        return self.frame.copy()

    def restore(self, saved):
        n = len(self.frame.deg)
        self.frame.load(saved)
        self.counters.bump("restore", 2 * n + 1, 2 * n + 1)


class CountingBaselineGraph(BaselineGraph):
    __slots__ = ("counters",)

    def __init__(self, n, edges):
        super().__init__(n, edges)
        self.counters = OpCounters()

    def _counted_find(self, u, v):
        """Chain scan counting one read per visited cell."""
        nbr = self.nbr
        nxt = self.nxt
        reads = 1  # head[u]
        c = self.head[u]
        while c != -1:
            reads += 1
            if nbr[c] == v:
                return c, reads
            reads += 1
            c = nxt[c]
        return -1, reads

    def is_adjacent(self, u, v):
        if not (self.active[u] and self.active[v]):
            self.counters.bump("is_adjacent", 2, 0)
            return False
        c, reads = self._counted_find(u, v)
        self.counters.bump("is_adjacent", 2 + reads, 0)
        return c != -1

    def delete_edge(self, u, v):
        cu, r1 = self._counted_find(u, v)
        cv, r2 = self._counted_find(v, u)
        assert cu != -1 and cv != -1, f"delete_edge on non-adjacent pair ({u},{v})"
        self._unlink(cu)
        self._unlink(cv)
        self.log.append(("edge", cu, cv))
        # unlink: ~4 reads (prv, nxt, owner, deg) and up to 3 writes each
        self.counters.bump("delete_edge", r1 + r2 + 8, 6)

    def delete_vertex(self, v):
        assert self.active[v], f"delete_vertex on inactive vertex {v}"
        self.active[v] = False
        self.n_active -= 1
        removed = []
        nbr = self.nbr
        nxt = self.nxt
        reads = 1
        c = self.head[v]
        while c != -1:
            w = nbr[c]
            cw, r = self._counted_find(w, v)
            self._unlink(cw)
            removed.append(cw)
            reads += 2 + r + 4  # own cell, chain hop, twin scan, unlink reads
            c = nxt[c]
        old_deg = self.deg[v]
        self.deg[v] = 0
        self.log.append(("vertex", v, old_deg, removed))
        self.counters.bump("delete_vertex", reads + 2, 3 * len(removed) + 3)

    def restore(self, mark):
        # cost is per popped record here, unlike the hybrid's flat copy
        log = self.log
        cells = 0
        while len(log) > mark:
            rec = log[-1]
            if rec[0] == "vertex":
                cells += 3 * len(rec[3]) + 3
            else:
                cells += 6
            BaselineGraph.restore(self, len(log) - 1)
        self.counters.bump("restore", cells, cells)
