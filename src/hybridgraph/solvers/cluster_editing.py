"""Exact parameterized cluster editing.

Decides whether at most k edge edits (deletions or insertions) turn
the graph into disjoint cliques.  Runs on the edge-addition structure:
inserted edges are permanent along a search path and vanish on
restore.  A pair once edited is frozen for the rest of the path, which
is exactly the discipline the addition structure requires.

Per node: components that are already cliques are removed whole (safe
because every inserted edge stays inside its component, so nothing
dangling is ever visible); one scan then yields the first conflict
triple (x,y,z) with xy, yz edges and xz a non-edge, in lexicographic
order, plus a greedy edit-disjoint conflict packing whose size lower
bounds the remaining budget.  Branching edits one of the triple's
three pairs; a branch whose pair is frozen is skipped, and a conflict
with all three pairs frozen is unresolvable.
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
from .verify import verify_ce


class _EditSearch:
    def __init__(self, g, deadline):
        self.g = g
        self.deadline = deadline
        self.nodes = 0
        self.edits = []

    def _drop_clique_components(self):
        g = self.g
        seen = set()
        for v in sorted(g.active_vertices()):
            if v in seen:
                continue
            comp = {v}
            queue = [v]
            while queue:
                x = queue.pop()
                for y in g.neighbors(x):
                    if y not in comp:
                        comp.add(y)
                        queue.append(y)
            seen |= comp
            if all(g.degree(x) == len(comp) - 1 for x in comp):
                for x in sorted(comp):
                    g.delete_vertex(x)

    def _first_conflict_and_bound(self):
        """Lexicographically first conflict triple, plus the size of a
        greedy packing of conflicts sharing no editable pair."""
        g = self.g
        first = None
        used = set()
        packed = 0
        for x in sorted(g.active_vertices()):
            nx = sorted(g.neighbors(x))
            for y in nx:
                for z in sorted(g.neighbors(y)):
                    if z == x or g.is_adjacent(x, z):
                        continue
                    if first is None:
                        first = (x, y, z)
                    pairs = (
                        (min(x, y), max(x, y)),
                        (min(y, z), max(y, z)),
                        (min(x, z), max(x, z)),
                    )
                    if all(p not in used for p in pairs):
                        used.update(pairs)
                        packed += 1
        return first, packed

    def decide(self, k, frozen):
        self.nodes += 1
        if self.deadline.expired():
            raise SolveTimeout
        g = self.g
        snap = g.snapshot()
        mark = len(self.edits)
        ok = self._inner(k, frozen)
        if not ok:
            del self.edits[mark:]
        g.restore(snap)
        return ok

    def _inner(self, k, frozen):
        g = self.g
        edits = self.edits
        self._drop_clique_components()
        triple, bound = self._first_conflict_and_bound()
        if triple is None:
            return True
        if bound > k:
            return False
        x, y, z = triple
        for op, a, b in (("del", x, y), ("del", y, z), ("add", x, z)):
            pair = (min(a, b), max(a, b))
            if pair in frozen:
                continue
            s2 = g.snapshot()
            edits.append((op, pair[0], pair[1]))
            if op == "del":
                g.delete_edge(a, b)
            else:
                g.add_edge(a, b)
            if self.decide(k - 1, frozen | {pair}):
                return True
            g.restore(s2)
            edits.pop()
        return False


def solve_ce_parm(n, edges, k, repr_name="hybrid", timeout=None,
                  instrumented=False):
    """Decide whether at most k edits make the graph disjoint cliques."""
    if k < 0:
        raise ValueError("k must be non-negative")
    g = build_representation(repr_name, "addition", n, edges, instrumented)
    search = _EditSearch(g, Deadline(timeout))
    with recursion_limit(max(10_000, 4 * k + 100)):
        t0 = time.perf_counter()
        found = search.decide(k, frozenset())
        wall = (time.perf_counter() - t0) * 1e3
    witness = None
    if found:
        witness = list(search.edits)
        if not verify_ce(n, edges, witness, k):
            raise RuntimeError("edit search produced an invalid solution")
    return SolverResult("ce", n, found, witness, search.nodes, wall,
                        repr_name, size=len(witness) if witness else None,
                        k=k, counters=harvest_counters(g))
