"""Exact parameterized cluster editing.

Decides whether at most k edge edits (deletions or insertions) turn
the graph into disjoint cliques.  Runs on the edge-addition structure:
inserted edges are permanent along a search path and vanish on
restore.  A pair once edited is frozen for the rest of the path, which
is exactly the discipline the addition structure requires.

Per node: each vertex's neighbourhood is read once, and components
that are already cliques are removed whole (safe because every
inserted edge stays inside its component, so nothing dangling is ever
visible); one scan over the rows left, each sorted once, then yields
the first conflict triple (x,y,z) with xy, yz edges and xz a
non-edge, in lexicographic order, plus a greedy edit-disjoint conflict
packing whose size lower bounds the remaining budget.  The scan meets
each conflict once, from its lower end (x < z), so a full scan asks
``is_adjacent`` once per two-edge path x-y-z.  It stops as soon as the
packing exceeds the budget, which fixes the node's answer, so a node
that is cut off asks fewer.  A scan that completes also counts, for
each of the triple's three pairs, the conflicts that contain it, from
the rows alone.
Branching edits one of the triple's three pairs, the pair in most
conflicts first; ties keep the order del xy, del yz, add xz.  A branch
whose pair is frozen is skipped, and a conflict with all three pairs
frozen is unresolvable.  Once a branch fails, its pair is frozen for
the branches after it: every solution that edits the pair lies in the
subtree that just failed.
"""

from .common import Search, build_representation, check_budget, timed
from .verify import verify_ce


class _EditSearch(Search):
    def _drop_clique_components(self):
        """Delete every component that is already a clique; return
        ``{v: neighbors(v)}`` for the vertices left.  This is the
        node's only ``neighbors`` pass: a deleted component has no
        edge to a vertex that stays, so the rows kept are current."""
        g = self.g
        nbrs = {v: g.neighbors(v) for v in g.active_vertices()}
        seen = set()
        for v in list(nbrs):
            if v in seen:
                continue
            comp = {v}
            queue = [v]
            while queue:
                for y in nbrs[queue.pop()]:
                    if y not in comp:
                        comp.add(y)
                        queue.append(y)
            seen |= comp
            if all(len(nbrs[x]) == len(comp) - 1 for x in comp):
                for x in comp:
                    g.delete_vertex(x)
                    del nbrs[x]
        return nbrs

    def _first_conflict_and_bound(self, nbrs, k):
        """Lexicographically first conflict triple, the size of a
        greedy packing of conflicts sharing no editable pair, and the
        triple's pair counts, over the neighbourhood rows ``nbrs``
        (sorted here, in place).  The scan stops once the packing
        exceeds the budget ``k``: the first conflict is found by then,
        and the node is cut off whatever the rest of the packing holds,
        so the size returned is ``k + 1`` and the counts are None.  A
        packing that never exceeds ``k`` is returned whole.

        For a first conflict (x, y, z) the counts are the numbers of
        conflict paths that contain xy, yz and xz, each path counted
        once.  They come from the rows, with no ``is_adjacent`` call:
        a path through the edge xy ends outside the other end's closed
        neighbourhood, so xy lies in |N(x) ^ N(y)| - 2 of them (the
        symmetric difference holds x and y themselves), and the
        non-edge xz lies in one per common neighbour.  Counts are None
        too when there is no conflict.

        A conflict (x, y, z) is the same path as (z, y, x), so it is
        met once, from its lower end x < z.  That loses nothing against
        a scan of both orientations: the first conflict in
        lexicographic order has x < z, and when such a scan met the
        reversed copy, the lower one had been packed (its pairs are in
        ``used``) or rejected (one of its pairs was), and ``used`` only
        grows, so the copy was never packed."""
        adj = self.g.is_adjacent
        for row in nbrs.values():
            row.sort()
        first = None
        used = set()
        packed = 0
        for x in sorted(nbrs):
            for y in nbrs[x]:
                pxy = (x, y) if x < y else (y, x)
                for z in nbrs[y]:
                    if z <= x or adj(x, z):
                        continue
                    if first is None:
                        first = (x, y, z)
                    pyz = (y, z) if y < z else (z, y)
                    pxz = (x, z)
                    if pxy not in used and pyz not in used and pxz not in used:
                        used.add(pxy)
                        used.add(pyz)
                        used.add(pxz)
                        packed += 1
                        if packed > k:
                            return first, packed, None
        if first is None:
            return None, packed, None
        x, y, z = first
        nx, ny, nz = set(nbrs[x]), set(nbrs[y]), set(nbrs[z])
        return first, packed, (len(nx ^ ny) - 2, len(ny ^ nz) - 2,
                               len(nx & nz))

    def expand(self, k, frozen, edit=None):
        """Branch edit: ``edit`` is ("del" | "add", a, b), already
        counted in ``k`` and ``frozen``.

        The three edits of the first conflict (x, y, z) are tried in
        descending order of the conflicts their pairs are in; ties keep
        the order del xy, del yz, add xz.  A branch that fails leaves
        its pair frozen for the branches after it: it searched every
        solution that edits the pair, so those that remain leave it
        alone."""
        g = self.g
        if edit:
            op, a, b = edit
            self.trail.append((op, min(a, b), max(a, b)))
            (g.delete_edge if op == "del" else g.add_edge)(a, b)
        triple, bound, counts = self._first_conflict_and_bound(
            self._drop_clique_components(), k)
        if triple is None:
            return True
        if bound > k:
            return False
        x, y, z = triple
        edits = (("del", x, y), ("del", y, z), ("add", x, z))
        for i in sorted(range(3), key=counts.__getitem__, reverse=True):
            op, a, b = edits[i]
            pair = (min(a, b), max(a, b))
            if pair not in frozen:
                frozen = frozen | {pair}
                if self.node(k - 1, frozen, (op, a, b)):
                    return True
        return False


def solve_ce_parm(n, edges, k, repr_name="hybrid", timeout=None,
                  instrumented=False):
    """Decide whether at most k edits make the graph disjoint cliques."""
    edges = list(edges)  # read again to verify the witness
    check_budget(k)
    g = build_representation(repr_name, "addition", n, edges, instrumented)
    search = _EditSearch(g, timeout)
    # each pair is edited at most once along a path
    depth = min(k, n * (n - 1) // 2) + 1
    found, wall = timed(depth, search.node, k, frozenset())
    witness = list(search.trail) if found else None
    if found and not verify_ce(n, edges, witness, k):
        raise RuntimeError("edit search produced an invalid solution")
    return search.result("ce", n, found, witness, wall, repr_name, k=k)
