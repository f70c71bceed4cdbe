"""Exact vertex cover.

``solve_vc_opt`` is a branch-and-bound optimization: degree-0/1
reductions, two-way branching on a maximum-degree vertex v (take v, or
take all of N(v)), a greedy initial incumbent, and a lower bound that
is the larger of a greedy maximal matching (a cover takes one end of
every matched edge) and edges over maximum degree (no vertex covers
more than Δ edges).

``solve_vc_parm`` decides whether a cover of size k exists.  It adds
the high-degree rule (degree > k forces the vertex) and the m > k^2
kernel cutoff.  With ``fold=True`` the same search runs on the
contraction structure, whose vertex API answers over colors, and the
reduction loop gains the degree-2 rules: a vertex whose two neighbors
are adjacent sends both into the cover, otherwise the three are folded
into one color for a budget of one.  The trail holds taken vertices and
folds; one backward replay turns it into the witness.

Each node's bookkeeping is one degree scan.  The reduction loop's last
scan, the one that fires no rule, has seen every active vertex, so it
also sums the degrees into the edge count and keeps the branching
vertex; a separate edge count or maximum-degree pass would read the
same degrees again.  The optimizer's bound stops as soon as the node's
fate is known.  Let need be the cover size the incumbent leaves room
for.  ⌈m/Δ⌉ alone often prunes the node; failing that, a node with
fewer than 2·need active vertices is kept without a matching, which
could pair at most half of them; otherwise the matching stops once it
reaches need.  The count is exact, and it comes after ⌈m/Δ⌉, which can
prune where the count cannot.

Every decision is made in canonical order (lowest id wins ties), so
node counts are identical across representations.
"""

import heapq

from .common import Search, build_representation, timed
from .verify import verify_vc


def _delete(g, trail, take, drop):
    """Branch edit: put ``take`` into the cover, then delete ``take``
    and ``drop`` from the graph."""
    trail.extend(take)
    for v in (*take, *drop):
        g.delete_vertex(v)


def _reduce(g, trail, k=None, fold=False):
    """Apply the reduction rules until none fires, in this order: degree
    0 (delete), degree 1 (take the neighbor), and with a budget ``k``
    degree > k (take the vertex).  ``fold`` adds the degree-2 rules:
    take both neighbors of a triangle, or else contract the vertex and
    its two neighbors into one color for a budget of one, logging the
    fold on the trail for ``_unfold``.

    Returns ``(k, m, top)``: the remaining budget, the active edge count
    and the active vertex of maximum degree (lowest id on ties, None if
    none is left), or None if the budget ran out.  These come from the
    last scan, which fires no rule: it visits every active vertex, and
    deleting a degree-0 vertex changes no other degree.  A vertex no
    rule can touch (degree at least 2, or 3 with ``fold``, and at most
    the budget) takes the fast path, which adds its degree to the sum
    and keeps the first vertex of strictly larger degree; ids ascend,
    so the lowest id wins ties, as in ``greedy_cover``.  Every
    other vertex of a completed scan had degree 0 and is gone, so the
    sum is twice the edge count.  In contraction mode ``degree`` is the
    color degree, so all of this holds over colors."""
    lo = 2 if fold else 1
    while True:
        hi = g.n if k is None else k
        total = 0
        top = None
        top_d = 0
        for v in sorted(g.active_vertices()):
            d = g.degree(v)
            if lo < d <= hi:
                total += d
                if d > top_d:
                    top = v
                    top_d = d
                continue
            if d == 0:
                g.delete_vertex(v)
                continue
            if d == 1:
                take, drop = g.neighbors(v), (v,)
            elif d > hi:
                take, drop = (v,), ()
            else:   # fold and d == 2 <= k, the one degree left
                wa, wb = sorted(g.neighbors(v))
                if not g.is_adjacent(wa, wb):
                    k -= 1
                    trail.append((v, wa, wb))
                    g.contract(v, wa)
                    g.contract(v, wb)
                    break
                # triangle: some optimal cover takes both neighbors
                take, drop = (wa, wb), (v,)
            if k is not None:
                if k < len(take):
                    return None
                k -= len(take)
            _delete(g, trail, take, drop)
            break
        else:
            return k, total // 2, top


def _unfold(trail):
    """The cover a decision trail stands for.  Replayed backward, a
    fold (center, na, nb) puts both neighbors into the cover if the
    folded color was taken, and the center otherwise; every other
    entry is a taken vertex."""
    cover = set()
    for t in reversed(trail):
        if type(t) is tuple:
            c, wa, wb = t
            if c in cover:
                cover.remove(c)
                cover.update((wa, wb))
            else:
                cover.add(c)
        else:
            cover.add(t)
    return sorted(cover)


class _OptSearch(Search):
    best = None   # the incumbent cover, seeded by ``run``

    def greedy_cover(self):
        """Take a maximum-degree vertex, lowest id on ties, until the top
        degree is 0, off a lazy max-heap of ``(-degree, v)``: degrees only
        fall, so the first top whose degree is current is the maximum."""
        g = self.g
        snap = g.snapshot()
        heap = [(-g.degree(v), v) for v in g.active_vertices()]
        heapq.heapify(heap)
        cover = []
        while heap and heap[0][0]:
            self.poll()
            d, v = heap[0]
            now = -g.degree(v)
            if now == d:
                cover.append(heapq.heappop(heap)[1])
                g.delete_vertex(v)
            else:   # stale: push it down to its current degree
                heapq.heapreplace(heap, (now, v))
        g.restore(snap)
        return cover

    def lower_bound(self, m, delta, need):
        """Whether a graph of ``m > 0`` edges and maximum degree
        ``delta`` may still have a cover of fewer than ``need``
        vertices, i.e. whether the larger of edges over maximum degree
        (no vertex covers more than Δ edges) and a greedy maximal
        matching (a cover takes one end of every matched edge) stays
        below ``need``.  It is False as soon as either reaches ``need``:
        ⌈m/Δ⌉ is tried first, and the matching stops there too.

        Between the two, fewer than ``2 * need`` active vertices settle
        it as True without a matching: a matching of n_c vertices has at
        most ⌊n_c/2⌋ edges, so it cannot reach ``need``.  The count comes
        second because ⌈m/Δ⌉ can prune where it cannot: a triangle has
        ⌈3/2⌉ = 2 for need 2, though 3 < 4."""
        if -(-m // delta) >= need:
            return False
        g = self.g
        if g.active_count() < 2 * need:
            return True
        matched = set()
        size = 0
        for u in sorted(g.active_vertices()):
            if u in matched:
                continue
            for w in sorted(g.neighbors(u)):
                if w not in matched:
                    matched.add(u)
                    matched.add(w)
                    size += 1
                    if size >= need:
                        return False
                    break
        return True

    def run(self):
        self.best = self.greedy_cover()
        if self.best:   # empty exactly when there are no edges
            self.node(())
        return sorted(self.best)

    def expand(self, take, drop=()):
        g = self.g
        trail = self.trail
        _delete(g, trail, take, drop)
        _k, m, v = _reduce(g, trail)
        if m == 0:
            if len(trail) < len(self.best):
                self.best = list(trail)
            return
        if self.lower_bound(m, g.degree(v), len(self.best) - len(trail)):
            nbrs = sorted(g.neighbors(v))
            self.node((v,))
            if len(trail) + len(nbrs) < len(self.best):
                self.node(nbrs, (v,))


def solve_vc_opt(n, edges, repr_name="hybrid", timeout=None,
                 instrumented=False):
    """Minimum vertex cover size with a witness."""
    edges = list(edges)  # read again to verify the witness
    g = build_representation(repr_name, "plain", n, edges, instrumented)
    search = _OptSearch(g, timeout)
    witness, wall = timed(n + 1, search.run)
    if not verify_vc(n, edges, witness):
        raise RuntimeError("optimizer produced an invalid cover")
    return search.result("vc", n, len(witness), witness, wall, repr_name)


class _ParmSearch(Search):
    def __init__(self, g, timeout, fold):
        super().__init__(g, timeout)
        self.fold = fold

    def expand(self, k, take, drop=()):
        g = self.g
        _delete(g, self.trail, take, drop)
        reduced = _reduce(g, self.trail, k - len(take), self.fold)
        if reduced is None:
            return False
        k, m, v = reduced
        if m == 0:
            return True
        if m > k * k:
            return False
        if self.node(k, (v,)):
            return True
        nbrs = sorted(g.neighbors(v))
        return len(nbrs) <= k and self.node(k, nbrs, (v,))


def solve_vc_parm(n, edges, k, repr_name="hybrid", fold=False, timeout=None,
                  instrumented=False):
    """Decide whether a vertex cover of size at most k exists."""
    edges = list(edges)  # read again to verify the witness
    if k < 0:
        raise ValueError("k must be non-negative")
    mode = "contraction" if fold else "plain"
    g = build_representation(repr_name, mode, n, edges, instrumented)
    search = _ParmSearch(g, timeout, fold)
    found, wall = timed(min(k, n) + 1, search.node, k, ())
    witness = None
    if found:
        witness = _unfold(search.trail)
        if len(witness) > k or not verify_vc(n, edges, witness):
            raise RuntimeError("decision search produced an invalid cover")
    return search.result("vc-parm", n, found, witness, wall, repr_name,
                         k=k, fold=fold)
