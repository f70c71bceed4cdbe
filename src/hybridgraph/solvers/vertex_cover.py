"""Exact vertex cover.

``solve_vc_opt`` is a branch-and-bound optimization: degree-0/1
reductions, two-way mirror branching on a maximum-degree vertex, a
greedy initial incumbent, and a selectable lower bound.  The default
bound greedily partitions the active vertices into cliques (a cover
misses at most one vertex per clique); ``lb="matching"`` uses a greedy
maximal matching together with edges-over-max-degree.

``solve_vc_parm`` decides whether a cover of size k exists.  Without
folding it adds the high-degree rule (degree > k forces the vertex)
and the m > k^2 kernel cutoff.  With ``fold=True`` it runs on the
color-contraction structure: degree-2 vertices with non-adjacent
neighbors are folded into a single color for a budget of one, and the
witness is rebuilt afterward by replaying the take/fold event log
backward.

Every decision is made in canonical order (lowest id wins ties), so
node counts are identical across representations.
"""

from .common import Search, build_representation, timed
from .verify import verify_vc


def _delete(g, trail, take, drop):
    """Branch edit: put ``take`` into the cover, then delete ``take``
    and ``drop`` from the graph."""
    trail.extend(take)
    for v in (*take, *drop):
        g.delete_vertex(v)


def _reduce_degree01(g, trail, budget=None):
    """Apply degree-0/1 reductions (and the high-degree rule when a
    budget is given) until none fires.  Returns the remaining budget,
    or None if the budget went negative."""
    k = budget
    while True:
        reduced = False
        for v in sorted(g.active_vertices()):
            d = g.degree(v)
            if d == 0:
                g.delete_vertex(v)
                reduced = True
            elif d == 1:
                if k is not None:
                    if k == 0:
                        return None
                    k -= 1
                w = g.neighbors(v)[0]
                trail.append(w)
                g.delete_vertex(w)
                g.delete_vertex(v)
                reduced = True
                break
            elif k is not None and d > k:
                if k == 0:
                    return None
                k -= 1
                trail.append(v)
                g.delete_vertex(v)
                reduced = True
                break
        if not reduced:
            return k


class _OptSearch(Search):
    def __init__(self, g, timeout, lb_mode):
        super().__init__(g, timeout)
        self.lb_mode = lb_mode
        self.best = None

    def greedy_cover(self):
        g = self.g
        snap = g.snapshot()
        cover = []
        while g.active_edge_count():
            v = g.max_degree_vertex()
            cover.append(v)
            g.delete_vertex(v)
        g.restore(snap)
        return cover

    def lower_bound(self):
        g = self.g
        if self.lb_mode == "matching":
            m = g.active_edge_count()
            if m == 0:
                return 0
            delta = g.degree(g.max_degree_vertex())
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
                        break
            return max(size, -(-m // delta))
        # clique cover: a cover leaves at most one vertex per clique
        order = sorted(g.active_vertices(), key=lambda v: (-g.degree(v), v))
        cliques = []
        for v in order:
            for cl in cliques:
                if all(g.is_adjacent(v, w) for w in cl):
                    cl.append(v)
                    break
            else:
                cliques.append([v])
        return len(order) - len(cliques)

    def run(self):
        self.best = self.greedy_cover()
        if self.g.active_edge_count():
            self.node(())
        return sorted(self.best)

    def expand(self, take, drop=()):
        g = self.g
        trail = self.trail
        _delete(g, trail, take, drop)
        _reduce_degree01(g, trail)
        if g.active_edge_count() == 0:
            if len(trail) < len(self.best):
                self.best = list(trail)
        elif len(trail) + self.lower_bound() < len(self.best):
            v = g.max_degree_vertex()
            nbrs = sorted(g.neighbors(v))
            self.node((v,))
            if len(trail) + len(nbrs) < len(self.best):
                self.node(nbrs, (v,))


def solve_vc_opt(n, edges, repr_name="hybrid", lb="clique", timeout=None,
                 instrumented=False):
    """Minimum vertex cover size with a witness."""
    if lb not in ("clique", "matching"):
        raise ValueError(f"unknown lower bound {lb!r}")
    g = build_representation(repr_name, "plain", n, edges, instrumented)
    search = _OptSearch(g, timeout, lb)
    witness, wall = timed(n + 1, search.run)
    if not verify_vc(n, edges, witness):
        raise RuntimeError("optimizer produced an invalid cover")
    return search.result("vc", n, len(witness), witness, wall, repr_name)


class _ParmSearch(Search):
    def expand(self, k, take, drop=()):
        g = self.g
        _delete(g, self.trail, take, drop)
        k = _reduce_degree01(g, self.trail, k - len(take))
        if k is None:
            return False
        m = g.active_edge_count()
        if m == 0:
            return True
        if k <= 0 or m > k * k:
            return False
        v = g.max_degree_vertex()
        if self.node(k, (v,)):
            return True
        nbrs = sorted(g.neighbors(v))
        return len(nbrs) <= k and self.node(k, nbrs, (v,))


class _FoldSearch(Search):
    """Decision search over the contraction structure.  The trail
    carries ("take", color) and ("fold", center, na, nb) events; a
    backward replay turns the surviving trail into a vertex witness."""

    def _take(self, c, k):
        self.trail.append(("take", c))
        self.g.delete_color(c)
        return k - 1

    def _contract_pair(self, c, w):
        g = self.g
        for x in g.color_members(c):
            for y in g.neighbors(x):
                if g.color_of(y) == w:
                    g.contract(x, y)
                    return
        raise AssertionError(f"adjacent colors {c},{w} share no live edge")

    def expand(self, k, take):
        g = self.g
        for c in take:
            k = self._take(c, k)
        while True:
            reduced = False
            for c in sorted(g.active_colors()):
                d = g.color_degree(c)
                if d == 0:
                    g.delete_color(c)
                    reduced = True
                elif d == 1:
                    if k == 0:
                        return False
                    k = self._take(g.color_neighbors(c)[0], k)
                    reduced = True
                    break
                elif d > k:
                    if k == 0:
                        return False
                    k = self._take(c, k)
                    reduced = True
                    break
                elif d == 2:
                    wa, wb = sorted(g.color_neighbors(c))
                    if g.colors_adjacent(wa, wb):
                        # triangle: some optimal cover takes both neighbors
                        if k < 2:
                            return False
                        k = self._take(wa, k)
                        k = self._take(wb, k)
                    else:
                        # fold all three into the center color for one unit
                        if k == 0:
                            return False
                        k -= 1
                        self.trail.append(("fold", c, wa, wb))
                        self._contract_pair(c, wa)
                        self._contract_pair(c, wb)
                    reduced = True
                    break
            if not reduced:
                break
        if g.active_count() == 0:
            return True
        if k <= 0 or g.active_edge_count() > k * k:
            return False
        c = g.max_degree_color()
        if self.node(k, (c,)):
            return True
        nbrs = sorted(g.color_neighbors(c))
        return len(nbrs) <= k and self.node(k, nbrs)

    def unfold(self):
        cover = set()
        for ev in reversed(self.trail):
            if ev[0] == "take":
                cover.add(ev[1])
            else:
                _, c, wa, wb = ev
                if c in cover:
                    cover.discard(c)
                    cover.add(wa)
                    cover.add(wb)
                else:
                    cover.add(c)
        return sorted(cover)


def solve_vc_parm(n, edges, k, repr_name="hybrid", fold=False, timeout=None,
                  instrumented=False):
    """Decide whether a vertex cover of size at most k exists."""
    if k < 0:
        raise ValueError("k must be non-negative")
    mode = "contraction" if fold else "plain"
    g = build_representation(repr_name, mode, n, edges, instrumented)
    search = (_FoldSearch if fold else _ParmSearch)(g, timeout)
    found, wall = timed(min(k, n) + 1, search.node, k, ())
    witness = None
    if found:
        witness = search.unfold() if fold else sorted(search.trail)
        if len(witness) > k or not verify_vc(n, edges, witness):
            raise RuntimeError("decision search produced an invalid cover")
    return search.result("vc-parm", n, found, witness, wall, repr_name,
                         k=k, fold=fold)
