"""The vertex-cover node's one degree scan against the scans it replaces.

``_reduce`` returns ``(k, m, top)``: its last scan, which fires no rule,
also sums the degrees and keeps the maximum-degree vertex.  The
reference below is the reduction loop it replaces, kept verbatim,
followed by the two whole-graph passes the search used to make after
it: the edge count and the maximum-degree vertex (``edge_count`` and
``max_degree_vertex`` from helpers, the bodies of the graph methods it
called).  Random
deletion, contraction and snapshot/restore sequences must give the same
result, trail and active set from both, with and without a budget, on
plain hybrid, alist, and contraction with folding.  The budgeted
``lower_bound(m, delta, need)`` must say ``max(matching, ⌈m/Δ⌉) <
need`` for every ``need``, against the full bound kept verbatim too,
and answer as the budgeted bound did before it settled a node from the
active-vertex count, without a matching."""

import random

import pytest

from hybridgraph.solvers.common import build_representation
from hybridgraph.solvers.vertex_cover import _delete, _OptSearch, _reduce

from helpers import edge_count, gnm, max_degree_vertex


def ref_reduce(g, trail, k=None, fold=False):
    while True:
        for v in sorted(g.active_vertices()):
            d = g.degree(v)
            if d == 0:
                g.delete_vertex(v)
                continue
            if d == 1:
                take, drop = g.neighbors(v), (v,)
            elif k is not None and d > k:
                take, drop = (v,), ()
            elif fold and d == 2:   # d <= k, so k >= 2 here
                wa, wb = sorted(g.neighbors(v))
                if not g.is_adjacent(wa, wb):
                    k -= 1
                    trail.append((v, wa, wb))
                    g.contract(v, wa)
                    g.contract(v, wb)
                    break
                # triangle: some optimal cover takes both neighbors
                take, drop = (wa, wb), (v,)
            else:
                continue
            if k is not None:
                if k < len(take):
                    return None
                k -= len(take)
            _delete(g, trail, take, drop)
            break
        else:
            return k


def ref_node(g, trail, k, fold):
    """The reference reduction, then the edge count and the branching
    vertex as the search used to read them; None if the budget ran
    out."""
    left = ref_reduce(g, trail, k, fold)
    if k is not None and left is None:
        return None
    return left, edge_count(g), max_degree_vertex(g)


def ref_matching(g):
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
    return size


def _state(g):
    act = sorted(g.active_vertices())
    return act, [g.degree(v) for v in act]


def _random_step(a, b, stack, fold, rng):
    """Apply one random edit, or a snapshot or restore, to both graphs."""
    r = rng.random()
    act = sorted(a.active_vertices())
    if r < 0.2:
        stack.append((a.snapshot(), b.snapshot()))
    elif r < 0.4 and stack:
        sa, sb = stack.pop()
        a.restore(sa)
        b.restore(sb)
    elif r < 0.7 and fold:
        live = [c for c in act if a.degree(c)]
        if live:
            c = rng.choice(live)
            d = rng.choice(sorted(a.neighbors(c)))
            a.contract(c, d)
            b.contract(c, d)
    elif act:
        v = rng.choice(act)
        a.delete_vertex(v)
        b.delete_vertex(v)


CASES = [("hybrid", "plain", False), ("alist", "plain", False),
         ("hybrid", "contraction", True)]


@pytest.mark.parametrize("repr_name, mode, fold", CASES,
                         ids=["hybrid", "alist", "contraction-fold"])
def test_one_scan_matches_reduce_then_count_then_max(repr_name, mode, fold):
    rng = random.Random(4170 + CASES.index((repr_name, mode, fold)))
    outcomes = {"none": 0, "empty": 0, "left": 0, "fired": 0}
    for trial in range(120):
        n = rng.randrange(2, 26)
        m = rng.randrange(0, min(n * (n - 1) // 2, 4 * n) + 1)
        spec = gnm(n, m, rng.randrange(1 << 30))
        a = build_representation(repr_name, mode, *spec)
        b = build_representation(repr_name, mode, *spec)
        stack = []
        for _ in range(rng.randrange(1, 12)):
            _random_step(a, b, stack, fold, rng)
            assert _state(a) == _state(b)
            top = max_degree_vertex(a)
            dmax = 0 if top is None else a.degree(top)
            budgets = range(dmax + 3)
            if not fold:   # a fold spends budget, so it always has one
                budgets = (None, *budgets)
            for k in budgets:
                sa, sb = a.snapshot(), b.snapshot()
                trail_a, trail_b = [], []
                got = _reduce(a, trail_a, k, fold)
                assert got == ref_node(b, trail_b, k, fold), (k, trail_b)
                assert trail_a == trail_b
                assert _state(a) == _state(b)
                if got is None:
                    outcomes["none"] += 1
                elif got[1] == 0:
                    outcomes["empty"] += 1
                else:
                    outcomes["left"] += 1
                outcomes["fired"] += bool(trail_a)
                a.restore(sa)
                b.restore(sb)
    # budgets run out, reductions empty the graph or leave edges, and
    # rules fire before the last scan
    assert min(outcomes.values()) > 200, outcomes


@pytest.mark.parametrize("repr_name", ("hybrid", "alist"))
def test_budgeted_bound_says_whether_the_full_bound_is_below_need(repr_name):
    rng = random.Random(4180 + (repr_name == "alist"))
    ways = {"edges/degree": 0, "matching": 0, "below": 0}
    for trial in range(120):
        n = rng.randrange(2, 30)
        m = rng.randrange(1, min(n * (n - 1) // 2, 4 * n) + 1)
        g = build_representation(repr_name, "plain",
                                 *gnm(n, m, rng.randrange(1 << 30)))
        search = _OptSearch(g, None)
        for _ in range(rng.randrange(1, 6)):
            m = edge_count(g)
            if m == 0:
                break
            delta = g.degree(max_degree_vertex(g))
            by_degree = -(-m // delta)
            matching = ref_matching(g)
            for need in range(1, m + 2):
                full = max(matching, by_degree)
                assert search.lower_bound(m, delta, need) == (full < need)
                ways["edges/degree" if by_degree >= need else
                     "matching" if matching >= need else "below"] += 1
            g.delete_vertex(rng.choice(sorted(g.active_vertices())))
    # each way of answering is taken: settled by ⌈m/Δ⌉ alone, by a
    # matching that stops at need, and below need after the full match
    assert min(ways.values()) > 100, ways


def ref_lower_bound(g, m, delta, need):
    """``_OptSearch.lower_bound`` before the active-vertex count test,
    kept verbatim."""
    if -(-m // delta) >= need:
        return False
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


@pytest.mark.parametrize("repr_name", ("hybrid", "alist"))
def test_count_settles_the_bound_without_a_matching(repr_name):
    """Fewer than ``2 * need`` active vertices answer True before any
    matching is built, after ⌈m/Δ⌉ has had its say: the answer equals
    the bound without the count for every ``need``, and a call the
    count settles asks for no neighborhood and no active-vertex list."""
    rng = random.Random(4190 + (repr_name == "alist"))
    ways = {"edges/degree": 0, "count": 0, "matching": 0, "below": 0}
    for trial in range(120):
        n = rng.randrange(2, 30)
        m = rng.randrange(1, min(n * (n - 1) // 2, 4 * n) + 1)
        spec = gnm(n, m, rng.randrange(1 << 30))
        g = build_representation(repr_name, "plain", *spec,
                                 instrumented=True)
        ref = build_representation(repr_name, "plain", *spec)
        search = _OptSearch(g, None)
        calls = g.counters.calls

        def asked():
            return calls.get("neighbors", 0), calls.get("active_vertices", 0)

        for _ in range(rng.randrange(1, 6)):
            m = edge_count(ref)
            if m == 0:
                break
            delta = ref.degree(max_degree_vertex(ref))
            n_c = ref.active_count()
            matching = ref_matching(ref)
            for need in range(1, m + 2):
                before = asked()
                got = search.lower_bound(m, delta, need)
                assert got == ref_lower_bound(ref, m, delta, need)
                if -(-m // delta) >= need:
                    way = "edges/degree"
                elif n_c < 2 * need:
                    way = "count"
                    assert asked() == before
                else:
                    way = "matching" if matching >= need else "below"
                ways[way] += 1
            v = rng.choice(sorted(ref.active_vertices()))
            g.delete_vertex(v)
            ref.delete_vertex(v)
    # ⌈m/Δ⌉ prunes, the count settles, a matching reaches need, and a
    # full matching ends below it
    assert min(ways.values()) > 100, ways
