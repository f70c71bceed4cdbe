"""The cluster-editing conflict scan against its two-orientation reference.

``_EditSearch._first_conflict_and_bound`` sorts each neighbourhood once
per scan and meets each conflict path once, from its lower end.  The
reference below is the scan it replaces, kept verbatim: it re-sorts
``neighbors(y)`` per edge and meets every path from both ends.  Random
edit sequences in addition mode, under the edit-once discipline the
search keeps and with vertices deleted a whole component at a time,
must give the same (first conflict, packing size) from
both after every step, on both representations.  With a budget k the
scan stops once its packing exceeds k, so it must give the reference's
first conflict and min(packing size, k + 1).

A scan that completes also returns, for each pair of the first
conflict, the number of conflicts that contain it; the search branches
on those pairs in descending count order.  The reference for the
counts enumerates the conflict paths as the reference scan does and
counts each once, from x < z.

The scan must also ask ``is_adjacent`` the same questions in the same
order as a plain x-major walk over the paths with x < z, cut where the
packing passes the budget: that order is what makes the first conflict
and the greedy packing the ones the search branches and bounds on."""

import math
import random

import pytest

from hybridgraph.solvers import solve_ce_parm
from hybridgraph.solvers.cluster_editing import _EditSearch
from hybridgraph.solvers.common import REPR_NAMES, build_representation

from helpers import gnm


def ref_first_conflict_and_bound(g):
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


def ref_pair_counts(g, first):
    """Conflict paths containing xy, yz and xz of ``first``, each path
    counted once; None when there is no conflict."""
    if first is None:
        return None
    x0, y0, z0 = first
    want = ((min(x0, y0), max(x0, y0)), (min(y0, z0), max(y0, z0)),
            (min(x0, z0), max(x0, z0)))
    counts = [0, 0, 0]
    for x in sorted(g.active_vertices()):
        for y in sorted(g.neighbors(x)):
            for z in sorted(g.neighbors(y)):
                if z <= x or g.is_adjacent(x, z):
                    continue
                pairs = {(min(x, y), max(x, y)), (min(y, z), max(y, z)),
                         (x, z)}
                for i, p in enumerate(want):
                    counts[i] += p in pairs
    return tuple(counts)


def ref_questions(g, k=math.inf):
    """The (x, z) pairs a scan with budget k asks ``is_adjacent``
    about, in x-major order: x ascending, then y in N(x) ascending,
    then z in N(y) above x ascending.  The list ends at the question
    after which the greedy packing exceeds k."""
    asked = []
    used = set()
    packed = 0
    for x in sorted(g.active_vertices()):
        for y in sorted(g.neighbors(x)):
            for z in sorted(g.neighbors(y)):
                if z <= x:
                    continue
                asked.append((x, z))
                if g.is_adjacent(x, z):
                    continue
                pairs = ((min(x, y), max(x, y)), (min(y, z), max(y, z)),
                         (x, z))
                if all(p not in used for p in pairs):
                    used.update(pairs)
                    packed += 1
                    if packed > k:
                        return asked
    return asked


class _Asking:
    """A graph whose ``is_adjacent`` questions are recorded in order."""

    def __init__(self, g):
        self.g = g
        self.asked = []

    def __getattr__(self, name):
        return getattr(self.g, name)

    def is_adjacent(self, u, v):
        self.asked.append((u, v))
        return self.g.is_adjacent(u, v)


def _scan(g, k=math.inf):
    nbrs = {v: g.neighbors(v) for v in g.active_vertices()}
    return _EditSearch(g, None)._first_conflict_and_bound(nbrs, k)


def _random_edit(g, frozen, rng):
    """Delete a live edge or add a non-edge on a pair not yet edited,
    as the search does; returns False if no such pair exists."""
    act = sorted(g.active_vertices())
    pairs = [(u, v) for i, u in enumerate(act) for v in act[i + 1:]
             if (u, v) not in frozen]
    if not pairs:
        return False
    u, v = rng.choice(pairs)
    (g.delete_edge if g.is_adjacent(u, v) else g.add_edge)(u, v)
    frozen.add((u, v))
    return True


def _drop_component(g, rng):
    """Delete the connected component of a random active vertex, as the
    search drops clique components: addition mode deletes vertices only
    a whole component at a time."""
    comp = {rng.choice(sorted(g.active_vertices()))}
    queue = list(comp)
    while queue:
        for y in g.neighbors(queue.pop()):
            if y not in comp:
                comp.add(y)
                queue.append(y)
    for v in comp:
        g.delete_vertex(v)


@pytest.mark.parametrize("repr_name", REPR_NAMES)
def test_scan_matches_two_orientation_reference(repr_name):
    rng = random.Random(4130 + REPR_NAMES.index(repr_name))
    firsts = packs = 0
    for trial in range(80):
        n = rng.randrange(2, 22)
        m = rng.randrange(0, n * (n - 1) // 2 + 1)
        g = build_representation(repr_name, "addition",
                                 *gnm(n, m, rng.randrange(1 << 30)))
        frozen = set()
        stack = []
        assert _scan(g)[:2] == ref_first_conflict_and_bound(g)
        for _ in range(rng.randrange(10, 40)):
            r = rng.random()
            if r < 0.15:
                stack.append((g.snapshot(), set(frozen)))
            elif r < 0.3 and stack:
                snap, frozen = stack.pop()
                g.restore(snap)
            elif r < 0.9 and _random_edit(g, frozen, rng):
                pass
            elif g.active_count():
                _drop_component(g, rng)
            first, packed, counts = _scan(g)
            assert (first, packed) == ref_first_conflict_and_bound(g)
            assert counts == ref_pair_counts(g, first)
            firsts += first is not None
            packs += packed > 1
    # the sequences reach graphs with conflicts and multi-conflict packings
    assert firsts > 500 and packs > 300


@pytest.mark.parametrize("repr_name", REPR_NAMES)
def test_scan_asks_each_path_once(repr_name):
    rng = random.Random(4140)
    for n, m in ((12, 20), (20, 60), (30, 200), (25, 300)):
        g = build_representation(repr_name, "addition",
                                 *gnm(n, m, rng.randrange(1 << 30)),
                                 instrumented=True)
        frozen = set()
        for _ in range(n // 2):
            _random_edit(g, frozen, rng)
        # one is_adjacent per pair of neighbours of each center y
        paths = sum(d * (d - 1) // 2
                    for d in (len(g.neighbors(y)) for y in g.active_vertices()))
        before = g.counters.calls.get("is_adjacent", 0)
        _scan(g)
        assert g.counters.calls.get("is_adjacent", 0) - before == paths


@pytest.mark.parametrize("repr_name", REPR_NAMES)
def test_budgeted_scan_stops_past_the_budget(repr_name):
    # the questions themselves, in order, not just their number: a scan
    # that walks each centre's pairs, or any order but x-major, packs
    # other conflicts first and stops at another question
    rng = random.Random(4150 + REPR_NAMES.index(repr_name))
    cut = 0
    for trial in range(40):
        n = rng.randrange(2, 22)
        m = rng.randrange(0, n * (n - 1) // 2 + 1)
        g = build_representation(repr_name, "addition",
                                 *gnm(n, m, rng.randrange(1 << 30)))
        frozen = set()
        for _ in range(rng.randrange(5, 20)):
            if rng.random() < 0.9:
                _random_edit(g, frozen, rng)
            elif g.active_count():
                _drop_component(g, rng)
            ref_first, ref_packed = ref_first_conflict_and_bound(g)
            full = ref_questions(g)
            for k in (math.inf, 0, 1, 2, 3, 4):
                spy = _Asking(g)
                assert _scan(spy, k)[:2] == (ref_first,
                                             min(ref_packed, k + 1))
                assert spy.asked == ref_questions(g, k)
                cut += len(spy.asked) < len(full)
    # some budgets do cut a scan short
    assert cut > 100


@pytest.mark.parametrize("repr_name", REPR_NAMES)
def test_tied_counts_keep_the_old_branch_order(repr_name):
    # a 4-clique 0..3 and vertex 4 joined to 1 and 2: the first conflict
    # is 0-1-4, and 14 and 04 each lie in two conflicts against 01's
    # one.  Deleting 14 and adding 04 both lead to 2-edit solutions;
    # the tie keeps del yz ahead of add xz, so the witness starts with
    # the deletion.
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]
    g = build_representation(repr_name, "addition", 5, edges)
    assert _scan(g) == ((0, 1, 4), 2, (1, 2, 2))
    res = solve_ce_parm(5, edges, 2, repr_name=repr_name)
    assert res.witness == [("del", 1, 4), ("del", 2, 4)]
    assert res.nodes == 3
