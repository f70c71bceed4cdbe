"""The cluster-editing witness check against the check it replaces.

``verify_ce`` normalises pairs to ``(min, max)`` tuples and tests that
every vertex's closed neighbourhood equals that of its lowest member,
in O(n + m).  The reference below is the earlier body, kept verbatim: a
frozenset per pair and a BFS per component.  Random cluster graphs,
perturbed ones, and edit lists with reversed, self, out-of-range and
repeated pairs, unknown ops and budgets 0-7 must get the same verdict
from both."""

import random

from hybridgraph.solvers import verify_ce


def ref_verify_ce(n, edges, edits, budget):
    """Applying the edit list to the instance yields disjoint cliques
    within budget.  Each pair may be edited at most once."""
    if len(edits) > budget:
        return False
    cur = {frozenset(e) for e in edges}
    touched = set()
    for op, u, v in edits:
        pair = frozenset((u, v))
        if pair in touched or u == v:
            return False
        if any(x < 0 or x >= n for x in (u, v)):
            return False
        touched.add(pair)
        if op == "del":
            if pair not in cur:
                return False
            cur.remove(pair)
        elif op == "add":
            if pair in cur:
                return False
            cur.add(pair)
        else:
            return False
    # connected components of the edited graph must be cliques
    adj = {v: set() for v in range(n)}
    for e in cur:
        u, v = tuple(e)
        adj[u].add(v)
        adj[v].add(u)
    seen = set()
    for v in range(n):
        if v in seen:
            continue
        comp = {v}
        queue = [v]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
        seen |= comp
        if any(len(adj[x]) != len(comp) - 1 for x in comp):
            return False
    return True


def _cluster_graph(rng, n):
    label = [rng.randrange(max(1, n // 2)) for _ in range(n)]
    return {(u, v) for u in range(n) for v in range(u + 1, n)
            if label[u] == label[v]}


def _case(rng):
    n = rng.randint(0, 10)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    clean = _cluster_graph(rng, n)
    flipped = rng.sample(pairs, rng.randint(0, min(len(pairs), 4)))
    edges = set(clean).symmetric_difference(flipped)
    # the edits that undo the flips, in random order and orientation
    edits = [("add" if p in clean else "del",) + (p if rng.random() < 0.5 else p[::-1])
             for p in flipped]
    rng.shuffle(edits)
    for _ in range(rng.choice((0, 0, 1, 2))):
        roll = rng.random()
        u = rng.randrange(-1, n + 1) if n else 0
        v = rng.randrange(-1, n + 1) if n else 1
        if roll < 0.25 and edits:
            op, a, b = rng.choice(edits)
            edits.append((op, b, a))                    # repeated pair
        elif roll < 0.35:
            edits.append(("add", u, u))                 # self pair
        elif roll < 0.45:
            edits.append((rng.choice(("flip", "")), u, v))   # unknown op
        else:
            edits.append((rng.choice(("add", "del")), u, v))  # maybe out of range
        if rng.random() < 0.5:
            i = rng.randrange(len(edits))
            edits.insert(i, edits.pop())
    oriented = [p if rng.random() < 0.5 else p[::-1] for p in sorted(edges)]
    return n, oriented, edits, rng.randint(0, 7)


def test_random_verdicts_match_the_reference():
    rng = random.Random(2024)
    verdicts = {True: 0, False: 0}
    for _ in range(4000):
        n, edges, edits, budget = _case(rng)
        want = ref_verify_ce(n, edges, edits, budget)
        assert verify_ce(n, edges, edits, budget) == want, (n, edges, edits, budget)
        verdicts[want] += 1
    assert verdicts[True] > 500 and verdicts[False] > 500, verdicts


def test_non_clique_components_are_rejected():
    # a star passes a subset test (each leaf's closed neighbourhood lies
    # inside the centre's), a path and two triangles sharing a vertex too
    for n, edges in ((4, [(0, 1), (0, 2), (0, 3)]),
                     (5, [(3, 0), (3, 1), (3, 4)]),
                     (4, [(0, 1), (1, 2), (2, 3)]),
                     (5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])):
        assert not ref_verify_ce(n, edges, [], 0)
        assert not verify_ce(n, edges, [], 0)
    assert verify_ce(4, [(0, 1), (0, 2), (0, 3)],
                     [("add", 1, 2), ("add", 3, 1), ("add", 2, 3)], 3)
