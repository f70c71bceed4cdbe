"""Brute-force reference solvers for small instances.

Everything here is deliberately independent of the representation code:
inputs are (n, edges) with edges as 0-indexed pairs, state is plain
bitmasks, and no hybridgraph module is imported.  The point is to
have answers the real solvers can be judged against, so clarity beats
speed everywhere.

Exponential guards: brute_vc / brute_ds refuse n > 24, brute_ce refuses
n > 12 or k > 8.
"""

from itertools import combinations

_MAX_SUBSET_N = 24
_MAX_CE_N = 12
_MAX_CE_K = 8


def _check_edges(n, edges):
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop ({u},{v})")
        if adj[u] >> v & 1:
            raise ValueError(f"duplicate edge ({u},{v})")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def brute_vc(n, edges):
    """Minimum vertex cover size, by exhaustive edge branching."""
    if n > _MAX_SUBSET_N:
        raise ValueError(f"brute_vc limited to n <= {_MAX_SUBSET_N}, got {n}")
    _check_edges(n, edges)
    edges = [tuple(e) for e in edges]
    taken = [False] * n
    best = n

    def search(count):
        nonlocal best
        if count >= best:
            return
        for u, v in edges:
            if not taken[u] and not taken[v]:
                break
        else:
            best = count
            return
        taken[u] = True
        search(count + 1)
        taken[u] = False
        taken[v] = True
        search(count + 1)
        taken[v] = False

    search(0)
    return best


def brute_ds(n, edges):
    """Minimum dominating set size, by subset enumeration of growing size."""
    if n > _MAX_SUBSET_N:
        raise ValueError(f"brute_ds limited to n <= {_MAX_SUBSET_N}, got {n}")
    if n == 0:
        return 0
    adj = _check_edges(n, edges)
    closed = [adj[v] | (1 << v) for v in range(n)]
    full = (1 << n) - 1
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            mask = 0
            for v in combo:
                mask |= closed[v]
            if mask == full:
                return size
    raise AssertionError("unreachable: V itself dominates")


def brute_ce(n, edges, k):
    """Decide whether <= k edge edits turn the graph into disjoint cliques.

    Enumerates vertex partitions (every cluster graph is one) in
    restricted-growth order, accumulating the edit cost incrementally:
    placing v into block B pays one insertion per missing edge v-B and
    one deletion per existing edge from v to already-placed vertices
    outside B.  Branches whose cost already exceeds k are cut.
    """
    if n > _MAX_CE_N:
        raise ValueError(f"brute_ce limited to n <= {_MAX_CE_N}, got {n}")
    if k > _MAX_CE_K:
        raise ValueError(f"brute_ce limited to k <= {_MAX_CE_K}, got {k}")
    if k < 0:
        raise ValueError("k must be >= 0")
    adj = _check_edges(n, edges)
    limit = k + 1  # only the <= k decision matters
    best = limit
    blocks = []  # (member mask, size)

    def place(v, placed, cost):
        nonlocal best
        if cost >= best:
            return
        if v == n:
            best = cost
            return
        av = adj[v]
        e_placed = (av & placed).bit_count()
        for idx, (bmask, bsize) in enumerate(blocks):
            e_b = (av & bmask).bit_count()
            nxt = cost + (bsize - e_b) + (e_placed - e_b)
            if nxt < best:
                blocks[idx] = (bmask | 1 << v, bsize + 1)
                place(v + 1, placed | 1 << v, nxt)
                blocks[idx] = (bmask, bsize)
        nxt = cost + e_placed
        if nxt < best:
            blocks.append((1 << v, 1))
            place(v + 1, placed | 1 << v, nxt)
            blocks.pop()

    place(0, 0, 0)
    return best <= k
