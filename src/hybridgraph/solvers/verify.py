"""Checks that solver witnesses solve the original instance.  All
functions work from the pristine edge list, never from solver state."""


def _distinct_ids(n, ids):
    """Each id is an int (a bool is not) in range(n), none repeated."""
    return (all(type(v) is int and 0 <= v < n for v in ids)
            and len(set(ids)) == len(ids))


def verify_vc(n, edges, witness):
    """witness covers every edge and names distinct real vertices."""
    w = set(witness)
    return _distinct_ids(n, witness) and all(u in w or v in w for u, v in edges)


def verify_ds(n, edges, witness):
    """Every vertex is in the witness or adjacent to a member."""
    w = set(witness)
    if not _distinct_ids(n, witness):
        return False
    covered = set(w)
    for u, v in edges:
        if u in w:
            covered.add(v)
        if v in w:
            covered.add(u)
    return len(covered) == n


def verify_ce(n, edges, edits, budget):
    """Applying the edit list to the instance yields disjoint cliques
    within budget.  Each pair may be edited at most once."""
    if len(edits) > budget:
        return False
    cur = {(u, v) if u < v else (v, u) for u, v in edges}
    touched = set()
    for op, u, v in edits:
        if not _distinct_ids(n, (u, v)):
            return False
        pair = (u, v) if u < v else (v, u)
        if pair in touched:
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
    # Every component is a clique iff every closed neighbourhood equals
    # that of its lowest member: along an edge the two lowest members
    # lie in each other's neighbourhoods, so they coincide, and equal
    # closed neighbourhoods along every edge make a component one clique.
    closed = [{v} for v in range(n)]
    for u, v in cur:
        closed[u].add(v)
        closed[v].add(u)
    return all(nb == closed[min(nb)] for nb in closed)
