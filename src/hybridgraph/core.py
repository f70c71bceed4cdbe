"""Hybrid graph representation with constant-time undo.

The structure keeps four global tables plus the search-local vectors
that undo rolls back.  All arrays are 0-indexed.

- ``al[v]``: neighbor array of v.  The first ``deg[v]`` slots are the
  live neighborhood; slots past ``deg[v]`` hold stale former neighbors
  that deletions swapped out of the prefix.  Rows never grow in plain
  mode.
- ``im[u][v]``: position of u inside ``al[v]``, or -1 if the pair was
  never adjacent.  Entries go stale when edges are deleted; the
  adjacency test compensates by range-checking against ``deg[v]``.
- ``vlist`` / ``idxlist``: a permutation of the vertices and its
  inverse.  The first ``n_c`` entries of ``vlist`` are the active
  vertices.
- ``deg`` and ``n_c``: everything a search path mutates per node in
  plain mode.  ``snapshot()`` copies them into a tuple, ``restore()``
  copies them back; each extension mode's snapshot is this one plus
  copies of its own vectors, and its restore hands this part back.
  The global tables are intentionally never rolled back, so undoing an
  arbitrarily long burst of operations costs one O(n) copy and nothing
  per undone operation.

Restoration has set semantics: the live neighborhood contents come
back exactly, but their order inside the prefix may differ from before
the burst.

Contract violations (deleting a non-adjacent pair, deleting an
inactive vertex) are guarded by ``assert``.  The CLI, ``hybridgraph
bench`` and ``searchbench/run.py`` run with asserts on, so the guards
are part of every measured time; ``python -O`` drops them.

Instances are single-mutator: do not share one across threads.
"""


class GraphBuildError(ValueError):
    """Rejected input graph."""


def check_vertex_count(n):
    """Raise unless ``n`` is an int >= 0: a bool is not."""
    if type(n) is bool or not isinstance(n, int):
        raise GraphBuildError(f"vertex count must be an int, got {n!r}")
    if n < 0:
        raise GraphBuildError(f"negative vertex count {n}")


class HybridGraph:
    """Plain mode: edge and vertex deletions, O(n) restore."""

    __slots__ = ("n", "al", "im", "vlist", "idxlist", "deg", "n_c")

    def __init__(self, n, edges):
        check_vertex_count(n)
        self.n = n
        al = [[] for _ in range(n)]
        im = [[-1] * n for _ in range(n)]
        for e in edges:
            try:
                u, v = e
                if not (0 <= u < n and 0 <= v < n):
                    raise GraphBuildError(f"edge ({u},{v}) out of range for n={n}")
                if u == v:
                    raise GraphBuildError(f"self-loop at vertex {u}")
                imu = im[u]
                if imu[v] != -1:
                    raise GraphBuildError(f"duplicate edge ({u},{v})")
                alu = al[u]
                alv = al[v]
                imu[v] = len(alv)
                alv.append(u)
                im[v][u] = len(alu)
                alu.append(v)
            except GraphBuildError:
                raise
            except (TypeError, ValueError):
                raise GraphBuildError(
                    f"edge {e!r} is not a pair of vertex ids") from None
        self.al = al
        self.im = im
        self.vlist = list(range(n))
        self.idxlist = list(range(n))
        self.deg = [len(row) for row in al]
        self.n_c = n

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, active={self.n_c})"

    # -- queries ------------------------------------------------------

    def is_adjacent(self, u, v):
        i = self.im[u][v]
        return -1 < i < self.deg[v]

    def neighbors(self, v):
        """Live neighborhood of v, as a fresh list (safe to delete under)."""
        return self.al[v][: self.deg[v]]

    def degree(self, v):
        return self.deg[v]

    def active_vertices(self):
        return self.vlist[: self.n_c]

    def active_count(self):
        return self.n_c

    def is_active(self, v):
        return self.idxlist[v] < self.n_c

    # -- mutations ----------------------------------------------------

    def delete_edge(self, u, v):
        """Remove live edge (u,v): swap each endpoint out of the other's
        live prefix and shrink the prefix.  Constant cell count."""
        al = self.al
        im = self.im
        deg = self.deg
        assert -1 < im[u][v] < deg[v], f"delete_edge on non-adjacent pair ({u},{v})"
        row = al[u]
        i = im[v][u]
        j = deg[u] - 1
        x = row[j]
        row[i] = x
        row[j] = v
        im[x][u] = i
        im[v][u] = j
        deg[u] = j
        row = al[v]
        i = im[u][v]
        j = deg[v] - 1
        x = row[j]
        row[i] = x
        row[j] = u
        im[x][v] = i
        im[u][v] = j
        deg[v] = j

    def delete_vertex(self, v):
        """Deactivate v and delete its live edges, costing O(deg(v)).

        v's neighbors are taken from the top of its prefix down, so the
        slot being removed is always v's last live one and v's half of
        each edge swap is a no-op: only the neighbor's row changes, and
        ``deg[v]`` drops to 0 once at the end.  The tables end up
        exactly as a ``delete_edge(row[j], v)`` per edge would leave
        them.
        """
        idxlist = self.idxlist
        assert idxlist[v] < self.n_c, f"delete_vertex on inactive vertex {v}"
        vlist = self.vlist
        last = self.n_c - 1
        i = idxlist[v]
        w = vlist[last]
        vlist[i] = w
        idxlist[w] = i
        vlist[last] = v
        idxlist[v] = last
        self.n_c = last
        al = self.al
        im = self.im
        deg = self.deg
        row_v = al[v]
        im_v = im[v]
        for j in range(deg[v] - 1, -1, -1):
            u = row_v[j]
            assert im[u][v] == j, f"index entry of ({u},{v}) out of step"
            row = al[u]
            i = im_v[u]
            k = deg[u] - 1
            x = row[k]
            row[i] = x
            row[k] = v
            im[x][u] = i
            im_v[u] = k
            deg[u] = k
        deg[v] = 0

    def _retire(self, v):
        """Swap active v to the end of the active prefix and shrink the
        prefix.  ``delete_vertex`` above inlines the same swap; undo
        reactivates v by growing the prefix again."""
        vlist = self.vlist
        idxlist = self.idxlist
        last = self.n_c - 1
        i = idxlist[v]
        w = vlist[last]
        vlist[i] = w
        idxlist[w] = i
        vlist[last] = v
        idxlist[v] = last
        self.n_c = last

    # -- undo ---------------------------------------------------------

    def snapshot(self):
        """Copy of the search-local vectors; pair with restore()."""
        return self.deg.copy(), self.n_c

    def restore(self, saved):
        """Roll the graph back to a snapshot taken on this search path."""
        deg, n_c = saved
        assert len(deg) == len(self.deg), "snapshot from a different graph"
        self.deg[:] = deg
        self.n_c = n_c
