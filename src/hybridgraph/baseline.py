"""Classical adjacency-list baseline with an explicit undo log.

Index-chained doubly-linked neighbor lists: cell i stores a neighbor id
(``nbr``) and chain links (``prv`` / ``nxt``); ``head[v]`` starts v's
chain.  An edge's two cells are allocated back to back, so the twin of
cell c is ``c ^ 1`` and its owner is ``nbr[c ^ 1]``.  The twin index
gives the list its tuned costs: adjacency O(d) (a chain scan), edge
deletion O(d_u) (one scan, then the twin), vertex deletion Theta(d).

Every mutation appends an inverse record to ``log``; ``snapshot()`` is
the log length and ``restore(mark)`` pops records back to it.  Unlinked
cells keep their own ``prv``/``nxt``, so relinking is O(1) per cell.
Undoing an ``add_edge`` frees its two cells, so the cell arrays are
back at their build size whenever the log is empty.

The solver-facing surface matches the hybrid classes: is_adjacent,
neighbors, degree, active_vertices, delete_edge, delete_vertex,
add_edge, snapshot/restore.  Activity is the hybrid's sparse set
(``vlist`` / ``idxlist`` / ``n_c``, Briggs & Torczon 1993), queried by
``HybridGraph``'s own bodies, so whole-graph scans cost O(active) here
too and the two representations differ only in adjacency and undo.
Undo is last-in, first-out, so a deleted vertex is back at
``vlist[n_c]`` when its record is undone: ``n_c += 1``.
"""

from .core import GraphBuildError, HybridGraph, check_vertex_count


class BaselineGraph:
    __slots__ = (
        "n", "nbr", "prv", "nxt", "head",
        "deg", "vlist", "idxlist", "n_c", "log",
    )

    def __init__(self, n, edges):
        check_vertex_count(n)
        self.n = n
        self.nbr = []
        self.prv = []
        self.nxt = []
        self.head = [-1] * n
        self.deg = [0] * n
        self.vlist = list(range(n))
        self.idxlist = list(range(n))
        self.n_c = n
        self.log = []
        self._add_cells(edges)

    def _add_cells(self, edges):
        """Check each edge and append its twin cells (u, v) then (v, u),
        each prepended to its owner's chain, so the twin of cell c is
        c ^ 1.  The build and ``add_edge`` both allocate cells here."""
        n = self.n
        nbr = self.nbr
        prv = self.prv
        nxt = self.nxt
        head = self.head
        deg = self.deg
        c = len(nbr)
        seen = set()
        for e in edges:
            try:
                u, v = e
                if not (0 <= u < n and 0 <= v < n):
                    raise GraphBuildError(f"edge ({u},{v}) out of range for n={n}")
                if u == v:
                    raise GraphBuildError(f"self-loop at vertex {u}")
                key = u * n + v if u < v else v * n + u
                if key in seen:
                    raise GraphBuildError(f"duplicate edge ({u},{v})")
                seen.add(key)
                nbr.append(v)
                prv.append(-1)
                first = head[u]
                nxt.append(first)
                if first != -1:
                    prv[first] = c
                head[u] = c
                deg[u] += 1
                c += 1
                nbr.append(u)
                prv.append(-1)
                first = head[v]
                nxt.append(first)
                if first != -1:
                    prv[first] = c
                head[v] = c
                deg[v] += 1
                c += 1
            except GraphBuildError:
                raise
            except (TypeError, ValueError):
                raise GraphBuildError(
                    f"edge {e!r} is not a pair of vertex ids") from None

    # -- queries ------------------------------------------------------

    def is_adjacent(self, u, v):
        """List scan of u's chain (empty while u is deleted)."""
        nbr = self.nbr
        nxt = self.nxt
        c = self.head[u]
        while c != -1:
            if nbr[c] == v:
                return True
            c = nxt[c]
        return False

    def neighbors(self, v):
        nbr = self.nbr
        nxt = self.nxt
        out = []
        c = self.head[v]
        while c != -1:
            out.append(nbr[c])
            c = nxt[c]
        return out

    # activity and degree: the hybrid's bodies over the same vlist and
    # deg.  They are assigned, not inherited from a shared base class,
    # because searchbench's tracer wraps only the methods in each
    # class's own vars(); inherited ones would go untraced.
    __repr__ = HybridGraph.__repr__
    degree = HybridGraph.degree
    active_vertices = HybridGraph.active_vertices
    active_count = HybridGraph.active_count
    is_active = HybridGraph.is_active
    _retire = HybridGraph._retire

    # -- chain surgery ------------------------------------------------

    def _unlink(self, c):
        o = self.nbr[c ^ 1]
        p = self.prv[c]
        x = self.nxt[c]
        if p == -1:
            self.head[o] = x
        else:
            self.nxt[p] = x
        if x != -1:
            self.prv[x] = p
        self.deg[o] -= 1

    def _link(self, c):
        """Put unlinked cell c back; it kept its own prv/nxt."""
        o = self.nbr[c ^ 1]
        p = self.prv[c]
        x = self.nxt[c]
        if p == -1:
            self.head[o] = c
        else:
            self.nxt[p] = c
        if x != -1:
            self.prv[x] = c
        self.deg[o] += 1

    # -- mutations ----------------------------------------------------

    def delete_edge(self, u, v):
        nbr = self.nbr
        nxt = self.nxt
        cu = self.head[u]
        while cu != -1 and nbr[cu] != v:
            cu = nxt[cu]
        assert cu != -1, f"delete_edge on non-adjacent pair ({u},{v})"
        self._unlink(cu)
        self._unlink(cu ^ 1)
        self.log.append(("edge", cu))

    def delete_vertex(self, v):
        """Unlink the twin of each cell of v's chain from its
        neighbor's chain and empty v's own chain; the log record keeps
        v's old head, from which restore walks the twins back in."""
        assert self.idxlist[v] < self.n_c, f"delete_vertex on inactive vertex {v}"
        self._retire(v)
        nbr = self.nbr
        nxt = self.nxt
        prv = self.prv
        head = self.head
        deg = self.deg
        c = head[v]
        while c != -1:
            w = nbr[c]
            cw = c ^ 1
            p = prv[cw]
            x = nxt[cw]
            if p == -1:
                head[w] = x
            else:
                nxt[p] = x
            if x != -1:
                prv[x] = p
            deg[w] -= 1
            c = nxt[c]
        self.log.append(("vertex", v, deg[v], head[v]))
        deg[v] = 0
        head[v] = -1

    def add_edge(self, u, v):
        """Permanently add pair (u,v); undone only via restore."""
        assert u != v, "self-loop"
        assert not BaselineGraph.is_adjacent(self, u, v), \
            f"add_edge on adjacent pair ({u},{v})"
        cu = len(self.nbr)
        self._add_cells(((u, v),))
        self.log.append(("add", cu))

    # -- undo ---------------------------------------------------------

    def snapshot(self):
        """Opaque undo mark (the current log position)."""
        return len(self.log)

    def restore(self, mark):
        """Pop and invert log records back to a snapshot mark."""
        log = self.log
        assert 0 <= mark <= len(log), "mark from a different graph or future"
        nbr = self.nbr
        nxt = self.nxt
        prv = self.prv
        head = self.head
        deg = self.deg
        while len(log) > mark:
            rec = log.pop()
            tag = rec[0]
            if tag == "vertex":
                # relink the twin of each cell of v's saved chain: no op
                # touches v's cells while v is deleted (its twins left
                # every neighbor's chain), and each twin goes back into a
                # different neighbor's chain, so the order does not matter
                c = rec[3]
                while c != -1:
                    w = nbr[c]
                    cw = c ^ 1
                    p = prv[cw]
                    x = nxt[cw]
                    if p == -1:
                        head[w] = cw
                    else:
                        nxt[p] = cw
                    if x != -1:
                        prv[x] = cw
                    deg[w] += 1
                    c = nxt[c]
                v = rec[1]
                deg[v] = rec[2]
                head[v] = rec[3]
                assert self.vlist[self.n_c] == v, "undo out of order"
                self.n_c += 1
            elif tag == "edge":
                self._link(rec[1] ^ 1)
                self._link(rec[1])
            else:
                # an add record's cells are the newest two: free them
                cu = rec[1]
                assert cu == len(nbr) - 2, "undo out of order"
                self._unlink(cu ^ 1)
                self._unlink(cu)
                del nbr[cu:], prv[cu:], nxt[cu:]
