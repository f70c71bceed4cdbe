"""Contraction mode: the graph is viewed as a quotient over color sets.

Every vertex carries a color (search-local ``vcolor``); initially color
ids equal vertex ids and every color is a singleton.  The public vertex
API means the quotient graph, whose vertices are the active colors
(tracked by ``vlist`` / ``idxlist``): ``active_vertices``, ``degree``,
``neighbors``, ``is_adjacent`` and ``delete_vertex`` take and return
colors, so a search written against it runs here unchanged and
``contract`` is one more edit it can make.  The search-local ``cc[c]``
counts c's members and is 0 exactly for retired colors; c's own global
list ``csl[c]``, ``[c]`` at first, holds them in its first ``cc[c]``
slots, with a stale tail as in ``al``.  A color's id is its first member.

The central invariant: between any two active colors at most one live
member-level edge exists, and none inside a color.  ``contract``
maintains it by deleting the connector edge and, for every color
adjacent to both sides, one of the two redundant member edges.  With
that invariant a color's degree is the sum of its members' ``deg``, and
listing a color's neighbor colors is a plain scan of its members' live
prefixes with no dedup pass.

Undo is unchanged: the color vectors are search-local and ``contract``
cuts a stale ``csl`` tail before it appends, so ``restore()`` copies
back ``deg``, ``n_c``, ``vcolor`` and ``cc`` and nothing else.

Only ``delete_edge`` stays member-level: the plain body, on a live
member edge.  Member queries use ``HybridGraph.neighbors(g, x)`` or ``deg``.
"""

from .core import HybridGraph


class ContractionGraph(HybridGraph):
    __slots__ = ("csl", "_stamp", "_gen", "vcolor", "cc")

    def __init__(self, n, edges):
        super().__init__(n, edges)
        self.csl = [[v] for v in range(n)]
        self.vcolor = list(range(n))
        self.cc = [1] * n
        # scratch marks, cleared lazily by bumping the generation stamp
        self._stamp = [0] * n
        self._gen = 0

    # -- quotient queries ---------------------------------------------

    def degree(self, c):
        """Number of colors adjacent to c: its members' degree sum."""
        k = self.cc[c]
        if k == 1:
            return self.deg[c]
        deg = self.deg
        return sum(deg[a] for a in self.csl[c][:k])

    def neighbors(self, c):
        """Active colors adjacent to c; distinct by the one-edge invariant."""
        vc = self.vcolor
        al = self.al
        deg = self.deg
        members = self.csl[c]
        out = []
        for idx in range(self.cc[c]):
            a = members[idx]
            row = al[a]
            for j in range(deg[a]):
                out.append(vc[row[j]])
        return out

    def is_adjacent(self, ca, cb):
        """Whether active colors ca and cb share a member edge; scans
        the members of the color with fewer."""
        cc = self.cc
        if cc[ca] > cc[cb]:
            ca, cb = cb, ca
        return cb in self.neighbors(ca)

    # -- mutations ----------------------------------------------------

    def contract(self, cu, cv):
        """Merge color cv into color cu; the two must be distinct,
        active, and adjacent."""
        vc = self.vcolor
        cc = self.cc
        al = self.al
        deg = self.deg
        idxlist = self.idxlist
        assert cu != cv, f"contract({cu},{cv}): same color"
        assert idxlist[cu] < self.n_c and idxlist[cv] < self.n_c, "inactive color"
        # mark every color currently adjacent to the surviving side
        self._gen += 1
        gen = self._gen
        stamp = self._stamp
        members_u = self.csl[cu]
        for idx in range(cc[cu]):
            a = members_u[idx]
            row = al[a]
            for j in range(deg[a]):
                stamp[vc[row[j]]] = gen
        # sweep the absorbed side's member edges: delete the connector
        # and one redundant edge per already-adjacent color, keep the
        # rest and mark their colors as now-adjacent
        raw_delete = HybridGraph.delete_edge
        members_v = self.csl[cv]
        connectors = 0
        for idx in range(cc[cv]):
            b = members_v[idx]
            row = al[b]
            for j in range(deg[b] - 1, -1, -1):
                x = row[j]
                w = vc[x]
                if w == cu:
                    raw_delete(self, b, x)
                    connectors += 1
                elif stamp[w] == gen:
                    raw_delete(self, b, x)
                else:
                    stamp[w] = gen
        assert connectors == 1, f"colors {cu},{cv} connected by {connectors} edges"
        # recolor absorbed members, append them past the survivor's prefix
        base = cc[cu]
        del members_u[base:]
        for idx in range(cc[cv]):
            b = members_v[idx]
            vc[b] = cu
            members_u.append(b)
        cc[cu] = base + cc[cv]
        cc[cv] = 0
        self._retire(cv)

    def delete_vertex(self, c):
        """Remove color c and all member edges; costs O(cc(c) + degree(c)).

        A singleton is the plain ``HybridGraph.delete_vertex``.  A larger
        color deletes each member's edges from the top of its prefix
        down, one ``HybridGraph.delete_edge`` each, then retires c.
        """
        cc = self.cc
        k = cc[c]
        cc[c] = 0
        if k == 1:
            HybridGraph.delete_vertex(self, c)
            return
        assert self.idxlist[c] < self.n_c, f"delete_vertex on inactive color {c}"
        raw_delete = HybridGraph.delete_edge
        al = self.al
        deg = self.deg
        for b in self.csl[c][:k]:
            row = al[b]
            for j in range(deg[b] - 1, -1, -1):
                raw_delete(self, b, row[j])
        self._retire(c)

    # -- undo ---------------------------------------------------------

    def snapshot(self):
        return HybridGraph.snapshot(self), self.vcolor.copy(), self.cc.copy()

    def restore(self, saved):
        plain, vcolor, cc = saved
        HybridGraph.restore(self, plain)
        self.vcolor[:] = vcolor
        self.cc[:] = cc
