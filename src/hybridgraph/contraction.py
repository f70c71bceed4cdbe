"""Contraction mode: the graph is viewed as a quotient over color sets.

Every vertex carries a color (search-local ``vcolor``); initially color
ids equal vertex ids and every color is a singleton.  The public vertex
API means the quotient graph, whose vertices are the active colors:
``active_vertices``, ``degree``, ``neighbors``, ``is_adjacent``,
``max_degree_vertex``, ``active_edge_count`` and ``delete_vertex`` all
take and return colors, so a search written against the vertex API
runs here unchanged and ``contract`` is one more edit it can make.
``vlist`` / ``idxlist`` track the active colors.  Two more search-local
vectors: ``cc[c]`` (member count of color c, 0 exactly for retired
colors) and ``cd[c]`` (number of distinct active colors adjacent to c).
The global table ``csl[c]`` lists c's members in its first ``cc[c]``
slots, with the same stale-tail convention as ``al``.

The central invariant: between any two active colors at most one live
member-level edge exists, and none inside a color.  ``contract``
maintains it by deleting the connector edge and, for every color
adjacent to both sides, one of the two redundant member edges.  With
that invariant, ``cd[c]`` equals the number of live member edges
leaving c, so listing a color's neighbor colors is a plain scan of its
members' live prefixes with no dedup pass.

Undo is unchanged: the color vectors are search-local and ``csl``
appends land past the restored ``cc`` prefix, so ``restore()`` copies
back ``deg``, ``n_c``, ``vcolor``, ``cc`` and ``cd`` and nothing else.

Only ``delete_edge`` stays member-level: it takes the endpoints of a
live member edge and keeps ``cd`` in step.  Member-level queries go
through the base class (``HybridGraph.neighbors(g, x)``) or ``deg``.
"""

from .core import HybridGraph


class ContractionGraph(HybridGraph):
    __slots__ = ("csl", "_stamp", "_gen", "vcolor", "cc", "cd")

    def _init_mode(self):
        n = self.n
        csl = [[-1] * n for _ in range(n)]
        for v in range(n):
            csl[v][0] = v
        self.csl = csl
        self.vcolor = list(range(n))
        self.cc = [1] * n
        self.cd = self.deg.copy()
        # scratch marks, cleared lazily by bumping the generation stamp
        self._stamp = [0] * n
        self._gen = 0

    # -- quotient queries ---------------------------------------------

    def degree(self, c):
        return self.cd[c]

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
        """Whether active colors ca and cb share a member edge."""
        if self.cd[ca] > self.cd[cb]:
            ca, cb = cb, ca
        vc = self.vcolor
        al = self.al
        deg = self.deg
        members = self.csl[ca]
        for idx in range(self.cc[ca]):
            a = members[idx]
            row = al[a]
            for j in range(deg[a]):
                if vc[row[j]] == cb:
                    return True
        return False

    def max_degree_vertex(self):
        """Active color of maximum color degree, lowest id on ties."""
        return self._max_degree(self.cd)

    def active_edge_count(self):
        """Quotient edges, which by the one-edge invariant are the live
        member edges.  The inherited member-degree sum would miss edges
        held by absorbed members."""
        cd = self.cd
        return sum(cd[c] for c in self.vlist[: self.n_c]) // 2

    # -- mutations ----------------------------------------------------

    def delete_edge(self, u, v):
        cu = self.vcolor[u]
        cv = self.vcolor[v]
        assert cu != cv, "no member edges exist inside a color"
        HybridGraph.delete_edge(self, u, v)
        self.cd[cu] -= 1
        self.cd[cv] -= 1

    def contract(self, cu, cv):
        """Merge color cv into color cu; the two must be distinct,
        active, and adjacent.  Returns the number of member edges
        deleted (the connector plus one per common neighbor color), so
        callers can track the live edge count.
        """
        vc = self.vcolor
        cc = self.cc
        cd = self.cd
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
        kept = 0
        deleted = 0
        connectors = 0
        for idx in range(cc[cv]):
            b = members_v[idx]
            row = al[b]
            for j in range(deg[b] - 1, -1, -1):
                x = row[j]
                w = vc[x]
                if w == cu:
                    raw_delete(self, b, x)
                    deleted += 1
                    connectors += 1
                elif stamp[w] == gen:
                    raw_delete(self, b, x)
                    deleted += 1
                    cd[w] -= 1
                else:
                    stamp[w] = gen
                    kept += 1
        assert connectors == 1, f"colors {cu},{cv} connected by {connectors} edges"
        cd[cu] += kept - 1
        cd[cv] = 0
        # recolor absorbed members and append them to the survivor's list
        base = cc[cu]
        for idx in range(cc[cv]):
            b = members_v[idx]
            vc[b] = cu
            members_u[base + idx] = b
        cc[cu] = base + cc[cv]
        cc[cv] = 0
        self._retire(cv)
        return deleted

    def delete_vertex(self, c):
        """Remove color c and all member edges; costs O(cd(c) + cc(c)).

        As in ``HybridGraph.delete_vertex``, each member's edges leave
        from the top of its prefix, so only the far endpoint's row
        changes and the member's degree drops to 0 once.
        """
        assert self.idxlist[c] < self.n_c, f"delete_vertex on inactive color {c}"
        vc = self.vcolor
        cd = self.cd
        al = self.al
        im = self.im
        deg = self.deg
        members = self.csl[c]
        for idx in range(self.cc[c]):
            b = members[idx]
            row_b = al[b]
            im_b = im[b]
            for j in range(deg[b] - 1, -1, -1):
                x = row_b[j]
                cd[vc[x]] -= 1
                assert im[x][b] == j, f"index entry of ({x},{b}) out of step"
                row = al[x]
                i = im_b[x]
                k = deg[x] - 1
                y = row[k]
                row[i] = y
                row[k] = b
                im[y][x] = i
                im_b[x] = k
                deg[x] = k
            deg[b] = 0
        cd[c] = 0
        self.cc[c] = 0
        self._retire(c)

    # -- undo ---------------------------------------------------------

    def snapshot(self):
        return (self.deg.copy(), self.n_c, self.vcolor.copy(),
                self.cc.copy(), self.cd.copy())

    def restore(self, saved):
        deg, n_c, vcolor, cc, cd = saved
        assert len(deg) == len(self.deg), "snapshot from a different graph"
        self.deg[:] = deg
        self.n_c = n_c
        self.vcolor[:] = vcolor
        self.cc[:] = cc
        self.cd[:] = cd
