"""Shared fixtures for the test suite: small named graphs, a local
G(n,m) sampler that does not depend on the package's generators,
member-level views of a ``ContractionGraph``'s colors, the live edge
count and the maximum-degree vertex of any representation, every table
a representation names in its slots, and a DIMACS writer for tests that
read instance files."""

import random
from itertools import combinations

# 8-vertex, 13-edge worked example used throughout the representation
# tests.  Edges are listed in sorted order; with append-in-input-order
# construction the expected neighbor tables below follow by hand.
G8_N = 8
G8_EDGES = [
    (0, 1), (0, 2), (0, 3),
    (1, 2), (1, 4),
    (2, 3), (2, 5),
    (3, 6),
    (4, 5), (4, 7),
    (5, 6), (5, 7),
    (6, 7),
]

G8_AL = [
    [1, 2, 3],
    [0, 2, 4],
    [0, 1, 3, 5],
    [0, 2, 6],
    [1, 5, 7],
    [2, 4, 6, 7],
    [3, 5, 7],
    [4, 5, 6],
]

G8_DEG = [3, 3, 4, 3, 3, 4, 3, 3]


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return 10, outer + spokes + inner


def cycle(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def path(n):
    return n, [(i, i + 1) for i in range(n - 1)]


def clique(n):
    return n, list(combinations(range(n), 2))


def star(leaves):
    return leaves + 1, [(0, i) for i in range(1, leaves + 1)]


def gnm(n, m, seed):
    """Seeded uniform G(n,m) for tests; independent of the package."""
    pairs = list(combinations(range(n), 2))
    rng = random.Random(seed)
    return n, rng.sample(pairs, m)


def color_members(g, c):
    """Member vertices of color c of a ContractionGraph."""
    return g.csl[c][: g.cc[c]]


def color_size(g, c):
    return g.cc[c]


def color_of(g, v):
    return g.vcolor[v]


def edge_count(g):
    """Live edges of g: half its active vertices' degree sum (in the
    contraction mode, edges between active colors)."""
    return sum(map(g.degree, g.active_vertices())) // 2


def max_degree_vertex(g):
    """Active vertex of g of maximum degree, lowest id on ties, or None
    (in the contraction mode, over colors)."""
    return max(sorted(g.active_vertices()), key=g.degree, default=None)


def slot_names(cls):
    """Every slot name of cls and of its bases."""
    return [name for k in cls.__mro__ for name in vars(k).get("__slots__", ())]


def tables(g, cls=None):
    """Name to value of every slot of g that ``cls`` (default: g's own
    class) names: all its arrays and counts."""
    return {name: getattr(g, name) for name in slot_names(cls or type(g))}


def format_dimacs(spec):
    """The DIMACS text of an ``InstanceSpec``: ``p edge n m``, then one
    1-based ``e u v`` line per edge."""
    lines = [f"p edge {spec.n} {len(spec.edges)}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in sorted(spec.edges))
    return "\n".join(lines) + "\n"


def write_dimacs(spec, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_dimacs(spec))
