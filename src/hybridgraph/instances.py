"""Instance reader and generators.

Instance files are DIMACS, the one on-disk format: ``c`` comments, one
``p edge N M`` problem line, ``e u v`` edge lines with 1-based
endpoints.  Benchmark files in the wild are sloppy, so duplicate edges
are dropped with a warning and a wrong declared edge count is a
warning, while self-loops, out-of-range endpoints and any other record
are hard errors naming the line number.

Generators return sorted edge lists, so an instance is reproducible
from its parameters alone, and build them without per-pair work:
``gen_random_gnm`` samples m pair ranks, sorts them and walks them row
by row; ``gen_cluster_editing`` lists each cluster's pairs in order and
merges in its sorted toggled pairs.  tests/test_instance_digests.py
pins what each returns.
"""

import os
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import combinations


class InstanceFormatError(ValueError):
    pass


@dataclass
class InstanceSpec:
    name: str
    n: int
    edges: list = field(repr=False)

    @property
    def m(self):
        return len(self.edges)


def parse_dimacs(lines, name="dimacs"):
    """Parse DIMACS text (an iterable of lines).  Returns
    (InstanceSpec, warnings)."""
    n = None
    m_declared = None
    edges = []
    seen = set()
    warnings = []
    dupes = 0
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise InstanceFormatError(f"line {lineno}: second problem line")
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise InstanceFormatError(f"line {lineno}: bad problem line {line!r}")
            try:
                n = int(parts[2])
                m_declared = int(parts[3])
            except ValueError:
                raise InstanceFormatError(f"line {lineno}: bad problem line {line!r}")
            if n < 0 or m_declared < 0:
                raise InstanceFormatError(f"line {lineno}: negative sizes")
        elif parts[0] == "e":
            if n is None:
                raise InstanceFormatError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise InstanceFormatError(f"line {lineno}: bad edge line {line!r}")
            try:
                u = int(parts[1]) - 1
                v = int(parts[2]) - 1
            except ValueError:
                raise InstanceFormatError(f"line {lineno}: bad edge line {line!r}")
            if u == v:
                raise InstanceFormatError(f"line {lineno}: self-loop on {u + 1}")
            if not (0 <= u < n and 0 <= v < n):
                raise InstanceFormatError(
                    f"line {lineno}: endpoint out of range in {line!r}")
            key = (min(u, v), max(u, v))
            if key in seen:
                warnings.append(f"line {lineno}: duplicate edge dropped: {line!r}")
                dupes += 1
                continue
            seen.add(key)
            edges.append(key)
        else:
            raise InstanceFormatError(f"line {lineno}: unrecognized record "
                f"{parts[0]!r}; DIMACS lines are 'c ...', 'p edge N M' or 'e U V'")
    if n is None:
        raise InstanceFormatError("missing problem line")
    if m_declared not in (len(edges), len(edges) + dupes):
        warnings.append(
            f"declared {m_declared} edges, found {len(edges)} distinct")
    edges.sort()
    return InstanceSpec(name, n, edges), warnings


def _basename(path):
    return os.path.splitext(os.path.basename(str(path)))[0]


def read_instance(path):
    """Read the DIMACS file at `path`, named by its basename without
    the extension.  Returns (InstanceSpec, warnings)."""
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        return parse_dimacs(fh, name=_basename(path))


def _rank_pairs(n, ranks):
    """The pairs (u, v), u < v < n, at the ascending ranks `ranks` of
    lexicographic pair order: (0, 1) is rank 0 and (n-2, n-1) the last.
    Row u holds the n-1-u pairs (u, *); `end` is the rank just past it."""
    pairs = []
    u, end = 0, n - 1
    for t in ranks:
        while t >= end:
            u += 1
            end += n - 1 - u
        pairs.append((u, t - end + n))
    return pairs


def gen_random_gnm(n, m, seed):
    """Uniform simple graph with exactly m edges, deterministic in
    (n, m, seed)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    total = n * (n - 1) // 2
    if not 0 <= m <= total:
        raise ValueError(f"m must be within [0, {total}], got {m}")
    rng = random.Random(seed)
    edges = _rank_pairs(n, sorted(rng.sample(range(total), m)))
    return InstanceSpec(f"gnm-n{n}-m{m}-s{seed}", n, edges)


def gen_cluster_editing(n, clusters, flips, seed):
    """Disjoint near-equal cliques with `flips` random pair toggles.
    Returns (InstanceSpec, flips): reverting the toggles costs exactly
    one edit each, so the instance is solvable within that budget."""
    if clusters < 1 or clusters > n:
        raise ValueError("clusters must be within [1, n]")
    total = n * (n - 1) // 2
    if not 0 <= flips <= total:
        raise ValueError(f"flips must be within [0, {total}], got {flips}")
    # the first n % clusters clusters hold one vertex more; each is a
    # run of consecutive ids, so its pairs come out in sorted order
    base, extra = divmod(n, clusters)
    cliques = []
    lo = 0
    for c in range(clusters):
        hi = lo + base + (c < extra)
        cliques.extend(combinations(range(lo, hi), 2))
        lo = hi
    rng = random.Random(seed)
    flipped = _rank_pairs(n, sorted(rng.sample(range(total), flips)))
    # merge the sorted toggles in: copy the run of clique pairs before
    # each one, then drop the toggled pair if present, else insert it
    edges = []
    i = 0
    for p in flipped:
        j = bisect_left(cliques, p, i)
        edges += cliques[i:j]
        if j < len(cliques) and cliques[j] == p:
            j += 1
        else:
            edges.append(p)
        i = j
    edges += cliques[i:]
    name = f"ce-n{n}-c{clusters}-f{flips}-s{seed}"
    return InstanceSpec(name, n, edges), flips
