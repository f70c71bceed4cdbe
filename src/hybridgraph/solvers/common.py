"""Shared solver plumbing: the search scaffold with its deadline,
results, representation factory."""

import sys
import time
from dataclasses import asdict, dataclass, field

from ..addition import AdditionGraph
from ..baseline import BaselineGraph
from ..contraction import ContractionGraph
from ..core import HybridGraph
from ..instrumented import counting

REPR_NAMES = ("hybrid", "alist")


class SolveTimeout(Exception):
    """Raised when a solver runs past its deadline."""


def timed(depth, root, *args):
    """``root(*args)`` with room for ``depth`` nested search nodes,
    under a recursion limit raised (never lowered below the caller's)
    and given back on exit, also on a timeout.  Returns (value,
    wall_ms)."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 10_000, 4 * depth + 100))
    try:
        t0 = time.perf_counter()
        value = root(*args)
        return value, (time.perf_counter() - t0) * 1e3
    finally:
        sys.setrecursionlimit(old)


def check_budget(k):
    """Raise unless ``k`` is an int >= 0: a bool, float or NaN is not."""
    if type(k) is bool or not isinstance(k, int) or k < 0:
        raise ValueError(f"k must be a non-negative integer, got {k!r}")


class Search:
    """One exact search over graph ``g``.  A subclass defines
    ``expand(*args)``: apply the branch edit that leads to the node,
    then reduce, bound, and branch by calling ``node`` again.  The edit
    and everything after it are undone by the one frame snapshot the
    node takes on entry; entries the node pushed onto ``trail`` (its
    part of the witness) are dropped unless ``expand`` returned True,
    so a decision search that succeeds keeps its witness and an
    optimization search, whose ``expand`` returns None, always rolls
    back.  ``timeout`` is None or seconds on the monotonic clock, polled
    on entry to every node.  Every snapshot, restore, deadline poll and
    (through ``expand``) graph edit of a search happens inside ``node``."""

    def __init__(self, g, timeout):
        # not timeout >= 0 also rejects NaN; a bool is no number of seconds
        if type(timeout) is bool or timeout is not None and not timeout >= 0:
            raise ValueError(f"timeout must be a non-negative number of "
                             f"seconds, got {timeout!r}")
        self.g = g
        self.t_end = None if timeout is None else time.monotonic() + timeout
        self.nodes = 0
        self.trail = []

    def node(self, *args):
        self.nodes += 1
        if self.t_end is not None and time.monotonic() > self.t_end:
            raise SolveTimeout
        snap = self.g.snapshot()
        mark = len(self.trail)
        found = self.expand(*args)
        self.g.restore(snap)
        if not found:
            del self.trail[mark:]
        return found

    def run(self, best):
        """Optimize from ``best``, a valid witness, which ``expand``
        replaces with each smaller one it completes; returns the last,
        sorted."""
        self.best = best
        self.node(())
        return sorted(self.best)

    def result(self, problem, n, answer, witness, wall_ms, repr_name, **kw):
        counters = getattr(self.g, "counters", None)
        return SolverResult(
            problem, n, answer, witness, self.nodes, wall_ms, repr_name,
            size=None if witness is None else len(witness),
            counters=None if counters is None else counters.as_dict(), **kw)


@dataclass
class SolverResult:
    problem: str
    n: int
    answer: object        # minimum size for optimization, bool for decision
    witness: list | None
    nodes: int
    wall_ms: float
    repr: str
    size: int | None = None
    k: int | None = None
    fold: bool = False
    counters: dict | None = field(default=None, repr=False)

    def as_dict(self):
        return {**asdict(self), "wall_ms": round(self.wall_ms, 3)}


_CLASSES = {
    ("hybrid", "plain"): HybridGraph,
    ("hybrid", "addition"): AdditionGraph,
    ("hybrid", "contraction"): ContractionGraph,
    ("alist", "plain"): BaselineGraph,
    ("alist", "addition"): BaselineGraph,
}


def build_representation(repr_name, mode, n, edges, instrumented=False):
    """Construct the graph structure a solver runs on.

    repr_name: "hybrid" (constant-time undo) or "alist" (linked-list
    baseline with log replay).  mode: "plain", "addition" (permanent
    edge insertion), or "contraction" (color merging; hybrid only).
    instrumented: count the cells each op touches (see instrumented.py).
    """
    if repr_name not in REPR_NAMES:
        raise ValueError(f"unknown representation {repr_name!r}")
    cls = _CLASSES.get((repr_name, mode))
    if cls is None:
        raise ValueError(f"no {mode!r} mode for representation {repr_name!r}")
    return (counting(cls) if instrumented else cls)(n, edges)

