"""Shared solver plumbing: results, deadlines, representation factory."""

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..addition import AdditionGraph
from ..baseline import BaselineGraph
from ..contraction import ContractionGraph
from ..core import HybridGraph
from ..instrumented import counting

REPR_NAMES = ("hybrid", "alist")


class SolveTimeout(Exception):
    """Raised when a solver runs past its deadline."""


class Deadline:
    """Monotonic-clock budget; solvers poll it at every search node."""

    __slots__ = ("t_end",)

    def __init__(self, seconds=None):
        self.t_end = None if seconds is None else time.monotonic() + seconds

    def expired(self):
        return self.t_end is not None and time.monotonic() > self.t_end


@contextmanager
def recursion_limit(limit):
    """Run a recursive search under ``limit``, then give the caller
    back the interpreter's previous limit, also on a timeout."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@dataclass
class SolverResult:
    problem: str
    n: int
    answer: object        # minimum size for optimization, bool for decision
    witness: list | None
    nodes: int
    wall_ms: float
    repr_name: str
    size: int | None = None
    k: int | None = None
    fold: bool = False
    counters: dict | None = field(default=None, repr=False)

    def as_dict(self):
        return {
            "problem": self.problem,
            "n": self.n,
            "answer": self.answer,
            "size": self.size,
            "k": self.k,
            "fold": self.fold,
            "witness": self.witness,
            "nodes": self.nodes,
            "wall_ms": round(self.wall_ms, 3),
            "repr": self.repr_name,
            "counters": self.counters,
        }


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


def harvest_counters(g):
    counters = getattr(g, "counters", None)
    return counters.as_dict() if counters is not None else None
