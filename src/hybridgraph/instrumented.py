"""Cell counting on the unchanged representation classes.

``counting(cls)`` returns a subclass of a representation class that
runs the plain op bodies as they are.  Its constructor builds the graph
normally and then swaps every list it holds in a slot for a ``Cells``
list that adds each index, slice, copy, append and pop to one shared
``[reads, writes]`` tally; a list of lists is counted row by row.

Reads made by ``assert`` guards are counted too (``python -O`` drops
them).  Every public method is wrapped with a depth guard: the
outermost call owns every cell touched under it, so nested calls
(``add_edge``'s adjacency guard, a mode method calling the plain body)
are charged to their caller and the per-op totals partition all
counted work.  Cells touched outside any op are not charged.
"""

import functools


class OpCounters:
    """Monotone per-operation-class tallies of calls and cell accesses."""

    __slots__ = ("calls", "reads", "writes", "cells", "depth")

    def __init__(self):
        self.calls = {}
        self.reads = {}
        self.writes = {}
        self.cells = [0, 0]   # running reads, writes of every counted array
        self.depth = 0

    def bump(self, op, reads, writes):
        self.calls[op] = self.calls.get(op, 0) + 1
        self.reads[op] = self.reads.get(op, 0) + reads
        self.writes[op] = self.writes.get(op, 0) + writes

    def accesses(self, op):
        return self.reads.get(op, 0) + self.writes.get(op, 0)

    def as_dict(self):
        return {
            op: {
                "calls": self.calls[op],
                "reads": self.reads.get(op, 0),
                "writes": self.writes.get(op, 0),
            }
            for op in sorted(self.calls)
        }


class Cells(list):
    """A list that counts its cell accesses into a shared tally.  A
    slice counts its length; slice assignment and ``copy()`` count one
    read and one write per cell copied; ``append`` writes one cell and
    ``pop`` reads one."""

    __slots__ = ("tally",)

    def __init__(self, tally, cells):
        super().__init__(cells)
        self.tally = tally

    def __getitem__(self, i):
        self.tally[0] += len(range(*i.indices(len(self)))) if type(i) is slice else 1
        return list.__getitem__(self, i)

    def __setitem__(self, i, x):
        t = self.tally
        if type(i) is slice:
            t[0] += len(x)
            t[1] += len(x)
        else:
            t[1] += 1
        list.__setitem__(self, i, x)

    def append(self, x):
        self.tally[1] += 1
        list.append(self, x)

    def pop(self, *i):
        self.tally[0] += 1
        return list.pop(self, *i)

    def copy(self):
        t = self.tally
        t[0] += len(self)
        t[1] += len(self)
        return list(self)


def _count_cells(g, tally):
    """Swap every list a built graph holds in a slot, over all its
    classes, for a counting one: a list of lists row by row."""
    for klass in type(g).__mro__:
        for name in vars(klass).get("__slots__", ()):
            cells = getattr(g, name)
            if type(cells) is not list:
                continue
            if cells and type(cells[0]) is list:
                cells[:] = [Cells(tally, row) for row in cells]
            else:
                setattr(g, name, Cells(tally, cells))


def _counted(op, fn):
    @functools.wraps(fn)
    def counted(g, *args):
        c = g.counters
        if c.depth:
            return fn(g, *args)
        cells = c.cells
        reads, writes = cells
        c.depth = 1
        try:
            return fn(g, *args)
        finally:
            c.depth = 0
            c.bump(op, cells[0] - reads, cells[1] - writes)
    return counted


@functools.cache
def counting(cls):
    """Subclass of representation ``cls`` whose instances count the
    cells each public op touches in ``self.counters``."""

    def __init__(self, n, edges):
        cls.__init__(self, n, edges)
        self.counters = OpCounters()
        _count_cells(self, self.counters.cells)

    ns = {"__slots__": ("counters",), "__init__": __init__}
    for name in dir(cls):
        fn = getattr(cls, name)
        if not name.startswith("_") and callable(fn):
            ns[name] = _counted(name, fn)
    return type(f"Counting{cls.__name__}", (cls,), ns)
