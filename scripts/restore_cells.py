#!/usr/bin/env python3
"""Print what a restore costs each representation, row by row.

Usage:
    hybridgraph bench benchmarks/manifest.json --reps 1 --counters --out run.json
    python3 scripts/restore_cells.py run.json

Reads the records of one ``hybridgraph bench --counters`` run and prints
a Markdown table with one line per row that both representations
solved:
- mutations per node: the calls of ``delete_edge``, ``delete_vertex``,
  ``add_edge`` and ``contract``, over search nodes (both sides of an
  agreeing pair make the same calls; the hybrid's are read);
- each side's restore cells per call, reads plus writes, and the
  alist's over the hybrid's;
- each side's restore share: restore cells over all counted cells,
  queries included;
- the row's speedup (alist wall time over hybrid wall time).
Rows that did not solve on both sides, or carry no counters, are left
out.
"""

import json
import sys

MUTATIONS = ("delete_edge", "delete_vertex", "add_edge", "contract")
HEADER = ("row", "mutations per node", "hybrid restore cells per call",
          "alist restore cells per call", "alist / hybrid",
          "restore share (hybrid / alist)", "speedup")


def restore_costs(counters):
    """``(restore cells per call, restore share)`` of one record's
    counters, counting reads plus writes."""
    r = counters["restore"]
    restore = r["reads"] + r["writes"]
    total = sum(c["reads"] + c["writes"] for c in counters.values())
    return restore / r["calls"], restore / total


def line(hy, al):
    """One table line from a row's hybrid and alist records."""
    hc = hy["counters"]
    mutations = sum(hc[op]["calls"] for op in MUTATIONS if op in hc)
    h_call, h_share = restore_costs(hc)
    a_call, a_share = restore_costs(al["counters"])
    return (hy["name"], f"{mutations / hy['nodes']:.1f}", f"{h_call:,.0f}",
            f"{a_call:,.0f}", f"{a_call / h_call:.2f}",
            f"{h_share:.2f} / {a_share:.2f}", f"{hy['speedup']:.2f}")


def table(records):
    """The Markdown lines of the table over a bench run's records."""
    pairs = {}
    for rec in records:
        if rec["status"] == "ok" and rec.get("counters"):
            pairs.setdefault(rec["name"], {})[rec["repr"]] = rec
    out = ["| " + " | ".join(HEADER) + " |", "|" + "---|" * len(HEADER)]
    for pair in pairs.values():
        if pair.keys() == {"hybrid", "alist"}:
            out.append("| " + " | ".join(line(pair["hybrid"], pair["alist"]))
                       + " |")
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[0], encoding="ascii") as fh:
        print("\n".join(table(json.load(fh))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
