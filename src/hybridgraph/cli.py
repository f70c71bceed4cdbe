"""Command-line front end.

    hybridgraph solve vc --input graph.clq --repr hybrid
    hybridgraph solve ce --input toy.el --k 3 --json
    hybridgraph bench benchmarks/manifest.json --out report.json
    hybridgraph gen gnm --n 100 --m 400 --seed 7 --out g.el

`solve --json` prints ``SolverResult.as_dict()`` plus the instance
name; `bench` writes a JSON list of the records described in
``hybridgraph.bench``.  Exit codes: 0 solved (or decision "yes"),
1 decision "no", 2 error, 3 timeout.
"""

import json
import os
import sys

import click

from . import bench as benchmod
from .instances import (
    InstanceFormatError,
    gen_cluster_editing,
    gen_random_gnm,
    read_instance,
    write_edge_list,
)
from .solvers import SolveTimeout
from .solvers.common import REPR_NAMES

EXIT_NO = 1
EXIT_ERROR = 2
EXIT_TIMEOUT = 3


def _fail(message, code=EXIT_ERROR):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@click.group()
def main():
    """Exact VC / DS / CE solvers over swappable graph representations."""


@main.command()
@click.argument("problem", type=click.Choice(benchmod.PROBLEMS))
@click.option("--input", "input_path", required=True,
              help="Instance file (edge list, or DIMACS .col/.clq).")
@click.option("--repr", "repr_name", default="hybrid",
              type=click.Choice(REPR_NAMES), show_default=True)
@click.option("--k", type=int, default=None,
              help="Budget for vc-parm / ce.")
@click.option("--fold", is_flag=True,
              help="Degree-2 folding (vc-parm with --repr hybrid only).")
@click.option("--complement", is_flag=True,
              help="Solve on the complement of a DIMACS instance.")
@click.option("--timeout-s", type=float, default=None,
              help="Abort the search after this many seconds.")
@click.option("--counters", is_flag=True,
              help="Add an instrumented run and report operation counters.")
@click.option("--json", "as_json", is_flag=True, help="Emit the record as JSON.")
def solve(problem, input_path, repr_name, k, fold, complement,
          timeout_s, counters, as_json):
    """Solve one instance and print the result record."""
    if k is None and problem in ("vc-parm", "ce"):
        _fail(f"{problem} requires --k")
    if k is not None and problem in ("vc", "ds"):
        _fail(f"{problem} does not take --k")
    if fold and problem != "vc-parm":
        _fail("--fold is only valid for vc-parm")
    try:
        spec, warnings = read_instance(input_path, complement=complement)
    except (OSError, InstanceFormatError) as exc:
        _fail(exc)
    for w in warnings:
        click.echo(f"warning: {w}", err=True)
    try:
        res = benchmod.dispatch_solve(
            problem, spec.n, spec.edges, repr_name,
            k=k, fold=fold, timeout=timeout_s, counters=counters)
    except SolveTimeout:
        _fail(f"timeout after {timeout_s}s", EXIT_TIMEOUT)
    except ValueError as exc:
        _fail(exc)

    if as_json:
        click.echo(json.dumps({**res.as_dict(), "instance": spec.name}, indent=2))
    else:
        if problem in ("vc", "ds"):
            head = f"{problem} {spec.name}: size {res.size}"
        else:
            head = f"{problem} {spec.name}: {'yes' if res.answer else 'no'} (k={k})"
        click.echo(f"{head}  repr={repr_name} nodes={res.nodes} "
                   f"wall_ms={res.wall_ms:.3f}")
        if res.counters:
            for op in sorted(res.counters):
                tally = res.counters[op]
                click.echo(f"  {op}: calls={tally['calls']} "
                           f"reads={tally['reads']} writes={tally['writes']}")
    if res.answer is False:
        sys.exit(EXIT_NO)


@main.command(name="bench")
@click.argument("manifest", type=click.Path())
@click.option("--out", default="-", show_default=True,
              help="JSON output path ('-' for stdout).")
@click.option("--reps", type=int, default=None,
              help="Override repetitions per run (median is reported).")
@click.option("--counters", is_flag=True,
              help="Add an untimed instrumented run per row.")
def bench(manifest, out, reps, counters):
    """Run a benchmark manifest and write its records as JSON."""
    try:
        records, all_ok = benchmod.run_manifest(
            manifest, reps=reps, counters=counters)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        _fail(exc)
    if out == "-":
        benchmod.write_json(records, sys.stdout)
    else:
        with open(out, "w", encoding="ascii") as fh:
            benchmod.write_json(records, fh)
        click.echo(f"wrote {len(records)} records to {out}", err=True)
    bad = [r for r in records if r["status"] not in ("ok", "skipped")]
    for rec in bad:
        row = " ".join(str(rec[key]) for key in ("name", "problem", "repr")
                       if rec[key] is not None)
        click.echo(f"failed: {row}: {rec['error']}", err=True)
    if not all_ok:
        sys.exit(EXIT_ERROR)


@main.command()
@click.argument("kind", type=click.Choice(["gnm", "ce"]))
@click.option("--n", type=int, required=True)
@click.option("--m", type=int, default=None, help="Edge count (gnm).")
@click.option("--clusters", type=int, default=None, help="Planted cliques (ce).")
@click.option("--k", "flips", type=int, default=None,
              help="Planted edit count (ce).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", required=True, type=click.Path())
def gen(kind, n, m, clusters, flips, seed, out):
    """Generate an instance file (plus a .meta.json sidecar for ce)."""
    try:
        if kind == "gnm":
            if m is None:
                _fail("gnm requires --m")
            spec = gen_random_gnm(n, m, seed)
            meta = None
        else:
            if clusters is None or flips is None:
                _fail("ce requires --clusters and --k")
            spec, planted = gen_cluster_editing(n, clusters, flips, seed)
            meta = {
                "planted_k": planted,
                "generator": {"kind": "ce", "n": n, "clusters": clusters,
                              "flips": flips, "seed": seed},
            }
    except ValueError as exc:
        _fail(exc)
    write_edge_list(spec, out)
    if meta is not None:
        sidecar = os.path.splitext(out)[0] + ".meta.json"
        with open(sidecar, "w", encoding="ascii") as fh:
            json.dump(meta, fh, indent=2)
            fh.write("\n")
        click.echo(f"wrote {out} and {sidecar}", err=True)
    else:
        click.echo(f"wrote {out} ({spec.n} vertices, {spec.m} edges)", err=True)


if __name__ == "__main__":
    main()
