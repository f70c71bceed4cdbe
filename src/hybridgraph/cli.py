"""Command-line front end.

    hybridgraph solve vc --input graph.clq --repr hybrid
    hybridgraph solve ce --input toy.clq --k 3
    hybridgraph bench benchmarks/manifest.json --out report.json

`solve` prints ``SolverResult.as_dict()`` plus the instance name as
JSON; `bench` writes a JSON list of the records described in
``hybridgraph.bench``.  Exit codes: 0 solved (or decision "yes"),
1 decision "no", 2 error, 3 timeout.
"""

import json
import sys

import click

from . import bench as benchmod
from .instances import read_instance
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
@click.argument("problem", type=click.Choice(tuple(benchmod.PROBLEMS)))
@click.option("--input", "input_path", required=True,
              help="DIMACS instance file (p edge N M, then e U V lines).")
@click.option("--repr", "repr_name", default="hybrid",
              type=click.Choice(REPR_NAMES), show_default=True)
@click.option("--k", type=int, default=None,
              help="Budget for vc-parm / ce.")
@click.option("--fold", is_flag=True,
              help="Degree-2 folding (vc-parm only; needs a contraction mode).")
@click.option("--timeout-s", type=float, default=None,
              help="Abort the search after this many seconds.")
@click.option("--counters", is_flag=True,
              help="Add an untimed instrumented run and report operation "
                   "counters; --timeout-s bounds the timed run only.")
def solve(problem, input_path, repr_name, k, fold, timeout_s, counters):
    """Solve one instance and print its result record as JSON."""
    try:
        benchmod.check_options(problem, k, fold)
        spec, warnings = read_instance(input_path)
    except (OSError, ValueError) as exc:
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
    click.echo(json.dumps({**res.as_dict(), "instance": spec.name}, indent=2))
    if res.answer is False:
        sys.exit(EXIT_NO)


@main.command(name="bench")
@click.argument("manifest", type=click.Path())
@click.option("--out", default="-", show_default=True,
              help="JSON output path ('-' for stdout).")
@click.option("--reps", type=int, default=None,
              help="Override repetitions per run (median is reported).")
@click.option("--counters", is_flag=True,
              help="Add an untimed instrumented run per row, with no "
                   "deadline.")
def bench(manifest, out, reps, counters):
    """Run a benchmark manifest and write its records as JSON."""
    # an unwritable --out fails before any row runs; opening it to
    # append keeps what it holds if the manifest is rejected
    try:
        with click.open_file(out, "a", encoding="ascii"):
            pass
    except OSError as exc:
        _fail(exc)
    try:
        records, all_ok = benchmod.run_manifest(
            manifest, reps=reps, counters=counters)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        _fail(exc)
    with click.open_file(out, "w", encoding="ascii") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")
    if out != "-":
        click.echo(f"wrote {len(records)} records to {out}", err=True)
    bad = [r for r in records if r["status"] not in ("ok", "skipped")]
    for rec in bad:
        row = " ".join(str(rec[key]) for key in ("name", "problem", "repr")
                       if rec[key] is not None)
        click.echo(f"failed: {row}: {rec['error']}", err=True)
    if not all_ok:
        sys.exit(EXIT_ERROR)


if __name__ == "__main__":
    main()
