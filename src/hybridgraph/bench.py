"""Benchmark manifest runner.

A manifest is a JSON file:

    {
      "defaults": {"reps": 3, "timeout_s": 600},
      "runs": [
        {"problem": "ds",
         "generator": {"kind": "gnm", "n": 100, "m": 300, "seed": 1}},
        {"problem": "ce", "k": "planted",
         "generator": {"kind": "ce", "n": 60, "clusters": 6,
                       "flips": 14, "seed": 3}},
        {"problem": "vc", "path": "data/big.clq", "optional": true,
         "timeout_s": 1800}
      ]
    }

Every row runs on both representations, hybrid and alist: each
solves it `reps` times, reporting the median wall time.  The
representations take turns rep by rep (hybrid, alist, hybrid, ...), so
a drift in host speed lands on both sides of the row's `speedup`; one
that times out drops out of the rotation.  The pair's answers and
search-tree node counts must match exactly; a mismatch is recorded as
a row failure.  Rows run one after another in manifest order.  Wall
times cover the search call only, never parsing or generation.

Row keys are ``KEYS``: which options each problem takes is
``PROBLEMS``; what a value must be is ``VALUE_RULES``, and a
``generator`` entry holds the keys ``GENERATOR_KEYS`` names for its
kind.  ``optional`` skips a row silently when its path is missing
(used for large instance files that are fetched separately).
``defaults`` takes the same keys, and a row's own value of a key wins
over the default; a ``reps`` passed to ``run_manifest`` wins over both.
Before any row runs, each row is merged and checked once, in manifest
order: ``_check_entry`` checks its keys and values and ``check_row``
whether it can run.  The first bad row raises a ValueError naming the
row; once the rows have passed, nothing downstream checks them again.
Only what fails at run time (an unreadable file, a generator's range
error) becomes an error record, and later rows still run.

A record is the first timed rep's ``SolverResult.as_dict()`` with
``wall_ms`` replaced by the median over the reps, plus the row fields
name, seed (the generator's), speedup (alist / hybrid wall_ms on an
agreeing pair), status (ok | timeout | error | skipped) and error.  A
row or representation that did not solve gives a record of the row
fields, problem and repr only.  A missing value is None.  With
``counters``, one extra untimed instrumented run per representation
fills the record's ``counters``; it has no deadline, since the timed
run has already finished the same tree.
"""

import json
import os
import statistics

from .instances import gen_cluster_editing, gen_random_gnm, read_instance
from .solvers import (
    SolveTimeout,
    solve_ce_parm,
    solve_ds_opt,
    solve_vc_opt,
    solve_vc_parm,
)
from .solvers.common import REPR_NAMES

# problem -> (solver, takes k, takes fold)
PROBLEMS = {
    "vc": (solve_vc_opt, False, False),
    "vc-parm": (solve_vc_parm, True, True),
    "ds": (solve_ds_opt, False, False),
    "ce": (solve_ce_parm, True, False),
}

GENERATOR_KEYS = {"gnm": ("n", "m", "seed"),
                  "ce": ("n", "clusters", "flips", "seed")}


def _takers(column):
    return " and ".join(p for p, row in PROBLEMS.items() if row[column])


def check_options(problem, k, fold=False):
    """Raise ValueError unless ``problem`` takes the options given.
    ``k`` is None when not given.  Whether a representation has the
    mode ``fold`` runs on is ``build_representation``'s business."""
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}")
    _solver, takes_k, takes_fold = PROBLEMS[problem]
    if k is not None and not takes_k:
        raise ValueError(f"k is only valid for {_takers(1)}")
    if fold and not takes_fold:
        raise ValueError(f"fold is only valid for {_takers(2)}")
    if k is None and takes_k:
        raise ValueError(f"{problem} requires k")


def dispatch_solve(problem, n, edges, repr_name, k=None, fold=False,
                   timeout=None, counters=False):
    """Route one (problem, graph, config) to its solver.  With
    ``counters``, the timed result also carries the operation counters
    of one extra, untimed instrumented run of the same search.  Only
    the timed run is held to ``timeout``: the rerun walks the same
    deterministic tree the timed run has already finished, several
    times slower, so it runs without a deadline.  The caller has
    passed the options through ``check_options``."""
    solver, takes_k, _takes_fold = PROBLEMS[problem]
    args = (k,) if takes_k else ()
    kw = {"repr_name": repr_name}
    if fold:
        kw["fold"] = True
    res = solver(n, edges, *args, **kw, timeout=timeout)
    if counters:
        res.counters = solver(n, edges, *args, **kw, timeout=None,
                              instrumented=True).counters
    return res


def make_instance(gen):
    """The graph a generator entry of ``GENERATOR_KEYS`` describes.
    Returns (spec, planted_k); planted_k is None for gnm."""
    if gen["kind"] == "gnm":
        return gen_random_gnm(gen["n"], gen["m"], gen["seed"]), None
    return gen_cluster_editing(
        gen["n"], gen["clusters"], gen["flips"], gen["seed"])


def _base_record(cfg, repr_name=None, status="ok", error=None):
    return {
        "name": cfg.get("name"),
        "problem": cfg.get("problem"),
        "repr": repr_name,
        "seed": cfg.get("seed"),
        "speedup": None,
        "status": status,
        "error": error,
    }


def run_row(cfg, base_dir, counters=False):
    """Execute one manifest row, already merged over the manifest's
    ``defaults`` and passed by ``check_row``.  Returns the hybrid and
    alist records, in ``REPR_NAMES`` order, or a single record when the
    instance cannot be made: ``skipped`` for a missing optional file,
    ``error`` for an unreadable file or a generator's range error."""
    cfg = dict(cfg)
    gen, path = cfg.get("generator"), cfg.get("path")
    if gen is None and cfg.get("optional") and not os.path.exists(
            os.path.join(base_dir, path)):
        return [_base_record(cfg, status="skipped",
                             error=f"missing optional file {path}")]
    try:
        if gen is None:
            spec, _warnings = read_instance(os.path.join(base_dir, path))
        else:
            spec, planted = make_instance(gen)
            cfg["seed"] = gen["seed"]
    except (ValueError, OSError) as exc:
        return [_base_record(cfg, status="error", error=str(exc))]
    problem, k = cfg["problem"], cfg.get("k")
    if k == "planted":
        k = planted
    cfg["name"] = cfg.get("name") or spec.name
    reps = cfg.get("reps", 3)
    timeout = cfg.get("timeout_s")

    runs = [(_base_record(cfg, repr_name), []) for repr_name in REPR_NAMES]
    for _ in range(reps):
        for rec, results in runs:
            if rec["status"] != "ok":
                continue
            try:
                # the first rep becomes the record, so it alone counts
                results.append(dispatch_solve(
                    problem, spec.n, spec.edges, rec["repr"], k=k,
                    timeout=timeout, counters=counters and not results))
            except SolveTimeout:
                rec["status"] = "timeout"
                rec["error"] = f"timeout after {timeout}s"
    for rec, results in runs:
        if rec["status"] != "ok":
            continue
        nodes = {r.nodes for r in results}
        if len(nodes) != 1:
            rec["status"] = "error"
            rec["error"] = f"nondeterministic node counts {sorted(nodes)}"
            continue
        rec.update(results[0].as_dict())
        rec["wall_ms"] = round(statistics.median(r.wall_ms for r in results), 3)
    records = [rec for rec, _ in runs]

    hy, al = records
    if hy["status"] == al["status"] == "ok":
        if ((hy["answer"], hy["size"], hy["nodes"])
                != (al["answer"], al["size"], al["nodes"])):
            for r in records:
                r["status"] = "error"
                r["error"] = (
                    "representation mismatch: "
                    f"hybrid=({hy['answer']},{hy['size']},{hy['nodes']}) "
                    f"alist=({al['answer']},{al['size']},{al['nodes']})")
        elif hy["wall_ms"] > 0:
            hy["speedup"] = al["speedup"] = round(al["wall_ms"] / hy["wall_ms"], 3)
    return records


def _is_generator(x):
    if type(x) is not dict or x.get("kind") not in tuple(GENERATOR_KEYS):
        return False
    keys = GENERATOR_KEYS[x["kind"]]
    return x.keys() == {"kind", *keys} and all(type(x[key]) is int for key in keys)


# (key, rule, test) for values; type(x) is int, not isinstance, so that
# JSON true/false do not pass as 1/0
VALUE_RULES = (
    ("k", "an int >= 0 or 'planted'",
     lambda x: x == "planted" or type(x) is int and x >= 0),
    ("reps", "an int >= 1", lambda x: type(x) is int and x >= 1),
    ("timeout_s", "null or a number >= 0",
     lambda x: x is None or type(x) in (int, float) and x >= 0),
    ("optional", "true or false", lambda x: type(x) is bool),
    ("name", "a non-empty string", lambda x: type(x) is str and x != ""),
    ("generator", "an object with 'kind' and int values: "
     + " or ".join(f"{kind} {keys}" for kind, keys in GENERATOR_KEYS.items()),
     _is_generator),
    ("path", "a string", lambda x: type(x) is str),
)

KEYS = frozenset(("problem", *(key for key, _, _ in VALUE_RULES)))


def _check_entry(entry, where):
    if type(entry) is not dict:
        raise ValueError(f"{where}: must be an object, got {entry!r}")
    for key in entry:
        if key not in KEYS:
            raise ValueError(f"{where}: unknown key {key!r}")
    for key, rule, ok in VALUE_RULES:
        if key in entry and not ok(entry[key]):
            raise ValueError(f"{where}: {key} must be {rule}, "
                             f"got {entry[key]!r}")


def check_row(cfg, where):
    """Raise ``ValueError("<where>: ...")`` unless the merged row ``cfg``
    can run: it names a problem, ``check_options`` accepts that
    problem and its options, it names exactly one of
    ``generator`` and ``path``, and a ``"planted"`` k comes with a ce
    generator.  Values are ``_check_entry``'s business."""
    try:
        if cfg.get("problem") is None:
            raise ValueError("missing 'problem'")
        check_options(cfg["problem"], cfg.get("k"))
        gen = cfg.get("generator")
        if (gen is None) == (cfg.get("path") is None):
            raise ValueError("needs exactly one of 'generator' or 'path'")
        if cfg.get("k") == "planted" and (gen is None or gen["kind"] != "ce"):
            raise ValueError("'planted' k needs a ce generator")
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def run_manifest(path, reps=None, counters=False):
    """Run every row of the manifest file at `path` in manifest order;
    a row's ``path`` is relative to the manifest's directory.  Returns
    (records, all_ok); skipped optional rows do not clear all_ok."""
    with open(path, "r", encoding="ascii") as fh:
        data = json.load(fh)
    base_dir = os.path.dirname(os.path.abspath(path))
    if type(data) is not dict:
        raise ValueError("manifest: must be an object with 'defaults' and "
                         f"'runs', got {type(data).__name__}")
    for key in data:
        if key not in ("defaults", "runs"):
            raise ValueError(f"manifest: unknown key {key!r}")
    runs = data.get("runs", [])
    if type(runs) is not list:
        raise ValueError(f"manifest: runs must be a list, got {runs!r}")
    defaults = data.get("defaults", {})
    override = {} if reps is None else {"reps": reps}
    _check_entry(defaults, "defaults")
    _check_entry(override, "--reps")
    cfgs = []
    for i, row in enumerate(runs):
        _check_entry(row, f"row {i}")
        cfgs.append({**defaults, **row, **override})
        check_row(cfgs[-1], f"row {i}")
    records = [rec for cfg in cfgs
               for rec in run_row(cfg, base_dir, counters)]
    all_ok = all(r["status"] in ("ok", "skipped") for r in records)
    return records, all_ok
