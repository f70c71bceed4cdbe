"""Benchmark manifest runner.

A manifest is a JSON file:

    {
      "defaults": {"reps": 3, "timeout_s": 600,
                   "reprs": ["hybrid", "alist"]},
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

Each run row is solved `reps` times per representation, reporting the
median wall time.  The representations take turns rep by rep (hybrid,
alist, hybrid, ...), so a drift in host speed lands on both sides of
the row's `speedup`; one that times out or errors drops out of the
rotation.  When a row covers both representations their answers and
search-tree node counts must match exactly; a mismatch is recorded as
a row failure.  Rows run one after another in manifest order.  Wall
times cover the search call only, never parsing or generation.

Row keys: problem (vc | vc-parm | ds | ce), and one of generator/path;
optional name, k (int, or "planted" with a ce generator), fold,
reprs, reps, timeout_s, complement, optional (skip silently when the
path is missing: used for large instance files that are fetched
separately).  ``defaults`` takes the same keys, and a row's own value
of a key wins over the default; a ``reps`` passed to ``run_manifest``
wins over both.  Before any row runs, the manifest is rejected with a
ValueError naming the row and the key if ``defaults`` or a row holds
any other key or a value outside ``VALUE_RULES``: k an int >= 0 or
"planted", reps an int >= 1, timeout_s null or a number >= 0 (a JSON
boolean is none of these); fold, complement and optional JSON
booleans; reprs a non-empty list of distinct names from
``REPR_NAMES``; generator an object of ``GENERATOR_KEYS`` with int
values; path a string.  It is also rejected if a row merged over
``defaults`` holds a key its row cannot use (``SCOPE_RULES``): k
outside vc-parm and ce, fold outside vc-parm, complement on a
generator row; and, once every row has passed those checks, if a
vc-parm row has fold true and alist in its reprs (alist has no
contraction mode).

A record is the first timed rep's ``SolverResult.as_dict()`` with
``wall_ms`` replaced by the median over the reps, plus the row fields
name, seed (the generator's), speedup (alist / hybrid wall_ms on an
agreeing pair), status (ok | timeout | error | skipped) and error.  A
row or representation that did not solve gives a record of the row
fields, problem and repr only.  A missing value is None.  With
``counters``, one extra untimed instrumented run per representation
fills the record's ``counters``.
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

PROBLEMS = ("vc", "vc-parm", "ds", "ce")

KEYS = frozenset((
    "problem", "generator", "path", "name", "k", "fold", "reprs", "reps",
    "timeout_s", "complement", "optional",
))

GENERATOR_KEYS = {"gnm": ("n", "m", "seed"),
                  "ce": ("n", "clusters", "flips", "seed")}


def dispatch_solve(problem, n, edges, repr_name, k=None, fold=False,
                   timeout=None, counters=False):
    """Route one (problem, graph, config) to its solver.  With
    ``counters``, the timed result also carries the operation counters
    of one extra, untimed instrumented run of the same search."""
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}")
    if k is None and problem in ("vc-parm", "ce"):
        raise ValueError(f"{problem} requires k")

    def run(instrumented):
        kw = {"repr_name": repr_name, "timeout": timeout,
              "instrumented": instrumented}
        if problem == "vc":
            return solve_vc_opt(n, edges, **kw)
        if problem == "vc-parm":
            return solve_vc_parm(n, edges, k, fold=fold, **kw)
        if problem == "ds":
            return solve_ds_opt(n, edges, **kw)
        return solve_ce_parm(n, edges, k, **kw)

    res = run(False)
    if counters:
        res.counters = run(True).counters
    return res


def _load_row_instance(cfg, base_dir):
    """Materialize the row's graph.  Returns (spec, seed, planted_k)."""
    gen = cfg.get("generator")
    path = cfg.get("path")
    if (gen is None) == (path is None):
        raise ValueError("row needs exactly one of 'generator' or 'path'")
    if gen is None:
        spec, _warnings = read_instance(os.path.join(base_dir, path),
                                        complement=cfg.get("complement", False))
        return spec, None, None
    if gen["kind"] == "gnm":
        return gen_random_gnm(gen["n"], gen["m"], gen["seed"]), gen["seed"], None
    spec, planted = gen_cluster_editing(
        gen["n"], gen["clusters"], gen["flips"], gen["seed"])
    return spec, gen["seed"], planted


def _base_record(cfg, repr_name=None):
    return {
        "name": cfg.get("name"),
        "problem": cfg.get("problem"),
        "repr": repr_name,
        "seed": cfg.get("seed"),
        "speedup": None,
        "status": "ok",
        "error": None,
    }


def run_row(cfg, base_dir, counters=False):
    """Execute one manifest row, already merged over the manifest's
    ``defaults``.  Returns a list of records, one per representation
    (or a single error/skipped record)."""
    cfg = dict(cfg)
    problem = cfg.get("problem")
    try:
        if problem not in PROBLEMS:
            raise ValueError(f"unknown problem {problem!r}")
        path = cfg.get("path")
        if (
            cfg.get("optional", False)
            and path is not None
            and not os.path.exists(os.path.join(base_dir, path))
        ):
            rec = _base_record(cfg)
            rec["status"] = "skipped"
            rec["error"] = f"missing optional file {path}"
            return [rec]
        spec, seed, planted = _load_row_instance(cfg, base_dir)
        k = cfg.get("k")
        if k == "planted":
            if planted is None:
                raise ValueError("'planted' k needs a ce generator")
            k = planted
        cfg["seed"] = seed
        cfg["name"] = cfg.get("name") or spec.name
        reprs = cfg.get("reprs", REPR_NAMES)
        reps = cfg.get("reps", 3)
        timeout = cfg.get("timeout_s")
        fold = cfg.get("fold", False)
    except (ValueError, OSError) as exc:
        rec = _base_record(cfg)
        rec["status"] = "error"
        rec["error"] = str(exc)
        return [rec]

    runs = [(_base_record(cfg, repr_name), []) for repr_name in reprs]
    for _ in range(reps):
        for rec, results in runs:
            if rec["status"] != "ok":
                continue
            try:
                # the first rep becomes the record, so it alone counts
                results.append(dispatch_solve(
                    problem, spec.n, spec.edges, rec["repr"], k=k, fold=fold,
                    timeout=timeout, counters=counters and not results))
            except SolveTimeout:
                rec["status"] = "timeout"
                rec["error"] = f"timeout after {timeout}s"
            except ValueError as exc:
                rec["status"] = "error"
                rec["error"] = str(exc)
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

    ok = [r for r in records if r["status"] == "ok"]
    if len(ok) == 2:
        a, b = ok
        if (a["answer"], a["size"], a["nodes"]) != (b["answer"], b["size"], b["nodes"]):
            for r in ok:
                r["status"] = "error"
                r["error"] = (
                    "representation mismatch: "
                    f"{a['repr']}=({a['answer']},{a['size']},{a['nodes']}) "
                    f"{b['repr']}=({b['answer']},{b['size']},{b['nodes']})")
        else:
            by_repr = {r["repr"]: r for r in ok}
            if "hybrid" in by_repr and "alist" in by_repr:
                hy = by_repr["hybrid"]["wall_ms"]
                al = by_repr["alist"]["wall_ms"]
                if hy > 0:
                    ratio = round(al / hy, 3)
                    for r in ok:
                        r["speedup"] = ratio
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
    *((key, "true or false", lambda x: type(x) is bool)
      for key in ("fold", "complement", "optional")),
    ("reprs", f"a non-empty list of distinct names from {REPR_NAMES}",
     lambda x: type(x) is list and x != [] and all(r in REPR_NAMES for r in x)
     and len(set(x)) == len(x)),
    ("generator", "an object with 'kind' and int values: "
     + " or ".join(f"{kind} {keys}" for kind, keys in GENERATOR_KEYS.items()),
     _is_generator),
    ("path", "a string", lambda x: type(x) is str),
)


def _check_entry(entry, where):
    for key in entry:
        if key not in KEYS:
            raise ValueError(f"{where}: unknown key {key!r}")
    for key, rule, ok in VALUE_RULES:
        if key in entry and not ok(entry[key]):
            raise ValueError(f"{where}: {key} must be {rule}, "
                             f"got {entry[key]!r}")


# (key, the rows it means something to, test on the merged row)
SCOPE_RULES = (
    ("k", "vc-parm and ce rows",
     lambda cfg: cfg["problem"] in ("vc-parm", "ce")),
    ("fold", "vc-parm rows", lambda cfg: cfg["problem"] == "vc-parm"),
    ("complement", "path rows", lambda cfg: "generator" not in cfg),
)


def _check_scope(cfg, where):
    # a row with no known problem becomes an error record instead
    if cfg.get("problem") not in PROBLEMS:
        return
    for key, scope, ok in SCOPE_RULES:
        if key in cfg and not ok(cfg):
            raise ValueError(f"{where}: {key} is only valid for {scope}")


def _check_reprs(cfg, where):
    # folding runs on the contraction mode, which only the hybrid has
    if cfg.get("problem") == "vc-parm" and cfg.get("fold") \
            and "alist" in cfg.get("reprs", REPR_NAMES):
        raise ValueError(f"{where}: fold is only valid for reprs without "
                         "'alist' (alist has no contraction mode)")


def run_manifest(manifest, base_dir=None, reps=None, counters=False):
    """Run every row in manifest order.  `manifest` is a path or a
    parsed dict.  Returns (records, all_ok); skipped optional rows do
    not clear all_ok."""
    if isinstance(manifest, (str, os.PathLike)):
        with open(manifest, "r", encoding="ascii") as fh:
            data = json.load(fh)
        if base_dir is None:
            base_dir = os.path.dirname(os.path.abspath(manifest))
    else:
        data = manifest
    if base_dir is None:
        base_dir = os.getcwd()
    defaults = data.get("defaults", {})
    override = {} if reps is None else {"reps": reps}
    _check_entry(defaults, "defaults")
    _check_entry(override, "--reps")
    cfgs = []
    for i, row in enumerate(data.get("runs", [])):
        _check_entry(row, f"row {i}")
        cfg = {**defaults, **row, **override}
        _check_scope(cfg, f"row {i}")
        cfgs.append(cfg)
    for i, cfg in enumerate(cfgs):
        _check_reprs(cfg, f"row {i}")
    records = [rec for cfg in cfgs
               for rec in run_row(cfg, base_dir, counters)]
    all_ok = all(r["status"] in ("ok", "skipped") for r in records)
    return records, all_ok


def write_json(records, fh):
    json.dump(records, fh, indent=2)
    fh.write("\n")
