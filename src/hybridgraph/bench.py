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
separately), counters.  ``defaults`` takes the same keys, and a row's
own value of a key wins over the default.  Before any row runs, the
manifest is rejected with a ValueError naming the row and the key if
``defaults`` or a row holds any other key or a value outside
``VALUE_RULES``: k an int >= 0 or "planted", reps an int >= 1,
timeout_s null or a number >= 0 (a JSON boolean is none of these);
fold, complement, optional and counters JSON booleans; reprs a
non-empty list of distinct names from ``REPR_NAMES``.
"""

import csv
import hashlib
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
    "timeout_s", "complement", "optional", "counters",
))

# BenchRecord CSV column order
FIELDS = (
    "name",
    "problem",
    "repr",
    "answer",
    "size",
    "k",
    "fold",
    "nodes",
    "counters",
    "wall_ms",
    "seed",
    "config_hash",
    "speedup",
    "status",
    "error",
)


def dispatch_solve(problem, n, edges, repr_name, k=None, fold=False,
                   timeout=None, instrumented=False):
    """Route one (problem, graph, config) to its solver."""
    if problem == "vc":
        return solve_vc_opt(n, edges, repr_name=repr_name,
                            timeout=timeout, instrumented=instrumented)
    if problem == "vc-parm":
        if k is None:
            raise ValueError("vc-parm requires k")
        return solve_vc_parm(n, edges, k, repr_name=repr_name, fold=fold,
                             timeout=timeout, instrumented=instrumented)
    if problem == "ds":
        return solve_ds_opt(n, edges, repr_name=repr_name,
                            timeout=timeout, instrumented=instrumented)
    if problem == "ce":
        if k is None:
            raise ValueError("ce requires k")
        return solve_ce_parm(n, edges, k, repr_name=repr_name,
                             timeout=timeout, instrumented=instrumented)
    raise ValueError(f"unknown problem {problem!r}")


def config_hash(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _load_row_instance(cfg, base_dir):
    """Materialize the row's graph.  Returns (spec, seed, planted_k)."""
    gen = cfg.get("generator")
    path = cfg.get("path")
    if (gen is None) == (path is None):
        raise ValueError("row needs exactly one of 'generator' or 'path'")
    if gen is not None:
        kind = gen.get("kind")
        if kind == "gnm":
            spec = gen_random_gnm(gen["n"], gen["m"], gen["seed"])
            return spec, gen["seed"], None
        if kind == "ce":
            spec, planted = gen_cluster_editing(
                gen["n"], gen["clusters"], gen["flips"], gen["seed"])
            return spec, gen["seed"], planted
        raise ValueError(f"unknown generator kind {kind!r}")
    full = path if os.path.isabs(path) else os.path.join(base_dir, path)
    spec, _warnings = read_instance(full, complement=cfg.get("complement", False))
    return spec, None, None


def _base_record(cfg):
    return {
        "name": cfg.get("name", ""),
        "problem": cfg.get("problem", ""),
        "repr": "",
        "answer": "",
        "size": "",
        "k": "" if cfg.get("k") is None else cfg["k"],
        "fold": cfg.get("fold", False),
        "nodes": "",
        "counters": "",
        "wall_ms": "",
        "seed": "" if cfg.get("seed") is None else cfg["seed"],
        "config_hash": "",
        "speedup": "",
        "status": "ok",
        "error": "",
    }


def run_row(row, defaults, base_dir):
    """Execute one manifest row.  Returns a list of record dicts, one
    per representation (or a single error/skipped record).  Every key
    is read from the row merged over ``defaults``."""
    cfg = dict(defaults)
    cfg.update(row)
    problem = cfg.get("problem")
    try:
        if problem not in PROBLEMS:
            raise ValueError(f"unknown problem {problem!r}")
        path = cfg.get("path")
        if (
            cfg.get("optional", False)
            and path is not None
            and not os.path.exists(
                path if os.path.isabs(path) else os.path.join(base_dir, path))
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
        cfg["k"] = k
        cfg["seed"] = seed
        reprs = cfg.get("reprs", ["hybrid", "alist"])
        reps = cfg.get("reps", 3)
        timeout = cfg.get("timeout_s")
        fold = cfg.get("fold", False)
        name = cfg.get("name") or spec.name
    except (ValueError, OSError, KeyError) as exc:
        rec = _base_record(cfg)
        rec["status"] = "error"
        rec["error"] = str(exc)
        return [rec]

    runs = []   # (record, results) per representation
    for repr_name in reprs:
        rec = _base_record(cfg)
        rec["name"] = name
        rec["repr"] = repr_name
        rec["config_hash"] = config_hash({
            "problem": problem, "repr": repr_name, "k": k, "fold": fold,
            "reps": reps, "timeout_s": timeout,
            "instance": spec.name,
        })
        runs.append((rec, []))
    for _ in range(reps):
        for rec, results in runs:
            if rec["status"] != "ok":
                continue
            try:
                results.append(dispatch_solve(
                    problem, spec.n, spec.edges, rec["repr"],
                    k=k, fold=fold, timeout=timeout))
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
        first = results[0]
        rec["answer"] = first.answer
        rec["size"] = "" if first.size is None else first.size
        rec["nodes"] = first.nodes
        rec["wall_ms"] = round(statistics.median(r.wall_ms for r in results), 3)
        if cfg.get("counters"):
            # one extra instrumented run, never timed
            inst = dispatch_solve(problem, spec.n, spec.edges, rec["repr"],
                                  k=k, fold=fold, timeout=timeout,
                                  instrumented=True)
            rec["counters"] = json.dumps(inst.counters, sort_keys=True,
                                         separators=(",", ":"))
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


# (key, rule, test) for values; type(x) is int, not isinstance, so that
# JSON true/false do not pass as 1/0
VALUE_RULES = (
    ("k", "an int >= 0 or 'planted'",
     lambda x: x == "planted" or type(x) is int and x >= 0),
    ("reps", "an int >= 1", lambda x: type(x) is int and x >= 1),
    ("timeout_s", "null or a number >= 0",
     lambda x: x is None or type(x) in (int, float) and x >= 0),
    *((key, "true or false", lambda x: type(x) is bool)
      for key in ("fold", "complement", "optional", "counters")),
    ("reprs", f"a non-empty list of distinct names from {REPR_NAMES}",
     lambda x: type(x) is list and x != [] and all(r in REPR_NAMES for r in x)
     and len(set(x)) == len(x)),
)


def _check_entry(entry, where):
    for key in entry:
        if key not in KEYS:
            raise ValueError(f"{where}: unknown key {key!r}")
    for key, rule, ok in VALUE_RULES:
        if key in entry and not ok(entry[key]):
            raise ValueError(f"{where}: {key} must be {rule}, "
                             f"got {entry[key]!r}")


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
    defaults = dict(data.get("defaults", {}))
    if reps is not None:
        defaults["reps"] = reps
    if counters:
        defaults["counters"] = True
    rows = data.get("runs", [])
    _check_entry(defaults, "defaults")
    for i, row in enumerate(rows):
        _check_entry(row, f"row {i}")
    records = [rec for row in rows for rec in run_row(row, defaults, base_dir)]
    all_ok = all(r["status"] in ("ok", "skipped") for r in records)
    return records, all_ok


def write_csv(records, fh):
    writer = csv.DictWriter(fh, fieldnames=FIELDS)
    writer.writeheader()
    for rec in records:
        writer.writerow(rec)


def write_json(records, fh):
    json.dump(records, fh, indent=2, default=str)
    fh.write("\n")
