#!/usr/bin/env python3
"""Repository benchmark: time to solution per representation, and a
traced run that splits it by layer.

Run from the repository root:

    python3 searchbench/run.py --workload ds-sweep --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics: the seconds spent in the
public ``solve_*`` calls on each representation, set-up time and peak
RSS.  Times are scaled to a nominal host by a reference workload timed
next to every measurement (see ``reference_s``).  ``--trace 1`` makes one plain pass, one pass on the instrumented
representations and one pass with every public representation method
wrapped, and prints the per-layer metrics.  Both modes check every
answer; the last stdout line is one JSON object.  See README.md in
this directory for the metric table.

The package is imported from ``src/`` of the checkout this file sits
in, never from an installed copy.  The benchmark runs in one process
with no threads, under the interpreter's default flags (asserts on).
"""

import argparse
import functools
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "searchbench", "out")

if not os.path.isfile(os.path.join(SRC, "hybridgraph", "__init__.py")):
    sys.exit(f"searchbench: no hybridgraph source under {SRC}")
sys.path.insert(0, SRC)

import hybridgraph as hg  # noqa: E402
from hybridgraph.solvers import build_representation  # noqa: E402
from hybridgraph.solvers.dominating_set import cover_edges  # noqa: E402

if not os.path.abspath(hg.__file__).startswith(SRC + os.sep):
    sys.exit(f"searchbench: imported hybridgraph from {hg.__file__}, not {SRC}")

REPRS = ("hybrid", "alist")
TIMEOUT_S = 30          # per solve; a timeout is a failed check
SETUP_REPS = 15         # set-up is repeated and the median reported
SETUP_EVERY_S = 1.0     # a timed run repeats set-up about this often
CALIB_LOOPS = 200_000   # pure-Python reference loop length
# Seconds the reference workload takes on the nominal host that timed
# metrics are scaled to (about its median on the host the benchmark was
# written on).
REF_NOMINAL_S = 0.004

# Solvers are looked up here at call time so tests can substitute one.
SOLVE = {
    "ds": hg.solve_ds_opt,
    "vc": hg.solve_vc_opt,
    "vc-parm": hg.solve_vc_parm,
    "ce": hg.solve_ce_parm,
}


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str   # "ds", "vc" or "ce"
    params: tuple  # per instance: (n, m) for ds/vc, (n, clusters, flips) for ce


# Instance sizes sit where the search tree varies little from one
# random graph to the next (checked over several seeds), and each run
# holds many small instances rather than a few large ones, so a run's
# total tracks the code rather than the seed.  Sparser G(n,m)
# dominating-set and vertex-cover instances have trees whose size swings
# by 10x across seeds, and denser small dominating-set instances
# sometimes collapse to a one-node tree.
WORKLOADS = {w.name: w for w in (
    # Write-heavy on the representation: delete_edge/delete_vertex and
    # O(n) restore dominate; the alist gap grows with density (0.61-0.72).
    Workload("ds-sweep", "ds", (
        (100, 3000), (100, 3000), (110, 4000), (110, 4000), (150, 8000))),
    # Solver-heavy optimisation (clique-cover bound, is_adjacent reads)
    # plus delete/restore-heavy decision trees at k = opt and opt - 1,
    # with and without folding (the only use of contraction mode).
    Workload("vc-mix", "vc", ((60, 700),) * 10 + ((70, 1000),) * 4),
    # Few expensive nodes: conflict rescans and addition-mode
    # is_adjacent reads; deletions are negligible.  The k = planted - 1
    # search is a one-node tree on most instances and a full one on
    # about one in twelve, so many mid-size instances rather than a few
    # large ones keep that draw from setting a run's total.
    Workload("ce-planted", "ce",
             ((100, 9, 13),) * 10 + ((120, 10, 14),) * 10 + ((140, 10, 15),) * 10),
)}

# One small untimed solve per problem and representation before timing.
WARMUP = {
    "ds": Workload("warmup", "ds", ((40, 300),)),
    "vc": Workload("warmup", "vc", ((40, 200),)),
    "ce": Workload("warmup", "ce", ((40, 5, 6),)),
}

# Structures a workload's solves build; set-up builds each once per instance.
BUILDS = {
    "ds": (("hybrid", "plain"), ("alist", "plain")),
    "vc": (("hybrid", "plain"), ("hybrid", "contraction"), ("alist", "plain")),
    "ce": (("hybrid", "addition"), ("alist", "addition")),
}

OPS = ("is_adjacent", "neighbors", "degree", "delete_edge", "delete_vertex",
       "add_edge", "snapshot", "restore", "max_degree_vertex",
       "active_vertices", "active_edge_count")
CONTRACTION_OPS = ("contract", "delete_color", "color_neighbors",
                   "colors_adjacent", "color_degree", "max_degree_color")
# Ops the instrumented classes count; the contraction mode has no
# instrumented class, so fold solves contribute no cells.
COUNTED_OPS = {
    "hybrid": ("is_adjacent", "delete_edge", "delete_vertex", "add_edge",
               "snapshot", "restore"),
    "alist": ("is_adjacent", "delete_edge", "delete_vertex", "restore"),
}

END_TO_END = {
    "hybrid_solve_s": "s",
    "alist_solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    """Name -> unit of every metric the traced run prints."""
    units = {"instances.gen_s": "s", "hybrid.build_s": "s", "alist.build_s": "s"}
    for r in REPRS:
        for op in OPS:
            units[f"{r}.{op}.calls"] = "count"
            units[f"{r}.{op}.self_ns"] = "ns"
    for op in CONTRACTION_OPS:
        units[f"hybrid.{op}.calls"] = "count"
        units[f"hybrid.{op}.self_ns"] = "ns"
    for r in REPRS:
        for op in COUNTED_OPS[r]:
            units[f"{r}.{op}.cells_per_call"] = "cells"
    units["alist.restore.records_per_call"] = "records"
    units["solver.nodes"] = "count"
    for r in REPRS:
        units[f"{r}.repr_share"] = "ratio"
        units[f"{r}.solver_share"] = "ratio"
        units[f"{r}.search_s"] = "s"
        units[f"{r}.us_per_node"] = "us"
        units[f"{r}.solve_overhead_s"] = "s"
    units["paper.speedup"] = "x"
    units["env.calib_ns"] = "ns"
    units["trace.overhead"] = "s"
    return units


# -- instances and set-up -------------------------------------------------

@dataclass
class Instance:
    index: int
    params: tuple
    seed: int
    spec: object          # hybridgraph.InstanceSpec
    planted: int | None   # planted edit count for cluster editing

    def describe(self):
        return {"index": self.index, "name": self.spec.name,
                "params": list(self.params), "seed": self.seed,
                "n": self.spec.n, "m": self.spec.m, "planted": self.planted}


def generate(workload, seed):
    """The workload's instances; instance i uses generator seed
    1000 * seed + i, so one --seed fixes every input."""
    out = []
    for i, p in enumerate(workload.params):
        s = 1000 * seed + i
        if workload.problem == "ce":
            spec, planted = hg.gen_cluster_editing(*p, seed=s)
        else:
            spec, planted = hg.gen_random_gnm(*p, seed=s), None
        out.append(Instance(i, p, s, spec, planted))
    return out


def build(problem, inst, repr_name, mode):
    n, edges = inst.spec.n, inst.spec.edges
    if problem == "ds":
        n, edges = 2 * n, cover_edges(n, edges)
    return build_representation(repr_name, mode, n, edges)


def setup_once(workload, seed):
    """Generate the instances and build each structure once.  Returns
    (instances, gen_s, build_s by representation)."""
    t0 = time.perf_counter()
    instances = generate(workload, seed)
    gen_s = time.perf_counter() - t0
    build_s = dict.fromkeys(REPRS, 0.0)
    for inst in instances:
        for repr_name, mode in BUILDS[workload.problem]:
            t0 = time.perf_counter()
            build(workload.problem, inst, repr_name, mode)
            build_s[repr_name] += time.perf_counter() - t0
    return instances, gen_s, build_s


def setup(workload, seed):
    """Median set-up timings over SETUP_REPS repetitions.  Only the
    first repetition's instances are kept, so repeating set-up does not
    raise peak RSS."""
    instances = None
    gens, builds = [], []
    for _ in range(SETUP_REPS):
        insts, gen_s, build_s = setup_once(workload, seed)
        instances = instances or insts
        gens.append(gen_s)
        builds.append(build_s)
    build_s = {k: statistics.median(b[k] for b in builds) for k in REPRS}
    return instances, statistics.median(gens), build_s


# -- solving and checking -------------------------------------------------

def _check(problem, inst, res, k, expect):
    """None if the result is right, else the reason it is not."""
    n, edges = inst.spec.n, inst.spec.edges
    w = res.witness
    if problem in ("ds", "vc"):
        ok = hg.verify_ds(n, edges, w) if problem == "ds" else hg.verify_vc(n, edges, w)
        if not ok or res.answer != len(w):
            return f"invalid witness for answer {res.answer}"
        return None
    if expect is not None and res.answer != expect:
        return f"answered {res.answer} at k={k}, expected {expect}"
    if res.answer:
        if problem == "vc-parm":
            ok = w is not None and len(w) <= k and hg.verify_vc(n, edges, w)
        else:
            ok = w is not None and hg.verify_ce(n, edges, w, k)
        if not ok:
            return f"invalid witness at k={k}"
    return None


class _RefGraph:
    def __init__(self, n):
        self.rows = [[(i * 7 + j * 13) % 5 == 0 for j in range(n)]
                     for i in range(n)]

    def adjacent(self, u, v):
        return self.rows[u][v]


def reference_s(n=80, loops=60_000):
    """Seconds of one fixed pure-Python workload, the same on every
    commit: method calls, list reads and row copies on a small matrix,
    then an integer loop.  It is timed next to every measurement of a
    timed run, because the shared host's speed drifts by up to 70 %
    within minutes while this ratio stays put."""
    t0 = time.perf_counter()
    g = _RefGraph(n)
    hits = 0
    for u in range(n):
        saved = g.rows[u][:]
        for v in range(n):
            if g.adjacent(u, v):
                hits += 1
        g.rows[u] = saved
    x = hits
    for i in range(loops):
        x += i & 7
    return time.perf_counter() - t0


def host_scaled(seconds, ref_before, ref_after):
    """`seconds` as they would read on the nominal host: scaled by
    REF_NOMINAL_S over the mean of the references either side."""
    return seconds * 2 * REF_NOMINAL_S / (ref_before + ref_after)


class Runner:
    """Runs the solves of a pass and keeps one record per solve.  With
    `scale`, each solve also gets `scaled_s`, its time scaled to the
    nominal host by the reference workloads timed just before and just
    after it."""

    def __init__(self, mode="plain", tracer=None, scale=False):
        self.mode = mode            # "plain", "instrumented" or "traced"
        self.instrumented = mode == "instrumented"
        self.tracer = tracer
        self.scale = scale
        self.ref_s = None           # reference timed after the last solve
        self.records = []
        self.pass_index = 0

    def _record(self, inst, label, repr_name, k, fold):
        rec = {"mode": self.mode, "pass": self.pass_index,
               "instance": inst.index, "label": label, "repr": repr_name,
               "k": k, "fold": fold, "answer": None, "nodes": None,
               "wall_ms": None, "solve_s": None, "scaled_s": None,
               "ref_s": None, "counters": None,
               "ok": False, "error": None}
        self.records.append(rec)
        return rec

    def solve(self, inst, label, problem, repr_name, k=None, fold=False,
              expect=None):
        rec = self._record(inst, label, repr_name, k, fold)
        args = (inst.spec.n, inst.spec.edges) if k is None \
            else (inst.spec.n, inst.spec.edges, k)
        kw = {"repr_name": repr_name, "timeout": TIMEOUT_S,
              "instrumented": self.instrumented}
        if fold:
            kw["fold"] = True
        fn = SOLVE[problem]
        gc.collect()
        if self.scale and self.ref_s is None:
            self.ref_s = reference_s()
        if self.tracer:
            self.tracer.begin()
        t0 = time.perf_counter()
        try:
            res = fn(*args, **kw)
        except Exception as exc:  # a failed solve is counted; the run goes on
            res = None
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["solve_s"] = time.perf_counter() - t0
        if self.scale:
            before, self.ref_s = self.ref_s, reference_s()
            rec["ref_s"] = (before + self.ref_s) / 2
            rec["scaled_s"] = host_scaled(rec["solve_s"], before, self.ref_s)
        if res is not None:
            rec.update(answer=res.answer, nodes=res.nodes,
                       wall_ms=res.wall_ms, counters=res.counters)
        if self.tracer:
            self.tracer.end(rec)
        if res is None:
            print(f"searchbench: {label} {repr_name} on {inst.spec.name}: "
                  f"{rec['error']}", file=sys.stderr)
            return rec
        rec["error"] = _check(problem, inst, res, k, expect)
        rec["ok"] = rec["error"] is None
        return rec

    def skip(self, inst, label, repr_name, k, fold, reason):
        self._record(inst, label, repr_name, k, fold)["error"] = reason

    @staticmethod
    def agree(a, b):
        """Both representations must give the same answer and tree."""
        if (a["answer"], a["nodes"]) != (b["answer"], b["nodes"]):
            msg = (f"{a['repr']}=({a['answer']}, {a['nodes']} nodes) vs "
                   f"{b['repr']}=({b['answer']}, {b['nodes']} nodes)")
            for r in (a, b):
                r["ok"] = False
                r["error"] = r["error"] or f"representation mismatch: {msg}"

    def unit(self, problem, inst, flip):
        """Every solve of one instance; `flip` swaps which representation
        goes first, so host drift hits both."""
        self.ref_s = None
        order = REPRS[::-1] if flip else REPRS
        if problem == "ds":
            self.agree(*[self.solve(inst, "ds", "ds", r) for r in order])
        elif problem == "ce":
            for label, k, expect in (("ce-yes", inst.planted, True),
                                     ("ce-no", inst.planted - 1, None)):
                self.agree(*[self.solve(inst, label, "ce", r, k=k, expect=expect)
                             for r in order])
        else:
            opt = [self.solve(inst, "vc-opt", "vc", r) for r in order]
            self.agree(*opt)
            best = opt[0]["answer"] if all(r["ok"] for r in opt) else None
            for label, dk, expect in (("vc-yes", 0, True), ("vc-no", 1, False)):
                runs = [(r, False) for r in order]
                if not self.instrumented:
                    runs.append(("hybrid", True))
                if best is None:
                    for r, fold in runs:
                        self.skip(inst, label + "-fold" * fold, r, None, fold,
                                  "skipped: no agreed optimum")
                    continue
                k = best - dk
                recs = [self.solve(inst, label + "-fold" * fold, "vc-parm", r,
                                   k=k, fold=fold, expect=expect)
                        for r, fold in runs]
                self.agree(recs[0], recs[1])

    def one_pass(self, workload, instances):
        for inst in instances:
            self.unit(workload.problem, inst, flip=inst.index % 2 == 1)


def warm_up(problem):
    runner = Runner()
    runner.unit(problem, generate(WARMUP[problem], 0)[0], flip=False)


def scaled_setup(workload, seed):
    """One set-up repetition: (seconds, seconds scaled to the nominal
    host)."""
    before = reference_s()
    _, gen_s, build_s = setup_once(workload, seed)
    seconds = gen_s + sum(build_s.values())
    return seconds, host_scaled(seconds, before, reference_s())


def timed_passes(workload, instances, seed, seconds):
    """Repeat passes over the instances for about `seconds`.  The first
    pass always completes; afterwards an instance is started only if
    its previous duration still fits.  Set-up is repeated between
    instances about every SETUP_EVERY_S, so it is sampled across the
    whole run as the solves are; at least SETUP_REPS are made.  Returns
    the runner and the set-up samples."""
    runner = Runner(scale=True)
    setups = []
    start = next_setup = time.perf_counter()
    last = {}
    while True:
        for inst in instances:
            if runner.pass_index and \
                    time.perf_counter() - start + last[inst.index] > seconds:
                while len(setups) < SETUP_REPS:
                    setups.append(scaled_setup(workload, seed))
                return runner, setups
            t0 = time.perf_counter()
            runner.unit(workload.problem, inst,
                        flip=(inst.index + runner.pass_index) % 2 == 1)
            if time.perf_counter() >= next_setup:
                setups.append(scaled_setup(workload, seed))
                next_setup = time.perf_counter() + SETUP_EVERY_S
            last[inst.index] = time.perf_counter() - t0
        runner.pass_index += 1


def solve_seconds(records, field="solve_s"):
    """Per representation: the sum over solves of each solve's median
    time (`field` of the records) across passes, i.e. the time of one
    representative pass.  Also returns alist time over hybrid time on
    the solves both ran."""
    samples = defaultdict(list)
    for r in records:
        if r[field] is not None:
            samples[(r["instance"], r["label"], r["repr"])].append(r[field])
    med = {key: statistics.median(v) for key, v in samples.items()}
    total = dict.fromkeys(REPRS, 0.0)
    for (_, _, repr_name), v in med.items():
        total[repr_name] += v
    shared = [(i, lab) for i, lab, r in med
              if r == "alist" and (i, lab, "hybrid") in med]
    hyb = sum(med[(i, lab, "hybrid")] for i, lab in shared)
    alist = sum(med[(i, lab, "alist")] for i, lab in shared)
    return total, alist / hyb if hyb else 0.0


# -- tracing --------------------------------------------------------------

_NONE = object()


class _Probe:
    def op(self, a, b):
        return None


class Tracer:
    """While active, wraps every public method of the representation
    classes and aggregates, per solve, the calls and self time of each
    op into one span.

    Self time subtracts nested wrapped calls (delete_vertex calling
    delete_edge, addition and contraction methods calling the plain
    ones); `calls` counts outermost calls only, the way the
    instrumented classes attribute work.  The wrapper's own cost is
    calibrated on an empty method before every span and subtracted:
    `c_in` is the part inside an op's timed window, `c_out` the part
    its caller sees."""

    CLASSES = (("hybrid", hg.HybridGraph), ("hybrid", hg.AdditionGraph),
               ("hybrid", hg.ContractionGraph), ("alist", hg.BaselineGraph))

    def __init__(self):
        self.root = [0, 0]          # frame of the caller outside every op
        self.stack = [self.root]
        # (repr, op) -> [outer calls, invocations, ns minus children,
        #                children, undo records replayed]
        self.aggs = {}
        self.spans = []
        self._calib = (0.0, 0.0)
        self._installed = []
        self._t0 = 0

    def _wrap(self, repr_name, op, fn):
        stack = self.stack
        root = self.root
        clock = time.perf_counter_ns
        agg = self.aggs.setdefault((repr_name, op), [0, 0, 0, 0, 0])
        replays = repr_name == "alist" and op == "restore"

        # Every public op takes at most two positional arguments; fixed
        # arities keep the wrapper's cost well below a *args forward.
        @functools.wraps(fn)
        def traced(g, a=_NONE, b=_NONE):
            if replays:
                agg[4] += len(g.log) - a
            frame = [0, 0]
            stack.append(frame)
            t0 = clock()
            if b is not _NONE:
                out = fn(g, a, b)
            elif a is not _NONE:
                out = fn(g, a)
            else:
                out = fn(g)
            dur = clock() - t0
            stack.pop()
            parent = stack[-1]
            parent[0] += dur
            parent[1] += 1
            agg[1] += 1
            agg[2] += dur - frame[0]
            agg[3] += frame[1]
            if parent is root:
                agg[0] += 1
            return out
        return traced

    def calibrate(self, loops=5_000, reps=3):
        """Measure the wrapper's cost on an empty two-argument method;
        returns (inside, outside) ns per call."""
        probe = _Probe()
        plain = _Probe.op
        wrapped = self._wrap("probe", "probe", plain)
        agg = self.aggs.pop(("probe", "probe"))
        clock = time.perf_counter_ns
        c_in, c_total = [], []
        for _ in range(reps):
            agg[:] = [0] * 5
            t0 = clock()
            for _ in range(loops):
                pass
            t_loop = clock() - t0
            t0 = clock()
            for _ in range(loops):
                probe.op(1, 2)
            t_plain = clock() - t0
            _Probe.op = wrapped
            t0 = clock()
            for _ in range(loops):
                probe.op(1, 2)
            t_wrapped = clock() - t0
            _Probe.op = plain
            c_in.append(max(0.0, (agg[2] - t_plain + t_loop) / loops))
            c_total.append((t_wrapped - t_plain) / loops)
        inside = statistics.median(c_in)
        return inside, max(0.0, statistics.median(c_total) - inside)

    def __enter__(self):
        for repr_name, cls in self.CLASSES:
            for name, fn in list(vars(cls).items()):
                if name.startswith("_") or not callable(fn):
                    continue
                self._installed.append((cls, name, fn))
                setattr(cls, name, self._wrap(repr_name, name, fn))
        return self

    def __exit__(self, *exc):
        for cls, name, fn in reversed(self._installed):
            setattr(cls, name, fn)
        self._installed.clear()

    def begin(self):
        self._calib = self.calibrate()
        del self.stack[1:]
        self.root[:] = [0, 0]
        for agg in self.aggs.values():
            agg[:] = [0] * 5
        self._t0 = time.perf_counter_ns()

    def end(self, rec):
        end_ns = time.perf_counter_ns()
        # host speed drifts: average the calibrations either side of the span
        after = self.calibrate()
        c_in = (self._calib[0] + after[0]) / 2
        c_out = (self._calib[1] + after[1]) / 2
        ops = {}
        for (_, op), a in self.aggs.items():
            if a[1]:
                ops[op] = {"calls": a[0], "invocations": a[1],
                           "self_ns": a[2] - a[1] * c_in - a[3] * c_out,
                           "records": a[4]}
        invocations = sum(a["invocations"] for a in ops.values())
        search_ns = None
        if rec["wall_ms"] is not None:
            search_ns = rec["wall_ms"] * 1e6 - invocations * (c_in + c_out)
        self.spans.append({
            "kind": "solve", "instance": rec["instance"], "label": rec["label"],
            "repr": rec["repr"], "start_ns": self._t0, "end_ns": end_ns,
            "wall_ms": rec["wall_ms"], "search_ns": search_ns,
            "nodes": rec["nodes"], "error": rec["error"],
            "wrapper_ns": {"inside": c_in, "outside": c_out},
            "ops": dict(sorted(ops.items()))})


# -- environment ----------------------------------------------------------

def calib_ns(loops=CALIB_LOOPS, reps=5):
    """Median ns per iteration of a fixed pure-Python loop: a host-speed
    reference taken at the start and the end of every run."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        x = 0
        for i in range(loops):
            x += i & 7
        out.append((time.perf_counter_ns() - t0) / loops)
    return statistics.median(out)


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_sha256():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "hybridgraph")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(seed):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "debug": __debug__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
    }


# -- the two modes --------------------------------------------------------

def timed_run(workload, seed, seconds):
    """End-to-end metrics, with no tracing or instrumentation.  Solve
    and set-up times are scaled to the nominal host; the unscaled
    values go into `info`."""
    calib_start = calib_ns()
    instances, _, _ = setup_once(workload, seed)
    warm_up(workload.problem)
    runner, setups = timed_passes(workload, instances, seed, seconds)
    total, speedup = solve_seconds(runner.records, "scaled_s")
    raw, _ = solve_seconds(runner.records)
    refs = [r["ref_s"] for r in runner.records if r["ref_s"] is not None]
    metrics = {
        "hybrid_solve_s": total["hybrid"],
        "alist_solve_s": total["alist"],
        "setup_s": statistics.median(s for _, s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"passes": len({r["pass"] for r in runner.records}),
            "speedup": speedup,
            "unscaled_hybrid_solve_s": raw["hybrid"],
            "unscaled_alist_solve_s": raw["alist"],
            "unscaled_setup_s": statistics.median(s for s, _ in setups),
            "setup_reps": len(setups),
            "ref_median_s": statistics.median(refs) if refs else None,
            "calib_start_ns": calib_start, "calib_end_ns": calib_ns()}
    return instances, runner.records, metrics, info


def _sum_ops(spans, repr_name):
    out = defaultdict(lambda: [0, 0.0, 0])   # calls, self ns, records
    for s in spans:
        if s["repr"] == repr_name:
            for op, a in s["ops"].items():
                acc = out[op]
                acc[0] += a["calls"]
                acc[1] += a["self_ns"]
                acc[2] += a["records"]
    return out


def traced_run(workload, seed):
    """Per-layer metrics from one untraced, one instrumented and one
    traced pass over the workload's instances."""
    calib_start = calib_ns()
    instances, gen_s, build_s = setup(workload, seed)
    warm_up(workload.problem)

    plain = Runner()
    plain.one_pass(workload, instances)
    counted = Runner("instrumented")
    counted.one_pass(workload, instances)
    with Tracer() as tracer:
        traced = Runner("traced", tracer)
        traced.one_pass(workload, instances)
    calib_end = calib_ns()

    m = {"instances.gen_s": gen_s, "hybrid.build_s": build_s["hybrid"],
         "alist.build_s": build_s["alist"]}
    for r in REPRS:
        ops = _sum_ops(tracer.spans, r)
        for op in OPS + (CONTRACTION_OPS if r == "hybrid" else ()):
            m[f"{r}.{op}.calls"] = ops[op][0]
            m[f"{r}.{op}.self_ns"] = ops[op][1]
        cells = defaultdict(int)
        calls = defaultdict(int)
        for rec in counted.records:
            if rec["repr"] == r and rec["counters"]:
                for op, c in rec["counters"].items():
                    cells[op] += c["reads"] + c["writes"]
                    calls[op] += c["calls"]
        for op in COUNTED_OPS[r]:
            m[f"{r}.{op}.cells_per_call"] = cells[op] / calls[op] if calls[op] else 0.0
        if r == "alist":
            rs = ops["restore"]
            m["alist.restore.records_per_call"] = rs[2] / rs[0] if rs[0] else 0.0
        search_ns = sum(s["search_ns"] for s in tracer.spans
                        if s["repr"] == r and s["search_ns"] is not None)
        repr_ns = sum(a[1] for a in ops.values())
        m[f"{r}.repr_share"] = repr_ns / search_ns if search_ns > 0 else 0.0
        m[f"{r}.solver_share"] = 1.0 - m[f"{r}.repr_share"]
        recs = [x for x in plain.records if x["repr"] == r and x["wall_ms"] is not None]
        search_s = sum(x["wall_ms"] for x in recs) / 1e3
        nodes = sum(x["nodes"] for x in recs)
        m[f"{r}.search_s"] = search_s
        m[f"{r}.us_per_node"] = search_s * 1e6 / nodes if nodes else 0.0
        m[f"{r}.solve_overhead_s"] = sum(x["solve_s"] for x in recs) - search_s
        if r == "hybrid":
            m["solver.nodes"] = nodes
    plain_total, speedup = solve_seconds(plain.records)
    traced_total, _ = solve_seconds(traced.records)
    m["paper.speedup"] = speedup
    m["env.calib_ns"] = (calib_start + calib_end) / 2
    m["trace.overhead"] = sum(traced_total.values()) - sum(plain_total.values())

    records = plain.records + counted.records + traced.records
    info = {"calib_start_ns": calib_start, "calib_end_ns": calib_end,
            "spans": tracer.spans}
    return instances, records, m, info


# -- entry point ----------------------------------------------------------

def _write(path, payload):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, default=str)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="measuring time of a timed run (ignored with --trace 1, "
                         "which makes exactly one pass of each kind)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    if args.trace:
        instances, records, metrics, info = traced_run(workload, args.seed)
        units = per_layer_units()
    else:
        instances, records, metrics, info = timed_run(workload, args.seed, args.seconds)
        units = END_TO_END
    spans = info.pop("spans", None)
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)

    tag = f"{workload.name}-s{args.seed}-trace{args.trace}"
    report = {"workload": workload.name, "env": env,
              "instances": [i.describe() for i in instances], "info": info,
              "attempted": attempted, "failed": failed,
              "fail_frac": failed / attempted, "metrics": metrics,
              "records": records}
    _write(os.path.join(OUT_DIR, f"{tag}.json"), report)
    if spans is not None:
        _write(os.path.join(OUT_DIR, f"spans-{tag}.json"),
               {"trace": tag, "env": env, "spans": spans})

    print(f"# {tag}  python {env['python']}  debug={env['debug']}  "
          f"nproc={env['nproc']}  commit={env['git_commit']}")
    for key, value in info.items():
        if not isinstance(value, (dict, list)):
            print(f"# {key} = {value}")
    print(f"# fail_frac = {failed / attempted:.4f} ratio ({failed}/{attempted})")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
