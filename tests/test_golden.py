"""Identical inputs give identical results: literal (answer, nodes,
witness) triples for small seeded instances, the same on both
representations.  A change that alters any of them changes the search
tree or the witness and has to say so."""

from hybridgraph.instances import gen_cluster_editing
from hybridgraph.solvers import (
    solve_ce_parm,
    solve_ds_opt,
    solve_vc_opt,
    solve_vc_parm,
)

from helpers import gnm

REPRS = ("hybrid", "alist")

# gnm(20, 70, seed): (seed, (answer, nodes, witness))
VC_OPT = [
    (3, (13, 19, [3, 4, 6, 7, 8, 10, 11, 13, 14, 15, 16, 17, 19])),
    (11, (13, 16, [0, 2, 4, 6, 7, 8, 9, 10, 11, 13, 15, 18, 19])),
]

# gnm(20, 70, seed) at k = opt and opt - 1: (seed, k, fold, result)
VC_PARM = [
    (3, 13, False, (True, 17, [3, 4, 6, 7, 8, 10, 11, 13, 14, 15, 16, 17, 19])),
    (3, 13, True, (True, 11, [3, 4, 6, 7, 8, 10, 11, 13, 14, 15, 16, 17, 19])),
    (3, 12, False, (False, 17, None)),
    (3, 12, True, (False, 11, None)),
    (11, 13, False, (True, 9, [0, 2, 4, 6, 7, 8, 9, 10, 11, 13, 15, 18, 19])),
    (11, 13, True, (True, 3, [0, 4, 6, 7, 8, 9, 10, 11, 13, 14, 15, 16, 19])),
    (11, 12, False, (False, 15, None)),
    (11, 12, True, (False, 5, None)),
]

# gnm(13, 24, seed): (seed, result)
DS = [
    (5, (4, 10, [1, 2, 4, 5])),
    (8, (3, 15, [4, 6, 7])),
    # a reduction pass takes two or more forced sets
    (6, (3, 19, [2, 6, 11])),
    # two frequency-1 elements share their only set, so the pass skips
    # the one the first inclusion already covered
    (9, (4, 28, [0, 2, 4, 11])),
]

# gen_cluster_editing(12, 3, 5, seed), planted budget 5, at k = 5 and 4
CE = [
    (2, 5, (True, 5, [("del", 0, 8), ("del", 0, 11), ("del", 0, 2),
                      ("add", 5, 7)])),
    (2, 4, (True, 5, [("del", 0, 8), ("del", 0, 11), ("del", 0, 2),
                      ("add", 5, 7)])),
    (7, 5, (True, 6, [("del", 0, 7), ("del", 0, 10), ("del", 1, 10),
                      ("del", 5, 11), ("del", 4, 8)])),
    (7, 4, (False, 1, None)),
    (9, 5, (True, 6, [("del", 1, 8), ("del", 2, 5), ("del", 3, 8),
                      ("del", 5, 8), ("del", 7, 11)])),
    (9, 4, (False, 1, None)),
]


def _key(res):
    return res.answer, res.nodes, res.witness


def test_vc_opt_golden():
    for seed, want in VC_OPT:
        n, edges = gnm(20, 70, seed)
        for repr_name in REPRS:
            res = solve_vc_opt(n, edges, repr_name=repr_name)
            assert _key(res) == want, (seed, repr_name)


def test_vc_parm_golden():
    for seed, k, fold, want in VC_PARM:
        n, edges = gnm(20, 70, seed)
        for repr_name in ("hybrid",) if fold else REPRS:
            res = solve_vc_parm(n, edges, k, repr_name=repr_name, fold=fold)
            assert _key(res) == want, (seed, k, fold, repr_name)


def test_ds_golden():
    for seed, want in DS:
        n, edges = gnm(13, 24, seed)
        for repr_name in REPRS:
            res = solve_ds_opt(n, edges, repr_name=repr_name)
            assert _key(res) == want, (seed, repr_name)


def test_ce_golden():
    for seed, k, want in CE:
        spec, planted = gen_cluster_editing(12, 3, 5, seed)
        assert planted == 5
        for repr_name in REPRS:
            res = solve_ce_parm(spec.n, spec.edges, k, repr_name=repr_name)
            assert _key(res) == want, (seed, k, repr_name)
