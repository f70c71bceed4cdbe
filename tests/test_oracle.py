"""The oracles are the yardstick for everything else, so they get tested
against closed-form graph theory (cycles, paths, cliques, stars) and a
few frozen hand-checked values."""

import math

import pytest

from helpers import clique, cycle, gnm, path, petersen, star
from oracle import brute_ce, brute_ds, brute_vc


def test_vc_closed_forms():
    for n in range(3, 10):
        assert brute_vc(*cycle(n)) == math.ceil(n / 2)
    for n in range(2, 10):
        assert brute_vc(*path(n)) == n // 2
        assert brute_vc(*clique(n)) == n - 1
    for leaves in range(1, 8):
        assert brute_vc(*star(leaves)) == 1
    assert brute_vc(0, []) == 0
    assert brute_vc(5, []) == 0


def test_ds_closed_forms():
    for n in range(3, 10):
        assert brute_ds(*cycle(n)) == math.ceil(n / 3)
    for n in range(2, 10):
        assert brute_ds(*path(n)) == math.ceil(n / 3)
        assert brute_ds(*clique(n)) == 1
    for leaves in range(1, 8):
        assert brute_ds(*star(leaves)) == 1
    assert brute_ds(0, []) == 0
    assert brute_ds(4, []) == 4


def test_frozen_small_values():
    # hand-checked once, frozen here
    assert brute_vc(*petersen()) == 6
    assert brute_ds(*petersen()) == 3
    assert brute_ds(*cycle(9)) == 3
    assert brute_vc(3, [(0, 1), (1, 2), (0, 2)]) == 2


def test_ce_frozen_values():
    n4, c4 = cycle(4)
    assert brute_ce(n4, c4, 1) is False
    assert brute_ce(n4, c4, 2) is True
    n3, p3 = path(3)
    assert brute_ce(n3, p3, 0) is False
    assert brute_ce(n3, p3, 1) is True
    n4p, p4 = path(4)
    assert brute_ce(n4p, p4, 1) is True
    # disjoint cliques already clustered
    edges = [(0, 1), (0, 2), (1, 2), (3, 4)]
    assert brute_ce(5, edges, 0) is True


def test_ce_monotone_in_k():
    for seed in range(8):
        n, edges = gnm(8, 14, seed)
        answers = [brute_ce(n, edges, k) for k in range(7)]
        for lo, hi in zip(answers, answers[1:]):
            assert not (lo and not hi)


def test_ce_matches_exhaustive_edit_sets():
    # tiny cross-check of the partition formulation against literal
    # edit-set enumeration
    from itertools import combinations as combos

    def cluster_graph(n, adj):
        for u in range(n):
            for v in range(u + 1, n):
                for w in range(v + 1, n):
                    a = adj[u] >> v & 1
                    b = adj[v] >> w & 1
                    c = adj[u] >> w & 1
                    if a + b + c == 2:
                        return False
        return True

    def literal(n, edges, k):
        pairs = list(combos(range(n), 2))
        base = [0] * n
        for u, v in edges:
            base[u] |= 1 << v
            base[v] |= 1 << u
        for size in range(k + 1):
            for edit in combos(pairs, size):
                adj = base[:]
                for u, v in edit:
                    adj[u] ^= 1 << v
                    adj[v] ^= 1 << u
                if cluster_graph(n, adj):
                    return True
        return False

    for seed in range(6):
        n, edges = gnm(6, 8, seed)
        for k in range(4):
            assert brute_ce(n, edges, k) == literal(n, edges, k), (seed, k)


def test_guards():
    with pytest.raises(ValueError):
        brute_vc(25, [])
    with pytest.raises(ValueError):
        brute_ds(25, [])
    with pytest.raises(ValueError):
        brute_ce(13, [], 1)
    with pytest.raises(ValueError):
        brute_ce(4, [], 9)
    with pytest.raises(ValueError):
        brute_vc(3, [(0, 0)])
    with pytest.raises(ValueError):
        brute_vc(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        brute_vc(3, [(0, 3)])
