"""Every generated instance is pinned: the sha256 of
``repr((name, n, edges, planted))`` per instance, one digest per group.
The generators may change how they build their lists, but not what they
return for any (parameters, seed): the name, ``n``, the edges in the
same order and the planted count (None for G(n,m)).

The groups cover every searchbench workload at its instance seeds
``1000 * s + i`` for s = 0-2, every generator row of
``benchmarks/manifest.json``, and the edges of the parameter ranges:
n = 0, 1 and 2, no edges and all pairs, one cluster and n clusters, no
flips and all pairs flipped."""

import hashlib
import json
from pathlib import Path

import pytest

from hybridgraph.instances import gen_cluster_editing, gen_random_gnm

MANIFEST = Path(__file__).resolve().parent.parent / "benchmarks" / "manifest.json"

# searchbench's workloads: instance i of a workload uses seed 1000 * s + i
WORKLOADS = {
    "ds-sweep": ("gnm", ((100, 3000), (100, 3000), (110, 4000), (110, 4000),
                         (150, 8000))),
    "vc-mix": ("gnm", ((60, 700),) * 10 + ((70, 1000),) * 4),
    "ce-planted": ("ce", ((100, 9, 13),) * 10 + ((120, 10, 14),) * 10
                   + ((140, 10, 15),) * 10),
}

# the generator rows of benchmarks/manifest.json, as (parameters..., seed)
MANIFEST_GNM = ((100, 1000, 1), (100, 1500, 2), (150, 4000, 4),
                (150, 5000, 7), (200, 12000, 5), (200, 15000, 6),
                (70, 600, 2))
MANIFEST_CE = ((90, 9, 12, 1), (90, 9, 14, 2), (100, 10, 15, 3),
               (100, 10, 16, 4), (110, 10, 17, 6), (110, 11, 18, 5))


def _pairs(n):
    return n * (n - 1) // 2


EDGE_GNM = tuple((n, m, seed) for n in (0, 1, 2, 3, 9, 40)
                 for m in sorted({0, 1 if n > 1 else 0, _pairs(n)})
                 for seed in (0, 7))
EDGE_CE = tuple((n, c, f, seed) for n in (1, 2, 3, 9, 30)
                for c in sorted({1, 2 if n > 1 else 1, n})
                for f in sorted({0, 1 if n > 1 else 0, _pairs(n)})
                for seed in (0, 7))


def _gnm(n, m, seed):
    return gen_random_gnm(n, m, seed), None


def _cases(group):
    if group in WORKLOADS:
        kind, params = WORKLOADS[group]
        gen = _gnm if kind == "gnm" else gen_cluster_editing
        return [gen(*p, 1000 * s + i) for s in range(3)
                for i, p in enumerate(params)]
    if group == "manifest-gnm":
        return [_gnm(*p) for p in MANIFEST_GNM]
    if group == "manifest-ce":
        return [gen_cluster_editing(*p) for p in MANIFEST_CE]
    if group == "edge-gnm":
        return [_gnm(*p) for p in EDGE_GNM]
    return [gen_cluster_editing(*p) for p in EDGE_CE]


def _digest(group):
    h = hashlib.sha256()
    for spec, planted in _cases(group):
        one = repr((spec.name, spec.n, spec.edges, planted)).encode()
        h.update(hashlib.sha256(one).digest())
    return h.hexdigest()


# sha256 over the per-instance sha256 digests, in case order
DIGESTS = {
    "ds-sweep":
        "12b482902c2d08b1f92f69e1a1dc70948c5e59aeb38c338c7b744f2ebe0aa28c",
    "vc-mix":
        "dee9c614f5659ac774853fc2aa77f79f2410a4781e533fe6019446f64deb61de",
    "ce-planted":
        "9628abb4d7ee1a0d769c02787bbadb335c135af4501a05e8f33f452461e408e8",
    "manifest-gnm":
        "2b2bc742aaf1ec12f792b735be350ab53aa568280e8e2e2fc364ef2d6452c79b",
    "manifest-ce":
        "4aedcc574e030874ea6184fea53220e9b6a9f11679844c4aab8974176b8ed3f9",
    "edge-gnm":
        "7800ee3ebc45e940e69f5697b7043a9d6e35068216b73d01ba1270a4bd751d57",
    "edge-ce":
        "4051a324e375b7bebdaf157969a03a2bf2cd6a80d00572f5788b3d4819845bc3",
}


@pytest.mark.parametrize("group", sorted(DIGESTS))
def test_generated_instances_are_pinned(group):
    assert _digest(group) == DIGESTS[group]


def test_manifest_generator_rows_are_all_pinned():
    rows = json.loads(MANIFEST.read_text())["runs"]
    gnm, ce = set(), set()
    for row in rows:
        g = row.get("generator")
        if g is None:
            continue
        if g["kind"] == "gnm":
            gnm.add((g["n"], g["m"], g["seed"]))
        else:
            ce.add((g["n"], g["clusters"], g["flips"], g["seed"]))
    assert gnm == set(MANIFEST_GNM)
    assert ce == set(MANIFEST_CE)
