"""Instance parsing and generator tests."""

import pytest

from hybridgraph.instances import (
    InstanceFormatError,
    gen_cluster_editing,
    gen_random_gnm,
    parse_dimacs,
    read_instance,
)
from hybridgraph.solvers import solve_ce_parm, verify_ce

from helpers import format_dimacs, write_dimacs
from oracle import brute_ce

DIMACS_SAMPLE = """\
c tiny test graph
p edge 5 4
e 1 2
e 2 3
e 3 4
e 1 5
"""


def test_parse_dimacs_basic():
    spec, warnings = parse_dimacs(DIMACS_SAMPLE.splitlines())
    assert warnings == []
    assert spec.n == 5
    assert spec.m == 4
    assert spec.edges == [(0, 1), (0, 4), (1, 2), (2, 3)]


def test_parse_dimacs_duplicate_dropped_with_warning():
    text = "p edge 3 3\ne 1 2\ne 2 1\ne 2 3\n"
    spec, warnings = parse_dimacs(text.splitlines())
    assert spec.edges == [(0, 1), (1, 2)]
    assert len(warnings) == 1
    assert "line 3" in warnings[0] and "duplicate" in warnings[0]


def test_parse_dimacs_count_mismatch_warns():
    text = "p edge 3 5\ne 1 2\n"
    spec, warnings = parse_dimacs(text.splitlines())
    assert spec.m == 1
    assert any("declared 5" in w for w in warnings)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("p edge 3 1\ne 2 2\n", "self-loop"),
        ("p edge 3 1\ne 1 4\n", "out of range"),
        ("e 1 2\n", "edge before problem line"),
        ("p edge 3 0\np edge 3 0\n", "second problem line"),
        ("p edge 3 1\nq 1 2\n", "unrecognized"),
        ("p edge 3 1\ne1 2 3\n", "unrecognized record 'e1'"),
        ("p edge 3 1\nex 1 2\n", "unrecognized record 'ex'"),
        ("px edge 3 1\n", "unrecognized record 'px'"),
        ("p knapsack 3 1\n", "bad problem line"),
        ("p edge three 1\n", "bad problem line"),
        ("p edge 3 -1\n", "negative sizes"),
        ("p edge 3 1\ne 1\n", "bad edge line"),
        ("p edge 3 1\ne 1 x\n", "bad edge line"),
        ("c only comments\n", "missing problem line"),
    ],
)
def test_parse_dimacs_rejects(text, fragment):
    with pytest.raises(InstanceFormatError, match=fragment):
        parse_dimacs(text.splitlines())


def test_dimacs_round_trip(tmp_path):
    spec = gen_random_gnm(12, 30, seed=7)
    path = tmp_path / "sample.clq"
    write_dimacs(spec, path)
    loaded, warnings = read_instance(path)
    assert warnings == []
    assert loaded.n == spec.n
    assert loaded.edges == spec.edges
    assert loaded.name == "sample"
    # writing what was read reproduces the file byte for byte
    assert format_dimacs(loaded) == path.read_text()


def test_read_instance_detects_dimacs_by_content(tmp_path):
    # DIMACS is the one format, so a file reads under any name
    for name in ("oddname.txt", "graph.el", "noext"):
        path = tmp_path / name
        path.write_text(DIMACS_SAMPLE)
        spec, _ = read_instance(path)
        assert spec.n == 5 and spec.m == 4
        assert spec.edges == [(0, 1), (0, 4), (1, 2), (2, 3)]
        assert spec.name == name.split(".")[0]


def test_read_instance_detects_dimacs_by_extension(tmp_path):
    path = tmp_path / "graph.col"
    path.write_text(DIMACS_SAMPLE)
    spec, _ = read_instance(path)
    assert spec.edges == [(0, 1), (0, 4), (1, 2), (2, 3)]
    assert spec.name == "graph"


def test_read_instance_rejects_an_n_m_header(tmp_path):
    # an "n m" header is no DIMACS record: the error names line 1
    path = tmp_path / "old.el"
    path.write_text("3 2\n0 1\n1 2\n")
    with pytest.raises(InstanceFormatError) as exc:
        read_instance(path)
    assert str(exc.value) == ("line 1: unrecognized record '3'; DIMACS lines "
                              "are 'c ...', 'p edge N M' or 'e U V'")


def test_gnm_shape_and_determinism():
    a = gen_random_gnm(40, 90, seed=11)
    b = gen_random_gnm(40, 90, seed=11)
    c = gen_random_gnm(40, 90, seed=12)
    assert a.edges == b.edges
    assert a.edges != c.edges
    assert len(a.edges) == 90
    assert len(set(a.edges)) == 90
    assert all(0 <= u < v < 40 for u, v in a.edges)
    assert a.edges == sorted(a.edges)


def test_gnm_extremes():
    assert gen_random_gnm(6, 0, seed=0).edges == []
    full = gen_random_gnm(6, 15, seed=0)
    assert full.edges == [(u, v) for u in range(6) for v in range(u + 1, 6)]
    with pytest.raises(ValueError):
        gen_random_gnm(6, 16, seed=0)


def test_gnm_rejects_negative_n():
    # n(n-1)/2 is 6 for n = -3, so the m check alone lets m = 2 through
    with pytest.raises(ValueError, match="n must be >= 0"):
        gen_random_gnm(-3, 2, seed=0)


def test_cluster_editing_zero_flips_is_disjoint_cliques():
    spec, planted = gen_cluster_editing(9, clusters=3, flips=0, seed=5)
    assert planted == 0
    assert spec.edges == [
        (u, v)
        for u in range(9)
        for v in range(u + 1, 9)
        if u // 3 == v // 3
    ]


def test_cluster_editing_planted_budget_suffices():
    for seed in range(4):
        spec, planted = gen_cluster_editing(10, clusters=3, flips=3, seed=seed)
        res = solve_ce_parm(spec.n, spec.edges, planted)
        assert res.answer is True
        assert verify_ce(spec.n, spec.edges, res.witness, planted)
        # the planted budget is an upper bound on the true optimum
        opt = next(k for k in range(planted + 1) if brute_ce(spec.n, spec.edges, k))
        assert opt <= planted


def test_cluster_editing_determinism_and_validation():
    a, _ = gen_cluster_editing(20, clusters=4, flips=6, seed=2)
    b, _ = gen_cluster_editing(20, clusters=4, flips=6, seed=2)
    assert a.edges == b.edges and a.name == b.name
    with pytest.raises(ValueError):
        gen_cluster_editing(5, clusters=0, flips=0, seed=0)
    with pytest.raises(ValueError):
        gen_cluster_editing(5, clusters=2, flips=99, seed=0)
