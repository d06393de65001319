"""Tests for the multigraph structure, generator, distance, and file format."""

from __future__ import annotations

import copy
import itertools
import pickle
import random

import pytest

from vizing import Multigraph, build, generate_random
from vizing.multigraph import line_distances

from helpers import random_instances
from oracles import oracle_line_distance


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def test_build_p3(p3):
    assert p3.n == 3
    assert p3.m == 2
    assert p3.delta == 2
    assert p3.pi == 1
    assert p3.palette == 3
    assert p3.edges == ((0, 1, 1), (1, 2, 1))


def test_build_dbl(dbl):
    assert dbl.delta == 2
    assert dbl.pi == 2
    assert dbl.edges == ((0, 1, 1), (0, 1, 2))
    assert [edge[:2] for edge in dbl.edges].count((0, 1)) == 2


def test_build_star3(star3):
    assert star3.delta == 3
    assert star3.pi == 1
    assert len(star3.adj[0]) == 3
    assert all(len(star3.adj[x]) == 1 for x in (1, 2, 3))


def test_build_orients_and_renumbers():
    g = build(3, [(2, 0, 1), (0, 2, 7), (1, 0, 3)])
    # endpoints are stored smaller-first and k is renumbered per pair in
    # input order, whatever tags the caller passed
    assert g.edges == ((0, 2, 1), (0, 2, 2), (0, 1, 1))
    assert g.pi == 2


def test_build_adjacency_consistent(c4):
    rebuilt = [[] for _ in range(c4.n)]
    for eid, (u, v, _) in enumerate(c4.edges):
        rebuilt[u].append(eid)
        rebuilt[v].append(eid)
    assert c4.adj == tuple(tuple(a) for a in rebuilt)


def test_build_empty():
    g = build(0, [])
    assert (g.n, g.m, g.delta, g.pi) == (0, 0, 0, 0)


def test_build_rejects_self_loop():
    with pytest.raises(ValueError, match="edge 1: self-loop"):
        build(3, [(0, 1, 1), (2, 2, 1)])


def test_build_rejects_out_of_range_vertex():
    with pytest.raises(ValueError, match="edge 0: vertex out of range"):
        build(2, [(0, 2, 1)])


def test_build_rejects_bad_multiplicity_tag():
    with pytest.raises(ValueError, match="edge 0: multiplicity"):
        build(2, [(0, 1, 0)])


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def test_to_text_p3(p3):
    assert p3.to_text() == "mg 3 2 2 1\n0 1 1\n1 2 1\n"


def test_to_text_empty():
    assert build(0, []).to_text() == "mg 0 0 0 0\n"


def test_round_trip(dbl, c4):
    for g in (dbl, c4):
        assert Multigraph.from_text(g.to_text()) == g


def test_graphs_are_immutable_values(c4):
    with pytest.raises(AttributeError):
        c4.n = 5
    with pytest.raises(AttributeError):
        del c4.edges
    twin = build(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    assert twin is not c4 and twin == c4 and hash(twin) == hash(c4)
    assert twin != build(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    # each way of making a graph derives its own endpoint table, u ^ v per
    # edge, and the table takes no part in equality
    table = [u ^ v for u, v, _ in c4.edges]
    assert list(c4._xor) == table
    made = (twin, Multigraph.from_text(c4.to_text()), copy.copy(c4), pickle.loads(pickle.dumps(c4)))
    for dup in made:
        assert dup == c4 and hash(dup) == hash(c4)
        assert list(dup._xor) == table and dup._xor is not c4._xor


def test_load_reports_a_non_ascii_byte_with_its_line():
    # the UTF-8 bytes, decoded as the command line decodes a file it reads
    data = "mg 2 1 1 1\n0 \u0661 1\n".encode("utf-8")
    with pytest.raises(ValueError, match=r"^line 2: non-ASCII character$"):
        Multigraph.from_text(data.decode("ascii", "surrogateescape"))


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("", 1),
        ("graph 3 2 2 1\n0 1 1\n1 2 1\n", 1),
        ("mg 3 2 2\n0 1 1\n1 2 1\n", 1),
        ("mg 3 x 2 1\n0 1 1\n1 2 1\n", 1),
        ("mg 3 2 2 1\n0 1 1\n", 2),
        ("mg 3 2 2 1\n0 1 1\n1 2\n", 3),
        ("mg 3 2 2 1\n0 1 1\n1 9 1\n", 3),
        ("mg 3 2 2 1\n0 1 1\n2 2 1\n", 3),
        ("mg 3 2 2 1\n0 1 1\n1 2 2\n", 3),
        ("mg 3 2 9 1\n0 1 1\n1 2 1\n", 1),
        ("mg 3 2 2 9\n0 1 1\n1 2 1\n", 1),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(ValueError, match=f"line {lineno}:"):
        Multigraph.from_text(text)


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


def test_generate_empty():
    assert generate_random(0, 3, 1, seed=5).m == 0
    assert generate_random(1, 3, 1, seed=5).m == 0


def test_generate_deterministic():
    a = generate_random(100, 3, 1, seed=7)
    b = generate_random(100, 3, 1, seed=7)
    assert a.edges == b.edges
    assert a == b


def test_generate_respects_bounds_large():
    g = generate_random(10**4, 6, 2, seed=1)
    # recompute the bounds from scratch rather than trusting stored fields
    deg = [0] * g.n
    mult = {}
    for u, v, _ in g.edges:
        deg[u] += 1
        deg[v] += 1
        mult[(u, v)] = mult.get((u, v), 0) + 1
    assert max(deg) <= 6
    assert max(mult.values()) <= 2
    assert g.delta == max(deg)
    assert g.pi == max(mult.values())
    # the attempt budget saturates degrees on a graph this size
    assert g.m > 0.8 * g.n * 6 / 2


def test_generate_rejects_degenerate_targets():
    with pytest.raises(ValueError):
        generate_random(10, 0, 1, seed=1)
    with pytest.raises(ValueError):
        generate_random(10, 1, 0, seed=1)


# ---------------------------------------------------------------------------
# line-graph distance
# ---------------------------------------------------------------------------


def test_distance_examples(p3, path8):
    assert line_distances(p3, 0, p3.m).get(1) == 1
    assert line_distances(p3, 0, p3.m).get(0) == 0
    assert line_distances(path8, 0, path8.m).get(6) == 6


def test_distance_cap(path8):
    assert line_distances(path8, 0, 5).get(6) is None
    assert line_distances(path8, 0, 6).get(6) == 6


def test_distance_disconnected():
    g = build(4, [(0, 1, 1), (2, 3, 1)])
    assert line_distances(g, 0, g.m).get(1) is None


def test_distance_parallel_edges(dbl):
    assert line_distances(dbl, 0, dbl.m).get(1) == 1


def test_line_distances_radius():
    # on a path the line-graph distance from edge 0 is the edge id
    g = build(200, [(i, i + 1, 1) for i in range(199)])
    assert line_distances(g, 0, 15) == {e: e for e in range(16)}
    assert line_distances(g, 0, g.m) == {e: e for e in range(199)}


def test_distance_matches_oracle():
    for g, _ in random_instances(6, seed=20, n=8, delta=3, pi=2):
        for e in range(g.m):
            for f in range(g.m):
                assert line_distances(g, e, g.m).get(f) == oracle_line_distance(g, e, f)


def test_distance_symmetry_and_triangle():
    rng = random.Random(21)
    for g, _ in random_instances(4, seed=22, n=9, delta=3, pi=1):
        if g.m < 3:
            continue
        for _ in range(30):
            e, f, h = (rng.randrange(g.m) for _ in range(3))
            def d(a, b):
                got = line_distances(g, a, g.m).get(b)
                return got if got is not None else float("inf")
            assert d(e, f) == d(f, e)
            assert d(e, h) <= d(e, f) + d(f, h)
