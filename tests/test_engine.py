"""Tests for the colouring drivers: sequential colourer, scheduler, orientation."""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vizing

from vizing import (
    Colouring,
    MaxRoundsExceeded,
    build,
    check_unimprovable,
    colour_sequential,
    generate_random,
    is_proper,
    orient,
    run_scheduler,
    vizing_chain,
)
from vizing.engine import _batch, _candidate_chain

from gadgets import TYPE1, locked_instance, long_path_instance


def k4():
    return build(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)])


def long_path(m):
    return build(m + 1, [(i, i + 1, 1) for i in range(m)])


# ---------------------------------------------------------------------------
# colour_sequential
# ---------------------------------------------------------------------------


class TestColourSequential:
    def test_p3_frozen(self, p3):
        c = colour_sequential(p3)
        assert c.colours == [2, 1]

    def test_dbl_frozen(self, dbl):
        c = colour_sequential(dbl)
        assert c.colours == [1, 2]

    def test_star3_frozen(self, star3):
        c = colour_sequential(star3)
        assert c.colours == [3, 2, 1]

    def test_c4_frozen(self, c4):
        c = colour_sequential(c4)
        assert c.colours == [1, 3, 1, 2]

    def test_k4_needs_only_three_colours(self):
        # K4 happens to get an optimal 3-colouring, one colour per
        # perfect matching, even though the palette allows four.
        c = colour_sequential(k4())
        assert c.colours == [3, 2, 1, 1, 2, 3]
        assert len(set(c.colours)) == 3

    def test_empty_graph(self):
        c = colour_sequential(build(0, []))
        assert c.colours == []

    def test_random_graphs_full_and_proper(self):
        for seed in range(12):
            g = generate_random(150, 3 + seed % 6, 1 + seed % 3, seed=seed)
            c = colour_sequential(g)
            assert c.uncoloured_count == 0
            assert is_proper(c)
            assert all(1 <= col <= g.palette for col in c.colours[: g.m])

    def test_deterministic(self):
        g = generate_random(100, 5, 2, seed=77)
        assert colour_sequential(g).colours == colour_sequential(g).colours


def _digest(c):
    """SHA-256 of the colour array written as comma-separated decimals."""
    return hashlib.sha256(",".join(map(str, c.colours)).encode()).hexdigest()


# Pinned colour arrays on generate_random(2000, 4, pi, seed): a change to
# how a chain is built or applied that alters any colour choice alters
# these.  The pi = 2 and pi = 3 graphs coincide, since the generator's
# multiplicity stays at 2 there.
GOLDEN_SEQUENTIAL = {
    (1, 0): "a281506eb1d50038aefb064bb0996858311a62c76713fead987cacac28d5bb80",
    (1, 1): "85a3b573fb7749c70aa91c1b4c3b17ffbfaed125f498818384890eb94b271df9",
    (1, 2): "c200539150f75103eede0f7d967d843a6975bcf203a58f95cae42c462c448716",
    (2, 0): "52c53e9c9e49e1510403887427729f2482a2f612bce14fdfc1951cf59c60d077",
    (2, 1): "2da964186edaaa80dae1a9aaa754bd26d43b628c5c754fd5545ecaeedec36a1c",
    (2, 2): "d78a1dfa04e00d9499778624e3d215bfae560b40807ea3b7608c3d8705775eb6",
    (3, 0): "52c53e9c9e49e1510403887427729f2482a2f612bce14fdfc1951cf59c60d077",
    (3, 1): "2da964186edaaa80dae1a9aaa754bd26d43b628c5c754fd5545ecaeedec36a1c",
    (3, 2): "d78a1dfa04e00d9499778624e3d215bfae560b40807ea3b7608c3d8705775eb6",
}
# run_scheduler(generate_random(2000, 4, 1, s), 16, s)
GOLDEN_SCHEDULED = {
    0: "51aa6aa9864605942f50c037516b071f1274db8b626739557249321faaba2065",
    1: "fd487036a5224b2fa3e9fccb0c2a5e44857ff8e541411098c3d9b812a7cbba28",
}


# colour_sequential(generate_random(n, delta, 3, seed)) on small dense
# graphs where the multiplicity really reaches 3
GOLDEN_SEQUENTIAL_PI3 = {
    (30, 8, 0): "75673642379ecfcbad64b657afb27ef2d17ab6d3423b4fbd9fd4b3474cc22513",
    (30, 8, 1): "ff206eb36833a2e6e52d4670576d9ba4159180791f1a19643059d4ecd27cee35",
    (12, 10, 0): "4278da7240d65339d4ce45699e30f0d3c88712ab8de3398fb7bd36041c0dc530",
}
# run_scheduler(generate_random(2000, 4, 2, s), 16, s)
GOLDEN_SCHEDULED_PI2 = {
    0: "d78165de10e41e5ffa8c15d738b8e6ea5507e71b8f0ab917d42d431fdd7c8aa0",
    1: "7423c89cd0151fb110705bbdf5c8a25bbe751835cbad26d94364739a5ce2a9de",
}


@pytest.mark.parametrize("pi, seed", sorted(GOLDEN_SEQUENTIAL))
def test_sequential_colouring_matches_golden_digest(pi, seed):
    c = colour_sequential(generate_random(2000, 4, pi, seed=seed))
    assert c.uncoloured_count == 0
    assert _digest(c) == GOLDEN_SEQUENTIAL[pi, seed]


@pytest.mark.parametrize("n, delta, seed", sorted(GOLDEN_SEQUENTIAL_PI3))
def test_sequential_colouring_at_multiplicity_three(n, delta, seed):
    g = generate_random(n, delta, 3, seed=seed)
    assert g.pi == 3
    c = colour_sequential(g)
    assert c.uncoloured_count == 0
    assert _digest(c) == GOLDEN_SEQUENTIAL_PI3[n, delta, seed]


@pytest.mark.parametrize("seed", sorted(GOLDEN_SCHEDULED))
def test_scheduled_colouring_matches_golden_digest(seed):
    c = run_scheduler(generate_random(2000, 4, 1, seed=seed), 16, seed)
    assert _digest(c) == GOLDEN_SCHEDULED[seed]


@pytest.mark.parametrize("seed", sorted(GOLDEN_SCHEDULED_PI2))
def test_scheduled_colouring_at_multiplicity_two(seed):
    g = generate_random(2000, 4, 2, seed=seed)
    assert g.pi == 2
    c = run_scheduler(g, 16, seed)
    assert _digest(c) == GOLDEN_SCHEDULED_PI2[seed]


# ---------------------------------------------------------------------------
# round batches
# ---------------------------------------------------------------------------


def _rounds(g, L, seed, **kwargs):
    """The colouring and the parsed round log of one scheduler run."""
    log = io.StringIO()
    c = run_scheduler(g, L, seed, log=log, **kwargs)
    return c, [json.loads(line) for line in log.getvalue().splitlines()]


def _after_rounds(g, L, seed, k):
    """The partial colouring left after k applied rounds."""
    with pytest.raises(MaxRoundsExceeded) as exc:
        run_scheduler(g, L, seed, max_rounds=k)
    return exc.value.state.colouring


class TestBuildSchedule:
    """How the scheduler builds each round: a greedy maximal set of
    vertex-disjoint short chains, in the seed's edge order, against one
    snapshot of the colouring."""

    def test_p3_singletons_seed0(self, p3):
        # both edges meet at vertex 1, so every round applies one chain;
        # seed 0 keeps the order (0, 1)
        assert _after_rounds(p3, 5, 0, 1).colours == [1, 0]

    def test_p3_singletons_seed1(self, p3):
        # the seed shuffles the order, so edge 1 goes first
        assert _after_rounds(p3, 5, 1, 1).colours == [0, 1]

    def test_small_L_rejected(self, p3):
        with pytest.raises(ValueError, match=r"L > 2\*delta"):
            run_scheduler(p3, 4, 0)

    def test_fully_coloured_empty_schedule(self, p3):
        c = colour_sequential(p3)
        assert _batch(c, c.uncoloured(), 5) == []
        # a stuck edge (no chain of at most 3L edges) makes no batch either
        inst = locked_instance(16)
        assert _batch(inst.c, inst.c.uncoloured(), 3) == []

    def test_no_edges_empty_schedule(self):
        c, rounds = _rounds(build(4, []), 5, 0)
        assert c.colours == [] and rounds == []

    def test_long_path_classes_are_separated(self):
        # on an empty colouring every edge's chain is the edge itself, so
        # the batch in index order is the maximal matching of even edges
        g = long_path(199)
        batch = _batch(Colouring.empty(g), list(range(199)), 5)
        assert batch == [[e] for e in range(0, 199, 2)]

    def test_components_share_classes(self):
        # edges in different components never meet, so both components
        # are coloured in round 1
        g = build(6, [(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1)])
        c, rounds = _rounds(g, 5, 0)
        assert rounds[0]["augmented"] == 2
        first = _after_rounds(g, 5, 0, 1).colours
        assert {g.edges[e][0] < 3 for e, col in enumerate(first) if col} == {True, False}
        assert c.uncoloured_count == 0
        assert is_proper(c)

    def test_only_uncoloured_edges_scheduled(self, path8):
        c = Colouring.empty(path8)
        c.augment_in_place(vizing_chain(c, 0, 0).edges())
        batch = _batch(c, c.uncoloured(), 5)
        assert {q[0] for q in batch} <= set(c.uncoloured())
        assert all(q[0] != 0 for q in batch)


# ---------------------------------------------------------------------------
# run_scheduler
# ---------------------------------------------------------------------------


LOG_KEYS = ["augmented", "recoloured", "round", "uncoloured_remaining"]


class TestRunScheduler:
    def test_p3_converges(self, p3):
        c, rounds = _rounds(p3, 5, 0)
        assert c.uncoloured_count == 0
        assert is_proper(c)
        assert rounds == [
            {"round": 1, "augmented": 1, "recoloured": 1, "uncoloured_remaining": 1},
            {"round": 2, "augmented": 1, "recoloured": 2, "uncoloured_remaining": 0},
        ]

    def test_log_keys_sorted_and_stable(self, c4):
        log = io.StringIO()
        run_scheduler(c4, 9, seed=0, log=log)
        for line in log.getvalue().strip().split("\n"):
            assert list(json.loads(line)) == LOG_KEYS

    def test_uncoloured_monotone_in_log(self):
        g = generate_random(60, 3, 1, seed=42)
        c, rounds = _rounds(g, 7, 0)
        remaining = [r["uncoloured_remaining"] for r in rounds]
        assert all(a > b for a, b in zip(remaining, remaining[1:]))
        assert remaining[-1] == 0
        assert c.uncoloured_count == 0

    @pytest.mark.parametrize("L", [5, 9])
    def test_small_graphs_end_unimprovable(self, c4, path8, L):
        for g in (c4, path8):
            c = run_scheduler(g, L, seed=0)
            assert c.uncoloured_count == 0
            assert is_proper(c)
            assert check_unimprovable(c, L, mode="simple")
            assert check_unimprovable(c, L)

    def test_multi_member_classes(self):
        # rounds on the long path apply several vertex-disjoint chains at once
        g = long_path(199)
        c, rounds = _rounds(g, 5, 0)
        assert max(r["augmented"] for r in rounds) > 1
        assert c.uncoloured_count == 0
        assert is_proper(c)
        assert check_unimprovable(c, 5, mode="simple")

    def test_medium_random_various_L(self):
        g = generate_random(60, 3, 1, seed=42)
        for L in (7, 9, 17):
            c = run_scheduler(g, L, seed=0)
            assert c.uncoloured_count == 0
            assert is_proper(c)
            assert check_unimprovable(c, L)

    def test_max_rounds_exceeded(self):
        g = generate_random(60, 3, 1, seed=42)
        log = io.StringIO()
        with pytest.raises(MaxRoundsExceeded) as exc:
            run_scheduler(g, 7, seed=0, max_rounds=1, log=log)
        state = exc.value.state
        (first,) = [json.loads(line) for line in log.getvalue().splitlines()]
        assert state.round == 1
        assert state.L == 7
        assert state.changed_log == [first["recoloured"]]
        assert state.colouring.uncoloured_count == first["uncoloured_remaining"]
        assert "1 rounds" in str(exc.value)

    def test_deterministic_per_seed(self):
        g = generate_random(60, 3, 1, seed=42)
        a = run_scheduler(g, 9, seed=3).colours
        assert a == run_scheduler(g, 9, seed=3).colours
        assert a != run_scheduler(g, 9, seed=4).colours

    @pytest.mark.parametrize("seed", sorted(GOLDEN_SCHEDULED))
    def test_one_edge_chains_skip_the_shift(self, seed, monkeypatch):
        # only chains of two or more edges are shifted through _recolour; a
        # chain that is the edge alone is coloured directly
        lengths = []
        recolours = 0
        augment, recolour = Colouring.augment_in_place, Colouring._recolour

        def counted_augment(c, chain):
            lengths.append(len(chain))
            return augment(c, chain)

        def counted_recolour(c, old, new):
            nonlocal recolours
            recolours += 1
            return recolour(c, old, new)

        monkeypatch.setattr(Colouring, "augment_in_place", counted_augment)
        monkeypatch.setattr(Colouring, "_recolour", counted_recolour)
        c = run_scheduler(generate_random(2000, 4, 1, seed=seed), 16, seed)
        assert _digest(c) == GOLDEN_SCHEDULED[seed]
        longer = sum(n >= 2 for n in lengths)
        assert recolours == longer
        assert len(lengths) - longer > longer > 0

    def test_empty_and_tiny(self):
        assert run_scheduler(build(0, []), 5, 0).colours == []
        c = run_scheduler(build(2, [(0, 1, 1)]), 5, 0)
        assert c.colours == [1]

    @pytest.mark.parametrize("seed", range(4))
    def test_round_log_invariants(self, seed):
        g = generate_random(80, 4, 2, seed=seed)
        for L in (9, 13):
            c, rounds = _rounds(g, L, seed)
            assert all(r["augmented"] >= 1 for r in rounds)
            remaining = [g.m] + [r["uncoloured_remaining"] for r in rounds]
            assert all(a > b for a, b in zip(remaining, remaining[1:]))
            assert sum(r["augmented"] for r in rounds) == g.m - c.uncoloured_count
            assert [r["round"] for r in rounds] == list(range(1, len(rounds) + 1))

    def test_budget_equal_to_busy_rounds_returns(self):
        # the settling round that finds nothing does not count
        g = generate_random(60, 3, 1, seed=42)
        c, rounds = _rounds(g, 7, 0)
        again = run_scheduler(g, 7, 0, max_rounds=len(rounds))
        assert again.colours == c.colours
        with pytest.raises(MaxRoundsExceeded):
            run_scheduler(g, 7, 0, max_rounds=len(rounds) - 1)

    def test_budget_check_fires_under_optimisation(self):
        # a candidate longer than 3L must be refused even when assert
        # statements are compiled away
        script = (
            "import sys\n"
            "if not sys.flags.optimize:\n"
            "    sys.exit('not running under -O')\n"
            "from vizing import build, engine\n"
            "engine._candidate_chain = lambda c, e, L: list(range(3 * L + 1))\n"
            "engine.run_scheduler(build(2, [(0, 1, 1)]), 5, 0)\n"
        )
        src = str(Path(vizing.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 1
        assert "AssertionError: chain of 16 edges exceeds the 3L budget (15)" in proc.stderr


# ---------------------------------------------------------------------------
# candidate chains
# ---------------------------------------------------------------------------


class TestCandidateChain:
    """The scheduler's per-edge chain selection, pinned on the locked
    instance where both endpoint fans stall with long paths: plain chains
    only qualify above the path length, second-order chains take over as
    soon as a superb path edge fits inside the first L positions."""

    def test_no_candidate_below_first_superb_position(self):
        inst = locked_instance(16)
        assert _candidate_chain(inst.c, inst.e, 3) is None
        assert _candidate_chain(inst.c, inst.e, 4) is None

    def test_second_order_chain_from_position_five(self):
        inst = locked_instance(16)
        for L in (5, 6, 16):
            assert _candidate_chain(inst.c, inst.e, L) == [0, 4, 26, 27, 28, 29]

    def test_plain_chain_once_path_fits(self):
        inst = locked_instance(16)
        q = _candidate_chain(inst.c, inst.e, 17)
        plain = vizing_chain(inst.c, inst.g.edges[inst.e][0], inst.e).edges()
        assert q == plain
        assert len(q) == 17

    def test_search_leaves_colouring_untouched(self):
        inst = locked_instance(16)
        snap = list(inst.c.colours)
        for L in (3, 5, 17):
            _candidate_chain(inst.c, inst.e, L)
            assert inst.c.colours == snap

    def test_candidate_augments_cleanly(self):
        inst = locked_instance(16)
        q = _candidate_chain(inst.c, inst.e, 5)
        c2 = inst.c.copy()
        assert c2.augment_in_place(q) == 6
        assert c2.colour_of(inst.e) != 0
        assert is_proper(c2)

    def test_gadget_candidate_augments_cleanly(self):
        inst = long_path_instance(12, {5: TYPE1})
        q = _candidate_chain(inst.c, inst.e, 7)
        assert q is not None and len(q) <= 21
        c2 = inst.c.copy()
        c2.augment_in_place(q)
        assert c2.colour_of(inst.e) != 0
        assert is_proper(c2)


# ---------------------------------------------------------------------------
# orientation
# ---------------------------------------------------------------------------


class TestOrientation:
    def test_c4_two_colouring_single_cycle(self, c4):
        c = Colouring.from_assignment(c4, {0: 1, 1: 2, 2: 1, 3: 2})
        o = orient(c)
        assert o.direction == {0: (0, 1), 1: (1, 2), 2: (2, 3), 3: (3, 0)}
        assert o.out_degree_counts() == {0: 1, 1: 1, 2: 1, 3: 1}
        assert o.max_out_degree() == 1

    def test_matching_oriented_small_to_large(self):
        g = build(6, [(0, 1, 1), (2, 3, 1), (4, 5, 1)])
        c = Colouring.from_assignment(g, {0: 1, 1: 1, 2: 1})
        o = orient(c)
        assert o.direction == {0: (0, 1), 1: (2, 3), 2: (4, 5)}
        assert o.max_out_degree() == 1

    def test_path_oriented_from_low_end(self, p3):
        o = orient(colour_sequential(p3))
        assert o.direction == {0: (0, 1), 1: (1, 2)}
        assert o.max_out_degree() == 1

    def test_k4_frozen(self):
        g = k4()
        o = orient(colour_sequential(g))
        assert o.direction == {
            0: (0, 1),
            1: (0, 2),
            2: (3, 0),
            3: (2, 1),
            4: (1, 3),
            5: (2, 3),
        }
        assert o.out_degree_counts() == {0: 2, 2: 2, 1: 1, 3: 1}
        assert o.max_out_degree() == 2

    def test_partial_colouring_rejected(self, p3):
        with pytest.raises(ValueError, match="uncoloured"):
            orient(Colouring.from_assignment(p3, {0: 1}))

    def test_parallel_edges_rejected(self, dbl):
        with pytest.raises(ValueError, match="multiplicity 1"):
            orient(colour_sequential(dbl))

    def test_empty_graph(self):
        o = orient(colour_sequential(build(0, [])))
        assert o.direction == {}
        assert o.max_out_degree() == 0

    def test_bound_on_random_graphs(self):
        worst = 0
        for seed in range(30):
            g = generate_random(80, 5, 1, seed=seed + 900)
            c = colour_sequential(g)
            o = orient(c)
            assert len(o.direction) == g.m
            for e, (tail, head) in o.direction.items():
                u, v, _ = g.edges[e]
                assert {tail, head} == {u, v}
            assert o.max_out_degree() <= (g.delta + 3) // 2
            worst = max(worst, o.max_out_degree())
        assert worst == 3

    def test_deterministic(self):
        g = generate_random(80, 5, 1, seed=901)
        c = colour_sequential(g)
        assert orient(c).direction == orient(c).direction

    def test_matches_the_smallest_pending_edge_walk(self):
        cycles = 0
        for seed in range(40):
            g = generate_random(60, 3 + seed % 4, 1, seed=seed + 700)
            for c in (colour_sequential(g), run_scheduler(g, 2 * g.delta + 1, seed)):
                if c.uncoloured_count:
                    continue
                want, found = _reference_orientation(c)
                assert orient(c).direction == want
                cycles += found
        assert cycles >= 40


def _reference_orientation(c):
    """orient's walk done the slow way, and the number of cycles it found:
    each colour pair's union is walked from its sorted path ends, then from
    every vertex in order, taking at each step the smallest unvisited edge
    at the current vertex."""
    g = c.graph
    classes = {}
    for e, col in enumerate(c.colours):
        classes.setdefault(col, []).append(e)
    used = sorted(classes)
    direction, cycles = {}, 0
    for i in range(0, len(used), 2):
        members = sorted(e for col in used[i : i + 2] for e in classes[col])
        incident = {}
        for e in members:
            for x in g.edges[e][:2]:
                incident.setdefault(x, []).append(e)
        visited = set()

        def walk(cur):
            while True:
                pending = [f for f in incident[cur] if f not in visited]
                if not pending:
                    return
                f = min(pending)
                visited.add(f)
                u, v, _ = g.edges[f]
                direction[f] = (cur, v if cur == u else u)
                cur = direction[f][1]

        if i + 1 == len(used):
            direction.update({e: g.edges[e][:2] for e in members})
            continue
        for start in sorted(x for x, lst in incident.items() if len(lst) == 1):
            walk(start)
        for start in sorted(incident):
            cycles += any(f not in visited for f in incident[start])
            walk(start)
    return direction, cycles
