"""Tests for alternating paths, maximal fans, and augmenting chains."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vizing import (
    Colouring,
    build,
    generate_random,
    is_proper,
    max_fan,
    repeated_colour_indices,
    vizing_chain,
)
from vizing.chains import _free_colour, _walk

from helpers import random_instances
from oracles import (
    at_least,
    augment,
    oracle_alternating_path,
    oracle_classify,
    oracle_max_fan,
    oracle_missing,
    oracle_vizing_chain,
    other_end,
    prefix_stability_check,
)


@pytest.fixture
def coloured_path4(path4):
    """Path 0-1-2-3 with colours 1, 2, 1: a full alternating 1/2-path."""
    return Colouring.from_assignment(path4, [1, 2, 1])


def frozen_fan_instance_a():
    """A graph and colouring with a non-augmenting maximal fan (found by a
    seeded random search, then frozen).

    Around x=4 at the uncoloured edge e7 = 3-4, the fan collects e5 (colour
    2) and e8 (colour 4) and then stops because the next wanted colour 2
    points back at e5.  The repeated pair is j=0, k=2 with beta=2; the
    alternating 1/2-path from v_0=3 runs through x, so the critical index
    falls back to k, whose path from v_2=1 avoids x.
    """
    g = build(
        6,
        [
            (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 5, 1), (0, 2, 1), (4, 5, 1),
            (0, 1, 1), (3, 4, 1), (1, 4, 1), (2, 4, 1), (3, 5, 1), (0, 5, 1),
        ],
    )
    c = Colouring.from_assignment(g, [5, 5, 3, 0, 2, 2, 1, 0, 4, 0, 1, 3])
    return g, c


def frozen_fan_instance_b():
    """Like instance A but the first candidate index already qualifies:
    around x=5 at e11 = 1-5 the fan is (e11, e8, e3) with repeated colour 1
    at j=0, k=2, and the 2/1-path from v_0=1 (the single edge e7) avoids x,
    so the chain is the one-edge fan prefix plus that path."""
    g = build(
        6,
        [
            (2, 3, 1), (3, 5, 1), (0, 3, 1), (4, 5, 1), (0, 4, 1), (1, 3, 1),
            (0, 1, 1), (1, 4, 1), (2, 5, 1), (2, 4, 1), (0, 2, 1), (1, 5, 1),
        ],
    )
    c = Colouring.from_assignment(g, [3, 5, 1, 4, 3, 4, 0, 2, 1, 5, 2, 0])
    return g, c


# ---------------------------------------------------------------------------
# alternating paths
# ---------------------------------------------------------------------------


def test_path_empty_when_alpha_missing(p3):
    c = Colouring.from_assignment(p3, {1: 1})
    p = _walk(p3, c.colours, 0, 2, 3)
    assert p.edges == []
    assert p.last_vertex == 0


def test_path_forward(coloured_path4):
    p = _walk(coloured_path4.graph, coloured_path4.colours, 0, 1, 2)
    assert p.edges == [0, 1, 2]
    assert p.last_vertex == 3


def test_path_reversed(coloured_path4):
    p = _walk(coloured_path4.graph, coloured_path4.colours, 3, 1, 2)
    assert p.edges == [2, 1, 0]
    assert p.last_vertex == 0


def test_path_properties_randomised():
    rng = random.Random(50)
    walked = 0
    for g, c in random_instances(15, seed=51):
        for _ in range(10):
            x = rng.randrange(g.n)
            alpha, beta = rng.sample(range(1, g.palette + 1), 2)
            if beta not in oracle_missing(g, c.colours, x):
                continue
            p = _walk(g, c.colours, x, alpha, beta)
            edges, last = oracle_alternating_path(g, c.colours, x, alpha, beta)
            assert p.edges == edges and p.last_vertex == last
            assert (len(p.edges) == 0) == (alpha in oracle_missing(g, c.colours, x))
            # edge injective, alternating colours, no vertex visited 3 times
            assert len(set(p.edges)) == len(p.edges)
            want = [alpha, beta]
            visits = {x: 1}
            v = x
            for i, e in enumerate(p.edges):
                assert c.colour_of(e) == want[i % 2]
                v = other_end(g, e, v)
                visits[v] = visits.get(v, 0) + 1
            assert all(n <= 2 for n in visits.values())
            # the walk can never return to its start (no beta edge there)
            assert visits[x] == 1
            if p.edges:
                # walking back from the far end reverses the path
                gamma = c.colour_of(p.edges[-1])
                delta = beta if gamma == alpha else alpha
                q = _walk(g, c.colours, last, gamma, delta)
                assert q.edges == list(reversed(p.edges))
                assert q.last_vertex == x
            walked += 1
    assert walked >= 60


# ---------------------------------------------------------------------------
# prefix stability under extensions
# ---------------------------------------------------------------------------


def test_prefix_stability_identity(coloured_path4):
    assert prefix_stability_check(coloured_path4, coloured_path4, 0, 1, 2) is True


def test_prefix_stability_extension(path4):
    c = Colouring.from_assignment(path4, {0: 1, 1: 2})
    # colouring e2 with 1 extends the 1/2-path; with 3 it leaves it alone
    d_ext = Colouring.from_assignment(path4, {0: 1, 1: 2, 2: 1})
    d_off = Colouring.from_assignment(path4, {0: 1, 1: 2, 2: 3})
    assert prefix_stability_check(c, d_ext, 0, 1, 2) is True
    assert prefix_stability_check(c, d_off, 0, 1, 2) is True
    assert _walk(path4, d_ext.colours, 0, 1, 2).edges == [0, 1, 2]


def test_prefix_stability_precondition_violations(path4, coloured_path4):
    c = Colouring.from_assignment(path4, {0: 1, 1: 2})
    changed = Colouring.from_assignment(path4, {0: 3, 1: 2})
    with pytest.raises(ValueError, match="disagree on path edge"):
        prefix_stability_check(c, changed, 0, 1, 2)
    empty_side = Colouring.from_assignment(path4, {0: 1, 1: 2})
    blocked = Colouring.from_assignment(path4, {0: 1, 1: 2, 2: 1})
    # under `blocked`, colour 1 is no longer missing at vertex 3
    with pytest.raises(ValueError, match="not missing"):
        prefix_stability_check(empty_side, blocked, 3, 2, 1)
    other_graph = Colouring.empty(build(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)]))
    with pytest.raises(ValueError, match="same graph"):
        prefix_stability_check(coloured_path4, other_graph, 0, 1, 2)


def test_prefix_stability_randomised():
    rng = random.Random(52)
    checked = 0
    probes = []
    for g, c in random_instances(15, seed=53, fill=0.6):
        for _ in range(4):
            probes.append((g, c))
    for g, c in probes:
        x = rng.randrange(g.n)
        alpha, beta = rng.sample(range(1, g.palette + 1), 2)
        if beta not in oracle_missing(g, c.colours, x):
            continue
        # extend c to d by colouring a few more edges, never putting beta on x
        cols, used = list(c.colours), list(c._used)
        for e in c.uncoloured():
            if rng.random() > 0.5:
                continue
            u, v, _ = g.edges[e]
            mask = (1 << g.palette) - 1 & ~(used[u] | used[v])
            if x in (u, v):
                mask &= ~(1 << (beta - 1))
            if mask:
                bit = mask & -mask
                cols[e] = bit.bit_length()
                used[u] |= bit
                used[v] |= bit
        d = Colouring.from_assignment(g, cols)
        assert prefix_stability_check(c, d, x, alpha, beta) is True
        checked += 1
    assert checked >= 8


# ---------------------------------------------------------------------------
# maximal fans
# ---------------------------------------------------------------------------


def test_fan_p3(p3):
    c = Colouring.from_assignment(p3, {1: 1})
    fan = max_fan(c, 1, 0)
    assert fan.edges == [0, 1]
    assert fan.colour_seq == [1]
    assert fan.far_endpoints == [0, 2]
    assert fan.augmenting is True
    assert fan.repeat_pos is None


def test_fan_star3(star3):
    c = Colouring.from_assignment(star3, {1: 1, 2: 2})
    fan = max_fan(c, 0, 0)
    assert fan.edges == [0, 1, 2]
    assert fan.colour_seq == [1, 2]
    assert fan.augmenting is True
    # the stop here is a repeat: the wanted colour 1 points back at edge 1
    assert fan.next_colour == 1
    assert fan.repeat_pos == 1


def test_fan_dbl(dbl):
    c = Colouring.from_assignment(dbl, {1: 1})
    fan = max_fan(c, 0, 0)
    assert fan.edges == [0]
    assert fan.colour_seq == []
    assert fan.augmenting is True
    assert fan.next_colour == 2
    assert fan.repeat_pos is None


def test_fan_errors(p3):
    c = Colouring.from_assignment(p3, {1: 1})
    with pytest.raises(ValueError, match="is coloured"):
        max_fan(c, 1, 1)
    with pytest.raises(ValueError, match="not an endpoint"):
        max_fan(c, 2, 0)


def test_fan_oracle_checks_its_precondition(p3):
    """The oracle's bare asserts are rewritten by pytest (see conftest), so
    they still fire under ``python -O``."""
    c = Colouring.from_assignment(p3, {1: 1})
    with pytest.raises(AssertionError):
        oracle_max_fan(p3, c.colours, 1, 1)


def fan_probe_instances():
    """Instance mix for fan/chain sweeps: some with parallel edges (pi=2)
    to exercise the availability rule, plus a denser simple batch where
    non-augmenting fans are frequent enough to matter."""
    yield from random_instances(20, seed=54)
    yield from random_instances(60, seed=58, n=7, delta=4, pi=1, fill=0.9)


def test_fan_matches_oracle_and_invariants():
    """Both of the fan builder's exits are pinned against the oracle: the
    stop where the centre has no edge of the wanted colour (read off its
    used mask) and the stop at a repeated edge."""
    seen_nonaug = 0
    stops = {"no edge": 0, "repeat": 0}
    for g, c in fan_probe_instances():
        for e in c.uncoloured():
            for x in g.edges[e][:2]:
                fan = max_fan(c, x, e)
                want = oracle_max_fan(g, c.colours, x, e)
                assert fan.edges == want["edges"]
                assert fan.far_endpoints == want["far"]
                assert fan.colour_seq == want["colour_seq"]
                assert fan.next_colour == want["next_colour"]
                assert fan.repeat_pos == want["repeat_pos"]
                assert fan.augmenting == want["augmenting"]
                # structural invariants
                assert all(x in g.edges[h][:2] for h in fan.edges)
                assert len(set(fan.edges)) == len(fan.edges)
                for i, col in enumerate(fan.colour_seq):
                    assert c.colour_of(fan.edges[i + 1]) == col
                for a, b in zip(fan.far_endpoints, fan.far_endpoints[1:]):
                    assert a != b
                # every fan prefix is proper-shiftable
                for i in range(1, len(fan.edges) + 1):
                    assert at_least(
                        oracle_classify(g, list(c.colours), fan.edges[:i]), "proper-shiftable"
                    )
                if not fan.augmenting:
                    seen_nonaug += 1
                stops["no edge" if fan.repeat_pos is None else "repeat"] += 1
    assert seen_nonaug >= 10
    assert min(stops.values()) >= 10, stops


# Two probes whose fans reach their last far endpoint twice, through parallel
# edges: that endpoint's missing set then changes under the fan's own shift,
# though only in colours used at the centre, so the masks before the shift
# still decide the augmenting flag.
#   A: fan 6, 8, 2, 7 around 1 with far endpoints 2, 3, 0, 2; not augmenting.
#   B: fan 0, 1, 2 around 0 with far endpoints 1, 2, 1; augmenting.
PARALLEL_TO_LAST = [
    (
        build(5, [(2, 3, 1), (3, 4, 1), (0, 1, 1), (0, 1, 2), (0, 4, 1), (0, 2, 1),
                  (1, 2, 1), (1, 2, 2), (1, 3, 1), (0, 2, 2), (3, 4, 2)]),
        {0: 4, 1: 7, 2: 3, 3: 6, 4: 1, 5: 5, 7: 2, 8: 1, 9: 7, 10: 2},
        1, 6, False,
    ),
    (build(3, [(0, 1, 1), (0, 2, 1), (0, 1, 2)]), {1: 1, 2: 2}, 0, 0, True),
]


def test_parallel_fans_to_the_last_far_endpoint():
    for g, assignment, x, e, augmenting in PARALLEL_TO_LAST:
        c = Colouring.from_assignment(g, assignment)
        fan = max_fan(c, x, e)
        assert fan.far_endpoints[-1] in fan.far_endpoints[:-1]
        assert fan.augmenting is augmenting
        assert oracle_max_fan(g, c.colours, x, e)["augmenting"] is augmenting


@st.composite
def fan_probes(draw):
    """A random proper partial colouring, with at least one uncoloured
    edge, of a random multigraph on 4-5 vertices with degree at most 4-6
    and multiplicity at most 1-3 (mostly 2, for parallel fan edges).  The
    edges are visited in random order, and each takes a random colour free
    at both its ends with probability 0.95, so the colourings are dense and
    fans often stall."""
    n = draw(st.integers(4, 5))
    delta = draw(st.integers(4, 6))
    pi = draw(st.sampled_from([1, 2, 2, 3]))
    g = generate_random(n, delta, pi, seed=draw(st.integers(0, 2**32)))
    rng = draw(st.randoms(use_true_random=False))
    if g.m == 0:
        g = build(2, [(0, 1, 1)])
    e = rng.randrange(g.m)
    colours, used = [0] * g.m, [0] * g.n
    order = [f for f in range(g.m) if f != e]
    rng.shuffle(order)
    for f in order:
        u, v, _ = g.edges[f]
        free = (1 << g.palette) - 1 & ~(used[u] | used[v])
        cols = [i + 1 for i in range(g.palette) if free >> i & 1]
        if cols and rng.random() < 0.95:
            colours[f] = col = rng.choice(cols)
            used[u] |= 1 << (col - 1)
            used[v] |= 1 << (col - 1)
    return Colouring.from_assignment(g, colours)


@settings(max_examples=400)
@given(fan_probes())
@example(Colouring.from_assignment(*PARALLEL_TO_LAST[0][:2]))
@example(Colouring.from_assignment(*PARALLEL_TO_LAST[1][:2]))
def test_fan_augmenting_flag_matches_classifier(c):
    """The fan's mask test agrees with the general chain classifier at
    both endpoints of every uncoloured edge."""
    for e in c.uncoloured():
        for x in c.graph.edges[e][:2]:
            fan = max_fan(c, x, e)
            assert fan.augmenting == (
                oracle_classify(c.graph, list(c.colours), fan.edges) == "augmenting"
            ), (x, e)


def test_free_colour_is_the_one_edge_fan():
    """_free_colour is nonzero exactly when the fan (library and oracle) is
    the edge alone; the chain is then the edge alone too, and augmenting
    along it gives the edge that colour.  The converse fails: a
    non-augmenting fan whose first critical index is 0 and whose path is
    empty also yields the chain [e], so those probes are counted apart.
    The sweep must see edges whose ends share a missing colour while x
    uses the smallest colour missing at y (the fan then goes on)."""
    seen = {"free": 0, "shared_but_blocked": 0, "one_edge_chain_longer_fan": 0}

    @settings(max_examples=400)
    @given(fan_probes())
    # a probe of the last kind, at x = 1 and e = 4: the drawn examples
    # depend on this function's source and need not contain one
    @example(Colouring.from_assignment(
        build(4, [(1, 3, 1), (0, 1, 1), (2, 3, 1), (0, 3, 1), (1, 2, 1)]), [3, 1, 4, 2, 0]
    ))
    def check(c):
        g = c.graph
        for e in c.uncoloured():
            u, v, _ = g.edges[e]
            for x, y in ((u, v), (v, u)):
                col = _free_colour(c, x, e)
                alone = max_fan(c, x, e).edges == [e]
                assert alone == bool(col), (x, e)
                assert (oracle_max_fan(g, c.colours, x, e)["edges"] == [e]) == alone
                chain = vizing_chain(c, x, e).edges()
                if col:
                    seen["free"] += 1
                    assert chain == [e]
                    assert col == min(oracle_missing(g, c.colours, y))
                    d = c.copy()
                    d.augment_in_place([e])
                    assert d.colour_of(e) == col
                else:
                    seen["shared_but_blocked"] += bool(
                        c.missing_mask(x) & c.missing_mask(y)
                    )
                    seen["one_edge_chain_longer_fan"] += chain == [e]

    check()
    # 626, 486 and 9 with the derandomised profile, the pinned example included
    assert seen["free"] >= 500, seen
    assert seen["shared_but_blocked"] >= 300, seen
    assert seen["one_edge_chain_longer_fan"] >= 1, seen


# ---------------------------------------------------------------------------
# the repeated colour pair
# ---------------------------------------------------------------------------


def test_repeated_indices_rejects_augmenting(star3):
    c = Colouring.from_assignment(star3, {1: 1, 2: 2})
    with pytest.raises(ValueError, match="augmenting"):
        repeated_colour_indices(max_fan(c, 0, 0))


def test_repeated_indices_frozen_instance():
    g, c = frozen_fan_instance_a()
    fan = max_fan(c, 4, 7)
    assert fan.edges == [7, 5, 8]
    assert fan.far_endpoints == [3, 5, 1]
    assert fan.colour_seq == [2, 4]
    assert fan.augmenting is False
    j, k, beta = repeated_colour_indices(fan)
    assert (j, k, beta) == (0, 2, 2)


def test_repeated_indices_conclusions_randomised():
    found = 0
    for g, c in random_instances(60, seed=55, n=7, delta=4, pi=1, fill=0.9):
        for e in c.uncoloured():
            for x in g.edges[e][:2]:
                fan = max_fan(c, x, e)
                if fan.augmenting:
                    continue
                j, k, beta = repeated_colour_indices(fan)
                assert j < k == len(fan.edges) - 1
                assert fan.colour_seq[j] == beta == fan.next_colour
                assert fan.far_endpoints[j] != fan.far_endpoints[k]
                # beta is missing at both far endpoints
                assert beta in oracle_missing(g, c.colours, fan.far_endpoints[j])
                assert beta in oracle_missing(g, c.colours, fan.far_endpoints[k])
                found += 1
    assert found >= 10


# ---------------------------------------------------------------------------
# full chains
# ---------------------------------------------------------------------------


def test_chain_p3_fan_is_augmenting(p3):
    c = Colouring.from_assignment(p3, {1: 1})
    ch = vizing_chain(c, 1, 0)
    assert ch.edges() == [0, 1]
    assert ch.tail is None
    assert ch.fan_prefix_len == 2
    assert len(ch) == 2


def test_chain_p3_single_edge(p3):
    c = Colouring.from_assignment(p3, {1: 1})
    ch = vizing_chain(c, 0, 0)
    assert ch.edges() == [0]
    assert ch.tail is None


def test_chain_frozen_instance_a_takes_k():
    g, c = frozen_fan_instance_a()
    ch = vizing_chain(c, 4, 7)
    # the 1/2-path from v_0 = 3 is (e10, e5) and ends at x = 4, so the
    # critical index is k = 2 and the tail runs from v_2 = 1
    assert (ch.alpha, ch.beta) == (1, 2)
    path_j = _walk(g, c.colours, 3, 1, 2)
    assert path_j.edges == [10, 5] and path_j.last_vertex == 4
    assert ch.fan_prefix_len == 3  # first critical index 2
    assert ch.tail.edges == [6, 4]
    assert ch.edges() == [7, 5, 8, 6, 4]
    assert oracle_classify(g, list(c.colours), ch.edges()) == "augmenting"


def test_chain_frozen_instance_b_takes_j():
    g, c = frozen_fan_instance_b()
    fan = max_fan(c, 5, 11)
    assert fan.edges == [11, 8, 3]
    assert fan.augmenting is False
    ch = vizing_chain(c, 5, 11)
    assert (ch.alpha, ch.beta) == (2, 1)
    assert ch.fan_prefix_len == 1  # first critical index 0
    assert ch.tail.edges == [7]
    assert ch.edges() == [11, 7]
    assert oracle_classify(g, list(c.colours), ch.edges()) == "augmenting"


def test_chain_randomised_against_oracle():
    nonaug = 0
    for g, c in fan_probe_instances():
        for e in c.uncoloured():
            for x in g.edges[e][:2]:
                ch = vizing_chain(c, x, e)
                seq = ch.edges()
                assert seq == oracle_vizing_chain(g, c.colours, x, e)
                assert oracle_classify(g, list(c.colours), seq) == "augmenting"
                # the tail path never touches the centre
                for h in ([] if ch.tail is None else ch.tail.edges):
                    assert x not in g.edges[h][:2]
                # every prefix of the chain is proper-shiftable
                for i in range(1, len(seq) + 1):
                    assert at_least(
                        oracle_classify(g, list(c.colours), seq[:i]), "proper-shiftable"
                    )
                if ch.tail is not None:
                    nonaug += 1
    assert nonaug >= 10


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


def test_augment_p3(p3):
    c = Colouring.from_assignment(p3, {1: 1})
    out = augment(c, [0, 1])
    assert out.colours == [1, 2]
    assert out.uncoloured_count == 0


def test_augment_star3(star3):
    c = Colouring.from_assignment(star3, {1: 1, 2: 2})
    out = augment(c, [0, 1, 2])
    assert out.colours == [1, 2, 3]


def test_augment_single_edge(p3):
    c = Colouring.from_assignment(p3, {1: 1})
    out = augment(c, [0])
    assert out.colours == [2, 1]


def test_augment_accepts_vizing_chain_object(p3):
    c = Colouring.from_assignment(p3, {1: 1})
    out = augment(c, vizing_chain(c, 1, 0))
    assert out.uncoloured_count == 0


def test_augment_rejects_non_augmenting(p3):
    c = Colouring.from_assignment(p3, {0: 1, 1: 2})
    with pytest.raises(ValueError, match="not augmenting"):
        augment(c, [0, 1])
    g = build(6, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 4, 1), (1, 5, 1)])
    d = Colouring.from_assignment(g, {1: 1, 2: 2, 3: 3, 4: 4})
    with pytest.raises(ValueError, match="not augmenting"):
        augment(d, [0])


def test_augment_in_place_counts_changes(p3):
    c = Colouring.from_assignment(p3, {1: 1})
    assert c.augment_in_place([0, 1]) == 2
    assert c.colours == [1, 2]


def test_augment_randomised_properties():
    for g, c in random_instances(15, seed=57):
        for e in c.uncoloured()[:2]:
            x = g.edges[e][0]
            ch = vizing_chain(c, x, e)
            out = augment(c, ch)
            assert is_proper(out)
            assert out.uncoloured_count == c.uncoloured_count - 1
            touched = set(ch.edges())
            for h in range(g.m):
                if h not in touched:
                    assert out.colour_of(h) == c.colour_of(h)


def test_full_colouring_by_repeated_augmentation():
    # end-to-end: colour whole graphs with delta+pi colours by always
    # augmenting at the smallest uncoloured edge
    from vizing import generate_random

    for seed in (1, 2, 3):
        g = generate_random(10, 4, 2, seed=seed)
        c = Colouring.empty(g)
        steps = 0
        while c.uncoloured_count > 0:
            e = c.uncoloured()[0]
            x = g.edges[e][0]
            c.augment_in_place(vizing_chain(c, x, e).edges())
            steps += 1
            assert steps <= g.m
        assert c.uncoloured_count == 0
        assert is_proper(c)
