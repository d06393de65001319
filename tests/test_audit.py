"""Tests for the counting graphs, bound checks, and weighted chain mass."""

from __future__ import annotations

import json
import sys
from collections import Counter
from fractions import Fraction

import pytest

from vizing import (
    Colouring,
    audit_report,
    build,
    build_audit_graph,
    check_unimprovable,
    generate_random,
    superb_count_check,
    uncoloured_fraction_bounds,
    vizing_chain,
)
from vizing import audit, chains, engine, iterated
from vizing.cli import main as cli_main
from vizing.engine import _probe
from vizing.iterated import ScanEntry, superb_scan
from vizing.audit import (
    VERDICT_FAIL,
    VERDICT_NOT_APPLICABLE,
    VERDICT_PASS,
    VERDICT_VACUOUS,
    _check_degree_bounds,
    _fraction_verdict,
    fraction_bound_value,
    superb_count_bound,
)

from gadgets import (
    BARE,
    TYPE1,
    TYPE1_UNSTABLE,
    TYPE2,
    forked_type2_instance,
    locked_instance,
    long_path_instance,
)
from helpers import SEQUENTIAL_SHAPES, random_partial_colouring, round_snapshots
import oracles
from oracles import EdgeWeights, oracle_short_chain, oracle_unimprovable, weighted_chain_mass


def audit_instances():
    """Seeded random instances plus the hand-built ones, as (g, c) pairs."""
    out = []
    for seed in range(6):
        delta = 3 if seed % 2 == 0 else 4
        g = generate_random(40, delta, 1, seed)
        out.append((g, random_partial_colouring(g, seed + 500, fill=0.9)))
    for T in (2, 10):
        inst = locked_instance(T)
        out.append((inst.g, inst.c))
    inst = long_path_instance(12, {5: TYPE1, 7: BARE})
    out.append((inst.g, inst.c))
    return out


# ---------------------------------------------------------------------------
# Audit graph construction
# ---------------------------------------------------------------------------


class TestBuildAuditGraph:
    def test_p3_single_coloured_edge(self, p3):
        c = Colouring.from_assignment(p3, {1: 1})
        ag = build_audit_graph(c, "simple")
        assert ag.kind == "simple"
        assert ag.adjacency == {0: frozenset({1})}
        assert ag.reverse_degrees == {1: 1}
        assert len(ag.adjacency[0]) == 1
        assert ag.reverse_degrees.get(1, 0) == 1

    def test_fully_coloured_graph_is_empty(self, p3):
        c = Colouring.from_assignment(p3, [1, 2])
        for kind in ("simple", "iterated"):
            ag = build_audit_graph(c, kind, L_cap=10)
            assert ag.adjacency == {}
            assert ag.reverse_degrees == {}
            assert sum(map(len, ag.adjacency.values())) == 0

    def test_star3_empty_colouring_has_no_pairs(self, star3):
        c = Colouring.empty(star3)
        for kind in ("simple", "iterated"):
            ag = build_audit_graph(c, kind, L_cap=10)
            assert set(ag.adjacency) == {0, 1, 2}
            assert sum(map(len, ag.adjacency.values())) == 0
            assert ag.reverse_degrees == {}

    def test_unknown_kind_rejected(self, p3):
        c = Colouring.empty(p3)
        with pytest.raises(ValueError, match="kind"):
            build_audit_graph(c, "quadratic")

    def test_locked_instance_adjacency_frozen(self):
        inst = locked_instance(2)
        ag = build_audit_graph(inst.c, "simple")
        # chain at x: [e] + [a3, tail2]; chain at a: [e] + [x1, tail2]
        assert ag.adjacency == {0: frozenset({1, 4, 6, 12})}
        assert ag.reverse_degrees == {1: 1, 4: 1, 6: 1, 12: 1}
        agi = build_audit_graph(inst.c, "iterated", L_cap=2)
        # tails are too short to hold suitable edges
        assert agi.adjacency == {0: frozenset()}
        assert agi.reverse_degrees == {}

    def test_locked_long_iterated_partners(self):
        inst = locked_instance(16)
        agi = build_audit_graph(inst.c, "iterated", L_cap=16)
        # bare Type0 edges at odd positions 5..15 on both tails; the longest
        # second-order chain covers the prefix through position 15
        want = {inst.e} | set(inst.x_tail[:15]) | set(inst.a_tail[:15])
        want.discard(inst.e)
        assert agi.adjacency == {inst.e: frozenset(want)}
        assert len(agi.adjacency[inst.e]) == 30

    def test_partners_are_coloured_and_chains_rederivable(self):
        for g, c in audit_instances():
            ag = build_audit_graph(c, "simple")
            assert set(ag.adjacency) == set(c.uncoloured())
            for e, partners in ag.adjacency.items():
                seen = set()
                u, v, _ = g.edges[e]
                for x in (u, v):
                    seen |= set(vizing_chain(c, x, e).edges())
                seen.discard(e)
                assert partners == seen
                for f in partners:
                    assert c.colours[f] != 0

    @pytest.mark.parametrize("L_cap", [4, 12, 16, None])
    def test_iterated_union_matches_every_superb_chain(self, L_cap):
        # the union read off the last superb chain plus each entry's second
        # level equals the union of every superb entry's whole chain
        instances = audit_instances() + [(inst.g, inst.c) for inst in (
            long_path_instance(12),
            long_path_instance(16, {5: TYPE1, 7: BARE, 9: TYPE1_UNSTABLE}),
            long_path_instance(
                24, {5: TYPE2, 7: TYPE1, 11: TYPE2, 13: BARE, 17: TYPE1}, delta=4
            ),
            locked_instance(16),
        )]
        for g, c in instances:
            ag = build_audit_graph(c, "iterated", L_cap)
            for e in c.uncoloured():
                want = set()
                u, v, _ = g.edges[e]
                for x in (u, v):
                    chain = vizing_chain(c, x, e)
                    if chain.tail is None:
                        continue
                    for entry in superb_scan(c, chain, limit=L_cap):
                        if entry.superb:
                            want.update(entry.edges())
                want.discard(e)
                assert ag.adjacency[e] == frozenset(want)

    def test_handshake_identity_both_kinds(self):
        for g, c in audit_instances():
            for kind in ("simple", "iterated"):
                ag = build_audit_graph(c, kind, L_cap=12)
                left = sum(len(p) for p in ag.adjacency.values())
                right = sum(ag.reverse_degrees.values())
                assert left == right
                recount = Counter()
                for partners in ag.adjacency.values():
                    recount.update(partners)
                assert dict(recount) == ag.reverse_degrees

    def test_build_restores_the_colouring(self):
        for g, c in audit_instances():
            before = list(c.colours)
            build_audit_graph(c, "iterated", L_cap=12)
            assert c.colours == before


# ---------------------------------------------------------------------------
# Degree bounds
# ---------------------------------------------------------------------------


class TestDegreeBounds:
    def test_p3_example(self, p3):
        c = Colouring.from_assignment(p3, {1: 1})
        ag = build_audit_graph(c, "simple")
        res = _check_degree_bounds(ag, 2, 1)
        assert res.ok
        assert res.bound == 81
        assert res.max_degree == 1
        assert res.worst_edge == 1

    def test_empty_graph_has_no_offender(self, p3):
        c = Colouring.from_assignment(p3, [1, 2])
        res = _check_degree_bounds(build_audit_graph(c, "simple"), 2, 1)
        assert res.ok and res.max_degree == 0 and res.worst_edge is None

    def test_bound_powers_by_kind(self, star3):
        c = Colouring.empty(star3)
        assert _check_degree_bounds(build_audit_graph(c, "simple"), 3, 1).bound == 4**4
        assert (
            _check_degree_bounds(build_audit_graph(c, "iterated", L_cap=4), 3, 1).bound
            == 4**9
        )

    def test_degree_caps_hold_on_instances(self):
        for g, c in audit_instances():
            simple = _check_degree_bounds(build_audit_graph(c, "simple"), g.delta, g.pi)
            assert simple.ok, f"simple degree {simple.max_degree} > {simple.bound}"
            iterated = _check_degree_bounds(
                build_audit_graph(c, "iterated", L_cap=12), g.delta, g.pi
            )
            assert iterated.ok, f"iterated degree {iterated.max_degree} > {iterated.bound}"

    def test_worst_edge_attains_max_degree(self):
        """The worst coloured edge is the smallest one of maximum degree,
        and the report's uncoloured edge the smallest one of minimum
        degree."""
        for g, c in audit_instances():
            ag = build_audit_graph(c, "simple")
            res = _check_degree_bounds(ag, g.delta, g.pi)
            if res.worst_edge is not None:
                assert ag.reverse_degrees.get(res.worst_edge, 0) == res.max_degree
                assert res.worst_edge == min(f for f, d in ag.reverse_degrees.items()
                                             if d == res.max_degree)
            low = min((len(p) for p in ag.adjacency.values()), default=0)
            want = min((e for e, p in ag.adjacency.items() if len(p) == low), default=None)
            assert ag.min_uncoloured_degree() == (want, low)


# ---------------------------------------------------------------------------
# Improvement checks
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, calls, original, modules):
    """Record in `calls` (returned) every call of `original` made through
    one of `modules` that holds it under its own name."""

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        if vars(module).get(original.__name__) is original:
            monkeypatch.setattr(module, original.__name__, counted)
    return calls


def _vizing_modules():
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "vizing"]


class TestCheckUnimprovable:
    def test_fully_coloured_is_vacuously_true(self, p3):
        c = Colouring.from_assignment(p3, [1, 2])
        assert check_unimprovable(c, 100)
        assert check_unimprovable(c, 100, mode="simple")

    def test_augmenting_fan_fails(self, p3):
        c = Colouring.from_assignment(p3, {1: 1})
        assert not check_unimprovable(c, 1)
        assert not check_unimprovable(c, 1, mode="simple")

    def test_locked_short_tails_boundary(self):
        c = locked_instance(2).c
        for mode in ("simple", "iterated"):
            assert check_unimprovable(c, 2, mode=mode)
            assert not check_unimprovable(c, 3, mode=mode)

    def test_locked_long_separates_modes(self):
        # tails of 16 edges, bare suitable edges from position 5 on: the
        # second level spots the short (empty) second paths the first level
        # cannot see
        c = locked_instance(16).c
        assert check_unimprovable(c, 4, mode="simple")
        assert check_unimprovable(c, 4, mode="iterated")
        assert check_unimprovable(c, 5, mode="simple")
        assert not check_unimprovable(c, 5, mode="iterated")
        assert check_unimprovable(c, 16, mode="simple")
        assert not check_unimprovable(c, 17, mode="simple")

    def test_unknown_mode_rejected(self, p3):
        with pytest.raises(ValueError, match="mode"):
            check_unimprovable(Colouring.empty(p3), 1, mode="thorough")

    def test_check_restores_the_colouring(self):
        c = locked_instance(16).c
        before = list(c.colours)
        check_unimprovable(c, 5, mode="iterated")
        assert c.colours == before

    @pytest.mark.parametrize("L", [4, 16])
    def test_simple_mode_runs_no_superb_scan(self, monkeypatch, L):
        # both locked tails have 16 edges, so every probe gets past the
        # plain clause; only the iterated check goes on to scan them
        scans = _count_calls(monkeypatch, [], iterated.superb_scan, _vizing_modules())
        c = locked_instance(16).c
        assert check_unimprovable(c, L, mode="simple")
        assert scans == []
        assert check_unimprovable(c, L, mode="iterated") is (L == 4)
        # at L = 16 the first endpoint's scan finds an empty second path
        assert len(scans) == (2 if L == 4 else 1)

    @pytest.fixture
    def referee(self, monkeypatch):
        """Compares check_unimprovable in both modes with
        oracle_unimprovable, and each uncoloured edge's _probe(c, e, L, s)
        is None with oracle_short_chain, for s in None, L - 1 and L, at
        every scale L from 1 to two past the colouring's longest tail.
        Tallies the probes by which of the three bounds find a chain.  The
        brute-force chain is memoised per colouring, endpoint and edge, as
        it depends on neither the scale nor the bound."""
        chain, memo, keep = oracles.oracle_vizing_chain, {}, []

        def memoised(g, cols, x, e):
            key = (id(g), tuple(cols), x, e)
            if key not in memo:
                keep.append(g)
                memo[key] = chain(g, cols, x, e)
            return memo[key]

        monkeypatch.setattr(oracles, "oracle_vizing_chain", memoised)
        found = Counter()

        def check(c):
            top = max(
                (len(ch.tail.edges) for e in c.uncoloured() for x in c.graph.edges[e][:2]
                 if (ch := vizing_chain(c, x, e)).tail is not None),
                default=0,
            )
            for L in range(1, top + 3):
                for mode in ("simple", "iterated"):
                    assert check_unimprovable(c, L, mode) == oracle_unimprovable(c, L, mode)
                for e in c.uncoloured():
                    bounds = (None, L - 1, L)
                    got = tuple(_probe(c, e, L, s) is not None for s in bounds)
                    assert got == tuple(oracle_short_chain(c, e, L, s) for s in bounds), (e, L)
                    found[got] += 1
        return check, found

    def test_equals_the_referee_on_gadgets(self, referee):
        check, found = referee
        instances = [locked_instance(T) for T in (2, 10, 16)] + [
            long_path_instance(12, {5: TYPE1, 7: BARE}),
            long_path_instance(16, {5: TYPE1, 7: BARE, 9: TYPE1_UNSTABLE}),
            long_path_instance(12, {5: TYPE2, 9: TYPE1}, delta=4),
            long_path_instance(10, {5: TYPE1}, side=5),
            long_path_instance(12, {5: TYPE1}, side=10),
            forked_type2_instance(12, 7),
        ]
        for inst in instances:
            check(inst.c)
        print(f"gadget probes by (None, L - 1, L) finding a chain: {dict(found)}")
        # stuck probes, plain chains, and second-order chains the plain
        # clause misses; a chain that only the bound L finds needs both
        # endpoints stuck, and every gadget with a type1 side path has an
        # augmenting fan at its far endpoint (test_engine pins that split
        # at the first endpoint)
        assert {(False,) * 3, (False, True, True), (True,) * 3} <= set(found)

    def test_equals_the_referee_on_round_snapshots(self, referee):
        check, found = referee
        for n, delta, pi in SEQUENTIAL_SHAPES:
            g = generate_random(n, delta, pi, seed=0)
            for L in (2 * g.delta + 1, 4 * g.delta + 1):
                for c in round_snapshots(g, L, 0):
                    check(c)
        print(f"snapshot probes by (None, L - 1, L) finding a chain: {dict(found)}")
        # every uncoloured edge of these snapshots has a plain chain at
        # some scale up to its tails (the scheduler colours such graphs
        # fully), so here the sweep checks the free, fan and plain-chain
        # plans; the stuck and second-order probes come from the gadgets
        assert found[(True,) * 3] >= 10000


# ---------------------------------------------------------------------------
# Uncoloured fraction bounds
# ---------------------------------------------------------------------------


class TestFractionBounds:
    def test_bound_formulas(self):
        assert fraction_bound_value("simple", 2, 1, 81) == 1
        assert fraction_bound_value("simple", 3, 1, 64) == Fraction(256, 64)
        assert fraction_bound_value("iterated", 2, 1, 10000) == Fraction(
            14348907, 10**8
        )
        with pytest.raises(ValueError, match="mode"):
            fraction_bound_value("quadratic", 2, 1, 10)

    def test_verdict_logic_all_branches(self):
        assert _fraction_verdict(Fraction(0), Fraction(1, 2), True) == VERDICT_PASS
        assert _fraction_verdict(Fraction(3, 4), Fraction(1, 2), True) == VERDICT_FAIL
        assert _fraction_verdict(Fraction(3, 4), Fraction(2), True) == VERDICT_VACUOUS
        assert (
            _fraction_verdict(Fraction(0), Fraction(1, 2), False)
            == VERDICT_NOT_APPLICABLE
        )

    def test_fully_coloured_passes(self, p3):
        c = Colouring.from_assignment(p3, [1, 2])
        res = uncoloured_fraction_bounds(c, 162, "simple")
        assert res.fraction == 0
        assert res.bound == Fraction(1, 2)
        assert res.verdict == VERDICT_PASS
        assert res.verdict in (VERDICT_PASS, VERDICT_VACUOUS)

    def test_vacuous_bound_at_small_l(self, p3):
        c = Colouring.from_assignment(p3, [1, 2])
        res = uncoloured_fraction_bounds(c, 81, "simple")
        assert res.bound == 1
        assert res.verdict == VERDICT_VACUOUS

    def test_iterated_threshold_gates_the_bound(self, p3):
        c = Colouring.from_assignment(p3, [1, 2])
        # 10 (delta+pi)^6 = 7290 must be strictly below L
        res = uncoloured_fraction_bounds(c, 7290, "iterated")
        assert res.verdict == VERDICT_NOT_APPLICABLE
        res = uncoloured_fraction_bounds(c, 7291, "iterated")
        assert res.verdict == VERDICT_PASS
        assert res.bound == Fraction(3**15, 7291 * 7291)

    def test_improvable_colouring_is_not_applicable(self, p3):
        c = Colouring.from_assignment(p3, {1: 1})
        res = uncoloured_fraction_bounds(c, 81, "simple")
        assert res.verdict == VERDICT_NOT_APPLICABLE
        assert res.fraction == Fraction(1, 2)
        assert res.verdict not in (VERDICT_PASS, VERDICT_VACUOUS)

    def test_locked_long_simple_applies_iterated_does_not(self):
        inst = locked_instance(16)
        res = uncoloured_fraction_bounds(inst.c, 8, "simple")
        assert res.fraction == Fraction(1, 44)
        assert res.bound == Fraction(625, 8)
        assert res.verdict == VERDICT_VACUOUS
        res = uncoloured_fraction_bounds(inst.c, 8, "iterated")
        assert res.verdict == VERDICT_NOT_APPLICABLE


# ---------------------------------------------------------------------------
# Superb-edge counting
# ---------------------------------------------------------------------------


class TestSuperbCountCheck:
    def test_bound_values(self):
        assert superb_count_bound(2, 1, 400) == Fraction(-265, 27)
        assert superb_count_bound(2, 1, 4000) == Fraction(1535, 27)
        # a count passes at L=4000 only from 57 up
        assert Fraction(57) >= superb_count_bound(2, 1, 4000)
        assert Fraction(56) < superb_count_bound(2, 1, 4000)

    def test_all_type0_counts_for_every_pair(self):
        inst = long_path_instance(12)
        sc = superb_count_check(inst.c, inst.e, inst.x, 12)
        assert (sc.gamma, sc.theta, sc.count) == (1, 2, 4)
        assert sc.bound == Fraction(-1415, 24)
        assert sc.verdict == VERDICT_VACUOUS
        assert sc.verdict in (VERDICT_PASS, VERDICT_VACUOUS)

    def test_single_colour_paths_join_matching_pairs(self):
        # TypeI at 5 contributes its one-edge second path (colour 3) to every
        # pair containing 3; the unstable TypeI at 9 is not superb and does
        # not count; bare positions 7, 11, 13, 15 count for every pair
        inst = long_path_instance(16, {5: TYPE1, 7: BARE, 9: TYPE1_UNSTABLE})
        sc = superb_count_check(inst.c, inst.e, inst.x, 16)
        assert (sc.gamma, sc.theta, sc.count) == (1, 3, 5)

    def test_empty_type2_paths_count_everywhere(self):
        inst = long_path_instance(
            24, {5: TYPE2, 7: TYPE1, 11: TYPE2, 13: BARE, 17: TYPE1}, delta=4
        )
        sc = superb_count_check(inst.c, inst.e, inst.x, 24)
        # 8 wildcard entries (two empty TypeII, six bare) plus two TypeI
        # second paths coloured 3
        assert (sc.gamma, sc.theta, sc.count) == (1, 3, 10)

    def test_short_path_is_an_error(self):
        inst = long_path_instance(12)
        with pytest.raises(ValueError, match="at least L"):
            superb_count_check(inst.c, inst.e, inst.x, 13)

    def test_augmenting_fan_is_an_error(self, p3):
        c = Colouring.from_assignment(p3, {1: 1})
        with pytest.raises(ValueError, match="augmenting"):
            superb_count_check(c, 0, 0, 1)

    def test_count_restores_the_colouring(self):
        inst = long_path_instance(16, {5: TYPE1, 7: BARE, 9: TYPE1_UNSTABLE})
        before = list(inst.c.colours)
        superb_count_check(inst.c, inst.e, inst.x, 16)
        assert inst.c.colours == before


# ---------------------------------------------------------------------------
# Weighted chain mass
# ---------------------------------------------------------------------------


class TestWeightedChainMass:
    def test_p3_unit_weights(self, p3):
        c = Colouring.from_assignment(p3, {1: 1})
        assert weighted_chain_mass(c, 0, 1, EdgeWeights.unit(p3)) == 1

    def test_p3_ratio(self, p3):
        c = Colouring.from_assignment(p3, {1: 1})
        w = EdgeWeights({0: Fraction(1), 1: Fraction(3)})
        assert weighted_chain_mass(c, 0, 1, w) == 3

    def test_plain_mapping_accepted(self, p3):
        c = Colouring.from_assignment(p3, {1: 1})
        assert weighted_chain_mass(c, 0, 1, {0: 2, 1: 5}) == Fraction(5, 2)

    def test_unit_mass_equals_chain_length_minus_one(self):
        for g, c in audit_instances():
            unit = EdgeWeights.unit(g)
            for e in c.uncoloured()[:6]:
                u, v, _ = g.edges[e]
                for x in (u, v):
                    mass = weighted_chain_mass(c, e, x, unit)
                    assert mass == len(vizing_chain(c, x, e).edges()) - 1

    def test_coloured_edge_rejected(self, p3):
        c = Colouring.from_assignment(p3, {1: 1})
        with pytest.raises(ValueError, match="uncoloured"):
            weighted_chain_mass(c, 1, 1, EdgeWeights.unit(p3))

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            EdgeWeights({0: Fraction(0)})
        with pytest.raises(ValueError, match="positive"):
            EdgeWeights({0: Fraction(-1, 2)})

    def test_locked_masses(self):
        inst = locked_instance(2)
        unit = EdgeWeights.unit(inst.g)
        assert weighted_chain_mass(inst.c, inst.e, inst.x, unit) == 2
        assert weighted_chain_mass(inst.c, inst.e, inst.a, unit) == 2
        # x-side chain is [e, a3, tail2]; weigh those two partners 3 and 5
        w = {f: 1 for f in range(inst.g.m)}
        w[inst.x_tail[0]] = 3
        w[inst.x_tail[1]] = 5
        assert weighted_chain_mass(inst.c, inst.e, inst.x, w) == 8


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


class TestOneChainPerProbe:
    """Each public audit builds every (uncoloured edge, endpoint) probe's
    plain fan once and passes the chain down.  Fans are counted by wrapping
    max_fan in every vizing module that holds it, and _grow_fan in the
    engine, whose probe check_unimprovable asks."""

    @pytest.fixture
    def fans(self, monkeypatch):
        calls = _count_calls(monkeypatch, [], chains.max_fan, _vizing_modules())
        return _count_calls(monkeypatch, calls, chains._grow_fan, [engine])

    @pytest.mark.parametrize(
        "call, result, probes",
        [
            # both endpoints of the one uncoloured edge, serving both audit
            # graphs and the chain mass
            (lambda inst: audit_report(inst.c, 16).min_uncoloured_deg, 32, 2),
            (lambda inst: check_unimprovable(inst.c, 16, mode="simple"), True, 2),
            (lambda inst: check_unimprovable(inst.c, 4, mode="iterated"), True, 2),
            # stops at the first endpoint, whose scan finds an empty second path
            (lambda inst: check_unimprovable(inst.c, 16, mode="iterated"), False, 1),
            (lambda inst: superb_count_check(inst.c, inst.e, inst.x, 16).count, 6, 1),
        ],
        ids=["audit_report", "simple", "iterated-settled", "iterated-improvable", "superb_count"],
    )
    def test_one_plain_fan_per_probe(self, fans, call, result, probes):
        inst = locked_instance(16)
        assert call(inst) == result
        assert len(fans) == probes

    @pytest.fixture
    def scans(self, monkeypatch):
        return _count_calls(monkeypatch, [], iterated.superb_scan, _vizing_modules())

    def test_probe_count_rides_on_the_report_scan(self, fans, scans):
        inst = locked_instance(16)
        rep = audit_report(inst.c, 16, superb_probes=((inst.e, inst.x),))
        assert len(rep.superb_count_checks) == 1
        assert (len(fans), len(scans)) == (2, 2)

    def test_probe_rows_equal_superb_count_check(self):
        inst = locked_instance(16)
        probes = ((inst.e, inst.x), (inst.e, inst.a), (inst.e, inst.x))
        rep = audit_report(inst.c, 16, superb_probes=probes)
        assert rep.superb_count_checks == [
            (e, x, *superb_count_check(inst.c, e, x, 16)) for e, x in probes
        ]

    @pytest.mark.parametrize("case", ["coloured", "not-endpoint", "augmenting", "short"])
    def test_probe_errors_equal_superb_count_check(self, p3, case):
        inst = locked_instance(16)
        c, e, x, L = inst.c, inst.e, inst.x, 16
        if case == "coloured":
            e = inst.x_tail[0]
            x = inst.g.edges[e][0]
        elif case == "not-endpoint":
            x = inst.g.edges[inst.x_tail[1]][1]
        elif case == "augmenting":
            c, e, x, L = Colouring.from_assignment(p3, {1: 1}), 0, 0, 1
        else:
            L = len(vizing_chain(c, x, e).tail.edges) + 1
        with pytest.raises(ValueError) as want:
            superb_count_check(c, e, x, L)
        # where L allows one, a good probe first: the bad one still raises
        if case in ("coloured", "not-endpoint"):
            probes = ((inst.e, inst.a), (e, x))
        else:
            probes = ((e, x),)
        with pytest.raises(ValueError) as got:
            audit_report(c, L, superb_probes=probes)
        assert str(got.value) == str(want.value)

    @staticmethod
    def _cli_audit(tmp_path, capsys, L, mode):
        # five locked gadgets side by side: 5 uncoloured edges, 10 probes,
        # none improvable at the first level at L = 16
        triples, colours, n = [], [], 0
        for T in (16, 17, 18, 19, 20):
            inst = locked_instance(T)
            triples += [(u + n, v + n, k) for u, v, k in inst.g.edges]
            colours += inst.c.colours
            n += inst.g.n
        c = Colouring.from_assignment(build(n, triples), colours)
        dump = tmp_path / "stuck.dump"
        dump.write_text(c.graph.to_text() + c.to_text())
        assert cli_main(["audit", "--L", str(L), "--mode", mode, "--input", str(dump)]) == 0
        assert json.loads(capsys.readouterr().out)["min_uncoloured_deg"] >= 16

    @pytest.mark.parametrize(
        "mode, fans_and_scans", [("simple", (10, 10)), ("iterated", (10, 10))]
    )
    def test_cli_audit_builds_each_probe_once(self, tmp_path, capsys, fans, scans,
                                              mode, fans_and_scans):
        # both verdicts ride on the report's chains and scans, so the
        # iterated mode builds no extra chain for the second-order check
        self._cli_audit(tmp_path, capsys, 16, mode)
        assert (len(fans), len(scans)) == fans_and_scans

    @pytest.mark.parametrize("mode", ["simple", "iterated"])
    def test_cli_audit_on_a_settled_colouring_builds_each_probe_once(
        self, tmp_path, capsys, fans, scans, mode
    ):
        # at L = 4 no probe is improvable in either sense, so a second
        # unimprovability pass could not stop early: it would double the counts
        self._cli_audit(tmp_path, capsys, 4, mode)
        assert (len(fans), len(scans)) == (10, 10)

    @pytest.fixture
    def verdicts(self, monkeypatch):
        # the unimprovability verdicts audit_report hands to its two bounds,
        # spied on since the iterated bound does not apply below
        # L = 10 (delta+pi)^6 whatever its verdict
        handed = []
        original = audit._fraction_bound

        def spied(c, L, mode, unimprovable):
            handed.append((mode, unimprovable))
            return original(c, L, mode, unimprovable)

        monkeypatch.setattr(audit, "_fraction_bound", spied)

        def report_verdicts(c, L):
            handed.clear()
            rep = audit_report(c, L)
            assert [mode for mode, _ in handed] == ["simple", "iterated"]
            return rep, tuple(v for _, v in handed)
        return report_verdicts

    @staticmethod
    def _want(c, L):
        return (check_unimprovable(c, L, mode="simple"), check_unimprovable(c, L, mode="iterated"))

    def test_report_bounds_equal_uncoloured_fraction_bounds(self, verdicts):
        # around the locked tails' length of 16 edges
        inst = locked_instance(16)
        seen = set()
        for g, c in audit_instances() + [(inst.g, inst.c)]:
            for L in range(1, 19):
                rep, got = verdicts(c, L)
                assert got == self._want(c, L), L
                seen.add(got)
                assert rep.simple_bound == uncoloured_fraction_bounds(c, L, "simple"), L
                assert rep.iterated_bound == uncoloured_fraction_bounds(c, L, "iterated"), L
        assert seen == {(False, False), (True, False), (True, True)}

    def test_iterated_verdict_at_second_paths_of_length_l(self, monkeypatch, verdicts):
        # no gadget here has superb second paths of L edges, so each superb
        # entry's is given as many edges as its position: at L = 5 the one
        # entry in range has exactly L, beyond that position 5 falls short
        monkeypatch.setattr(ScanEntry, "second_len", property(lambda en: en.position))
        inst = locked_instance(16)
        for L in range(1, 19):
            _, got = verdicts(inst.c, L)
            assert got == self._want(inst.c, L) == (L <= 16, L <= 5), L

    @pytest.mark.parametrize("mode", ["simple", "iterated"])
    @pytest.mark.parametrize("L", [0, -1])
    def test_scale_below_one_is_rejected_before_any_chain(self, fans, L, mode):
        inst = locked_instance(16)
        calls = [
            lambda: fraction_bound_value(mode, 4, 1, L),
            lambda: uncoloured_fraction_bounds(inst.c, L, mode),
            lambda: check_unimprovable(inst.c, L, mode=mode),
            lambda: superb_count_check(inst.c, inst.e, inst.x, L),
            lambda: audit_report(inst.c, L, superb_probes=((inst.e, inst.x),)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="at least 1"):
                call()
        assert fans == []


class TestAuditReport:
    def test_locked_report_values(self):
        inst = locked_instance(2)
        rep = audit_report(inst.c, 2)
        assert rep.max_deg_simple == 1
        assert rep.max_deg_iterated == 0
        assert rep.min_uncoloured_deg == 4
        assert rep.uncoloured_fraction == Fraction(1, 16)
        assert rep.superb_count_checks == []
        assert rep.weighted_min_mass == 2

    def test_fully_coloured_report(self, p3):
        rep = audit_report(Colouring.from_assignment(p3, [1, 2]), 4)
        assert rep.max_deg_simple == 0
        assert rep.min_uncoloured_deg == 0
        assert rep.uncoloured_fraction == 0
        assert rep.weighted_min_mass is None

    def test_probe_rows(self):
        inst = long_path_instance(12)
        rep = audit_report(inst.c, 12, superb_probes=((inst.e, inst.x),))
        assert len(rep.superb_count_checks) == 1
        e, x, gamma, theta, count, bound, verdict = rep.superb_count_checks[0]
        assert (e, x, gamma, theta, count) == (inst.e, inst.x, 1, 2, 4)
        assert bound == Fraction(-1415, 24)
        assert verdict == VERDICT_VACUOUS

    def test_json_shape_and_determinism(self):
        inst = locked_instance(2)
        rep = audit_report(inst.c, 2)
        doc = json.loads(rep.to_json())
        assert set(doc) == {
            "max_deg_simple",
            "max_deg_iterated",
            "min_uncoloured_deg",
            "uncoloured_fraction",
            "superb_count_checks",
            "weighted_min_mass",
        }
        assert doc["uncoloured_fraction"] == "1/16"
        assert doc["weighted_min_mass"] == "2/1"
        again = audit_report(inst.c, 2)
        assert again.to_json() == rep.to_json()
