"""Tests for the second-level chain layer: suitable edges, conditional fans,
classification, superb checks, chain assembly, and the batch scan."""

from __future__ import annotations

import random
import re
from collections import Counter

import pytest

from vizing import (
    AlternatingPath,
    ScanEntry,
    SuitableType,
    audit_report,
    build,
    check_unimprovable,
    generate_random,
    superb_count_check,
    superb_scan,
    vizing_chain,
)
from vizing import iterated
from vizing.chains import Fan, VizingChain, _grow_fan, _path_chain, _walk
from vizing.colouring import Colouring
from vizing.multigraph import line_distances

from gadgets import (
    BARE,
    TYPE1,
    TYPE1_UNSTABLE,
    TYPE2,
    forked_type2_instance,
    locked_instance,
    long_path_instance,
)
from helpers import random_partial_colouring
from oracles import (
    augment,
    check_shadow_fan,
    classify_suitable,
    conditional_fan,
    is_superb,
    iterated_chain,
    oracle_alternating_path,
    oracle_classify,
    oracle_max_fan,
    oracle_missing,
    oracle_scan_cuts,
    oracle_shift,
    oracle_suitable_positions,
    oracle_superb,
    scan_entry,
    shift_along,
    suitable_edges,
    suitable_key,
)


# ---------------------------------------------------------------------------
# shared instances
# ---------------------------------------------------------------------------


def gadget_instances():
    yield "plain", long_path_instance(12)
    yield "mixed3", long_path_instance(
        16, {5: TYPE1, 7: BARE, 9: TYPE1_UNSTABLE}
    )
    yield "mixed4", long_path_instance(
        16, {5: TYPE1, 9: TYPE2, 11: TYPE1_UNSTABLE}, delta=4
    )
    yield "wide4", long_path_instance(
        24, {5: TYPE2, 7: TYPE1, 11: TYPE2, 13: BARE, 17: TYPE1}, delta=4
    )
    yield "forked", forked_type2_instance(12, 7)


def random_probes(max_uncoloured=8):
    """Uncoloured-edge endpoints in seeded sparse graphs whose chains have a
    tail path; the stream that turned up the frozen instances below."""
    for delta in (3, 4):
        for seed in range(12):
            g = generate_random(400, delta, 1, seed=seed)
            c = random_partial_colouring(g, seed=seed + 1000, fill=0.97)
            for e in sorted(c.uncoloured())[:max_uncoloured]:
                u, v, _ = g.edges[e]
                for x in (u, v):
                    yield g, c, e, x


def probes_with_suitables():
    for g, c, e, x in random_probes():
        try:
            sus = suitable_edges(c, x, e)
        except ValueError:
            continue
        if sus:
            yield g, c, e, x, sus


def scanned_chains():
    """First-level chains with suitable edges and their unlimited scans:
    the gadgets, then probes of nearly full colourings of seeded random
    graphs, whose tails are longer than the sparse stream's."""
    for label, inst in gadget_instances():
        vc = vizing_chain(inst.c, inst.x, inst.e)
        yield label, inst.g, inst.c, vc, list(superb_scan(inst.c, vc))
    for delta in (3, 4):
        for seed in range(60):
            g = generate_random(400, delta, 1, seed=seed)
            c = random_partial_colouring(g, seed=seed + 1000, fill=0.99)
            for e in sorted(c.uncoloured())[:8]:
                u, v, _ = g.edges[e]
                for x in (u, v):
                    vc = vizing_chain(c, x, e)
                    if vc.tail is None:
                        continue
                    entries = list(superb_scan(c, vc))
                    if entries:
                        yield (delta, seed, e, x), g, c, vc, entries


def type2_witnesses(en):
    """A TypeII entry's (delta, epsilon, repeat index): its second level's
    path colours and the earlier fan index that chose epsilon."""
    second = en.second
    return second.tail.alpha, second.tail.beta, second.fan.repeat_pos - 1


# ---------------------------------------------------------------------------
# suitable edges
# ---------------------------------------------------------------------------


def test_suitable_positions_on_plain_gadget():
    inst = long_path_instance(12)
    sus = suitable_edges(inst.c, inst.x, inst.e)
    assert [s.position for s in sus] == [5, 7, 9, 11]
    for s in sus:
        t = s.position - 1
        assert s.edge == inst.path_edges[t]
        assert s.near_vertex == inst.q[t]
        assert s.far_vertex == inst.q[t + 1]
        # eligibility is exactly: coloured alpha, far from e, not last
        assert inst.c.colours[s.edge] == inst.alpha
        assert line_distances(inst.g, inst.e, 4).get(s.edge) is None


def test_suitable_limit_restricts_positions():
    inst = long_path_instance(12)
    assert [s.position for s in suitable_edges(inst.c, inst.x, inst.e, limit=7)] == [5, 7]
    assert [s.position for s in suitable_edges(inst.c, inst.x, inst.e, limit=4)] == []
    assert [s.position for s in suitable_edges(inst.c, inst.x, inst.e, limit=None)] == [5, 7, 9, 11]


def test_near_and_last_edges_are_not_suitable():
    inst = long_path_instance(12)
    sus = {s.edge for s in suitable_edges(inst.c, inst.x, inst.e)}
    # positions 1 and 3 carry alpha but sit within distance 4 of e
    assert inst.path_edges[0] not in sus
    assert inst.path_edges[2] not in sus
    assert line_distances(inst.g, inst.e, 4).get(inst.path_edges[2]) == 3
    # beta edges are never suitable
    assert inst.path_edges[5] not in sus
    # a tail of 8 edges keeps its last alpha edge only if it is not final:
    # with T = 8 the last edge has position 8, so position 7 stays eligible
    small = long_path_instance(8)
    assert [s.position for s in suitable_edges(small.c, small.x, small.e)] == [5, 7]


def test_suitable_edges_errors_when_fan_augments(star3):
    c = Colouring.empty(star3)
    with pytest.raises(ValueError, match="augmenting"):
        suitable_edges(c, 0, 0)


def test_non_suitable_edge_is_rejected():
    inst = long_path_instance(12)
    with pytest.raises(ValueError, match="not suitable"):
        conditional_fan(inst.c, inst.x, inst.e, inst.path_edges[1])  # beta edge
    with pytest.raises(ValueError, match="not suitable"):
        classify_suitable(inst.c, inst.x, inst.e, inst.path_edges[0])  # too close


def test_forged_suitable_edge_is_rejected():
    """A suitable edge named as an (edge, position, far_vertex,
    near_vertex) tuple is accepted only as the scan lists it: one with a
    wrong position or near vertex, or naming a nearby or beta edge, raises
    ValueError like the bare edge id does."""
    inst = long_path_instance(16, {5: TYPE1, 7: BARE, 9: TYPE1_UNSTABLE})
    q, path = inst.q, inst.path_edges
    forged = [
        # the suitable edge at position 5, claimed at position 7
        (path[4], 7, q[5], q[4]),
        # the suitable edge at position 9, claimed at position 7
        (path[8], 7, q[9], q[8]),
        # a near edge (position 1) dressed as a suitable one
        (path[0], 1, q[1], q[0]),
        # the right edge with its endpoints swapped
        (path[8], 9, q[8], q[9]),
        # a beta edge
        (path[9], 10, q[10], q[9]),
    ]
    for su in forged:
        for op in (conditional_fan, classify_suitable, is_superb, iterated_chain):
            with pytest.raises(ValueError, match="not suitable"):
                op(inst.c, inst.x, inst.e, su)
    genuine = suitable_edges(inst.c, inst.x, inst.e)
    assert [su.position for su in genuine] == [5, 7, 9, 11, 13, 15]
    for su in genuine:
        key = suitable_key(su)
        assert suitable_key(scan_entry(inst.c, inst.x, inst.e, su)) == key
        assert suitable_key(scan_entry(inst.c, inst.x, inst.e, key)) == key


# ---------------------------------------------------------------------------
# conditional fans
# ---------------------------------------------------------------------------


def test_conditional_fan_shapes_on_gadgets():
    for label, inst in gadget_instances():
        for pos, dec in inst.decorations.items():
            fan = conditional_fan(inst.c, inst.x, inst.e, dec.f)
            assert fan.centre == dec.y, label
            assert fan.edges == dec.fan_edges, (label, pos)
            assert fan.far_endpoints[0] == dec.z, label
            if dec.kind == BARE:
                # one-edge fan stopping because y has no edge of the wanted
                # colour (2, the smallest missing at z)
                assert fan.edges == [dec.f]
                assert fan.next_colour == 2 and fan.repeat_pos is None
            elif dec.kind in (TYPE1, TYPE1_UNSTABLE):
                # pendant joins, then the walk stops early at w (beta missing)
                assert fan.colour_seq == [2]
                assert fan.next_colour is None
                assert fan.far_endpoints[-1] == dec.w
            else:  # TYPE2
                assert fan.colour_seq == [2, 4]
                assert fan.next_colour == 2 and fan.repeat_pos == 1


def test_conditional_fan_accepts_suitable_object():
    inst = long_path_instance(12)
    su = suitable_edges(inst.c, inst.x, inst.e)[0]
    assert conditional_fan(inst.c, inst.x, inst.e, su).edges == \
        conditional_fan(inst.c, inst.x, inst.e, su.edge).edges


def shadow_fan_oracle(g, c, x, e, su):
    """Independent shadow computation: shift a raw copy through the suitable
    edge, then grow the ordinary fan with beta compared largest."""
    vc = vizing_chain(c, x, e)
    chain = vc.edges()[: vc.fan_prefix_len + su.position]
    cols = oracle_shift(c.colours, chain)
    return oracle_max_fan(g, cols, su.far_vertex, su.edge, big=vc.tail.beta)


def test_shadow_fan_on_gadgets_and_random_probes():
    checked = 0
    for label, inst in gadget_instances():
        for su in suitable_edges(inst.c, inst.x, inst.e):
            assert check_shadow_fan(inst.c, inst.x, inst.e, su), (label, su.position)
            fan = conditional_fan(inst.c, inst.x, inst.e, su)
            shadow = shadow_fan_oracle(inst.g, inst.c, inst.x, inst.e, su)
            assert fan.edges == shadow["edges"][: len(fan.edges)], (label, su.position)
            checked += 1
    for g, c, e, x, sus in probes_with_suitables():
        for su in sus:
            assert check_shadow_fan(c, x, e, su)
            fan = conditional_fan(c, x, e, su)
            shadow = shadow_fan_oracle(g, c, x, e, su)
            assert fan.edges == shadow["edges"][: len(fan.edges)]
            checked += 1
    assert checked >= 20


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classification_on_gadgets():
    for label, inst in gadget_instances():
        tail = vizing_chain(inst.c, inst.x, inst.e).tail
        for su in suitable_edges(inst.c, inst.x, inst.e):
            cls = classify_suitable(inst.c, inst.x, inst.e, su)
            dec = inst.decorations.get(su.position)
            if dec is None:
                assert cls.type_tag is SuitableType.TYPE0, (label, su.position)
            else:
                assert cls.type_tag.value == dec.expected_type, (label, su.position)
                if dec.expected_type == "TypeII":
                    delta, epsilon, repeat_index = type2_witnesses(cls)
                    assert delta == dec.delta
                    assert epsilon == dec.epsilon
                    assert repeat_index == dec.repeat_index
                    assert cls.second.fan.colour_seq[repeat_index] == epsilon
                    assert {delta, epsilon}.isdisjoint({tail.alpha, tail.beta})


def ivc1_edges(c, x, e, su, fan):
    vc = vizing_chain(c, x, e)
    return vc.edges()[: vc.fan_prefix_len + su.position - 1] + fan.edges


def test_type0_iff_first_segment_augments():
    """The Type0 decision must agree with a from-scratch classification of
    the assembled chain (first-level prefix plus conditional fan)."""
    seen = 0
    for label, inst in gadget_instances():
        for su in suitable_edges(inst.c, inst.x, inst.e):
            cls = classify_suitable(inst.c, inst.x, inst.e, su)
            chain = ivc1_edges(inst.c, inst.x, inst.e, su, cls.second.fan)
            status = oracle_classify(inst.g, inst.c.colours, chain)
            assert (status == "augmenting") == (cls.type_tag is SuitableType.TYPE0), \
                (label, su.position)
            assert cls.second.fan.augmenting is (cls.type_tag is SuitableType.TYPE0), \
                (label, su.position)
            seen += 1
    for g, c, e, x, sus in probes_with_suitables():
        for su in sus:
            cls = classify_suitable(c, x, e, su)
            chain = ivc1_edges(c, x, e, su, cls.second.fan)
            status = oracle_classify(g, c.colours, chain)
            assert (status == "augmenting") == (cls.type_tag is SuitableType.TYPE0)
            assert cls.second.fan.augmenting is (cls.type_tag is SuitableType.TYPE0)
            seen += 1
    assert seen >= 20


def test_type1_keeps_beta_missing_at_last_endpoint():
    inst = long_path_instance(16, {5: TYPE1, 9: TYPE1_UNSTABLE})
    for pos in (5, 9):
        dec = inst.decorations[pos]
        cls = classify_suitable(inst.c, inst.x, inst.e, dec.f)
        assert cls.type_tag is SuitableType.TYPE1
        u_last = cls.second.fan.far_endpoints[-1]
        assert inst.beta in oracle_missing(inst.g, inst.c.colours, u_last)
        assert inst.alpha not in oracle_missing(inst.g, inst.c.colours, u_last)
    # the stable decoration's chain runs through the whole fan
    dec = inst.decorations[5]
    cls = classify_suitable(inst.c, inst.x, inst.e, dec.f)
    chain = iterated_chain(inst.c, inst.x, inst.e, dec.f)
    assert chain.second.fan_prefix_len == len(cls.second.fan.edges)
    vc = vizing_chain(inst.c, inst.x, inst.e)
    first = vc.edges()[: vc.fan_prefix_len + 5 - 1]
    assert chain.edges() == first + cls.second.fan.edges + chain.second.tail.edges


# ---------------------------------------------------------------------------
# shift invariants around the suitable edge
# ---------------------------------------------------------------------------


def test_shift_through_suitable_edge_changes_missing_sets_locally():
    """Shifting the first-level chain through f frees alpha at the far
    vertex and beta at the near one, and leaves every other neighbour of the
    far vertex untouched."""
    for label, inst in gadget_instances():
        g, c = inst.g, inst.c

        def missing(d, u):
            return oracle_missing(g, d.colours, u)

        vc = vizing_chain(c, inst.x, inst.e)
        for su in suitable_edges(c, inst.x, inst.e):
            chain = vc.edges()[: vc.fan_prefix_len + su.position]
            cf = shift_along(c, chain)
            y, z = su.far_vertex, su.near_vertex
            assert missing(cf, y) == missing(c, y) | {inst.alpha}
            assert missing(cf, z) == missing(c, z) | {inst.beta}
            assert inst.beta not in missing(cf, y)
            assert inst.alpha not in missing(cf, z)
            assert cf.colours[su.edge] == 0
            for h in g.adj[y]:
                for u in g.edges[h][:2]:
                    if u not in (y, z, inst.x):
                        assert missing(cf, u) == missing(c, u), (label, su.position, u)


# ---------------------------------------------------------------------------
# superb tests
# ---------------------------------------------------------------------------


def test_superb_flags_on_gadgets():
    for label, inst in gadget_instances():
        for su in suitable_edges(inst.c, inst.x, inst.e):
            dec = inst.decorations.get(su.position)
            expect = dec.expected_superb if dec else True
            assert is_superb(inst.c, inst.x, inst.e, su) == expect, (label, su.position)


def test_superb_leaves_colouring_untouched():
    inst = long_path_instance(16, {5: TYPE1, 9: TYPE1_UNSTABLE})
    before = list(inst.c.colours)
    for su in suitable_edges(inst.c, inst.x, inst.e):
        is_superb(inst.c, inst.x, inst.e, su)
        check_shadow_fan(inst.c, inst.x, inst.e, su)
        assert inst.c.colours == before


def test_type1_second_path_agreement_and_divergence():
    """The stable decoration's second path survives the shift unchanged; the
    unstable one is cut short at the fan centre."""
    inst = long_path_instance(16, {5: TYPE1, 9: TYPE1_UNSTABLE})
    vc = vizing_chain(inst.c, inst.x, inst.e)
    for pos in (5, 9):
        dec = inst.decorations[pos]
        p_before = _walk(inst.g, inst.c.colours, dec.w, inst.alpha, inst.beta)
        assert p_before.edges == dec.second_path
        chain = vc.edges()[: vc.fan_prefix_len + pos]
        cf = shift_along(inst.c, chain)
        p_after = _walk(inst.g, cf.colours, dec.w, inst.alpha, inst.beta)
        if dec.expected_superb:
            assert p_after.edges == p_before.edges
        else:
            assert p_after.edges != p_before.edges
            assert p_after.last_vertex == dec.y
            assert p_after.edges == p_before.edges[: len(p_after.edges)]


def test_type2_paths_on_forked_gadget():
    inst = forked_type2_instance(12, 7)
    dec = inst.decorations[7]
    cls = classify_suitable(inst.c, inst.x, inst.e, dec.f)
    assert cls.type_tag is SuitableType.TYPE2
    delta, epsilon, repeat_index = type2_witnesses(cls)
    u_i = cls.second.fan.far_endpoints[repeat_index]
    u_m = cls.second.fan.far_endpoints[-1]
    # the repeat-index path is empty, the last-index path takes the detour
    # through h2 and is cut by the shift: not superb
    p_i = _walk(inst.g, inst.c.colours, u_i, delta, epsilon)
    assert p_i.edges == []
    p_m = _walk(inst.g, inst.c.colours, u_m, delta, epsilon)
    assert p_m.edges == dec.second_path
    assert not is_superb(inst.c, inst.x, inst.e, dec.f)
    vc = vizing_chain(inst.c, inst.x, inst.e)
    chain = vc.edges()[: vc.fan_prefix_len + 7]
    assert not oracle_superb(inst.g, list(inst.c.colours), chain, cls, inst.alpha, inst.beta)
    cf = shift_along(inst.c, chain)
    assert _walk(inst.g, cf.colours, u_m, delta, epsilon).edges == dec.second_path[:3]


# ---------------------------------------------------------------------------
# chain assembly
# ---------------------------------------------------------------------------


def test_iterated_chain_composition_on_gadgets():
    for label, inst in gadget_instances():
        vc = vizing_chain(inst.c, inst.x, inst.e)
        for su in suitable_edges(inst.c, inst.x, inst.e):
            dec = inst.decorations.get(su.position)
            if dec is not None and not dec.expected_superb:
                with pytest.raises(ValueError, match="not superb"):
                    iterated_chain(inst.c, inst.x, inst.e, su)
                continue
            chain = iterated_chain(inst.c, inst.x, inst.e, su)
            first = vc.edges()[: vc.fan_prefix_len + su.position - 1]
            edges = chain.edges()
            assert edges[: len(first)] == first, (label, su.position)
            fan_segment = edges[len(first) : len(edges) - chain.second_len]
            if dec is None or dec.kind == BARE:
                assert chain.type_tag is SuitableType.TYPE0
                assert chain.edges() == first + [su.edge]
                assert chain.second.tail is None
            elif dec.kind == TYPE1:
                assert chain.type_tag is SuitableType.TYPE1
                assert fan_segment == dec.fan_edges
                assert chain.second.tail.edges == dec.second_path
                assert chain.edges() == first + dec.fan_edges + dec.second_path
            else:  # TYPE2, superb, repeat index 0 with an empty path
                assert chain.type_tag is SuitableType.TYPE2
                assert chain.second.fan_prefix_len == 1
                assert fan_segment == [su.edge]
                assert chain.second.tail.edges == []
                assert chain.edges() == first + [su.edge]
            assert oracle_classify(inst.g, inst.c.colours, chain.edges()) == "augmenting"


def test_scan_entry_edges_join_prefix_fan_and_second_path():
    """edges() joins the first-level chain cut just before the suitable
    edge, the conditional fan (through the second critical index for
    TypeII) and the second path; a non-superb entry has no chain."""
    inst = long_path_instance(16, {5: TYPE1, 9: TYPE2, 11: TYPE1_UNSTABLE}, delta=4)
    vc = vizing_chain(inst.c, inst.x, inst.e)
    cols = list(inst.c.colours)
    entries = {en.position: en for en in superb_scan(inst.c, vc)}
    assert sorted(entries) == [5, 7, 9, 11, 13, 15]
    assert not entries[11].superb
    with pytest.raises(ValueError, match=f"^edge {entries[11].edge} is suitable "
                       "but not superb; its chain is undefined$"):
        entries[11].edges()
    for pos, en in entries.items():
        if not en.superb:
            continue
        first = vc.edges()[: vc.fan_prefix_len + pos - 1]
        edges = en.edges()
        assert edges[: len(first)] == first, pos
        assert edges[len(first)] == en.edge, pos
        assert oracle_classify(inst.g, cols, edges) == "augmenting", pos
        # each call builds a fresh list; the first-level chain stays whole
        edges.append(-1)
        assert en.edges() == edges[:-1] and vc.edges() == inst.fan_prefix + inst.path_edges
    # TypeI runs through the whole fan; TypeII stops at its repeat index 0
    t1, t2 = entries[5], entries[9]
    assert t1.second.fan_prefix_len == len(t1.second.fan.edges) == 2
    assert t2.type_tag is SuitableType.TYPE2
    assert len(t2.second.fan.edges) == 3 and t2.second.fan_prefix_len == 1
    first = vc.edges()[: vc.fan_prefix_len + 8]
    assert t2.edges() == first + [t2.edge]


def test_iterated_chain_augments_like_any_chain():
    inst = long_path_instance(16, {5: TYPE1, 9: TYPE2}, delta=4)
    for pos in (5, 9):
        dec = inst.decorations[pos]
        chain = iterated_chain(inst.c, inst.x, inst.e, dec.f)
        out = augment(inst.c, chain)
        assert out.uncoloured_count == inst.c.uncoloured_count - 1
        assert out.colours[inst.e] != 0


def test_iterated_chain_lengths():
    inst = long_path_instance(16, {5: TYPE1})
    dec = inst.decorations[5]
    chain = iterated_chain(inst.c, inst.x, inst.e, dec.f)
    # prefix (1 + 4 path edges) + fan (2) + second path (1)
    assert len(chain.edges()) == 8
    assert len(chain.edges()) == len(set(chain.edges()))


# ---------------------------------------------------------------------------
# frozen random regressions
# ---------------------------------------------------------------------------


def frozen_probe(gseed, e, x):
    g = generate_random(400, 4, 1, seed=gseed)
    c = random_partial_colouring(g, seed=gseed + 1000, fill=0.97)
    return g, c, e, x


def test_frozen_instance_all_type0():
    g, c, e, x = frozen_probe(3, 0, 303)
    vc = vizing_chain(c, x, e)
    assert (vc.tail.alpha, vc.tail.beta, vc.fan_prefix_len) == (2, 1, 1)
    assert vc.tail.edges[:5] == [590, 283, 357, 202, 235]
    sus = suitable_edges(c, x, e)
    assert [(s.edge, s.position) for s in sus] == [(235, 5), (632, 7), (91, 9)]
    for su in sus:
        cls = classify_suitable(c, x, e, su)
        assert cls.type_tag is SuitableType.TYPE0
        assert cls.second.fan.edges == [su.edge]
        assert is_superb(c, x, e, su)


def test_frozen_instance_with_type2():
    g, c, e, x = frozen_probe(7, 68, 312)
    sus = suitable_edges(c, x, e)
    assert [(s.edge, s.position) for s in sus] == [(481, 5), (539, 7)]
    cls5 = classify_suitable(c, x, e, sus[0])
    assert cls5.type_tag is SuitableType.TYPE0
    cls7 = classify_suitable(c, x, e, sus[1])
    assert cls7.type_tag is SuitableType.TYPE2
    assert cls7.second.fan.edges == [539, 174, 53]
    assert cls7.second.fan.colour_seq == [2, 4]
    assert type2_witnesses(cls7) == (5, 2, 0)
    assert is_superb(c, x, e, sus[1])
    chain = iterated_chain(c, x, e, sus[1])
    assert oracle_classify(c.graph, list(c.colours), chain.edges()) == "augmenting"


# ---------------------------------------------------------------------------
# the batch scan
# ---------------------------------------------------------------------------


def scan_matches_pointwise(g, c, e, x):
    """Every scan entry of the probe against the brute-force references,
    edge by edge: the suitable edges are those of the definition, the
    superb flag equals :func:`oracles.oracle_superb`, and a superb entry's
    chain starts with the first-level chain cut before the suitable edge and
    classifies as augmenting on the raw colours."""
    before = list(c.colours)
    vc = vizing_chain(c, x, e)
    entries = list(superb_scan(c, vc))
    assert c.colours == before
    cols = list(c.colours)
    tail = vc.tail.edges
    assert [en.position for en in entries] == \
        oracle_suitable_positions(g, cols, tail, vc.tail.alpha, e)
    for en in entries:
        assert en.edge == tail[en.position - 1]
        assert {en.near_vertex, en.far_vertex} == set(g.edges[en.edge][:2])
        first = vc.edges()[: vc.fan_prefix_len + en.position - 1]
        assert en.superb == oracle_superb(
            g, cols, first + [en.edge], en, vc.tail.alpha, vc.tail.beta)
        if en.superb:
            assert en.edges()[: len(first)] == first
            assert oracle_classify(g, cols, en.edges()) == "augmenting"
        else:
            with pytest.raises(ValueError, match="not superb"):
                en.edges()
    return len(entries)


def test_scan_matches_pointwise_on_gadgets():
    for label, inst in gadget_instances():
        assert scan_matches_pointwise(inst.g, inst.c, inst.e, inst.x) >= 4, label


def test_scan_matches_pointwise_on_random_probes():
    seen = 0
    for g, c, e, x, sus in probes_with_suitables():
        seen += scan_matches_pointwise(g, c, e, x)
    assert seen >= 10


def _entry_key(en):
    second = en.second
    tail = None if second.tail is None else second.tail.edges
    return (suitable_key(en), en.type_tag, en.superb,
            second.fan.edges, second.fan_prefix_len, tail)


def test_scan_respects_limit():
    """A scan limited to the first k path edges yields exactly the entries
    of the unlimited scan at positions up to k, for every k from 1 to the
    tail length: same suitable edge, type, superb flag and second level."""
    inst = long_path_instance(16, {5: TYPE1, 7: BARE, 9: TYPE1_UNSTABLE})
    entries = list(superb_scan(inst.c, vizing_chain(inst.c, inst.x, inst.e), limit=9))
    assert [en.position for en in entries] == [5, 7, 9]
    probes = limits = 0
    for label, _g, c, vc, full in scanned_chains():
        keys = [_entry_key(en) for en in full]
        for k in range(1, len(vc.tail.edges) + 1):
            limited = [_entry_key(en) for en in superb_scan(c, vc, limit=k)]
            assert limited == [key for key in keys if key[0][1] <= k], (label, k)
            limits += 1
        probes += 1
    assert probes >= 30 and limits >= 300


def _state(c):
    return list(c.colours), list(c._used), c.uncoloured_count


def test_scan_never_mutates_the_colouring():
    """The scan only reads the colouring: it equals the input after every
    step, so a caller may stop early without clean-up."""
    for label, inst in gadget_instances():
        before = _state(inst.c)
        steps = 0
        for entry in superb_scan(inst.c, vizing_chain(inst.c, inst.x, inst.e)):
            if entry.superb:
                entry.edges()
            assert _state(inst.c) == before, (label, steps)
            steps += 1
        assert steps >= 4, label


def test_scan_rejects_a_stale_chain():
    """A chain built before the colouring changed is checked as the shift it
    stands for: an uncoloured edge after the first, or a cut whose shift
    would be improper, raises ValueError instead of yielding a verdict."""
    inst = long_path_instance(16, {5: TYPE1, 9: TYPE1_UNSTABLE})
    vc = vizing_chain(inst.c, inst.x, inst.e)
    assert inst.path_edges[3] == 8
    cols = list(inst.c.colours)
    cols[8] = 0
    stale = Colouring.from_assignment(inst.g, cols)
    with pytest.raises(ValueError, match=r"^edge 8 is uncoloured$"):
        list(superb_scan(stale, vc))
    # path edge 6 recoloured 2: the cut through position 7 hands 2 to path
    # edge 5, whose far end q5 keeps the type1 pendant coloured 2
    cols = list(inst.c.colours)
    cols[inst.path_edges[6]] = 2
    stale = Colouring.from_assignment(inst.g, cols)
    scan = superb_scan(stale, vc)
    assert next(scan).position == 5
    with pytest.raises(ValueError, match="colour 2 already used at an endpoint "
                       f"of edge {inst.path_edges[5]}"):
        next(scan)


def test_scan_matches_a_reference_stepper_on_stale_chains():
    """Seeded random stale chains: after the chain is built, one tail edge
    is uncoloured or properly recoloured.  The scan yields one entry per cut
    that :func:`oracles.oracle_scan_cuts` passes, at the same position and
    with the superb flag of :func:`oracles.oracle_superb` on the stale
    colours, then raises the stepper's ValueError at the same step, or ends
    with it.  The one other way out is a guard of the classification: a
    cut that shifts properly while the changed edge is one of the three
    path edges around the suitable edge, so the chain no longer alternates
    alpha and beta there, raises a ValueError naming the stale chain."""
    rng = random.Random(2026)
    outcomes = {"uncoloured": 0, "clash": 0, "guard": 0, "end": 0}
    entries = 0
    for label, g, c, vc, full in scanned_chains():
        # a gadget's long tail takes twenty changes, a random probe's one
        for _ in range(20 if isinstance(label, str) else 1):
            h = rng.choice(vc.tail.edges)
            cols = list(c.colours)
            old, cols[h] = cols[h], 0
            u, v, _ = g.edges[h]
            both = oracle_missing(g, cols, u) & oracle_missing(g, cols, v)
            free = [col for col in range(1, g.palette + 1) if col != old and col in both]
            if free and rng.random() < 0.5:
                cols[h] = rng.choice(free)
            stale = Colouring.from_assignment(g, cols)
            chain, base = vc.edges(), vc.fan_prefix_len
            scan = superb_scan(stale, vc)
            cuts = [base + en.position for en in full]
            for n, step in oracle_scan_cuts(g, cols, chain, cuts):
                if isinstance(step, str):
                    with pytest.raises(ValueError, match=f"^{re.escape(step)}$"):
                        next(scan)
                    outcomes["uncoloured" if step.startswith("edge") else "clash"] += 1
                    break
                try:
                    en = next(scan)
                except ValueError as err:
                    assert str(err).startswith("stale chain: "), err
                    assert h in chain[n - 2 : n + 1], (label, h, n)
                    outcomes["guard"] += 1
                    break
                assert en.position == n - base, (label, h)
                assert en.superb == oracle_superb(
                    g, cols, chain[:n], en, vc.tail.alpha, vc.tail.beta)
                entries += 1
            else:
                assert next(scan, None) is None
                outcomes["end"] += 1
            assert stale.colours == cols
    assert min(outcomes.values()) >= 5 and entries >= 200, outcomes


def _fresh_chains():
    """The chains of ``scanned_chains`` (the gadgets among them) and the
    locked gadget's two, with the cut lengths of their unlimited scans."""
    for label, g, c, vc, full in scanned_chains():
        yield label, g, c, vc, [vc.fan_prefix_len + en.position for en in full]
    locked = locked_instance(16)
    for x in (locked.x, locked.a):
        vc = vizing_chain(locked.c, x, locked.e)
        full = list(superb_scan(locked.c, vc))
        yield ("locked", x), locked.g, locked.c, vc, [vc.fan_prefix_len + en.position
                                                       for en in full]


def test_every_cut_of_a_fresh_chain_shifts_properly():
    """The premise of the scan's proven cuts: on a chain built under the
    colouring it is scanned on, every suitable cut passes every check of
    the reference stepper :func:`oracles.oracle_scan_cuts`."""
    cuts = 0
    for label, g, c, vc, lengths in _fresh_chains():
        for n, step in oracle_scan_cuts(g, list(c.colours), vc.edges(), lengths):
            assert not isinstance(step, str), (label, n, step)
            cuts += 1
    assert cuts >= 80, cuts


def test_scan_shifts_the_overlay_to_every_compared_cut(monkeypatch):
    """Wherever the scan compares second paths, its overlay holds the
    chain's colours shifted exactly to the entry's cut (oracles.oracle_shift)
    on every edge, however many proven cuts it skipped writing."""
    current = {}
    compared = Counter()
    classify, stable = iterated._classify, iterated._Shifted.stable

    def note(c, tail, en, *rest):
        current["entry"] = en
        return classify(c, tail, en, *rest)

    def compare(self, paths):
        en = current["entry"]
        want = oracle_shift(list(self.c.colours), en._first_level[: en._cut + 1])
        assert [self[h] for h in range(self.c.graph.m)] == want, en.position
        compared[en.type_tag] += 1
        return stable(self, paths)

    monkeypatch.setattr(iterated, "_classify", note)
    monkeypatch.setattr(iterated._Shifted, "stable", compare)
    for _ in _fresh_chains():
        pass
    assert compared[SuitableType.TYPE1] >= 10 and compared[SuitableType.TYPE2] >= 5, compared
    assert compared[SuitableType.TYPE0] == 0, compared


def test_a_fresh_scan_checks_only_its_first_cut(monkeypatch):
    """On a gadget's tail, which alternates from start to end, the first
    cut (the one that shifts the fan) is the scan's one checked step."""
    checked = []
    advance = iterated._Shifted.advance

    def count(self, prev, cut):
        checked.append(cut)
        return advance(self, prev, cut)

    monkeypatch.setattr(iterated._Shifted, "advance", count)
    locked = locked_instance(16)
    probes = [(label, inst.c, inst.e, inst.x) for label, inst in gadget_instances()]
    probes += [("locked", locked.c, locked.e, x) for x in (locked.x, locked.a)]
    for label, c, e, x in probes:
        vc = vizing_chain(c, x, e)
        checked.clear()
        entries = list(superb_scan(c, vc))
        assert len(entries) >= 4, label
        assert checked == [entries[0]._cut], (label, checked)


def test_scan_checks_the_fan_at_the_first_cut():
    """A stale chain whose path still alternates but whose fan no longer
    shifts properly is rejected at the first cut, as the reference stepper
    rejects it: the fan edge h1 at x recoloured alpha = 3 clashes with e,
    which the shift colours alpha."""
    inst = long_path_instance(16, {5: TYPE1, 9: TYPE1_UNSTABLE})
    vc = vizing_chain(inst.c, inst.x, inst.e)
    lengths = [vc.fan_prefix_len + en.position for en in superb_scan(inst.c, vc)]
    h1 = next(h for h in inst.g.adj[inst.x] if inst.c.colours[h] == 1)
    cols = list(inst.c.colours)
    cols[h1] = inst.alpha
    stale = Colouring.from_assignment(inst.g, cols)
    n, step = next(oracle_scan_cuts(inst.g, cols, vc.edges(), lengths))
    assert (n, step) == (lengths[0], f"colour 3 already used at an endpoint of edge {inst.e}")
    with pytest.raises(ValueError, match=f"^{re.escape(step)}$"):
        next(superb_scan(stale, vc))


def test_scan_checks_each_second_path_start(monkeypatch):
    """A second path is walked under the shift only from a start that still
    misses its second colour there (the precondition of the walk);
    a path breaking it raises ValueError, also under python -O."""
    real = iterated._classify

    def swapped(*args):
        return tuple(AlternatingPath(p.start_vertex, p.beta, p.alpha, p.edges, p.last_vertex)
                     for p in real(*args))

    monkeypatch.setattr(iterated, "_classify", swapped)
    inst = long_path_instance(16, {5: TYPE1})
    w = inst.decorations[5].w
    with pytest.raises(ValueError, match=f"colour 3 is not missing at vertex {w}"):
        list(superb_scan(inst.c, vizing_chain(inst.c, inst.x, inst.e)))


def test_scan_second_paths_match_oracle_walks():
    """Second paths reported by the scan must equal walks over the raw
    assignment, both under the input colouring and under the shifted one."""
    inst = long_path_instance(16, {5: TYPE1, 9: TYPE1_UNSTABLE})
    vc = vizing_chain(inst.c, inst.x, inst.e)
    # a plain copy of the input colour array, for the oracles
    cols = list(inst.c.colours)
    for en in superb_scan(inst.c, vc):
        if en.type_tag is not SuitableType.TYPE1:
            continue
        u_m = en.second.fan.far_endpoints[-1]
        edges_c, _ = oracle_alternating_path(
            inst.g, cols, u_m, inst.alpha, inst.beta)
        assert en.second.tail.edges == edges_c
        chain = vc.edges()[: vc.fan_prefix_len + en.position]
        shifted = oracle_shift(cols, chain)
        edges_cf, _ = oracle_alternating_path(
            inst.g, shifted, u_m, inst.alpha, inst.beta)
        assert en.superb == (edges_c == edges_cf)


def test_every_scan_entry_is_complete():
    """Every field of every entry a scan yields is set (none raises
    AttributeError) and agrees with the references, on gadgets giving Type0,
    TypeI and TypeII, superb and not.  The suitable edge is the tail edge at
    its position with its near and far ends; the second level's fan is the
    conditional fan of the shadow-fan oracle, and Type0 holds exactly when
    the chain up to it augments; TypeII's delta and epsilon are the smallest
    colour missing at y and the repeated fan colour, distinct from each
    other and from the tail's colours; the superb flag is the oracle's; and
    the second level is the whole fan alone for Type0, and otherwise the
    fan through the critical index whose walk the chain uses, with that
    walk as its tail."""
    locked = locked_instance(16)
    probes = [(label, inst.c, inst.e, inst.x) for label, inst in gadget_instances()]
    probes += [("locked", locked.c, locked.e, x) for x in (locked.x, locked.a)]
    seen = Counter()
    for label, c, e, x in probes:
        g, cols = c.graph, list(c.colours)
        vc = vizing_chain(c, x, e)
        tail, alpha, beta = vc.tail.edges, vc.tail.alpha, vc.tail.beta
        for en in superb_scan(c, vc):
            where = (label, x, en.position)
            fields = {name: getattr(en, name) for name in ScanEntry.__slots__}
            assert fields["_first_level"] == vc.edges(), where
            # the suitable edge
            assert en.edge == tail[en.position - 1] and cols[en.edge] == alpha, where
            ends = set(g.edges[en.edge][:2])
            assert ends & set(g.edges[tail[en.position]][:2]) == {en.far_vertex}, where
            assert ends & set(g.edges[tail[en.position - 2]][:2]) == {en.near_vertex}, where
            first = vc.edges()[: vc.fan_prefix_len + en.position - 1]
            assert en._cut == len(first), where
            # its type
            second = en.second
            assert en.second_edges() == second.edges(), where
            fan = second.fan
            assert fan.centre == en.far_vertex and fan.edges[0] == en.edge, where
            assert check_shadow_fan(c, x, e, en), where
            # its colours: each fan edge's own, then the stop colour, the
            # smallest missing at the last far endpoint but those chosen
            # there before, or None after an early stop at alpha or beta
            far = fan.far_endpoints
            assert fan.colour_seq == [cols[h] for h in fan.edges[1:]], where
            if fan.next_colour is None:
                assert {alpha, beta} & oracle_missing(g, cols, far[-1]), where
            else:
                chosen = {a for a, v in zip(fan.colour_seq, far) if v == far[-1]}
                assert fan.next_colour == min(oracle_missing(g, cols, far[-1]) - chosen), where
            status = oracle_classify(g, cols, first + fan.edges)
            assert (status == "augmenting") == (en.type_tag is SuitableType.TYPE0), where
            if en.type_tag is SuitableType.TYPE2:
                delta, epsilon, repeat_index = type2_witnesses(en)
                assert delta == min(oracle_missing(g, cols, en.far_vertex)), where
                assert fan.colour_seq[repeat_index] == epsilon == fan.next_colour, where
                assert epsilon != delta, where
                assert {delta, epsilon}.isdisjoint({alpha, beta}), where
            if en.type_tag is SuitableType.TYPE1:
                assert beta in oracle_missing(g, cols, fan.far_endpoints[-1]), where
            # its verdict
            assert en.superb == oracle_superb(g, cols, first + [en.edge], en, alpha, beta), where
            # its second level
            if en.type_tag is SuitableType.TYPE0:
                assert (second.fan_prefix_len, second.tail) == (len(fan.edges), None), where
                assert en.edges() == first + fan.edges, where
            else:
                assert second.tail is not None, where
                # TypeI starts at the fan's last index; TypeII at the repeat
                # index unless that walk ends at y
                far, index = fan.far_endpoints, len(fan.edges) - 1
                colours = (alpha, beta)
                if en.type_tag is SuitableType.TYPE2:
                    colours = (delta, epsilon)
                    if oracle_alternating_path(g, cols, far[repeat_index], *colours)[1] \
                            != en.far_vertex:
                        index = repeat_index
                assert second.fan_prefix_len == index + 1, where
                walk, last = oracle_alternating_path(g, cols, far[index], *colours)
                assert (second.tail.alpha, second.tail.beta) == colours, where
                assert second.tail.start_vertex == far[index], where
                assert second.tail.edges == walk and last != en.far_vertex, where
                assert en.second_len == len(walk), where
            seen[en.type_tag.value, en.superb] += 1
    assert set(seen) == {("Type0", True), ("TypeI", True), ("TypeI", False),
                         ("TypeII", True), ("TypeII", False)}, seen


def test_second_level_follows_the_first_level_rule():
    """A suitable edge's second level is built as a first-level chain is.
    TypeII's is what ``chains._path_chain`` builds on its fan: the fan cut
    at the earlier critical index whose delta/epsilon path avoids y, then
    that path.  TypeI's is the whole fan, then the alpha/beta path from its
    last far endpoint; Type0's is the whole fan alone.  Checked on TypeII
    gadgets at delta 4, on the gadgets of the complete-entry test, and on
    the seeded random probes of ``scanned_chains``."""
    locked = locked_instance(16)
    instances = [(f"type2-{p}", long_path_instance(16, {p: TYPE2}, delta=4))
                 for p in (5, 7, 9, 11, 13)]
    instances.append(("forked", forked_type2_instance(12, 7)))
    probes = [(label, inst.c, vizing_chain(inst.c, inst.x, inst.e))
              for label, inst in instances]
    probes += [("locked", locked.c, vizing_chain(locked.c, x, locked.e))
               for x in (locked.x, locked.a)]
    probes += [(label, c, vc) for label, _g, c, vc, _full in scanned_chains()]
    seen = Counter()
    for label, c, vc in probes:
        g, cols = c.graph, list(c.colours)
        for en in superb_scan(c, vc):
            where = (label, en.position)
            second, fan = en.second, en.second.fan
            if en.type_tag is SuitableType.TYPE2:
                chain = _path_chain(c, fan)
                assert second.edges() == chain.edges(), where
                assert second.fan_prefix_len == chain.fan_prefix_len, where
            elif en.type_tag is SuitableType.TYPE1:
                walk, _ = oracle_alternating_path(
                    g, cols, fan.far_endpoints[-1], vc.tail.alpha, vc.tail.beta)
                assert second.fan_prefix_len == len(fan.edges), where
                assert second.edges() == fan.edges + walk, where
            else:
                assert second.fan_prefix_len == len(fan.edges), where
                assert second.tail is None and second.edges() == fan.edges, where
            seen[en.type_tag.value] += 1
    assert seen["TypeII"] >= 10 and seen["TypeI"] >= 5 and seen["Type0"] >= 20, seen


def test_one_edge_type0_entries_build_their_second_level_when_read():
    """A Type0 entry whose conditional fan is the edge alone keeps only the
    fan's next colour: second_len, second_edges() and edges() answer
    without building the record, and ``second``, first read after the scan
    has moved on, is the fan that ``_grow_fan`` grows on the same
    colouring, as a one-edge chain with no tail."""
    locked = locked_instance(16)
    probes = [(label, inst.c, inst.e, inst.x) for label, inst in gadget_instances()]
    probes += [("locked", locked.c, locked.e, x) for x in (locked.x, locked.a)]
    seen = 0
    for label, c, e, x in probes:
        vc = vizing_chain(c, x, e)
        stop = (1 << (vc.tail.alpha - 1)) | (1 << (vc.tail.beta - 1))
        for en in list(superb_scan(c, vc)):
            if en._next_colour is None:
                continue
            where = (label, x, en.position)
            first = vc.edges()[: vc.fan_prefix_len + en.position - 1]
            assert en.type_tag is SuitableType.TYPE0 and en.superb, where
            assert en.second_len == 0 and en.second_edges() == [en.edge], where
            assert en.edges() == first + [en.edge], where
            assert en._second is None, where
            edges, far, colour_seq, next_colour, repeat_pos = _grow_fan(
                c, en.far_vertex, en.edge, stop)
            want = VizingChain(
                Fan(en.far_vertex, edges, far, colour_seq, True, next_colour, repeat_pos), 1)
            second = en.second
            assert (second.fan_prefix_len, second.tail) == (want.fan_prefix_len, want.tail), where
            assert [getattr(second.fan, name) for name in Fan.__slots__] \
                == [getattr(want.fan, name) for name in Fan.__slots__], where
            assert en.second is second, where
            seen += 1
    assert seen >= 20, seen


def test_audits_of_one_edge_type0_entries_build_no_second_level(monkeypatch):
    """On the locked gadget every suitable edge is a one-edge Type0 entry,
    so the census, the audit report and the iterated predicate grow and
    build no fan past the first-level ones (``chains.max_fan``'s)."""
    built = []

    def counted(*args):
        built.append(args)
        return Fan(*args)

    monkeypatch.setattr(iterated, "Fan", counted)
    inst = locked_instance(200)
    c, e, L = inst.c, inst.e, 200
    scanned = sum(1 for x in (inst.x, inst.a) for _ in superb_scan(c, vizing_chain(c, x, e)))
    assert scanned == 2 * 98
    assert superb_count_check(c, e, inst.x, L).count == 98
    report = audit_report(c, L, ((e, inst.x), (e, inst.a)))
    assert [row[4] for row in report.superb_count_checks] == [98, 98]
    assert check_unimprovable(c, L, "iterated") is False
    assert built == []
