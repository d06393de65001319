"""Property-based checks on arbitrary small multigraphs: the colourers end
proper and settled, the scheduler is deterministic and indifferent to edge
numbering, the text formats round-trip and fail only with ValueError, and
the batch superb scan agrees with the brute-force superb reference."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vizing import (
    Colouring,
    Multigraph,
    SuitableType,
    build,
    check_unimprovable,
    colour_sequential,
    generate_random,
    is_proper,
    run_scheduler,
    superb_scan,
    vizing_chain,
)

from gadgets import BARE, TYPE1, TYPE1_UNSTABLE, TYPE2, long_path_instance
from helpers import random_partial_colouring
from oracles import (
    iterated_chain,
    oracle_classify,
    oracle_suitable_positions,
    oracle_superb,
    suitable_edges,
)


@st.composite
def multigraphs(draw):
    """A multigraph on at most 6 vertices with multiplicity at most 3."""
    n = draw(st.integers(2, 6))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    triples: list[tuple[int, int, int]] = []
    mult: dict[tuple[int, int], int] = {}
    for u, v in draw(st.lists(pairs, max_size=14)):
        key = (min(u, v), max(u, v))
        if mult.get(key, 0) < 3:
            mult[key] = mult.get(key, 0) + 1
            triples.append((u, v, 1))
    return build(n, triples)


@st.composite
def scheduled(draw):
    """A multigraph, a scale L > 2*delta and a scheduler seed."""
    g = draw(multigraphs())
    L = 2 * g.delta + draw(st.integers(1, 12))
    return g, L, draw(st.integers(0, 2**16))


def _settled(c: Colouring, L: int) -> bool:
    return (
        is_proper(c)
        and check_unimprovable(c, L, mode="simple")
        and check_unimprovable(c, L)
    )


@given(multigraphs())
def test_colour_sequential_full_and_proper(g):
    c = colour_sequential(g)
    assert c.uncoloured_count == 0
    assert is_proper(c)
    assert all(1 <= col <= g.palette for col in c.colours)


@given(scheduled())
def test_scheduler_settles_and_is_deterministic(case):
    g, L, seed = case
    c = run_scheduler(g, L, seed)
    assert _settled(c, L)
    assert run_scheduler(g, L, seed) == c


@given(scheduled(), st.randoms(use_true_random=False))
def test_scheduler_settles_under_edge_relabelling(case, rng):
    g, L, seed = case
    triples = list(g.edges)
    rng.shuffle(triples)
    relabelled = build(g.n, triples)
    assert _settled(run_scheduler(relabelled, L, seed), L)


@given(multigraphs(), st.randoms(use_true_random=False))
def test_mg_and_dump_round_trip(g, rng):
    assert Multigraph.from_text(g.to_text()) == g
    cols = list(colour_sequential(g).colours)
    for e in range(g.m):
        if rng.random() < 0.3:
            cols[e] = 0
    c = Colouring.from_assignment(g, cols)
    assert Colouring.from_dump(g, c.to_text()) == c


def _mutations():
    """Edits of a text: cut it short, or delete, replace or insert one
    character from a small hostile alphabet."""
    alphabet = st.sampled_from(list("0123456789 -\nxm+_\u0662\x0c\x1f"))
    return st.one_of(
        st.tuples(st.just("cut"), st.integers(0, 10**4), st.just("")),
        st.tuples(st.just("delete"), st.integers(0, 10**4), st.just("")),
        st.tuples(st.just("replace"), st.integers(0, 10**4), alphabet),
        st.tuples(st.just("insert"), st.integers(0, 10**4), alphabet),
    )


def _mutate(text: str, edit) -> str:
    kind, pos, ch = edit
    pos %= len(text) + 1
    if kind == "cut":
        return text[:pos]
    if kind == "delete":
        return text[:pos] + text[pos + 1 :]
    if kind == "replace":
        return text[:pos] + ch + text[pos + 1 :]
    return text[:pos] + ch + text[pos:]


@settings(max_examples=300)
@given(multigraphs(), _mutations())
def test_mg_parser_raises_only_value_error(g, edit):
    text = _mutate(g.to_text(), edit)
    try:
        Multigraph.from_text(text)
    except ValueError:
        pass
    else:  # a control character is never read as a separator
        assert "\x0c" not in text and "\x1f" not in text


@settings(max_examples=300)
@given(multigraphs(), _mutations())
def test_dump_parser_raises_only_value_error(g, edit):
    text = _mutate(colour_sequential(g).to_text(), edit)
    try:
        Colouring.from_dump(g, text)
    except ValueError:
        pass
    else:
        assert "\x0c" not in text and "\x1f" not in text


# ---------------------------------------------------------------------------
# The superb scan against the brute-force reference
# ---------------------------------------------------------------------------


@st.composite
def decorated_paths(draw):
    """The probe of a long_path_instance: an even tail of 8..24 edges with
    a random decoration, or none, at each odd position from 5 on (TypeII
    only at delta 4, at most one unstable TypeI)."""
    delta = draw(st.sampled_from((3, 4)))
    T = 2 * draw(st.integers(4, 12))
    kinds = [None, BARE, TYPE1, TYPE1_UNSTABLE] + ([TYPE2] if delta == 4 else [])
    decor: dict[int, str] = {}
    for pos in range(5, T, 2):
        kind = draw(st.sampled_from(kinds))
        if kind == TYPE1_UNSTABLE and kind in decor.values():
            kind = None
        if kind is not None:
            decor[pos] = kind
    inst = long_path_instance(T, decor, delta)
    return "gadget", [(inst.g, inst.c, inst.e, inst.x)]


def _has_suitables(c, e, x) -> bool:
    try:
        return bool(suitable_edges(c, x, e))
    except ValueError:  # the fan augments: no tail path
        return False


@st.composite
def random_probes(draw):
    """Every probe of a seeded random partial colouring whose chain has
    suitable edges (few have them: 100 draws gave 38 such probes)."""
    g = generate_random(400, draw(st.sampled_from((3, 4))), draw(st.sampled_from((1, 2))),
                        seed=draw(st.integers(0, 2**16)))
    c = random_partial_colouring(g, seed=draw(st.integers(0, 2**16)), fill=0.97)
    return "random", [(g, c, e, x) for e in c.uncoloured() for x in g.edges[e][:2]
                      if _has_suitables(c, e, x)]


def _check_scan(g, c, e, x, seen: Counter, source: str) -> None:
    """Every superb_scan entry of the probe, edge by edge: its superb flag
    equals :func:`oracles.oracle_superb`, its Type0 verdict a brute-force
    classification of (chain before f) + (conditional fan), and a superb
    entry's chain classifies as augmenting on the raw colours; the suitable
    edges are those of the definition and the colouring comes back
    unchanged.  ``seen`` counts the entries by source, by (type, superb) and
    by fans ending at z."""
    before = list(c.colours)
    vc = vizing_chain(c, x, e)
    entries = list(superb_scan(c, vc))
    assert c.colours == before
    assert [en.position for en in entries] == \
        oracle_suitable_positions(g, before, vc.tail.edges, vc.tail.alpha, e)
    for en in entries:
        first = vc.edges()[: vc.fan_prefix_len + en.position - 1]
        assert en.superb == oracle_superb(
            g, before, first + [en.edge], en, vc.tail.alpha, vc.tail.beta)
        if en.superb:
            assert oracle_classify(g, before, en.edges()) == "augmenting"
            assert en.edges()[: len(first)] == first
        else:
            with pytest.raises(ValueError, match="not superb"):
                iterated_chain(c, x, e, en)
        status = oracle_classify(g, before, first + en.fan.edges)
        assert (status == "augmenting") == (en.type_tag is SuitableType.TYPE0)
        seen[source] += 1
        seen[en.type_tag.value, en.superb] += 1
        seen["u_m is z"] += en.fan.far_endpoints[-1] == en.near_vertex
    assert c.colours == before


# One fixed probe per rare bucket, so the floors below hold whatever
# examples Hypothesis draws: (delta, T, decorations) of long_path_instance,
# giving a superb TypeI, a superb TypeII and a non-superb TypeI entry; the
# fan of each ends at z.
PINNED_SCANS = ((3, 8, {5: TYPE1}), (4, 8, {5: TYPE2}), (3, 8, {5: TYPE1_UNSTABLE}))


def test_superb_scan_matches_the_pointwise_operations():
    seen: Counter = Counter()
    for delta, T, decor in PINNED_SCANS:
        inst = long_path_instance(T, decor, delta)
        _check_scan(inst.g, inst.c, inst.e, inst.x, seen, "gadget")
    for key in (("TypeI", True), ("TypeII", True), ("TypeI", False), "u_m is z"):
        assert seen[key] >= 1, seen

    @settings(max_examples=200)
    @given(st.one_of(decorated_paths(), random_probes()))
    def check(drawn):
        source, probes = drawn
        for g, c, e, x in probes:
            _check_scan(g, c, e, x, seen, source)

    check()
    # both sources yield entries; superb TypeI and TypeII and non-superb
    # TypeI entries, and fans ending at z (whose mask the shift through f
    # changes) are exercised
    assert seen["gadget"] >= 1 and seen["random"] >= 1, seen
    for key in (("TypeI", True), ("TypeII", True), ("TypeI", False)):
        assert seen[key] >= 1, seen
    assert seen["u_m is z"] >= 1, seen
