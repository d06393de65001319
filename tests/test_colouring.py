"""Tests for colourings, missing sets, chain classification, and shifts.

Chains are labelled by the referee ``oracles.oracle_classify``; its labels
are pinned here by hand-derived examples."""

from __future__ import annotations

import copy
import pickle
import random

import pytest

from vizing import (
    Colouring,
    build,
    colour_sequential,
    generate_random,
    is_proper,
    max_fan,
    vizing_chain,
)
from vizing.chains import _grow_fan
from vizing.engine import _apply, _probe

from gadgets import long_path_instance
from helpers import (
    SEQUENTIAL_SHAPES,
    plan_edges,
    random_instances,
    random_partial_colouring,
    random_shiftable_chain,
    round_snapshots,
)
from oracles import (
    at_least,
    oracle_classify,
    oracle_is_proper,
    oracle_missing,
    oracle_shift,
    oracle_used_mask,
    shift_along,
    split_shift_check,
)


@pytest.fixture
def split_star():
    """e0 = 0-1 uncoloured, both endpoints otherwise saturated so that their
    missing sets are disjoint: {3,4} at 0 versus {1,2} at 1."""
    g = build(6, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 4, 1), (1, 5, 1)])
    c = Colouring.from_assignment(g, {1: 1, 2: 2, 3: 3, 4: 4})
    return g, c


# ---------------------------------------------------------------------------
# missing colours
# ---------------------------------------------------------------------------


def _missing(c, x):
    """The colours of c's missing mask at x, as a set."""
    mask = c.missing_mask(x)
    return {col for col in range(1, c.graph.palette + 1) if mask >> (col - 1) & 1}


def test_missing_empty_colouring(p3):
    c = Colouring.empty(p3)
    assert _missing(c, 1) == {1, 2, 3}


def test_missing_one_edge(p3):
    c = Colouring.from_assignment(p3, {1: 1})
    assert _missing(c, 1) == {2, 3}
    assert _missing(c, 0) == {1, 2, 3}
    assert _missing(c, 2) == {2, 3}


def test_missing_saturated_star(star3):
    c = Colouring.from_assignment(star3, {0: 1, 1: 2, 2: 3})
    assert _missing(c, 0) == {4}
    assert len(_missing(c, 0)) == star3.pi


def test_missing_size_at_least_pi_and_matches_oracle():
    for g, c in random_instances(8, seed=30):
        for x in range(g.n):
            got = _missing(c, x)
            assert got == oracle_missing(g, c.colours, x)
            assert len(got) >= g.pi
            assert c.min_missing(x) == min(got)


# ---------------------------------------------------------------------------
# properness
# ---------------------------------------------------------------------------


def _with_raw_colours(g, raw):
    """A Colouring of g whose colour array is overwritten by raw, proper or
    not, behind the constructor's checks: the input is_proper re-scans."""
    c = Colouring.empty(g)
    c._colours[:] = raw
    return c


def test_is_proper_examples(p3, dbl):
    assert is_proper(Colouring.from_assignment(p3, {0: 1, 1: 2})) is True
    assert is_proper(_with_raw_colours(p3, [1, 1])) is False
    assert is_proper(_with_raw_colours(dbl, [1, 1])) is False


def test_is_proper_raw_matches_oracle():
    rng = random.Random(31)
    for g, _ in random_instances(6, seed=32, n=7, delta=3, pi=2):
        for _ in range(20):
            raw = [rng.randrange(0, g.palette + 1) for _ in range(g.m)]
            assert is_proper(_with_raw_colours(g, raw)) == oracle_is_proper(g, raw)


def test_from_assignment_rejects_raw_input_out_of_range(p3):
    for raw, match in (
        ({-1: 1, 1: 1}, "edge id -1 out of range"),
        ({0: 1, 5: 2}, "edge id 5 out of range"),
        ([1], "length does not match"),
        ([1, 2, 3], "length does not match"),
        ({0: 99}, "colour 99 outside palette"),
        ([0, -1], "colour -1 outside palette"),
    ):
        with pytest.raises(ValueError, match=match):
            Colouring.from_assignment(p3, raw)


# ---------------------------------------------------------------------------
# the Colouring class
# ---------------------------------------------------------------------------


def test_from_assignment_rejects_improper(p3, dbl):
    with pytest.raises(ValueError, match="already used"):
        Colouring.from_assignment(p3, {0: 1, 1: 1})
    with pytest.raises(ValueError, match="already used"):
        Colouring.from_assignment(dbl, {0: 2, 1: 2})


def test_from_assignment_rejects_out_of_range(p3):
    with pytest.raises(ValueError, match="outside palette"):
        Colouring.from_assignment(p3, {0: 4})
    with pytest.raises(ValueError, match="out of range"):
        Colouring.from_assignment(p3, {5: 1})


def test_from_assignment_dense_and_dict_agree(c4):
    assert Colouring.from_assignment(c4, [0, 1, 2, 1]) == Colouring.from_assignment(
        c4, {1: 1, 2: 2, 3: 1}
    )


def test_copy_is_independent(p3):
    c = Colouring.from_assignment(p3, {0: 1})
    d = c.copy()
    d.augment_in_place([1])
    assert d.colours[1] == 2
    assert c.colours[1] == 0
    assert d != c


def test_uncoloured_listing(c4):
    c = Colouring.from_assignment(c4, {1: 1, 3: 2})
    assert c.uncoloured() == [0, 2]
    assert c.colours == [0, 1, 0, 2]


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


# The referee's labels, pinned by examples worked out by hand.


def test_classify_single_uncoloured_edge(p3, split_star):
    assert oracle_classify(p3, [0, 0], [0]) == "augmenting"
    g, c2 = split_star
    assert oracle_classify(g, list(c2.colours), [0]) == "proper-shiftable"


def test_classify_not_shiftable(p3):
    assert oracle_classify(p3, [1, 2], [0, 1]) == "not-shiftable"
    assert oracle_classify(p3, [0, 0], [0, 1]) == "not-shiftable"


def test_classify_not_edge_injective(p3):
    assert oracle_classify(p3, [0, 1], [0, 1, 0]) == "not-edge-injective"


def test_classify_p3_augmenting(p3):
    assert oracle_classify(p3, [0, 1], [0, 1]) == "augmenting"


def test_classify_shiftable_only():
    # shifting moves colour 1 onto e0 = 0-1, clashing with the colour-1 edge
    # 0-4 that is not part of the chain
    g = build(5, [(0, 1, 1), (1, 2, 1), (0, 4, 1)])
    assert oracle_classify(g, [0, 1, 1], [0, 1]) == "shiftable"


def test_ladder_ranks_the_labels():
    assert at_least("augmenting", "shiftable")
    assert at_least("shiftable", "shiftable")
    assert not at_least("shiftable", "augmenting")


# ---------------------------------------------------------------------------
# shifting
# ---------------------------------------------------------------------------


def test_shift_p3(p3):
    c = Colouring.from_assignment(p3, {1: 1})
    out = shift_along(c, [0, 1])
    assert out.colours == [1, 0]
    assert out.colours[1] == 0
    # the input colouring is untouched
    assert c.colours == [0, 1]


def test_shift_single_edge_is_identity(p3):
    c = Colouring.from_assignment(p3, {1: 1})
    assert shift_along(c, [0]) == c


def test_shift_c4(c4):
    c = Colouring.from_assignment(c4, {1: 1, 2: 2, 3: 1})
    out = shift_along(c, [0, 1, 2, 3])
    assert out.colours == [1, 2, 1, 0]
    assert out.colours[3] == 0


def test_shift_rejects_not_shiftable(p3):
    c = Colouring.from_assignment(p3, {0: 1, 1: 2})
    with pytest.raises(ValueError, match="not shiftable"):
        shift_along(c, [0, 1])


def test_shift_rejects_improper_result():
    g = build(5, [(0, 1, 1), (1, 2, 1), (0, 4, 1)])
    c = Colouring.from_assignment(g, {1: 1, 2: 1})
    with pytest.raises(ValueError, match="improper"):
        shift_along(c, [0, 1])
    # the raw shift still exposes the would-be result
    assert oracle_shift(c.colours, [0, 1]) == [1, 0, 1]


def test_shift_matches_oracle_and_invariants():
    rng = random.Random(35)
    checked = 0
    for g, c in random_instances(12, seed=36):
        chain = random_shiftable_chain(g, c, seed=rng.randrange(10**9))
        if chain is None:
            continue
        status = oracle_classify(g, list(c.colours), chain)
        assert at_least(status, "shiftable")
        expected = oracle_shift(c.colours, chain)
        if at_least(status, "proper-shiftable"):
            out = shift_along(c, chain)
            assert out.colours == expected
            assert out.uncoloured_count == c.uncoloured_count
            # the last edge is the unique chain edge left uncoloured
            unc_in_chain = [e for e in chain if out.colours[e] == 0]
            assert unc_in_chain == [chain[-1]]
        else:
            with pytest.raises(ValueError):
                shift_along(c, chain)
        # interior edges always change colour
        for j in range(1, len(chain) - 1):
            assert expected[chain[j]] != c.colours[chain[j]]
        checked += 1
    assert checked >= 8


def test_split_shift_examples(p3, c4):
    c = Colouring.from_assignment(p3, {1: 1})
    assert split_shift_check(c, [0, 1], 0) is True
    assert split_shift_check(c, [0, 1], 1) is True
    d = Colouring.from_assignment(c4, {1: 1, 2: 2, 3: 1})
    assert split_shift_check(d, [0, 1, 2, 3], 2) is True


def test_split_shift_all_positions_randomised():
    rng = random.Random(37)
    checked = 0
    for g, c in random_instances(10, seed=38):
        chain = random_shiftable_chain(g, c, seed=rng.randrange(10**9))
        if chain is None or len(chain) < 2:
            continue
        for i in range(len(chain)):
            assert split_shift_check(c, chain, i) is True
        checked += 1
    assert checked >= 6


def test_split_shift_rejects_bad_input(p3):
    c = Colouring.from_assignment(p3, {0: 1, 1: 2})
    with pytest.raises(ValueError, match="not shiftable"):
        split_shift_check(c, [0, 1], 0)
    d = Colouring.from_assignment(p3, {1: 1})
    with pytest.raises(ValueError, match="out of range"):
        split_shift_check(d, [0, 1], 2)


def _state(g, c):
    """What the in-place mutations write: colours, used masks, count."""
    return (
        list(c.colours),
        list(c._used),
        c.uncoloured_count,
    )


def _oracle_state(g, cols):
    return list(cols), [oracle_used_mask(g, cols, x) for x in range(g.n)], cols.count(0)


def test_shift_in_place_and_undo():
    """The shift and its undo write the colour array and the used masks
    directly, so both are checked against a recompute after each step, and
    so are the rejected chains, which must leave the colouring as it was."""
    rng = random.Random(39)
    checked = rejected_repeat = rejected_improper = rejected_gap = 0
    for g, c in random_instances(30, seed=40):
        for _ in range(3):
            chain = random_shiftable_chain(g, c, seed=rng.randrange(10**9))
            if chain is None:
                continue
            before = list(c.colours)
            status = oracle_classify(g, before, chain)
            if status == "shiftable":
                with pytest.raises(ValueError, match="already used"):
                    c.shift_in_place(chain)
                assert _state(g, c) == _oracle_state(g, before)
                rejected_improper += 1
                continue
            assert at_least(status, "proper-shiftable")
            if len(chain) > 1:
                with pytest.raises(ValueError, match="repeats"):
                    c.shift_in_place(chain + chain[1:2])
                assert _state(g, c) == _oracle_state(g, before)
                rejected_repeat += 1
            log = c.shift_in_place(chain)
            assert _state(g, c) == _oracle_state(g, oracle_shift(before, chain))
            c.apply_undo(log)
            assert _state(g, c) == _oracle_state(g, before)
            checked += 1
        unc = c.uncoloured()
        for a in unc:
            for b in unc:
                if a != b and set(g.edges[a][:2]) & set(g.edges[b][:2]):
                    before = list(c.colours)
                    with pytest.raises(ValueError, match="uncoloured"):
                        c.shift_in_place([a, b])
                    assert _state(g, c) == _oracle_state(g, before)
                    rejected_gap += 1
    assert checked >= 10
    assert rejected_repeat >= 10
    assert rejected_improper >= 5
    assert rejected_gap >= 5


def test_augment_in_place_is_atomic():
    """The augment pass writes the colour array and the used masks directly,
    so its result is checked against a recompute: an augmenting chain gives
    the shift with the last edge coloured by the smallest common missing
    colour, and every rejected chain -- one whose shifted ends share no
    missing colour, an improper shift, a repeated edge -- leaves the
    colours, every used mask and the uncoloured count as they were."""
    counts = dict.fromkeys(("augmenting", "proper-shiftable", "shiftable", "repeat"), 0)
    for t in range(400):
        g = generate_random(6, 3, 1, seed=t)
        if g.m == 0:
            continue
        c = random_partial_colouring(g, t)
        for k in range(4):
            chain = random_shiftable_chain(g, c, seed=k)
            if chain is None:
                break
            for end in range(1, len(chain) + 1):
                prefix = chain[:end]
                before = list(c.colours)
                status = oracle_classify(g, before, prefix)
                if status == "augmenting":
                    d = c.copy()
                    changed = d.augment_in_place(prefix)
                    want = oracle_shift(before, prefix)
                    u, v, _ = g.edges[prefix[-1]]
                    common = oracle_missing(g, want, u) & oracle_missing(g, want, v)
                    want[prefix[-1]] = min(common)
                    assert _state(g, d) == _oracle_state(g, want)
                    assert changed == sum(a != b for a, b in zip(before, want))
                elif status == "proper-shiftable":
                    with pytest.raises(ValueError, match="not augmenting"):
                        c.augment_in_place(prefix)
                elif status == "shiftable":
                    with pytest.raises(ValueError, match="already used"):
                        c.augment_in_place(prefix)
                counts[status] += 1
                assert _state(g, c) == _oracle_state(g, before)
                if end > 1:
                    with pytest.raises(ValueError, match="repeats"):
                        c.augment_in_place(prefix + prefix[1:2])
                    assert _state(g, c) == _oracle_state(g, before)
                    counts["repeat"] += 1
    assert min(counts.values()) >= 500, counts


def _aliasing_path():
    """The path 0-1-2-3, edges 0, 1, 2, with edge 0 uncoloured: Python
    indexing would read edge id -k as edge 3 - k."""
    g = build(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    return g, Colouring.from_assignment(g, {1: 1, 2: 2})


@pytest.mark.parametrize(
    "write, message",
    [
        # unchecked, -2 would alias edge 1 and the shift leave colours [1, 1, 2]
        (lambda c: c.augment_in_place([0, 1, -2]), "^edge id -2 out of range$"),
        # unchecked, this would succeed with vertices 1 and 2 left at mask 7
        (lambda c: c.augment_in_place([0, 1, 2, -2]), "^edge id -2 out of range$"),
        # unchecked, -1 would alias edge 2 and the masks become [0, 1, 1, 0]
        (lambda c: c.apply_undo([(2, 1), (-1, 3)]), "^edge id -1 out of range$"),
        (lambda c: c.augment_in_place([0, 3]), "^edge id 3 out of range$"),
        (lambda c: c.apply_undo([(3, 1)]), "^edge id 3 out of range$"),
        (lambda c: c.augment_in_place([]), "^empty chain$"),
        (lambda c: c.shift_in_place([]), "^empty chain$"),
        (lambda c: c.apply_undo([]), "^empty undo log$"),
    ],
    ids=["augment-alias", "augment-alias-last", "undo-alias", "augment-too-large",
         "undo-too-large", "augment-empty", "shift-empty", "undo-empty"],
)
def test_write_paths_reject_aliased_and_empty_ids(write, message):
    """An edge id outside 0..m-1, or an empty chain or log, raises
    ValueError before anything is written: the colours and the used masks
    equal a fresh recompute, and the colouring is the one before."""
    g, c = _aliasing_path()
    before = list(c.colours)
    with pytest.raises(ValueError, match=message):
        write(c)
    assert _state(g, c) == _oracle_state(g, before)
    assert c._used == Colouring(g, c.colours)._used


@pytest.mark.parametrize("e", [-1, 3])
def test_max_fan_rejects_an_edge_id_out_of_range(e):
    """Unchecked, -1 would alias the uncoloured edge 2 and give a fan on
    edge "-1"; 3 would raise IndexError."""
    g = build(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    c = Colouring.from_assignment(g, {0: 1, 1: 2})
    before = list(c.colours)
    with pytest.raises(ValueError, match=f"^edge id {e} out of range$"):
        max_fan(c, 2, e)
    assert _state(g, c) == _oracle_state(g, before)
    assert c._used == Colouring(g, c.colours)._used


def test_lone_edge_augmentation_matches_the_oracle():
    """Augmenting along every one-edge chain [e] of dense random partial
    colourings.  An uncoloured e, whose shift changes nothing, takes the
    smallest colour missing at both ends, 1 is returned, and the used
    masks equal a recompute; when the ends share no missing colour the
    call raises and leaves colours, masks and count unchanged.  For a
    coloured e the shift frees its colour before the smallest common
    colour is written."""
    counts = dict.fromkeys(("uncoloured", "coloured", "no common colour"), 0)
    for t in range(300):
        g = generate_random(6, 4, 1 + t % 2, seed=t)
        c = random_partial_colouring(g, t, fill=0.95)
        before = list(c.colours)
        for e in range(g.m):
            u, v, _ = g.edges[e]
            want = oracle_shift(before, [e])
            common = oracle_missing(g, want, u) & oracle_missing(g, want, v)
            d = c.copy()
            if not common:
                with pytest.raises(ValueError) as raised:
                    d.augment_in_place([e])
                assert str(raised.value) == "chain is not augmenting: no common missing colour"
                assert _state(g, d) == _oracle_state(g, before)
                counts["no common colour"] += 1
                continue
            want[e] = min(common)
            changed = d.augment_in_place([e])
            assert _state(g, d) == _oracle_state(g, want)
            if before[e]:
                assert changed == int(want[e] != before[e])
                counts["coloured"] += 1
            else:
                assert changed == 1
                counts["uncoloured"] += 1
        assert c.colours == before
    print(f"lone-edge sweep: {counts}")
    assert counts["no common colour"] >= 1, counts
    assert min(counts.values()) >= 100, counts


def test_fan_rotation_matches_the_general_path():
    """Every step of sequential colourings at pi = 1, 2 and 3: the fan
    grown from the edge's smaller endpoint is rotated in place when it is
    augmenting, and that leaves the colours, the used masks and the
    uncoloured count that augment_in_place along vizing_chain leaves on a
    copy (the masks the rotation writes are checked against a recompute);
    the referee calls the fan augmenting.  Otherwise the rotation writes
    nothing, and max_fan agrees that the fan is not augmenting.  Rotated
    fans include fans that reach one far endpoint through two parallel fan
    edges, and one-edge fans: the rotation handles them too, though
    colour_sequential colours those with _colour_free before any fan is
    grown, so they are not its rotation path."""
    counts = dict.fromkeys(("one edge", "longer", "shared far endpoint", "not augmenting"), 0)
    for n, delta, pi in SEQUENTIAL_SHAPES:
        for seed in range(4):
            g = generate_random(n, delta, pi, seed=seed)
            c = Colouring.empty(g)
            for e in range(g.m):
                x = g.edges[e][0]
                fan = _grow_fan(c, x, e)
                want = c.copy()
                want.augment_in_place(vizing_chain(want, x, e).edges())
                got = c.copy()
                if got._rotate_fan(x, fan):
                    assert oracle_classify(g, list(c.colours), fan[0]) == "augmenting"
                    assert _state(g, got) == _state(g, want)
                    far = fan[1]
                    # the rotation writes the masks of x and the far endpoints
                    for w in {x, *far}:
                        assert got._used[w] == oracle_used_mask(g, got.colours, w)
                    counts["one edge" if len(far) == 1 else "longer"] += 1
                    counts["shared far endpoint"] += len(set(far)) < len(far)
                else:
                    assert not max_fan(c, x, e).augmenting
                    assert _state(g, got) == _state(g, c)
                    counts["not augmenting"] += 1
                c = want
            assert c.colours == colour_sequential(g).colours
    assert min(counts.values()) >= 10, counts


def test_colour_free_matches_free_colour():
    """Every step of the same sequential colourings: _colour_free colours
    the edge exactly when x misses the smallest colour missing at y (by the
    oracle), which is when the scheduler's probe plans it as a free edge at
    x, and then leaves the colours, the used masks (checked against a
    recompute) and the uncoloured count that augment_in_place([e]) leaves
    on a copy; the edge takes that colour.  Otherwise it writes nothing."""
    counts = {True: 0, False: 0}
    for n, delta, pi in SEQUENTIAL_SHAPES:
        for seed in range(4):
            g = generate_random(n, delta, pi, seed=seed)
            c = Colouring.empty(g)
            for e in range(g.m):
                x, y, _ = g.edges[e]
                col = min(oracle_missing(g, c.colours, y))
                free = col in oracle_missing(g, c.colours, x)
                # with L above every path length the probe stops at x
                assert (_probe(c, e, g.m + 1, g.m + 1)[:2] == ("free", x)) is free
                got = c.copy()
                coloured = got._colour_free(x, y, e)
                assert coloured is free
                if coloured:
                    want = c.copy()
                    want.augment_in_place([e])
                    assert _state(g, got) == _state(g, want)
                    assert _state(g, got) == _oracle_state(g, got.colours)
                    assert got.colours[e] == col
                else:
                    assert _state(g, got) == _state(g, c)
                counts[coloured] += 1
                c.augment_in_place(vizing_chain(c, x, e).edges())
            assert c.colours == colour_sequential(g).colours
    assert min(counts.values()) >= 10, counts


def _check_plans(g, c, e, L, counts):
    """The plans for the uncoloured edge e on c: the scheduler's own
    (_probe at scale L and second-path bound L) and, at each endpoint x, a plan of every kind,
    each applied through _apply on a copy.  A plan that applies leaves the
    colours, the used masks (checked against a recompute), the uncoloured
    count and the recoloured count that augment_in_place along the plan's
    edge list leaves on another copy.  A free plan is refused exactly when
    x uses the smallest colour missing at the other end (by the oracle),
    and a fan plan exactly when max_fan's flag (refereed in test_chains)
    calls the fan not augmenting; a refused plan raises and writes
    nothing."""
    u, v, _ = g.edges[e]
    plan = _probe(c, e, L, L)
    if plan is not None:
        counts["probed " + plan[0]] += 1
    plans = [(plan, True)]
    for x, y in ((u, v), (v, u)):
        fan = _grow_fan(c, x, e)
        free = min(oracle_missing(g, c.colours, y)) in oracle_missing(g, c.colours, x)
        plans += [
            (("free", x, e), free),
            (("fan", x, fan), max_fan(c, x, e).augmenting),
            (("chain", x, vizing_chain(c, x, e).edges()), True),
        ]
    for plan, applies in plans:
        if plan is None:
            continue
        got = c.copy()
        if not applies:
            with pytest.raises(AssertionError, match=f"the {plan[0]} plan around vertex"):
                _apply(got, [plan])
            assert _state(g, got) == _state(g, c)
            counts["refused " + plan[0]] += 1
            continue
        want = c.copy()
        assert _apply(got, [plan]) == want.augment_in_place(plan_edges(plan))
        assert _state(g, got) == _state(g, want)
        for w in {w for f in plan_edges(plan) for w in g.edges[f][:2]}:
            assert got._used[w] == oracle_used_mask(g, got.colours, w)
        counts[plan[0]] += 1


def test_every_plan_kind_matches_augment_in_place():
    """Every step of the sequential colourings, and every round snapshot of
    run_scheduler on the same graphs at two scales (replayed with _batch
    and _apply, and checked against run_scheduler's result): each pending
    edge's plans agree with augment_in_place, as _check_plans says."""
    kinds = ("free", "fan", "chain")
    keys = [*kinds, "refused free", "refused fan", *("probed " + k for k in kinds)]
    counts = dict.fromkeys(keys, 0)
    for n, delta, pi in SEQUENTIAL_SHAPES:
        for seed in range(4):
            g = generate_random(n, delta, pi, seed=seed)
            c = Colouring.empty(g)
            for e in range(g.m):
                _check_plans(g, c, e, g.m + 1, counts)
                c.augment_in_place(vizing_chain(c, g.edges[e][0], e).edges())
            for L in (2 * g.delta + 1, 4 * g.delta + 1):
                for c in round_snapshots(g, L, seed):
                    for e in c.uncoloured():
                        _check_plans(g, c, e, L, counts)
    print(f"plan sweep: {counts}")
    # the rarest kinds read 85 refused fans and 49 probed chains
    assert min(counts.values()) >= 25, counts


def test_fan_rotation_leaves_a_non_augmenting_fan():
    """The gadget's fan needs a path (its last far endpoint uses every
    colour x misses): the rotation returns False and writes nothing."""
    inst = long_path_instance(16)
    c = inst.c.copy()
    assert c._rotate_fan(inst.x, _grow_fan(c, inst.x, inst.e)) is False
    assert c == inst.c and _state(inst.g, c) == _state(inst.g, inst.c)


def test_fan_rotation_checks_fire_and_restore():
    """The rotation's two checks are ValueErrors, so they also run under
    python -O, and they restore what the rotation wrote.  A fan step given
    a colour its far endpoint already uses fails at that step, after
    earlier steps have written their masks.  On two parallel edges x-v
    (x = 0, v = 1), where x and v share only colour 6, a one-step fan that
    moves 6 onto the uncoloured edge passes the test before the shift and
    leaves no common colour after it."""
    failed_late = 0
    for g, c in random_instances(40, seed=81, n=12, delta=5, pi=2, fill=0.9):
        for e in c.uncoloured():
            for x in g.edges[e][:2]:
                edges, far, seq = _grow_fan(c, x, e)[:3]
                # a colour at v_{k-1} on no fan edge (whose steps free theirs)
                taken = c._used[far[-2]] if seq else 0
                for col in seq:
                    taken &= ~(1 << (col - 1))
                if not (len(seq) >= 2 and taken and c.missing_mask(x) & c.missing_mask(far[-1])):
                    continue
                col = (taken & -taken).bit_length()
                before = _state(g, c)
                with pytest.raises(ValueError) as raised:
                    c._rotate_fan(x, (edges, far, seq[:-1] + [col]))
                assert str(raised.value) == (
                    f"colour {col} already used at an endpoint of edge {edges[-2]}"
                )
                assert _state(g, c) == before
                failed_late += 1
    assert failed_late >= 10
    g = build(6, [(0, 1, 1), (0, 1, 2), (0, 2, 1), (0, 3, 1), (1, 4, 1), (1, 5, 1)])
    c = Colouring.from_assignment(g, [0, 1, 2, 3, 4, 5])
    with pytest.raises(ValueError) as raised:
        c._rotate_fan(0, ([0, 1], [1, 1], [6]))
    assert str(raised.value) == "chain is not augmenting: no common missing colour"
    assert _state(g, c) == _oracle_state(g, [0, 1, 2, 3, 4, 5])


# ---------------------------------------------------------------------------
# dump format
# ---------------------------------------------------------------------------


def test_dump_round_trip(c4):
    c = Colouring.from_assignment(c4, {1: 1, 2: 2, 3: 1})
    text = c.to_text()
    assert text == "mg 4 4 2 1\n0 1 1\n1 2 1\n2 3 1\n0 3 1\n0 0\n1 1\n2 2\n3 1\n"
    assert Colouring.from_dump(text) == c


def test_dump_load_reports_a_non_ascii_byte_with_its_line(p3):
    # decoded as the command line decodes a file it reads
    text = (p3.to_text().encode() + b"0 0\n1 \xff\n").decode("ascii", "surrogateescape")
    with pytest.raises(ValueError, match=r"^line 5: non-ASCII character$"):
        Colouring.from_dump(text)


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("0 0\n", 1),  # wrong line count for p3 (2 edges)
        ("0 0\n1 1\n2 2\n", 3),
        ("0 0\nx 1\n", 2),
        ("0 0\n1\n", 2),
        ("0 0\n2 1\n", 2),
        ("0 0\n1 9\n", 2),
    ],
)
def test_dump_parse_errors(p3, text, lineno):
    # the colour block's line k is line k + m + 1 of the dump
    with pytest.raises(ValueError, match=f"^line {lineno + p3.m + 1}:"):
        Colouring.from_dump(p3.to_text() + text)


def test_from_dump_rejects_improper(p3):
    with pytest.raises(ValueError, match="already used"):
        Colouring.from_dump(p3.to_text() + "0 1\n1 1\n")


def test_equality_compares_graphs_by_value(c4):
    c = Colouring.from_assignment(c4, {1: 1, 2: 2, 3: 1})
    assert pickle.loads(pickle.dumps(c)) == c
    assert copy.deepcopy(c) == c
    assert Colouring.from_dump(c.to_text()) == c
    assert Colouring.from_assignment(build(4, list(c4.edges)), c.colours) == c
    # an edge moved from 0-3 to 1-3: same m and colours, unequal graphs
    moved = build(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (1, 3, 1)])
    assert Colouring.empty(moved) != Colouring.empty(c4)
