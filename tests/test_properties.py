"""Property-based checks on arbitrary small multigraphs: the colourers end
proper and settled, the scheduler is deterministic and indifferent to edge
numbering, and the text formats round-trip and fail only with ValueError."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from vizing import (
    Colouring,
    Multigraph,
    build,
    check_unimprovable,
    colour_sequential,
    is_proper,
    run_scheduler,
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
    c = colour_sequential(g)
    for e in range(g.m):
        if rng.random() < 0.3:
            c.unassign(e)
    assert Colouring.from_dump(g, c.to_text()) == c


def _mutations():
    """Edits of a text: cut it short, or delete, replace or insert one
    character from a small hostile alphabet."""
    alphabet = st.sampled_from(list("0123456789 -\nxm"))
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
    try:
        Multigraph.from_text(_mutate(g.to_text(), edit))
    except ValueError:
        pass


@settings(max_examples=300)
@given(multigraphs(), _mutations())
def test_dump_parser_raises_only_value_error(g, edit):
    text = colour_sequential(g).to_text()
    try:
        Colouring.from_dump(g, _mutate(text, edit))
    except ValueError:
        pass
