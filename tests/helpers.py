"""Shared utilities for the test suite: seeded random instances.

Property tests sample (graph, partial colouring) pairs from here.  All
randomness is seeded so failures reproduce exactly.
"""

from __future__ import annotations

import random

from vizing import Colouring, Multigraph, generate_random, run_scheduler
from vizing.engine import _apply, _batch

# Sequential colourings at pi = 1, 2 and 3: sparse graphs, and small dense
# multigraphs for parallel fan edges.
SEQUENTIAL_SHAPES = ((80, 5, 1), (80, 5, 2), (80, 5, 3), (12, 6, 2), (10, 8, 3))


def random_partial_colouring(
    g: Multigraph, seed: int, fill: float = 0.75
) -> Colouring:
    """A random proper partial colouring of g.

    Visits the edges in a random order and colours each, with probability
    ``fill``, by a uniformly random colour missing at both endpoints (edges
    with no such colour stay uncoloured).
    """
    rng = random.Random(seed)
    colours = [0] * g.m
    used = [0] * g.n
    full = (1 << g.palette) - 1
    order = list(range(g.m))
    rng.shuffle(order)
    for e in order:
        if rng.random() > fill:
            continue
        u, v, _ = g.edges[e]
        mask = full & ~(used[u] | used[v])
        if mask == 0:
            continue
        cols = [i + 1 for i in range(g.palette) if (mask >> i) & 1]
        colours[e] = col = rng.choice(cols)
        used[u] |= 1 << (col - 1)
        used[v] |= 1 << (col - 1)
    return Colouring.from_assignment(g, colours)


def random_instances(
    count: int,
    seed: int,
    n: int = 9,
    delta: int = 4,
    pi: int = 2,
    fill: float = 0.75,
):
    """Yield ``count`` seeded (graph, colouring) pairs with edges present."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        g = generate_random(n, delta, pi, seed=rng.randrange(10**9))
        if g.m == 0:
            continue
        yield g, random_partial_colouring(g, rng.randrange(10**9), fill)
        made += 1


def random_shiftable_chain(g, c, seed: int, max_len: int = 8):
    """A random shiftable chain, or None if the colouring has no uncoloured
    edge.  Starts at a random uncoloured edge and extends through coloured
    edges sharing a vertex with the previous one, never repeating an edge.
    """
    rng = random.Random(seed)
    unc = c.uncoloured()
    if not unc:
        return None
    chain = [rng.choice(unc)]
    used = set(chain)
    while len(chain) < max_len:
        u, v, _ = g.edges[chain[-1]]
        cand = [
            h
            for x in (u, v)
            for h in g.adj[x]
            if h not in used and c.colours[h] != 0
        ]
        if not cand:
            break
        nxt = rng.choice(cand)
        chain.append(nxt)
        used.add(nxt)
    return chain


def plan_edges(plan) -> list[int]:
    """The edge list of a round scheduler's plan (``vizing.engine._probe``):
    the free edge alone, the augmenting fan's edges, or the chain."""
    kind, _, q = plan
    if kind == "free":
        return [q]
    return list(q[0]) if kind == "fan" else q


def round_snapshots(g: Multigraph, L: int, seed: int):
    """Replay run_scheduler(g, L, seed) with the engine's _batch and _apply,
    yielding the colouring before each round and the settled one last.  The
    live colouring is yielded and written after the consumer resumes; once
    the rounds run out it is checked against run_scheduler's result."""
    c = Colouring.empty(g)
    pending = list(range(g.m))
    random.Random(seed).shuffle(pending)
    while True:
        yield c
        batch = _batch(c, pending, L)
        if not batch:
            break
        _apply(c, batch)
        pending = [e for e in pending if not c.colours[e]]
    if c.colours != run_scheduler(g, L, seed).colours:
        raise AssertionError("the replayed rounds left another colouring than run_scheduler")
