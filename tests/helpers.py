"""Shared utilities for the test suite: seeded random instances.

Property tests sample (graph, partial colouring) pairs from here.  All
randomness is seeded so failures reproduce exactly.
"""

from __future__ import annotations

import random

from vizing import Colouring, Multigraph, generate_random


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
            if h not in used and c.colour_of(h) != 0
        ]
        if not cand:
            break
        nxt = rng.choice(cand)
        chain.append(nxt)
        used.add(nxt)
    return chain
