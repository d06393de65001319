"""Seeded input generators of the benchmark, independent of the program.

Every input is made here from the run's seed: random multigraphs, square
grids, and the stuck and decorated long-path gadgets, composed as disjoint
unions.  Nothing is taken from the program's own generator or from its test
helpers, so a change to either cannot change what the benchmark measures.
A graph is kept as plain edge triples in file order, which is also the
order of the program's edge ids; the text forms are written here too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass
class Graph:
    """A multigraph as the benchmark sees it: ``edges[i]`` is the i-th
    ``(u, v, k)`` line of its mg file (u < v, k the multiplicity index)."""

    n: int
    edges: list[tuple[int, int, int]]

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def bounds(self) -> tuple[int, int]:
        """(delta, pi) recomputed from the edge list."""
        return max(self.degrees(), default=0), max((k for _, _, k in self.edges), default=0)

    def mg_text(self) -> str:
        delta, pi = self.bounds()
        lines = [f"mg {self.n} {self.m} {delta} {pi}"]
        lines.extend(f"{u} {v} {k}" for u, v, k in self.edges)
        return "\n".join(lines) + "\n"


def normalise(n: int, pairs: list[tuple[int, int]]) -> Graph:
    """Order each pair's endpoints and number parallel edges 1, 2, ... in
    list order, as the mg format requires."""
    seen: dict[tuple[int, int], int] = {}
    edges = []
    for u, v in pairs:
        if u > v:
            u, v = v, u
        k = seen.get((u, v), 0) + 1
        seen[(u, v)] = k
        edges.append((u, v, k))
    return Graph(n, edges)


def dump_text(g: Graph, colours: list[int]) -> str:
    """The graph+colouring dump: the mg block, then ``edge colour`` lines."""
    return g.mg_text() + "".join(f"{e} {col}\n" for e, col in enumerate(colours))


# ---------------------------------------------------------------------------
# Random multigraphs and grids
# ---------------------------------------------------------------------------


def random_multigraph(
    rng: random.Random, n: int, m: int, delta: int, pi: int, parallel_share: float = 0.0
) -> Graph:
    """Exactly ``m`` edges on ``n`` vertices, degrees at most ``delta`` and
    multiplicities at most ``pi``.  A ``parallel_share`` of the draws repeats
    the pair of an earlier edge, so parallel edges are common when pi > 1."""
    deg = [0] * n
    mult: dict[tuple[int, int], int] = {}
    pairs: list[tuple[int, int]] = []
    attempts = 0
    while len(pairs) < m:
        attempts += 1
        if attempts > 50 * m:
            raise ValueError(f"cannot place {m} edges on {n} vertices at delta {delta}")
        if pairs and rng.random() < parallel_share:
            u, v = pairs[rng.randrange(len(pairs))]
        else:
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            if u > v:
                u, v = v, u
        if deg[u] >= delta or deg[v] >= delta or mult.get((u, v), 0) >= pi:
            continue
        mult[(u, v)] = mult.get((u, v), 0) + 1
        deg[u] += 1
        deg[v] += 1
        pairs.append((u, v))
    return normalise(n, pairs)


def grid(rng: random.Random, side: int) -> Graph:
    """The side x side grid with its vertices relabelled in a seeded order.

    Edges are listed row by row from a corner, so edge 0 is a corner edge:
    the program measures a component's eccentricity from its smallest edge
    id, which from a corner is 2 * side - 3.
    """
    label = list(range(side * side))
    rng.shuffle(label)
    pairs = []
    for i in range(side):
        for j in range(side):
            if j + 1 < side:
                pairs.append((label[i * side + j], label[i * side + j + 1]))
            if i + 1 < side:
                pairs.append((label[i * side + j], label[(i + 1) * side + j]))
    return normalise(side * side, pairs)


def greedy_colouring(g: Graph) -> list[int]:
    """A full proper colouring, each edge taking the least colour free at
    both ends (at most 2*delta - 1 colours)."""
    used: list[set[int]] = [set() for _ in range(g.n)]
    colours = []
    for u, v, _ in g.edges:
        col = 1
        while col in used[u] or col in used[v]:
            col += 1
        used[u].add(col)
        used[v].add(col)
        colours.append(col)
    return colours


# ---------------------------------------------------------------------------
# Gadgets
# ---------------------------------------------------------------------------


class Builder:
    """Collects coloured edges on fresh vertices; colour 0 is uncoloured."""

    def __init__(self) -> None:
        self.n = 0
        self.pairs: list[tuple[int, int]] = []
        self.colours: list[int] = []

    def vertex(self) -> int:
        self.n += 1
        return self.n - 1

    def edge(self, u: int, v: int, col: int) -> int:
        self.pairs.append((u, v))
        self.colours.append(col)
        return len(self.pairs) - 1

    def pendants(self, u: int, cols: tuple[int, ...]) -> None:
        for col in cols:
            self.edge(u, self.vertex(), col)


@dataclass
class Probe:
    """An uncoloured edge e and the endpoint x whose chain the gadget
    controls; ``tail`` is the expected tail length, ``stable`` and
    ``unstable`` the positions of its decorations, ``pendants`` the edges
    joining the stable ones to the tail."""

    e: int
    x: int
    tail: int
    stable: list[int] = field(default_factory=list)
    unstable: list[int] = field(default_factory=list)
    pendants: list[int] = field(default_factory=list)


def add_locked(b: Builder, T: int) -> Probe:
    """A stuck gadget at delta 4: the uncoloured edge e = (x, a) has
    non-augmenting fans at both ends, and each chain continues along a bare
    alternating tail of T edges (3/1 from a, 1/3 from x), so no improvement
    shorter than T exists at the first level.

    x uses {1, 2}; a uses {2, 3, 4}.  Around x the fan is e, x-p1 (1),
    x-p2 (2) and stops on colour 1 again; around a it is e, a-r2 (3),
    a-r1 (2) and stops on colour 3 again.  Both first critical indices are 0.
    """
    x, a = b.vertex(), b.vertex()
    p1, p2, r1, r2, r3 = (b.vertex() for _ in range(5))
    e = b.edge(x, a, 0)
    b.edge(x, p1, 1)
    b.edge(x, p2, 2)
    b.edge(a, r1, 2)
    b.edge(a, r2, 3)
    b.edge(a, r3, 4)
    b.pendants(p1, (4, 5))       # p1 misses only 2 once its tail edge is in
    b.pendants(p2, (3, 4, 5))    # p2 misses only 1: the repeat at x
    b.pendants(r1, (1, 5))       # r1 misses {3, 4}: the repeat at a
    b.pendants(r2, (5,))         # r2 misses {2, 4} once its tail edge is in
    for start, first, cols in ((p1, 3, (1, 3)), (r2, 1, (3, 1))):
        # the tails: x-p1 then 3, 1, 3, ...; a-r2 then 1, 3, 1, ...
        u = b.vertex()
        b.edge(start, u, first)
        for t in range(2, T):
            w = b.vertex()
            b.edge(u, w, cols[t % 2])
            u = w
    return Probe(e=e, x=x, tail=T)


def add_long_path(b: Builder, T: int, stable: list[int], unstable: int | None) -> Probe:
    """A delta-3 gadget whose chain at x is the fan prefix [e] followed by
    an alternating 3/1 tail of T edges.  Odd tail positions from 5 on are
    suitable; a bare one is Type0 (superb, empty second path).  Each
    position in ``stable`` gets a pendant to a vertex w whose second path is
    one edge coloured 3 (TypeI, superb).  The position ``unstable`` gets a
    pendant whose w is spliced onto the tail's far end, so its second path
    runs back down the tail and the shift cuts it (TypeI, not superb); the
    splice lengthens the tail by one edge.
    """
    x, a, bv, d = b.vertex(), b.vertex(), b.vertex(), b.vertex()
    e = b.edge(x, a, 0)
    b.edge(x, bv, 1)
    b.edge(x, d, 2)
    b.pendants(d, (3, 4))        # d misses only 1: the fan stops on it
    q = [a] + [b.vertex() for _ in range(T)]
    for t in range(T):
        b.edge(q[t], q[t + 1], 3 if t % 2 == 0 else 1)
    pendants = []
    for pos in sorted(stable):
        w = b.vertex()
        pendants.append(b.edge(q[pos], w, 2))
        b.pendants(w, (3, 4))
    if unstable is not None:
        w = b.vertex()
        b.edge(q[unstable], w, 2)
        b.edge(w, q[T], 3)
        b.pendants(w, (4,))
    return Probe(
        e=e, x=x, tail=T + (unstable is not None),
        stable=sorted(stable), unstable=[] if unstable is None else [unstable],
        pendants=pendants,
    )


@dataclass
class Composition:
    """A disjoint union with its colouring and the probes of its gadgets."""

    graph: Graph
    colours: list[int]
    probes: list[Probe]


def compose(rng: random.Random, b: Builder, probes: list[Probe]) -> Composition:
    """Relabel the vertices and list the edges in a seeded order; probes
    follow their edges and vertices."""
    label = list(range(b.n))
    rng.shuffle(label)
    order = list(range(len(b.pairs)))
    rng.shuffle(order)
    new_id = {old: new for new, old in enumerate(order)}
    g = normalise(b.n, [(label[b.pairs[i][0]], label[b.pairs[i][1]]) for i in order])
    colours = [b.colours[i] for i in order]
    for p in probes:
        p.e, p.x = new_id[p.e], label[p.x]
        p.pendants = [new_id[f] for f in p.pendants]
    return Composition(g, colours, probes)


def add_background(b: Builder, bg: Graph, colours: list[int]) -> None:
    """Copy a coloured graph into the builder on fresh vertices."""
    base = b.n
    b.n += bg.n
    for (u, v, _), col in zip(bg.edges, colours):
        b.edge(base + u, base + v, col)
