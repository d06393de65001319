"""Colouring drivers: sequential colourer, round scheduler, orientation.

Three ways to put the chain machinery to work:

  * colour_sequential colours every edge of a finite multigraph in exactly
    m augmentations, one per edge, giving a full proper colouring with
    delta + pi colours;

  * run_scheduler colours in rounds, each applying a greedy maximal set
    of vertex-disjoint chains of at most 3L edges: plain chains whose path
    is shorter than L, or second-order chains through a superb edge within
    the first L path positions whose second path is also short.  It stops
    once a round finds no such chain, leaving a colouring that cannot be
    improved at scale L -- the state the audit module's fraction bounds
    apply to;

  * orient turns a full colouring of a multiplicity-1 graph into an edge
    orientation with out-degree at most ceil((delta+2)/2), by pairing
    colour classes into unions of paths and cycles and orienting each
    component consistently.

colour_sequential and run_scheduler handle an edge alike, one write path
per kind: an edge whose fan is the edge alone takes its colour off two
masks (Colouring._colour_free); any other fan is grown once and, if
augmenting, rotated in place (Colouring._rotate_fan); the rest get a chain
built from that fan (chains._path_chain) for augment_in_place, at once in
colour_sequential and from a probed plan after the round in the scheduler.

The chains applied within one round are vertex-disjoint (checked), so the
result does not depend on application order.  Everything is deterministic
given (graph, L, seed); round logs are emitted as JSON lines with stable
keys.
"""

from __future__ import annotations

import random
from typing import TextIO

from .chains import Fan, _grow_fan, _path_chain
from .colouring import Colouring
from .multigraph import Multigraph

__all__ = [
    "MaxRoundsExceeded",
    "Orientation",
    "colour_sequential",
    "orient",
    "run_scheduler",
]


# ---------------------------------------------------------------------------
# Sequential colouring
# ---------------------------------------------------------------------------


def colour_sequential(g: Multigraph) -> Colouring:
    """A full proper colouring of g in exactly m augmentations.

    Edges are handled in index order, each from its smaller endpoint x
    (edge triples store that endpoint first) and through the write path of
    its kind (see the module docstring), probed and applied at once.
    Augmentation recolours but never uncolours, so every edge is uncoloured
    when its turn comes and coloured for good afterwards.
    """
    c = Colouring.empty(g)
    edges = g.edges
    for e in range(g.m):
        x, y, _ = edges[e]
        if not c._colour_free(x, y, e) and not c._rotate_fan(x, fan := _grow_fan(c, x, e)):
            c.augment_in_place(_path_chain(c, Fan(x, *fan[:3], False, *fan[3:])).edges())
    return c


# ---------------------------------------------------------------------------
# The round scheduler
# ---------------------------------------------------------------------------


class MaxRoundsExceeded(RuntimeError):
    """The scheduler hit its round budget before settling: `colouring` is
    the partial colouring after the `rounds` rounds it applied."""

    def __init__(self, colouring: Colouring, rounds: int):
        self.colouring = colouring
        self.rounds = rounds
        super().__init__(
            f"scheduler stopped after {rounds} rounds with "
            f"{colouring.uncoloured_count} edges still uncoloured"
        )


def _probe(c: Colouring, e: int, L: int, second: int | None) -> tuple | None:
    """The plan for the uncoloured edge e at scale L, read off c without
    writing it, or None when every route is too long.  For each endpoint x
    in turn, with y the other end: ("free", x, e) when x misses the
    smallest colour missing at y, so the fan is e alone; else the fan is
    grown once, and ("fan", x, fan) holds _grow_fan's tuple when it is
    augmenting; else ("chain", x, q) holds the edge list of the plain chain
    when its path has fewer than L edges, or of the second-order chain
    through the first superb edge within the first L path positions whose
    second path has at most `second` edges.  _batch passes second = L;
    check_unimprovable passes L - 1 ("iterated": the audit fails on a
    second path shorter than L) or None ("simple": no second-order search,
    so the superb scan's module is not loaded, as it otherwise is by the
    first path of L edges or more).
    """
    used, full = c._used, c._full
    u, v, _ = c.graph.edges[e]
    for x, y in ((u, v), (v, u)):
        wanted = full & ~used[y]
        if not used[x] & (wanted & -wanted):
            return "free", x, e
        fan = _grow_fan(c, x, e)
        if full & ~(used[x] | used[fan[1][-1]]):
            return "fan", x, fan
        chain = _path_chain(c, Fan(x, *fan[:3], False, *fan[3:]))
        if len(chain.tail.edges) < L:
            return "chain", x, chain.edges()
        if second is not None:
            from .iterated import superb_scan
            for entry in superb_scan(c, chain, limit=L):
                if entry.superb and entry.second_len <= second:
                    return "chain", x, entry.edges()
    return None


def _apply(c: Colouring, batch: list[tuple]) -> int:
    """Write the plans of `batch` into c through _colour_free, _rotate_fan
    and augment_in_place, and return the number of edges recoloured.  The
    plans of a batch are vertex-disjoint, so each is still exact on c, and
    one that c refuses raises rather than being skipped."""
    xor = c.graph._xor
    recoloured = 0
    for kind, x, q in batch:
        if kind == "free":
            if c._colour_free(x, x ^ xor[q], q):
                recoloured += 1
                continue
        elif kind == "fan":
            if c._rotate_fan(x, q):
                recoloured += len(q[0])
                continue
        else:
            recoloured += c.augment_in_place(q)
            continue
        raise AssertionError(f"the {kind} plan around vertex {x} no longer applies")
    return recoloured


def _batch(c: Colouring, pending: list[int], L: int) -> list[tuple]:
    """The plans of a maximal set of vertex-disjoint short chains for the
    uncoloured edges in `pending`, probed greedily in that order against
    the current colouring.  An edge with an endpoint on an accepted plan is
    skipped without a probe, since any chain of its would touch it; so a
    free edge is accepted without a further test."""
    edges = c.graph.edges
    covered: set[int] = set()
    size = 0
    batch: list[tuple] = []
    for e in pending:
        u, v, _ = edges[e]
        if u in covered or v in covered:
            continue
        plan = _probe(c, e, L, L)
        if plan is None:
            continue
        kind, x, q = plan
        if kind == "free":
            verts = (u, v)
        else:
            n = len(q[0] if kind == "fan" else q)
            if n > 3 * L:
                raise AssertionError(f"chain of {n} edges exceeds the 3L budget ({3 * L})")
            verts = {x, *q[1]} if kind == "fan" else {w for f in q for w in edges[f][:2]}
            if not covered.isdisjoint(verts):
                continue
        covered.update(verts)
        size += len(verts)
        batch.append(plan)
    if size != len(covered):
        raise AssertionError("chains within a round must be vertex-disjoint")
    return batch


def run_scheduler(
    g: Multigraph,
    L: int,
    seed: int,
    max_rounds: int | None = None,
    log: TextIO | None = None,
) -> Colouring:
    """Colour g from scratch by rounds of short augmentations.

    The edges are shuffled once by `seed`.  Each round walks the
    still-uncoloured edges in that order and accepts, against one
    snapshot, the plan of every chain of at most 3L edges (see _probe)
    that shares no vertex with those accepted before it; then _apply
    writes them all.  Vertex-disjoint chains touch neither each other's
    edges nor each other's endpoint masks, so the order of application is
    irrelevant.  The run stops when a round finds no chain; the result
    then cannot be improved at scale L, which check_unimprovable
    re-verifies through _probe with the second-path bound L - 1.
    Requires L > 2*delta, so that chain modifications fit in 3L edges.

    When `log` is given, one JSON object is written per applied round,
    with keys augmented, recoloured, round and uncoloured_remaining; the
    final round that finds nothing is not logged.  Raises
    MaxRoundsExceeded, carrying the partial colouring and the rounds
    applied, when a round with work to do would go past max_rounds.
    """
    if L <= 2 * g.delta:
        raise ValueError(
            f"L={L} is too small: chain modifications must fit in 3L edges, "
            f"which needs L > 2*delta = {2 * g.delta}"
        )
    c = Colouring.empty(g)
    rounds = 0
    if log is not None:
        import json
    pending = list(range(g.m))
    random.Random(seed).shuffle(pending)
    colours = c.colours
    while True:
        pending = [e for e in pending if colours[e] == 0]
        batch = _batch(c, pending, L)
        if not batch:
            return c
        if max_rounds is not None and rounds >= max_rounds:
            raise MaxRoundsExceeded(c, rounds)
        recoloured = _apply(c, batch)
        if recoloured > 3 * L * len(batch):
            raise AssertionError("a round recoloured more than 3L edges per chain")
        rounds += 1
        if log is not None:
            log.write(
                json.dumps(
                    {
                        "round": rounds,
                        "augmented": len(batch),
                        "recoloured": recoloured,
                        "uncoloured_remaining": c.uncoloured_count,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


# ---------------------------------------------------------------------------
# Orientation
# ---------------------------------------------------------------------------


class Orientation:
    """A direction for every edge, as edge id -> (tail, head)."""

    __slots__ = ("direction",)

    def __init__(self, direction: dict[int, tuple[int, int]]):
        self.direction = direction

    def out_degree_counts(self) -> dict[int, int]:
        """Out-degree per vertex, counting only vertices with an out-edge."""
        counts: dict[int, int] = {}
        for tail, _ in self.direction.values():
            counts[tail] = counts.get(tail, 0) + 1
        return counts

    def max_out_degree(self) -> int:
        counts = self.out_degree_counts()
        return max(counts.values(), default=0)


def _orient_walk(
    g: Multigraph,
    incident: dict[int, list[int]],
    x: int,
    f: int,
    direction: dict[int, tuple[int, int]],
) -> None:
    """Orient the path or cycle component from x along its edge f, until the
    walk reaches a path end or closes the cycle; an edge already in
    `direction` stops it at once.  A vertex has at most two incident edges
    here, so the next edge is the one that is not f."""
    xor = g._xor
    while f not in direction:
        y = x ^ xor[f]
        direction[f] = (x, y)
        ends = incident[y]
        f = ends[-1] if ends[0] == f else ends[0]
        x = y


def orient(c: Colouring) -> Orientation:
    """Orient the edges of a fully coloured multiplicity-1 graph with max
    out-degree at most ceil((delta+2)/2).

    Colours are sorted and grouped into pairs (plus one leftover
    singleton when their number is odd).  A pair's union has max degree 2
    (checked), so it splits into paths and cycles, each oriented
    consistently: one out-edge per vertex per group at most.  A singleton
    group is a matching, oriented from the smaller endpoint.  With at most
    delta + 1 colours this gives at most ceil((delta+2)/2) groups.
    """
    g = c.graph
    if g.pi > 1:
        raise ValueError(
            f"graph has parallel edges (pi={g.pi}); orientation covers "
            "multiplicity 1 only"
        )
    if c.uncoloured_count:
        raise ValueError(
            f"{c.uncoloured_count} edges are uncoloured; orientation needs "
            "a full colouring"
        )
    classes: list[list[int]] = [[] for _ in range(g.palette + 1)]
    for e, col in enumerate(c.colours):
        classes[col].append(e)
    used = [col for col in range(1, g.palette + 1) if classes[col]]
    direction: dict[int, tuple[int, int]] = {}
    for i in range(0, len(used), 2):
        group = used[i : i + 2]
        # each class is in edge order; merge the pair's back into edge order
        members = sorted([e for col in group for e in classes[col]])
        if len(group) == 1:
            for e in members:
                u, v, _ = g.edges[e]
                direction[e] = (u, v)
            continue
        incident: dict[int, list[int]] = {}
        for e in members:
            u, v, _ = g.edges[e]
            incident.setdefault(u, []).append(e)
            incident.setdefault(v, []).append(e)
        if any(len(lst) > 2 for lst in incident.values()):
            raise AssertionError("a colour-pair union must split into paths and cycles")
        # paths from their smaller-numbered end, then each leftover cycle
        # from its smallest vertex along that vertex's smaller edge
        for start in sorted(w for w, lst in incident.items() if len(lst) == 1):
            _orient_walk(g, incident, start, incident[start][0], direction)
        for start in sorted(incident):
            _orient_walk(g, incident, start, incident[start][0], direction)
    return Orientation(direction=direction)
