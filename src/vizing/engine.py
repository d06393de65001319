"""Colouring drivers: sequential colourer, round scheduler, orientation.

Three ways to put the chain machinery to work:

  * colour_sequential colours every edge of a finite multigraph in exactly
    m augmentations, one per edge, giving a full proper colouring with
    delta + pi colours.  An edge whose fan is the edge alone is coloured
    on the spot; only the others get a chain built;

  * run_scheduler colours in rounds, each applying a greedy maximal set
    of vertex-disjoint chains of at most 3L edges: plain chains whose path
    is shorter than L, or second-order chains through a superb edge within
    the first L path positions whose second path is also short.  It stops
    once a round finds no such chain, leaving a colouring that cannot be
    improved at scale L -- the state the audit module's fraction bounds
    apply to.  A chain that is the edge alone is applied as
    colour_sequential applies it: augment_in_place colours it without
    shift logs, and the round takes its two ends without a vertex set;

  * orient turns a full colouring of a multiplicity-1 graph into an edge
    orientation with out-degree at most ceil((delta+2)/2), by pairing
    colour classes into unions of paths and cycles and orienting each
    component consistently.

The chains applied within one round are vertex-disjoint (checked), so the
result does not depend on application order.  Everything is deterministic
given (graph, L, seed); round logs are emitted as JSON lines with stable
keys.
"""

from __future__ import annotations

import random
from typing import TextIO

from .chains import _free_colour, vizing_chain
from .colouring import Colouring
from .multigraph import Multigraph

__all__ = [
    "MaxRoundsExceeded",
    "Orientation",
    "ScheduleState",
    "colour_sequential",
    "orient",
    "run_scheduler",
]


# ---------------------------------------------------------------------------
# Sequential colouring
# ---------------------------------------------------------------------------


def colour_sequential(g: Multigraph) -> Colouring:
    """A full proper colouring of g in exactly m augmentations.

    Edges are handled in index order; each is augmented along the chain
    from its smaller endpoint x (edge triples store that endpoint first).
    When x misses the smallest colour missing at the other endpoint, the
    fan and so the chain are the edge alone (see chains._free_colour): the
    edge takes that colour directly and no chain is built.  Augmentation
    recolours but never uncolours, so every edge is uncoloured when its
    turn comes and coloured for good afterwards.
    """
    c = Colouring.empty(g)
    edges = g.edges
    for e in range(g.m):
        x = edges[e][0]
        col = _free_colour(c, x, e)
        if col:
            c.assign(e, col)
        else:
            c.augment_in_place(vizing_chain(c, x, e).edges())
    return c


# ---------------------------------------------------------------------------
# The round scheduler
# ---------------------------------------------------------------------------


class ScheduleState:
    """Scheduler progress, dumped when the round budget runs out: the
    colouring so far, the scale L, rounds applied, and per-round
    recoloured-edge counts."""

    __slots__ = ("colouring", "L", "round", "changed_log")

    def __init__(
        self, colouring: Colouring, L: int, round: int, changed_log: list[int] | None = None
    ):
        self.colouring = colouring
        self.L = L
        self.round = round
        self.changed_log = [] if changed_log is None else changed_log


class MaxRoundsExceeded(RuntimeError):
    """The scheduler hit its round budget before settling; `state` holds
    the partial colouring and round statistics at the point of failure."""

    def __init__(self, state: ScheduleState):
        self.state = state
        super().__init__(
            f"scheduler stopped after {state.round} rounds with "
            f"{state.colouring.uncoloured_count} edges still uncoloured"
        )


def _candidate_chain(c: Colouring, e: int, L: int) -> list[int] | None:
    """The edge sequence to augment for e at scale L, or None when every
    route is too long.

    Witnesses are tried smallest first: for each endpoint, the plain chain
    qualifies when its fan is augmenting (no path at all) or its path has
    fewer than L edges; otherwise the first superb edge within the first L
    path positions whose second path has at most L edges supplies the
    second-order chain.  An edge whose fan is the edge alone is its own
    chain, returned without building one.  The superb scan's module is
    loaded by the first tail of L edges or more.
    """
    u, v, _ = c.graph.edges[e]
    for x in (u, v):
        if _free_colour(c, x, e):
            return [e]
        chain = vizing_chain(c, x, e)
        if chain.tail is None or len(chain.tail.edges) < L:
            return chain.edges()
        from .iterated import superb_scan

        for entry in superb_scan(c, chain, limit=L):
            if entry.superb and entry.second_len <= L:
                return entry.edges()
    return None


def _batch(c: Colouring, pending: list[int], L: int) -> list[list[int]]:
    """A maximal set of vertex-disjoint short chains for the uncoloured
    edges in `pending`, taken greedily in that order against the current
    colouring.  An edge with an endpoint on an accepted chain is skipped
    without computing its chain, since any chain of its would touch it; so
    a chain that is the edge alone is accepted without a further test."""
    edges = c.graph.edges
    covered: set[int] = set()
    size = 0
    batch: list[list[int]] = []
    for e in pending:
        u, v, _ = edges[e]
        if u in covered or v in covered:
            continue
        q = _candidate_chain(c, e, L)
        if q is None:
            continue
        if len(q) > 3 * L:
            raise AssertionError(
                f"chain of {len(q)} edges exceeds the 3L budget ({3 * L})"
            )
        verts = (u, v) if len(q) == 1 else {w for f in q for w in edges[f][:2]}
        if len(q) == 1 or covered.isdisjoint(verts):
            covered.update(verts)
            size += len(verts)
            batch.append(q)
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
    snapshot, every chain of at most 3L edges (see _candidate_chain) that
    shares no vertex with the chains accepted before it; then it applies
    them all.  Vertex-disjoint chains touch neither each other's edges
    nor each other's endpoint masks, so the order of application is
    irrelevant.  The run stops when a round finds no chain; the result
    then cannot be improved at scale L, which check_unimprovable
    re-verifies.  Requires L > 2*delta, so that chain modifications fit
    in 3L edges.

    When `log` is given, one JSON object is written per applied round,
    with keys augmented, recoloured, round and uncoloured_remaining; the
    final round that finds nothing is not logged.  Raises
    MaxRoundsExceeded (carrying the state) when a round with work to do
    would go past max_rounds.
    """
    if L <= 2 * g.delta:
        raise ValueError(
            f"L={L} is too small: chain modifications must fit in 3L edges, "
            f"which needs L > 2*delta = {2 * g.delta}"
        )
    c = Colouring.empty(g)
    state = ScheduleState(colouring=c, L=L, round=0)
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
        if max_rounds is not None and state.round >= max_rounds:
            raise MaxRoundsExceeded(state)
        recoloured = 0
        for q in batch:
            recoloured += c.augment_in_place(q)
        if recoloured > 3 * L * len(batch):
            raise AssertionError("a round recoloured more than 3L edges per chain")
        state.round += 1
        state.changed_log.append(recoloured)
        if log is not None:
            log.write(
                json.dumps(
                    {
                        "round": state.round,
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
    edges = g.edges
    while f not in direction:
        u, v, _ = edges[f]
        y = v if x == u else u
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
