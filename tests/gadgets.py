"""Hand-built instances with long tail paths and known second-level behaviour.

The skeleton is always the same: an uncoloured edge e = (x, a) whose fan at x
is [e, h1, h2] and stops on a repeated colour, giving alpha = 3, beta = 1 and
a tail path that alternates 3, 1, 3, ... along a chain of fresh vertices.
Path positions are then decorated to force a chosen classification:

  bare             far vertex has only its two path edges; the conditional
                   fan is [f] and stops with no next edge, giving Type0;
  type1            a pendant coloured 2 leads to a vertex w that uses every
                   colour except beta; the fan stops early at w, the chain is
                   not augmenting, and the second path, a fresh alpha/beta
                   path of `side` edges from w (one by default), is far
                   from the shift, so the edge is TypeI and superb;
  type1_unstable   like type1, but w's alpha-edge is spliced onto the path's
                   far end, so the second path runs back down the whole tail
                   and is cut short by the shift: TypeI, not superb;
  type2            (delta = 4 only) two pendants coloured 2 and 4; the fan
                   repeats colour epsilon = 2 at its last vertex, giving
                   TypeII with delta = 5, and both test paths are trivially
                   stable, so the edge is superb.

forked_type2_instance uses a variant skeleton whose first critical index is
the fan's last vertex, so the shift re-colours h2; its TypeII decoration
routes the second path through h2, which makes it unstable: not superb.

Every expected value recorded here was derived by hand from the colouring
rules; the tests compare library output against these records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from vizing import Colouring, Multigraph, build

__all__ = [
    "BARE",
    "TYPE1",
    "TYPE1_UNSTABLE",
    "TYPE2",
    "Decoration",
    "GadgetInstance",
    "LockedInstance",
    "locked_instance",
    "long_path_instance",
    "forked_type2_instance",
]

BARE = "bare"
TYPE1 = "type1"
TYPE1_UNSTABLE = "type1_unstable"
TYPE2 = "type2"


class _Builder:
    def __init__(self) -> None:
        self.triples: list[tuple[int, int, int]] = []
        self.cols: list[int] = []
        self.n = 0

    def vertex(self) -> int:
        self.n += 1
        return self.n - 1

    def edge(self, u: int, v: int, col: int) -> int:
        self.triples.append((u, v, 1))
        self.cols.append(col)
        return len(self.triples) - 1

    def finish(self) -> tuple[Multigraph, Colouring]:
        g = build(self.n, self.triples)
        return g, Colouring.from_assignment(g, self.cols)


@dataclass
class Decoration:
    """Expected behaviour of one decorated path position."""

    kind: str
    position: int
    f: int                      # the suitable edge (path edge at position)
    y: int                      # far vertex
    z: int                      # near vertex
    fan_edges: list[int]        # expected conditional fan
    expected_type: str          # "Type0" | "TypeI" | "TypeII"
    expected_superb: bool
    second_path: list[int] | None = None   # expected path under the input colouring
    w: int | None = None        # type1 family: the pendant's far vertex
    delta: int | None = None    # type2: smallest colour missing at y
    epsilon: int | None = None  # type2: repeated fan colour
    repeat_index: int | None = None


@dataclass
class GadgetInstance:
    g: Multigraph
    c: Colouring
    e: int
    x: int
    alpha: int
    beta: int
    fan_prefix: list[int]       # expected first-level fan prefix of the chain
    path_edges: list[int]       # expected tail path, in order
    q: list[int]                # path vertices, q[0] = path start
    decorations: dict[int, Decoration] = field(default_factory=dict)

    def suitable_positions(self) -> list[int]:
        # odd positions past the distance-4 ball around e, excluding the last
        # path edge
        return [p for p in range(5, len(self.path_edges), 2)]


def long_path_instance(
    T: int, decor: dict[int, str] | None = None, delta: int = 3, side: int = 1
) -> GadgetInstance:
    """The plain skeleton: fan [e, h1, h2], first critical index 0, tail of T
    edges from a.  decor maps odd positions in 5..T-1 to decoration kinds;
    each type1 decoration's second path has `side` edges.

    With a type1_unstable decoration the tail gains one extra edge at its far
    end (the splice), which the instance's path_edges includes.
    """
    decor = dict(decor or {})
    if T % 2 != 0 or T < 8:
        raise ValueError("T must be even and at least 8")
    if delta not in (3, 4):
        raise ValueError("delta must be 3 or 4")
    if side < 1:
        raise ValueError("a type1 side path needs at least one edge")
    for pos, kind in decor.items():
        if pos % 2 == 0 or pos < 5 or pos > T - 1:
            raise ValueError(f"position {pos} cannot host a decoration")
        if kind == TYPE2 and delta != 4:
            raise ValueError("type2 decorations need delta = 4")

    b = _Builder()
    x, a, bv, d = b.vertex(), b.vertex(), b.vertex(), b.vertex()
    e = b.edge(x, a, 0)
    b.edge(x, bv, 1)   # h1
    b.edge(x, d, 2)    # h2
    # d must use every colour of m(x) = {3, ...}, else the fan would be
    # augmenting (its last vertex would share a missing colour with x)
    b.edge(d, b.vertex(), 3)
    b.edge(d, b.vertex(), 4)
    if delta == 4:
        b.edge(d, b.vertex(), 5)
    q = [a] + [b.vertex() for _ in range(T)]
    path = [b.edge(q[t], q[t + 1], 3 if t % 2 == 0 else 1) for t in range(T)]

    inst = GadgetInstance(
        g=None, c=None, e=e, x=x, alpha=3, beta=1,  # type: ignore[arg-type]
        fan_prefix=[e], path_edges=list(path), q=q,
    )
    splice_used = False
    for pos in sorted(decor):
        kind = decor[pos]
        y, z = q[pos], q[pos - 1]
        f = path[pos - 1]
        if kind == BARE:
            info = Decoration(kind, pos, f, y, z, [f], "Type0", True)
        elif kind == TYPE1:
            w = b.vertex()
            pend = b.edge(y, w, 2)
            # w misses only beta = 1, so its second path is the alpha/beta
            # walk from w: alpha 3 first, along fresh bare vertices
            sec, s = [], w
            for t in range(side):
                nxt = b.vertex()
                sec.append(b.edge(s, nxt, 3 if t % 2 == 0 else 1))
                s = nxt
            b.edge(w, b.vertex(), 4)
            if delta == 4:
                b.edge(w, b.vertex(), 5)
            info = Decoration(
                kind, pos, f, y, z, [f, pend], "TypeI", True,
                second_path=sec, w=w,
            )
        elif kind == TYPE1_UNSTABLE:
            if splice_used:
                raise ValueError("only one type1_unstable decoration fits")
            splice_used = True
            w = b.vertex()
            pend = b.edge(y, w, 2)
            splice = b.edge(w, q[T], 3)
            b.edge(w, b.vertex(), 4)
            if delta == 4:
                b.edge(w, b.vertex(), 5)
            # the second path runs from w over the splice and back down the
            # whole tail, ending at a; the splice also extends the tail
            sec = [splice] + [path[t] for t in range(T - 1, -1, -1)]
            info = Decoration(
                kind, pos, f, y, z, [f, pend], "TypeI", False,
                second_path=sec, w=w,
            )
            inst.path_edges = path + [splice]
        elif kind == TYPE2:
            w1, w2 = b.vertex(), b.vertex()
            p1 = b.edge(y, w1, 2)
            p2 = b.edge(y, w2, 4)
            b.edge(w1, b.vertex(), 1)
            b.edge(w1, b.vertex(), 3)
            b.edge(w2, b.vertex(), 1)
            b.edge(w2, b.vertex(), 3)
            b.edge(w2, b.vertex(), 5)
            info = Decoration(
                kind, pos, f, y, z, [f, p1, p2], "TypeII", True,
                second_path=[], delta=5, epsilon=2, repeat_index=0,
            )
        else:
            raise ValueError(f"unknown decoration kind {kind!r}")
        inst.decorations[pos] = info

    inst.g, inst.c = b.finish()
    return inst


def forked_type2_instance(T: int, pos: int) -> GadgetInstance:
    """Variant skeleton (delta = 4) whose first critical index is the fan's
    last vertex: the j-side path a - b - x ends at x, so the chain keeps the
    whole fan [e, h1, h2] and the tail starts at d.  The shift therefore
    re-colours h2, and the TypeII decoration at ``pos`` routes its second
    path through h2: the edge is TypeII but not superb.
    """
    if T % 2 != 0 or T < 8:
        raise ValueError("T must be even and at least 8")
    if pos % 2 == 0 or pos < 5 or pos > T - 1:
        raise ValueError(f"position {pos} cannot host the decoration")

    b = _Builder()
    x, a, bv, d = b.vertex(), b.vertex(), b.vertex(), b.vertex()
    e = b.edge(x, a, 0)
    h1 = b.edge(x, bv, 1)
    h2 = b.edge(x, d, 2)
    b.edge(a, bv, 3)                 # sends the j-side path into x
    x5 = b.edge(x, b.vertex(), 5)
    b.edge(d, b.vertex(), 4)         # keeps the fan non-augmenting at d
    q = [d] + [b.vertex() for _ in range(T)]
    path = [b.edge(q[t], q[t + 1], 3 if t % 2 == 0 else 1) for t in range(T)]

    y, z = q[pos], q[pos - 1]
    f = path[pos - 1]
    w1, w2 = b.vertex(), b.vertex()
    p1 = b.edge(y, w1, 2)
    p2 = b.edge(y, w2, 4)
    b.edge(w1, b.vertex(), 1)
    b.edge(w1, b.vertex(), 3)
    b.edge(w2, b.vertex(), 1)
    b.edge(w2, b.vertex(), 3)
    r, s = b.vertex(), b.vertex()
    wr = b.edge(w2, r, 5)
    rs = b.edge(r, s, 2)
    sd = b.edge(s, d, 5)
    # second path from w2: detour to d, through h2 into x, out along x's
    # 5-edge; the shift turns h2's colour into 3, cutting the path at d
    sec = [wr, rs, sd, h2, x5]

    inst = GadgetInstance(
        g=None, c=None, e=e, x=x, alpha=3, beta=1,  # type: ignore[arg-type]
        fan_prefix=[e, h1, h2], path_edges=list(path), q=q,
    )
    inst.decorations[pos] = Decoration(
        TYPE2, pos, f, y, z, [f, p1, p2], "TypeII", False,
        second_path=sec, delta=5, epsilon=2, repeat_index=0,
    )
    inst.g, inst.c = b.finish()
    return inst


@dataclass
class LockedInstance:
    """An uncoloured edge e = (x, a) with no short improvement anywhere: the
    fans at both endpoints stall on a repeated colour without augmenting,
    and both tails are plain alternating paths of T edges ending at bare
    vertices.  Odd tail positions from 5 on are bare suitable edges (Type0),
    so for L below 5 the instance cannot be improved at either level, while
    for 5 <= L <= T only the second level finds an improvement.
    """

    g: Multigraph
    c: Colouring
    e: int
    x: int
    a: int
    fan_x: list[int]        # expected maximal fan around x
    fan_a: list[int]        # expected maximal fan around a
    x_tail: list[int]       # expected tail path of the chain at x (alpha 3 / beta 1)
    a_tail: list[int]       # expected tail path of the chain at a (alpha 1 / beta 3)
    T: int


def locked_instance(T: int = 2) -> LockedInstance:
    """Delta = 4, palette 5.  x misses {3,4,5} and a misses {1,5}; the far
    endpoints of both fans are saturated so that after any fan shift the
    pivot and the last far vertex share no missing colour.  Both tails
    alternate along fresh bare vertices for T edges.
    """
    if T < 2:
        raise ValueError("T must be at least 2")
    b = _Builder()
    x, a = b.vertex(), b.vertex()
    p1, p2 = b.vertex(), b.vertex()
    r1, r2, r3 = b.vertex(), b.vertex(), b.vertex()
    e = b.edge(x, a, 0)
    x1 = b.edge(x, p1, 1)
    x2 = b.edge(x, p2, 2)
    a2 = b.edge(a, r1, 2)
    a3 = b.edge(a, r2, 3)
    b.edge(a, r3, 4)
    # tail at a: 1, 3, 1, 3, ... from x over p1 into fresh vertices
    a_tail = [x1]
    u = b.vertex()
    a_tail.append(b.edge(p1, u, 3))
    for t in range(2, T):
        nxt = b.vertex()
        a_tail.append(b.edge(u, nxt, 1 if t % 2 == 0 else 3))
        u = nxt
    # p1 misses only 2 (demanding x2 into the fan), p2 misses only 1 (the
    # repeat that stops it)
    b.edge(p1, b.vertex(), 4)
    b.edge(p1, b.vertex(), 5)
    b.edge(p2, b.vertex(), 3)
    b.edge(p2, b.vertex(), 4)
    b.edge(p2, b.vertex(), 5)
    # tail at x: 3, 1, 3, 1, ... from a over r2 into fresh vertices
    x_tail = [a3]
    w = b.vertex()
    x_tail.append(b.edge(r2, w, 1))
    for t in range(2, T):
        nxt = b.vertex()
        x_tail.append(b.edge(w, nxt, 3 if t % 2 == 0 else 1))
        w = nxt
    # r1 misses {3,4} (3 is the repeat stopping the fan at a), r2 misses {2,4}
    b.edge(r1, b.vertex(), 1)
    b.edge(r1, b.vertex(), 5)
    b.edge(r2, b.vertex(), 5)
    g, c = b.finish()
    return LockedInstance(
        g=g, c=c, e=e, x=x, a=a,
        fan_x=[e, x1, x2], fan_a=[e, a3, a2],
        x_tail=x_tail, a_tail=a_tail, T=T,
    )
