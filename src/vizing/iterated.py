"""Second-level augmenting chains built through a distant edge of the tail path.

When an uncoloured edge's fan is not augmenting, the ordinary chain ends in an
alternating path.  Instead of augmenting along that path directly, one can
pick a *suitable* edge f on it (far from the start, not the last edge, and
carrying the path's primary colour alpha), imagine shifting the chain up to f
so that f becomes uncoloured, and grow a second fan around f's far endpoint y.
superb_scan, used by the audits and the scheduler, lists the eligible path
edges and builds the second level for each of them in path order:

  * the conditional fan around y is defined against the *original*
    colouring: availability uses the original missing sets, and the fan
    additionally stops early upon reaching a far endpoint whose missing set
    contains alpha or beta.  Its defining property is that this fan is a
    prefix of the ordinary fan around y computed under the shifted colouring
    with beta reordered to be the largest colour (the tests check it);

  * the classification sorts a suitable edge into Type0 (chain-so-far
    already augmenting), TypeI (beta missing at the fan's last far
    endpoint), or TypeII (the fan stopped on a repeated colour epsilon;
    delta is the smallest colour missing at y).  The Type0 test shifts
    nothing: it reads the missing masks of y and the fan's last far endpoint
    under the original colouring, adds alpha, which the shift through f
    frees at y, and intersects them;

  * the superb test checks that the second alternating path (for TypeII,
    both candidate paths) is unaffected by the shift: the paths are walked
    on the colouring itself and again under a small overlay holding the
    shifted chain's colours.  The overlay grows one path segment per
    suitable edge, because shift composition makes consecutive shifted
    colourings differ only on that segment, so a full scan costs about one
    pass over the path rather than one shift per suitable edge.  The scan
    never writes to the colouring;

  * a superb edge's scan entry is its chain: everything before f, then the
    conditional fan (cut at the second critical index for TypeII), then the
    second alternating path, joined by its edges() on demand.

Everything is deterministic; minimal-colour choices use the natural order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .colouring import Colouring
from .chains import AlternatingPath, VizingChain, _grow_fan, _walk
from .multigraph import line_distances

__all__ = [
    "SuitableType",
    "SuitableEdge",
    "ConditionalFan",
    "Classification",
    "ScanEntry",
    "superb_scan",
]


class SuitableType(enum.Enum):
    """Classification of a suitable edge by how its conditional fan ends."""

    TYPE0 = "Type0"
    TYPE1 = "TypeI"
    TYPE2 = "TypeII"


@dataclass(frozen=True)
class SuitableEdge:
    """An eligible path edge f: far from the chain's start (line-graph
    distance > 4), not the path's last edge, and coloured alpha.

    position is 1-based within the tail path, so the path prefix of that
    length ends with f.  far_vertex (y) is f's endpoint farther along the
    path; near_vertex (z) is the closer one.
    """

    edge: int
    position: int
    far_vertex: int
    near_vertex: int


@dataclass
class ConditionalFan:
    """The fan grown around far_vertex = y, starting at the suitable edge.

    edges = (g_0, ..., g_m) all contain y, with far endpoints (u_0, ..., u_m)
    and colour_seq the chosen colours (c(g_{i+1}) for i < m).  Stops:

      * early_stop: the newest far endpoint has alpha or beta missing
        (next_colour is then None);
      * otherwise maximal: the wanted colour (next_colour) has no edge at y
        (repeat_pos None) or that edge already sits in the fan (repeat_pos
        its position).
    """

    centre: int
    edges: list[int]
    far_endpoints: list[int]
    colour_seq: list[int]
    next_colour: int | None
    repeat_pos: int | None

    @property
    def early_stop(self) -> bool:
        return self.next_colour is None


@dataclass
class Classification:
    """A suitable edge's type together with its colour witnesses.

    alpha/beta are the tail path's colours.  For TypeII, delta is the
    smallest colour missing at y, epsilon the repeated fan colour, and
    repeat_index the earlier fan index that chose epsilon; all four colours
    are pairwise distinct.
    """

    type_tag: SuitableType
    fan: ConditionalFan
    alpha: int
    beta: int
    delta: int | None = None
    epsilon: int | None = None
    repeat_index: int | None = None


@dataclass(slots=True)
class ScanEntry:
    """One suitable edge's verdict from :func:`superb_scan`; a superb
    entry's :meth:`edges` is its second-level augmenting chain.

    second_path is the second alternating path computed under the *input*
    colouring: absent for Type0 (whose second path is empty by convention)
    and for non-superb TypeII edges whose candidate paths both end at y.
    second_critical_index is the fan index it starts from (None without it).
    """

    suitable: SuitableEdge
    classification: Classification
    superb: bool
    second_path: AlternatingPath | None
    second_critical_index: int | None
    _first_level: list[int] = field(repr=False)
    _cut: int = field(repr=False)

    @property
    def second_len(self) -> int:
        """Edges on the second path (0 when there is none)."""
        return 0 if self.second_path is None else len(self.second_path.edges)

    def edges(self) -> list[int]:
        """A new list: the first-level chain (shared by the scan's entries)
        cut just before the suitable edge, the conditional fan (through the
        second critical index for TypeII), then the second path.  ValueError
        when the edge is not superb."""
        return self._first_level[: self._cut] + self._second_level()

    def _second_level(self) -> list[int]:
        """The chain's own part after the first-level cut: the conditional
        fan (through the second critical index for TypeII), then the second
        path.  The cuts grow in scan order, so the union of a scan's chains
        is the last superb cut's prefix plus every superb entry's own part.
        ValueError when the edge is not superb."""
        if not self.superb:
            raise ValueError(
                f"edge {self.suitable.edge} is suitable but not superb; its chain is undefined"
            )
        cls = self.classification
        fan = cls.fan.edges
        if cls.type_tag is SuitableType.TYPE2:
            if self.second_path is None:  # unreachable for a superb edge
                raise AssertionError("both candidate second paths end at the centre")
            fan = fan[: self.second_critical_index + 1]
        return fan if self.second_path is None else fan + self.second_path.edges


# ---------------------------------------------------------------------------
# Context shared by every operation on one (c, x, e)
# ---------------------------------------------------------------------------


class _Context:
    """First-level chain data reused across suitable-edge operations."""

    __slots__ = (
        "c", "alpha", "beta",
        "path_edges", "path_vertices", "prefix_len", "chain_edges",
        "fan_vertices", "near_e",
    )

    def __init__(self, c: Colouring, vc: VizingChain):
        if vc.tail is None:
            raise ValueError(
                "the fan around the edge is augmenting; there is no tail path "
                "to pick suitable edges from"
            )
        self.c = c
        self.alpha = vc.alpha
        self.beta = vc.beta
        self.path_edges = vc.tail.edges
        self.prefix_len = vc.fan_prefix_len
        self.chain_edges = vc.edges()
        # the vertices whose missing masks the first-level fan's shift moves
        self.fan_vertices = {vc.fan.centre, *vc.fan.far_endpoints[: self.prefix_len]}
        # vertices along the tail path: path_vertices[t] is where edge t starts
        verts = [vc.tail.start_vertex]
        g = c.graph
        for h in self.path_edges:
            verts.append(g.other(h, verts[-1]))
        self.path_vertices = verts
        self.near_e = line_distances(g, vc.fan.edges[0], 4)

    def suitables(self, limit: int | None) -> list[SuitableEdge]:
        last = len(self.path_edges) - 1
        stop = last if limit is None else min(limit, last)
        out = []
        for t in range(0, stop, 2):  # alpha-coloured edges sit at even offsets
            f = self.path_edges[t]
            if f not in self.near_e:
                out.append(
                    SuitableEdge(
                        edge=f,
                        position=t + 1,
                        far_vertex=self.path_vertices[t + 1],
                        near_vertex=self.path_vertices[t],
                    )
                )
        return out


# ---------------------------------------------------------------------------
# Conditional fans and classification
# ---------------------------------------------------------------------------


def _conditional_fan(ctx: _Context, su: SuitableEdge) -> ConditionalFan:
    # the near vertex sits between two path edges coloured alpha and beta,
    # so the early-stop condition cannot trigger at step 0
    c, near = ctx.c, su.near_vertex
    if c.is_missing(near, ctx.alpha) or c.is_missing(near, ctx.beta):
        raise AssertionError("the suitable edge's near vertex misses a path colour")
    stop = (1 << (ctx.alpha - 1)) | (1 << (ctx.beta - 1))
    edges, far, colour_seq, next_colour, repeat_pos = _grow_fan(
        c, su.far_vertex, su.edge, stop_mask=stop
    )
    return ConditionalFan(
        centre=su.far_vertex,
        edges=edges,
        far_endpoints=far,
        colour_seq=colour_seq,
        next_colour=next_colour,
        repeat_pos=repeat_pos,
    )


def _classify(ctx: _Context, su: SuitableEdge) -> Classification:
    fan = _conditional_fan(ctx, su)
    c, alpha, beta = ctx.c, ctx.alpha, ctx.beta
    y = su.far_vertex
    u_m = fan.far_endpoints[-1]
    if _first_segment_augmenting(ctx, su, fan):
        return Classification(SuitableType.TYPE0, fan, alpha, beta)
    if c.is_missing(u_m, beta):
        # were alpha missing at u_m too, the chain would have been augmenting
        if c.is_missing(u_m, alpha):
            raise AssertionError("a TypeI fan end misses both path colours")
        return Classification(SuitableType.TYPE1, fan, alpha, beta)
    # the fan neither stopped early nor ran out of edges at y (a no-edge stop
    # makes the chain augmenting), so a repeated colour forced the stop
    if fan.early_stop or fan.repeat_pos is None:
        raise AssertionError("a TypeII fan did not stop on a repeated colour")
    i = fan.repeat_pos - 1
    epsilon = fan.next_colour
    delta = c.min_missing(y)
    if fan.colour_seq[i] != epsilon:
        raise AssertionError("the TypeII repeat edge does not carry epsilon")
    if delta == epsilon or {delta, epsilon} & {alpha, beta}:
        raise AssertionError("the TypeII colours are not pairwise distinct")
    return Classification(
        SuitableType.TYPE2, fan, alpha, beta,
        delta=delta, epsilon=epsilon, repeat_index=i,
    )


def _first_segment_augmenting(
    ctx: _Context, su: SuitableEdge, fan: ConditionalFan
) -> bool:
    """Is (chain before f) + (conditional fan) augmenting, i.e. do y and the
    fan's last far endpoint u_m share a missing colour after that shift?

    The chain is proper-shiftable (the shadow-fan property guarantees it), so
    only the missing masks of y and u_m after the shift matter, and they are
    read off the original colouring's masks in O(1):

      * shifting the first-level chain through f uncolours f (colour alpha)
        and recolours its predecessor on the path from beta to alpha, so
        alpha becomes missing at y and beta at the near vertex z.  The path
        edge after f keeps beta at y, so the beta freed at z is never
        missing at y and needs no term;
      * every other vertex the fan can reach keeps its mask: the shift
        changes masks elsewhere only at x and the first-level fan's far
        endpoints, each an endpoint of a fan edge sharing x with e.  Were
        u_m one of them, the fan edge from y to u_m would put f within line
        distance 3 of e, but f lies beyond 4;
      * the fan's own shift permutes the colours at y, and changes u_m's
        mask only by fan colours, which are all used at y, so neither
        change touches a colour missing at both.
    """
    u_m = fan.far_endpoints[-1]
    if u_m in ctx.fan_vertices:
        raise AssertionError("the conditional fan reached the first-level fan")
    at_y = ctx.c.missing_mask(su.far_vertex) | (1 << (ctx.alpha - 1))
    return bool(at_y & ctx.c.missing_mask(u_m))


# ---------------------------------------------------------------------------
# Superb tests and the scan
# ---------------------------------------------------------------------------


def _second_paths(
    c: Colouring, cls: Classification
) -> tuple[list[AlternatingPath], AlternatingPath | None, int | None]:
    """The alternating paths a superb test must compare, walked under the
    input colouring, plus the chain's second path and second critical index
    when determined.

    TypeI compares one alpha/beta path from the last far endpoint; its path
    is also the chain's second path.  TypeII compares delta/epsilon paths
    from both the repeated index's far endpoint and the last one; the chain
    uses whichever avoids y (preferring the earlier index).
    """
    fan = cls.fan
    last = len(fan.edges) - 1
    if cls.type_tag is SuitableType.TYPE1:
        p = _walk(c.graph, c.colours, fan.far_endpoints[-1], cls.alpha, cls.beta)
        return [p], p, last
    p_i, p_m = (
        _walk(c.graph, c.colours, fan.far_endpoints[q], cls.delta, cls.epsilon)
        for q in (cls.repeat_index, last)
    )
    # delta is missing at y, so y can only be an endpoint of a
    # delta/epsilon path and the last-vertex test decides avoidance
    if p_i.last_vertex != fan.centre:
        return [p_i, p_m], p_i, cls.repeat_index
    if p_m.last_vertex != fan.centre:
        return [p_i, p_m], p_m, last
    return [p_i, p_m], None, None


class _Shifted(dict):
    """Edge colours under the shift of a first-level chain prefix, with c
    left as it is: the shifted edges' colours, and c's for every other edge.

    The two checks a real shift would make stay explicit raises:
    :meth:`advance` rejects an improper shift, and :meth:`stable` a second
    path whose start no longer misses its second colour (the precondition
    of the walk, ``chains._walk``).
    """

    __slots__ = ("c",)

    def __init__(self, c: Colouring):
        super().__init__()
        self.c = c

    def __missing__(self, e: int) -> int:
        return self.c.colours[e]

    def advance(self, seg: list[int]) -> None:
        """Extend the shift along ``seg``, whose first edge is the last one
        shifted so far (or the chain's first edge).  Raises the ValueErrors
        of the shift in :meth:`Colouring.augment_in_place`: a repeated edge,
        an uncoloured edge after the first, or a colour already used at an
        endpoint."""
        _old, new = self.c._shift_logs(seg)
        colours, get = self.c.colours, self.get
        adj, ends = self.c.graph.adj, self.c.graph.edges
        # as Colouring._recolour does: free the segment's colours, then
        # place each new colour only where it is free
        for h, _col in new:
            self[h] = 0
        for h, col in new:
            if col:
                u, v, _ = ends[h]
                for other in adj[u] + adj[v]:
                    if get(other, colours[other]) == col:
                        raise ValueError(
                            f"colour {col} already used at an endpoint of edge {h}"
                        )
                self[h] = col

    def stable(self, paths: list[AlternatingPath]) -> bool:
        """Does every path come out the same when walked under the shift?"""
        g = self.c.graph
        for p in paths:
            if any(self[h] == p.beta for h in g.adj[p.start_vertex]):
                raise ValueError(
                    f"colour {p.beta} is not missing at vertex {p.start_vertex}"
                )
            if _walk(g, self, p.start_vertex, p.alpha, p.beta).edges != p.edges:
                return False
        return True


def superb_scan(
    c: Colouring,
    chain: VizingChain,
    limit: int | None = None,
):
    """Classify and superb-test every suitable edge of one tail path.

    ``chain`` is the first-level chain ``vizing_chain(c, x, e)`` of the
    probe, built by the caller under the current colouring and passed down
    so the scan does not derive it again; a chain without a tail (augmenting
    fan) raises ValueError on the first step.  Yields a :class:`ScanEntry`
    per suitable edge among the first ``limit`` path edges, in path order;
    a superb entry's ``edges()`` is its second-level chain.  The scan only
    reads c, so stopping early needs no clean-up.  Each
    edge's second paths are walked on c and again under an overlay of the
    shifted chain's colours, which grows by the segment since the previous
    suitable edge (shift composition), so the whole scan reads the path once
    instead of shifting it once per suitable edge.  A stale chain whose
    shift c no longer admits (an uncoloured edge after the first, or an
    improper result) raises ValueError, as the shift would.
    """
    ctx = _Context(c, chain)
    shifted = _Shifted(c)
    # the overlay holds the shift of chain_edges[:end] (the identity while
    # end is 1: the first edge is uncoloured); each segment starts at the
    # last edge shifted so far
    end = 1
    for su in ctx.suitables(limit):
        target = ctx.prefix_len + su.position
        shifted.advance(ctx.chain_edges[end - 1 : target])
        end = target
        cls = _classify(ctx, su)
        if cls.type_tag is SuitableType.TYPE0:
            superb, sec, j = True, None, None
        else:
            paths, sec, j = _second_paths(c, cls)
            superb = shifted.stable(paths)
        yield ScanEntry(
            su, cls, superb, sec, j, ctx.chain_edges, ctx.prefix_len + su.position - 1
        )
