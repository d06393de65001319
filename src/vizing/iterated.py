"""Second-level augmenting chains built through a distant edge of the tail path.

When an uncoloured edge's fan is not augmenting, the ordinary chain ends in an
alternating path.  Instead of augmenting along that path directly, one can
pick a *suitable* edge f on it (far from the start, not the last edge, and
carrying the path's primary colour alpha), imagine shifting the chain up to f
so that f becomes uncoloured, and grow a second fan around f's far endpoint y.
superb_scan, used by the audits and the scheduler, lists the eligible path
edges one at a time, deriving the path's vertices only up to its window, and
builds the second level for each of them in path order:

  * the conditional fan around y is a :class:`chains.Fan` grown against the
    *original* colouring: availability uses the original missing sets, and
    the fan additionally stops early upon reaching a far endpoint whose
    missing set contains alpha or beta (its next_colour is then None).  Its
    defining property is that this fan is a prefix of the ordinary fan
    around y computed under the shifted colouring with beta reordered to be
    the largest colour (the tests check it);

  * the classification sorts a suitable edge into Type0 (chain-so-far
    already augmenting), TypeI (beta missing at the fan's last far
    endpoint), or TypeII (the fan stopped on a repeated colour epsilon;
    delta is the smallest colour missing at y).  The Type0 test shifts
    nothing: it reads the used masks of y and the fan's last far endpoint
    under the original colouring, adds alpha, which the shift through f
    frees at y, to y's missing colours, and intersects them.  The fan's
    augmenting flag records that test, so Type0 holds exactly when the flag
    is set; TypeII takes its repeated pair from repeated_colour_indices, as
    a first-level chain does.  The fan and the classification read the
    colouring's masks directly, with the alpha|beta stop mask computed once
    per scan;

  * the superb test checks that the second alternating path (for TypeII,
    both candidate paths) is unaffected by the shift: the paths are walked
    on the colouring itself and again under a small overlay holding the
    shifted chain's colours.  The overlay grows one path segment per
    suitable edge, because shift composition makes consecutive shifted
    colourings differ only on that segment, so a full scan costs about one
    pass over the path rather than one shift per suitable edge.  Each step
    writes the segment's shifted colours straight into the overlay, with no
    shift logs, and still checks the cut as a shift would: an uncoloured
    edge after the first, a repeated edge or an improper result raises the
    shift's ValueError.  The scan never writes to the colouring;

  * a superb edge's scan entry is its chain: everything before f, then the
    conditional fan (cut at the second critical index for TypeII), then the
    second alternating path, joined by its edges() on demand.

Everything is deterministic; minimal-colour choices use the natural order.
"""

from __future__ import annotations

import enum

from .colouring import Colouring
from .chains import AlternatingPath, Fan, VizingChain, _grow_fan, _walk, repeated_colour_indices
from .multigraph import line_distances

__all__ = [
    "SuitableType",
    "SuitableEdge",
    "Classification",
    "ScanEntry",
    "superb_scan",
]


class SuitableType(enum.Enum):
    """Classification of a suitable edge by how its conditional fan ends."""

    TYPE0 = "Type0"
    TYPE1 = "TypeI"
    TYPE2 = "TypeII"


class SuitableEdge:
    """An eligible path edge f: far from the chain's start (line-graph
    distance > 4), not the path's last edge, and coloured alpha.

    position is 1-based within the tail path, so the path prefix of that
    length ends with f.  far_vertex (y) is f's endpoint farther along the
    path; near_vertex (z) is the closer one.  Two suitable edges are equal
    when all four fields are.
    """

    __slots__ = ("edge", "position", "far_vertex", "near_vertex")

    def __init__(self, edge: int, position: int, far_vertex: int, near_vertex: int):
        self.edge = edge
        self.position = position
        self.far_vertex = far_vertex
        self.near_vertex = near_vertex

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.edge, self.position, self.far_vertex, self.near_vertex) == (
            other.edge, other.position, other.far_vertex, other.near_vertex
        )


class Classification:
    """A suitable edge's type together with its colour witnesses.

    alpha/beta are the tail path's colours.  For TypeII, delta is the
    smallest colour missing at y, epsilon the repeated fan colour, and
    repeat_index the earlier fan index that chose epsilon; all four colours
    are pairwise distinct.
    """

    __slots__ = ("type_tag", "fan", "alpha", "beta", "delta", "epsilon", "repeat_index")

    def __init__(
        self,
        type_tag: SuitableType,
        fan: Fan,
        alpha: int,
        beta: int,
        delta: int | None = None,
        epsilon: int | None = None,
        repeat_index: int | None = None,
    ):
        self.type_tag = type_tag
        self.fan = fan
        self.alpha = alpha
        self.beta = beta
        self.delta = delta
        self.epsilon = epsilon
        self.repeat_index = repeat_index


class ScanEntry:
    """One suitable edge's verdict from :func:`superb_scan`; a superb
    entry's :meth:`edges` is its second-level augmenting chain.

    second_path is the second alternating path computed under the *input*
    colouring: absent for Type0 (whose second path is empty by convention)
    and for non-superb TypeII edges whose candidate paths both end at y.
    second_critical_index is the fan index it starts from (None without it).
    """

    __slots__ = (
        "suitable", "classification", "superb", "second_path", "second_critical_index",
        "_first_level", "_cut",
    )

    def __init__(
        self,
        suitable: SuitableEdge,
        classification: Classification,
        superb: bool,
        second_path: AlternatingPath | None,
        second_critical_index: int | None,
        _first_level: list[int],
        _cut: int,
    ):
        self.suitable = suitable
        self.classification = classification
        self.superb = superb
        self.second_path = second_path
        self.second_critical_index = second_critical_index
        self._first_level = _first_level
        self._cut = _cut

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
        "c", "alpha", "beta", "alpha_bit", "beta_bit", "stop_mask",
        "path_edges", "start_vertex", "prefix_len", "chain_edges",
        "fan_vertices", "near_e",
    )

    def __init__(self, c: Colouring, vc: VizingChain):
        if vc.tail is None:
            raise ValueError(
                "the fan around the edge is augmenting; there is no tail path "
                "to pick suitable edges from"
            )
        self.c = c
        self.alpha = alpha = vc.tail.alpha
        self.beta = beta = vc.tail.beta
        self.alpha_bit = 1 << (alpha - 1)
        self.beta_bit = 1 << (beta - 1)
        # the conditional fans stop at a far endpoint missing alpha or beta
        self.stop_mask = self.alpha_bit | self.beta_bit
        self.path_edges = vc.tail.edges
        self.start_vertex = vc.tail.start_vertex
        self.prefix_len = vc.fan_prefix_len
        self.chain_edges = vc.edges()
        # the vertices whose missing masks the first-level fan's shift moves
        self.fan_vertices = {vc.fan.centre, *vc.fan.far_endpoints[: self.prefix_len]}
        self.near_e = line_distances(c.graph, vc.fan.edges[0], 4)

    def suitables(self, limit: int | None):
        """The suitable edges among the first ``limit`` path edges, one at a
        time; the path's vertices are derived as the walk reaches them, so
        none past the window is."""
        path, ends, near_e = self.path_edges, self.c.graph.edges, self.near_e
        last = len(path) - 1
        stop = last if limit is None else min(limit, last)
        v = self.start_vertex
        for t in range(stop):
            f = path[t]
            a, b, _ = ends[f]
            w = b if v == a else a
            # alpha-coloured edges sit at even offsets
            if not t & 1 and f not in near_e:
                yield SuitableEdge(f, t + 1, w, v)
            v = w


# ---------------------------------------------------------------------------
# Conditional fans and classification
# ---------------------------------------------------------------------------


def _classify(ctx: _Context, su: SuitableEdge) -> Classification:
    """Grow the conditional fan around y and sort the suitable edge by how
    it ends, reading the colouring's used masks directly.

    Type0 asks whether (chain before f) + (conditional fan) is augmenting,
    i.e. whether y and the fan's last far endpoint u_m share a missing
    colour after that shift.  The chain is proper-shiftable (the shadow-fan
    property guarantees it), so only the missing masks of y and u_m after
    the shift matter, and they are read off the original colouring's masks
    in O(1):

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
    c, alpha, beta = ctx.c, ctx.alpha, ctx.beta
    used, stop, alpha_bit = c._used, ctx.stop_mask, ctx.alpha_bit
    y = su.far_vertex
    # the near vertex sits between two path edges coloured alpha and beta,
    # so the early-stop condition cannot trigger at step 0, unless the chain
    # is stale there
    if used[su.near_vertex] & stop != stop:
        raise ValueError("stale chain: the suitable edge's near vertex misses a path colour")
    edges, far, colour_seq, next_colour, repeat_pos = _grow_fan(c, y, su.edge, stop)
    u_m = far[-1]
    if u_m in ctx.fan_vertices:
        raise AssertionError("the conditional fan reached the first-level fan")
    at_u_m = used[u_m]
    augmenting = bool((c._full & ~used[y] | alpha_bit) & ~at_u_m)
    fan = Fan(y, edges, far, colour_seq, augmenting, next_colour, repeat_pos)
    if augmenting:
        return Classification(SuitableType.TYPE0, fan, alpha, beta)
    if not at_u_m & ctx.beta_bit:  # beta is missing at u_m
        # were alpha missing at u_m too, the chain would have been augmenting
        if not at_u_m & alpha_bit:
            raise AssertionError("a TypeI fan end misses both path colours")
        return Classification(SuitableType.TYPE1, fan, alpha, beta)
    # the fan neither stopped early nor ran out of edges at y (a no-edge stop
    # makes the chain augmenting), so a repeated colour forced the stop
    i, _, epsilon = repeated_colour_indices(fan)
    delta = c.min_missing(y)
    if delta == epsilon or {delta, epsilon} & {alpha, beta}:  # only when stale
        raise ValueError("stale chain: the TypeII colours are not pairwise distinct")
    return Classification(
        SuitableType.TYPE2, fan, alpha, beta,
        delta=delta, epsilon=epsilon, repeat_index=i,
    )


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

    __slots__ = ("c", "colours", "adj", "ends")

    def __init__(self, c: Colouring):
        super().__init__()
        self.c = c
        self.colours = c._colours
        self.adj = c.graph.adj
        self.ends = c.graph.edges

    def __missing__(self, e: int) -> int:
        return self.colours[e]

    def advance(self, seg: list[int]) -> None:
        """Extend the shift along ``seg``, whose first edge is the last one
        shifted so far (or the chain's first edge): each edge takes its
        successor's colour in c and the last edge none, written straight
        into the overlay.  The cut is checked as the shift in
        :meth:`Colouring.augment_in_place` checks it, with its three
        ValueErrors: an uncoloured edge after the first, a repeated edge, or
        a colour already used at an endpoint."""
        colours = self.colours
        cols = [colours[h] for h in seg]
        if 0 in cols[1:]:
            raise ValueError(f"edge {seg[cols.index(0, 1)]} is uncoloured")
        if len(set(seg)) != len(seg):
            raise ValueError("an edge repeats in the chain")
        # as Colouring._recolour does: free the segment's colours, then
        # place each new colour only where no edge at an endpoint holds it
        # under the overlay (its entry there, else its colour in c)
        for h in seg:
            self[h] = 0
        get, adj, ends = self.get, self.adj, self.ends
        for i in range(1, len(seg)):
            h, col = seg[i - 1], cols[i]
            u, v, _ = ends[h]
            for other in adj[u]:
                if get(other, colours[other]) == col:
                    raise ValueError(f"colour {col} already used at an endpoint of edge {h}")
            for other in adj[v]:
                if get(other, colours[other]) == col:
                    raise ValueError(f"colour {col} already used at an endpoint of edge {h}")
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
    a superb entry's ``edges()`` is its second-level chain.  The suitable
    edges are found as the scan reaches them, and the path's vertices past
    the ``limit`` window are never derived, so a caller that stops at the
    first hit pays for no more.  The scan only reads c, so stopping early
    needs no clean-up.  Each edge's second paths are walked on c and again
    under an overlay of the shifted chain's colours, which grows by the
    segment since the previous suitable edge (shift composition), written
    in directly, so the whole scan reads the path once instead of shifting
    it once per suitable edge.  Each cut is still checked as the shift it
    stands for: a stale chain whose shift c no longer admits (an uncoloured
    edge after the first, a repeated edge, or an improper result) raises
    the shift's ValueError at that step.  A stale chain that still shifts
    properly, but no longer alternates alpha and beta around a suitable
    edge, raises a ValueError that starts "stale chain:" when that edge is
    classified.
    """
    ctx = _Context(c, chain)
    shifted = _Shifted(c)
    edges, base = ctx.chain_edges, ctx.prefix_len
    # the overlay holds the shift of edges[: end + 1] (the identity while
    # end is 0: the first edge is uncoloured); each segment starts at the
    # last edge shifted so far and ends at the suitable edge
    end = 0
    for su in ctx.suitables(limit):
        cut = base + su.position - 1
        shifted.advance(edges[end : cut + 1])
        end = cut
        cls = _classify(ctx, su)
        if cls.type_tag is SuitableType.TYPE0:
            superb, sec, j = True, None, None
        else:
            paths, sec, j = _second_paths(c, cls)
            superb = shifted.stable(paths)
        yield ScanEntry(su, cls, superb, sec, j, edges, cut)
