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
    delta is the smallest colour missing at y), and writes the type and the
    second level, one :class:`chains.VizingChain` around y, into the edge's
    entry: the fan alone for Type0, the fan and the alpha/beta path from its
    last far endpoint for TypeI, and for TypeII the fan cut at the second
    critical index and the delta/epsilon path, chosen as
    :func:`chains.vizing_chain` chooses.  When y misses the smallest
    colour missing at f's near endpoint, the fan is f alone and Type0, so
    two masks decide it and no fan is grown.  Otherwise the Type0 test
    shifts nothing: it reads the used masks of y and the fan's last far
    endpoint under the original colouring, adds alpha, which the shift
    through f frees at y, to y's missing colours, and intersects them.
    The fan's augmenting flag records that test, so Type0 holds exactly
    when the flag is set; TypeII takes its repeated pair from
    repeated_colour_indices, as a first-level chain does.  The fan and the classification read the colouring's masks
    directly, with the alpha|beta stop mask computed once per scan;

  * the superb test checks that the second alternating path (for TypeII,
    both candidate paths) is unaffected by the shift: the paths are walked
    on the colouring itself and again under a small overlay holding the
    shifted chain's colours.  Shift composition makes consecutive cuts'
    shifts differ only on the path segment between them, so the overlay
    grows segment by segment and a scan reads the path about once.  It is
    written only when an edge has second paths to compare, so a run of
    Type0 edges writes nothing.  The first cut, which shifts the fan, is
    checked as a shift would be (an uncoloured edge after the first, a
    repeated edge or an improper result raises the shift's ValueError); a
    later cut is proven proper while the path up to it still alternates
    alpha/beta on the colouring, since its shift only swaps the two
    colours along the segment, and checked once it does not.  The scan
    never writes to the colouring;

  * each suitable edge is one :class:`ScanEntry`, filled in as the scan
    goes (the edge, its type and second level, its verdict); the tail's
    colours stay on ``chain.tail``.  A superb entry's edges() is its chain:
    the first-level chain up to f, then the second level, joined on demand.

Everything is deterministic; minimal-colour choices use the natural order.
"""

from __future__ import annotations

import enum

from .colouring import Colouring
from .chains import AlternatingPath, Fan, VizingChain, _grow_fan, _walk, repeated_colour_indices
from .multigraph import line_distances

__all__ = [
    "SuitableType",
    "ScanEntry",
    "superb_scan",
]


class SuitableType(enum.Enum):
    """The type of a suitable edge (:attr:`ScanEntry.type_tag`), by how its
    conditional fan ends."""

    TYPE0 = "Type0"
    TYPE1 = "TypeI"
    TYPE2 = "TypeII"


class ScanEntry:
    """One suitable edge f of a tail path with its type and verdict from
    :func:`superb_scan`; a superb entry's :meth:`edges` is its second-level
    augmenting chain.

    The edge: f is far from the chain's start (line-graph distance > 4),
    not the path's last edge, and coloured alpha.  position is 1-based
    within the tail path, so the path prefix of that length ends with f.
    far_vertex (y) is f's endpoint farther along the path; near_vertex (z)
    is the closer one.

    The type and the second level: type_tag, and ``second``, a
    :class:`chains.VizingChain` around y on the input colouring whose fan
    is the conditional fan: the whole fan alone for Type0, the whole fan
    and the alpha/beta path from its last far endpoint for TypeI, and for
    TypeII the fan cut at the second critical index and the delta/epsilon
    path.  delta (``second.tail.alpha``) is the smallest colour missing at
    y, epsilon (``.beta``) the repeated fan colour; with the first-level
    tail's alpha and beta, all four are pairwise distinct.

    The verdict: superb, whether the second level's paths survive the
    first-level shift through f.
    """

    __slots__ = (
        "edge", "position", "far_vertex", "near_vertex",
        "type_tag", "second", "superb", "_first_level", "_cut",
    )

    def __init__(
        self, edge: int, position: int, far_vertex: int, near_vertex: int,
        _first_level: list[int], _cut: int,
    ):
        self.edge = edge
        self.position = position
        self.far_vertex = far_vertex
        self.near_vertex = near_vertex
        # type_tag and second are written by _classify, superb by the scan
        self._first_level = _first_level
        self._cut = _cut

    @property
    def second_len(self) -> int:
        """Edges on the second path (0 when there is none)."""
        tail = self.second.tail
        return 0 if tail is None else len(tail.edges)

    def edges(self) -> list[int]:
        """A new list: the first-level chain (shared by the scan's entries)
        cut just before the suitable edge, then the second level.  The cuts
        grow in scan order, so the union of a scan's chains is the last
        superb cut's prefix plus every superb entry's second level.
        ValueError when the edge is not superb."""
        if not self.superb:
            raise ValueError(
                f"edge {self.edge} is suitable but not superb; its chain is undefined"
            )
        return self._first_level[: self._cut] + self.second.edges()


# ---------------------------------------------------------------------------
# Conditional fans and classification
# ---------------------------------------------------------------------------


def _classify(
    c: Colouring, tail: AlternatingPath, en: ScanEntry, stop: int, fan_vertices: set[int]
) -> tuple[AlternatingPath, ...]:
    """Grow the conditional fan around y and sort the suitable edge by how
    it ends, reading the colouring's used masks directly; writes the type
    and the second level into the entry and returns the alternating paths,
    walked on c, that the superb test compares: none for Type0, the second
    path for TypeI, and for TypeII the delta/epsilon paths from both the
    repeated index's far endpoint and the last one.  ``tail`` is the
    first-level path, ``stop`` its alpha|beta mask, and ``fan_vertices``
    the vertices whose masks the first-level fan's shift moves.

    A one-edge fan is decided first, off the masks of z and y.  Its first
    step takes ``bit``, the smallest colour missing at z, as no earlier
    choice at z excludes any; when y misses ``bit`` too, the fan stops
    there with f alone, before the stop mask is read (it is read only at a
    new far endpoint).  Its chain is augmenting, since y and u_m = z then
    share ``bit``, which is neither alpha nor beta (z uses both) and so is
    still missing at both after the shift below.  So the entry is Type0
    without a fan being grown.

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
    used = c._used
    y, z = en.far_vertex, en.near_vertex
    at_z = used[z]
    # the near vertex sits between two path edges coloured alpha and beta,
    # so the early-stop condition cannot trigger at step 0, unless the chain
    # is stale there
    if at_z & stop != stop:
        raise ValueError("stale chain: the suitable edge's near vertex misses a path colour")
    # the one-edge fan, decided off two masks
    avail = c._full & ~at_z
    bit = avail & -avail
    if not used[y] & bit:
        if z in fan_vertices:
            raise AssertionError("the conditional fan reached the first-level fan")
        en.type_tag = SuitableType.TYPE0
        en.second = VizingChain(Fan(y, [en.edge], [z], [], True, bit.bit_length(), None), 1)
        return ()
    edges, far, colour_seq, next_colour, repeat_pos = _grow_fan(c, y, en.edge, stop)
    u_m = far[-1]
    if u_m in fan_vertices:
        raise AssertionError("the conditional fan reached the first-level fan")
    at_u_m = used[u_m]
    alpha_bit = 1 << (tail.alpha - 1)
    augmenting = bool((c._full & ~used[y] | alpha_bit) & ~at_u_m)
    fan = Fan(y, edges, far, colour_seq, augmenting, next_colour, repeat_pos)
    if augmenting:
        en.type_tag = SuitableType.TYPE0
        en.second = VizingChain(fan, len(edges))
        return ()
    g, colours, alpha, beta = c.graph, c._colours, tail.alpha, tail.beta
    if not at_u_m & (1 << (beta - 1)):  # beta is missing at u_m
        # were alpha missing at u_m too, the chain would have been augmenting
        if not at_u_m & alpha_bit:
            raise AssertionError("a TypeI fan end misses both path colours")
        en.type_tag = SuitableType.TYPE1
        p = _walk(g, colours, u_m, alpha, beta)
        en.second = VizingChain(fan, len(edges), p)
        return (p,)
    # the fan neither stopped early nor ran out of edges at y (a no-edge stop
    # makes the chain augmenting), so a repeated colour forced the stop
    i, m, epsilon = repeated_colour_indices(fan)
    delta = c.min_missing(y)
    if delta == epsilon or {delta, epsilon} & {alpha, beta}:  # only when stale
        raise ValueError("stale chain: the TypeII colours are not pairwise distinct")
    en.type_tag = SuitableType.TYPE2
    p_i = _walk(g, colours, far[i], delta, epsilon)
    p_m = _walk(g, colours, u_m, delta, epsilon)
    # y misses delta, so it ends at most one of the paths; as in
    # chains._path_chain, the earlier index's path is taken unless it ends at y
    if p_i.last_vertex != y:
        en.second = VizingChain(fan, i + 1, p_i)
    elif p_m.last_vertex != y:
        en.second = VizingChain(fan, m + 1, p_m)
    else:  # unreachable: v_i and v_m differ and both miss epsilon
        raise AssertionError("both candidate second paths end at the centre")
    return p_i, p_m


# ---------------------------------------------------------------------------
# Superb tests and the scan
# ---------------------------------------------------------------------------


class _Shifted(dict):
    """Edge colours under the shift of a first-level chain prefix, with c
    left as it is: the shifted edges' colours, and c's for every other edge.

    The overlay holds the shift of ``chain[: end + 1]``.  :meth:`advance`
    extends it with the checks a real shift makes and rejects an improper
    one; :meth:`write` extends it without them, for cuts whose properness
    the scan has proven.  :meth:`stable` rejects a second path whose start
    no longer misses its second colour (the precondition of the walk,
    ``chains._walk``).
    """

    __slots__ = ("c", "colours", "adj", "ends", "chain", "end")

    def __init__(self, c: Colouring, chain: list[int]):
        super().__init__()
        self.c = c
        self.colours = c._colours
        self.adj = c.graph.adj
        self.ends = c.graph.edges
        self.chain = chain
        # the identity while end is 0: the chain's first edge is uncoloured
        self.end = 0

    def __missing__(self, e: int) -> int:
        return self.colours[e]

    def write(self, cut: int) -> None:
        """Extend the shift to ``chain[: cut + 1]`` with no checks: each
        edge from the last one shifted so far takes its successor's colour
        in c, and chain[cut] none."""
        chain, colours = self.chain, self.colours
        for i in range(self.end, cut):
            self[chain[i]] = colours[chain[i + 1]]
        self[chain[cut]] = 0
        self.end = cut

    def advance(self, prev: int, cut: int) -> None:
        """Extend the shift to ``chain[: prev + 1]`` unchecked, then along
        the segment ``chain[prev : cut + 1]`` as the shift in
        :meth:`Colouring.augment_in_place` checks it, with its three
        ValueErrors: an uncoloured edge after the first, a repeated edge, or
        a colour already used at an endpoint."""
        self.write(prev)
        seg = self.chain[prev : cut + 1]
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
        self.end = cut

    def stable(self, paths: tuple[AlternatingPath, ...]) -> bool:
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
    needs no clean-up.

    Each edge's second paths are walked on c and again under an overlay of
    the chain's colours shifted up to that edge.  Shift composition lets
    the overlay grow from the last cut written, and it is written only for
    an edge with second paths, so the scan reads the path once.  Each cut
    stands for a shift, and a stale chain whose shift c no longer admits
    (an uncoloured edge after the first, a repeated edge, or an improper
    result) raises the shift's ValueError at that step.  The first cut,
    fan included, is checked as that shift.  A later cut is *proven*, and
    not checked, while the path up to it alternates alpha/beta on c; once
    the path stops alternating, every cut is checked.

    A proven cut cannot fail.  Each edge p_s of its segment takes the
    colour col of p_s+1, alpha or beta.  In c, the col-edges at the ends of
    p_s are p_s-1 and p_s+1 alone (a vertex has at most one edge of each
    colour), and the shift recolours the first and has not yet placed the
    second.  Another edge holding col there under the shift is a shifted
    one, as the others keep their colours in c: an earlier path edge p_r,
    holding the colour of p_r+1, and then p_r or p_r+1 would be a second
    edge of one colour at that end in c (the walk's edges are distinct,
    and alternate); or a fan edge,
    whose shifted colour the first cut's check compared with the path
    edges at its ends while they still held their colours in c (those it
    shifted meet later segments only at the first suitable edge's ends,
    at line distance more than 4 from e, out of the fan's reach).  A stale
    chain that still shifts properly, but no longer alternates alpha and
    beta around a suitable edge, raises a ValueError that starts "stale
    chain:" when that edge is classified.
    """
    tail = chain.tail
    if tail is None:
        raise ValueError(
            "the fan around the edge is augmenting; there is no tail path "
            "to pick suitable edges from"
        )
    xor, colours = c.graph._xor, c._colours
    path, base, edges = tail.edges, chain.fan_prefix_len, chain.edges()
    alpha, beta = tail.alpha, tail.beta
    # the conditional fans stop at a far endpoint missing alpha or beta
    stop = (1 << (alpha - 1)) | (1 << (beta - 1))
    # the vertices whose missing masks the first-level fan's shift moves
    fan_vertices = {chain.fan.centre, *chain.fan.far_endpoints[:base]}
    near_e = line_distances(c.graph, chain.fan.edges[0], 4)
    shifted = _Shifted(c, edges)
    # prev is the last cut, edges[prev] the last suitable edge (0 before the
    # first); alternates, whether the path so far alternates alpha/beta on c
    prev = 0
    alternates = True
    last = len(path) - 1
    # the path's vertices are derived as the walk reaches them, so none
    # past the window is
    v = tail.start_vertex
    for t in range(last if limit is None else min(limit, last)):
        f = path[t]
        w = v ^ xor[f]
        # alpha-coloured edges sit at even offsets
        if t & 1:
            alternates = alternates and colours[f] == beta
        else:
            alternates = alternates and colours[f] == alpha
            if f not in near_e:
                cut = base + t
                if not (prev and alternates):
                    shifted.advance(prev, cut)
                prev = cut
                en = ScanEntry(f, t + 1, w, v, edges, cut)
                paths = _classify(c, tail, en, stop, fan_vertices)
                if paths:
                    shifted.write(cut)
                    en.superb = shifted.stable(paths)
                else:
                    en.superb = True
                yield en
        v = w
