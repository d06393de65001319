"""Alternating paths, maximal fans, and the augmenting chains built from them.

Given a proper partial colouring, an uncoloured edge e and an endpoint x, the
constructions here produce a chain that is guaranteed to be augmenting, so
one shift-plus-colour step extends the colouring.  Three layers:

  * alternating paths: maximal walks through edges coloured alpha or beta,
    starting at a vertex missing beta.  Since a proper colouring has at most
    one edge of each colour per vertex, the walk is forced and the path is
    unique;

  * maximal fans around x: edge sequences (e_0=e, e_1, ...) pivoting on x,
    where each next edge's colour is the minimal colour available at the
    previous far endpoint (availability excludes colours already chosen at
    the same far endpoint, which matters when parallel edges repeat it).
    The iterated machinery's conditional fans are the same :class:`Fan`,
    grown by the same loop with an early stop;

  * the full chain: the fan itself when augmenting, otherwise the fan prefix
    through the first critical index followed by an alternating path that
    avoids x; that path's record carries the chain's two colours.

Everything is a pure function of a colouring snapshot and deterministic:
minimal-colour choices always use the natural integer order, and the one
place the construction could branch (two candidate critical indices) has a
fixed preference.  Safe to run concurrently on shared read-only snapshots.

The fan and walk loops scan the incident edges for the wanted colour and
step to an edge's other end with one read of the graph's endpoint table
(``w ^ _xor[e]``); there is no adjacency-scan helper.  The per-chain
records are slotted classes built positionally (a keyword call costs
more).  The colourers (``colour_sequential``, the round scheduler) grow a
fan once with ``_grow_fan``, rotate it in place if it is augmenting
(``Colouring._rotate_fan``), else hand it to ``_path_chain``, the second
half of :func:`vizing_chain`, for :meth:`Colouring.augment_in_place`.  A
fan that would be the edge alone is never grown: two masks decide it.
"""

from __future__ import annotations

from .colouring import Colouring

__all__ = [
    "AlternatingPath",
    "Fan",
    "VizingChain",
    "max_fan",
    "repeated_colour_indices",
    "vizing_chain",
]


# ---------------------------------------------------------------------------
# Alternating paths
# ---------------------------------------------------------------------------


class AlternatingPath:
    """A maximal alternating path.

    ``edges`` is the walk's edge sequence: colours alternate alpha, beta,
    alpha, ... starting from ``start_vertex``.  Empty iff alpha is missing at
    the start vertex, in which case last_vertex == start_vertex.
    """

    __slots__ = ("start_vertex", "alpha", "beta", "edges", "last_vertex")

    def __init__(
        self, start_vertex: int, alpha: int, beta: int, edges: list[int], last_vertex: int
    ):
        self.start_vertex = start_vertex
        self.alpha = alpha
        self.beta = beta
        self.edges = edges
        self.last_vertex = last_vertex


def _walk(g, colours, x: int, alpha: int, beta: int) -> AlternatingPath:
    """The maximal alternating alpha/beta-path from vertex x, reading edge
    colours through ``colours``: the live colour array, or an overlay
    holding a shifted chain's colours.

    The walk starts with an alpha edge at x.  The caller guarantees
    alpha != beta and beta missing at x; the path is then unique,
    edge-injective, and visits no vertex more than twice.
    """
    adj, xor = g.adj, g._xor
    edges: list[int] = []
    v = x
    want, succ = alpha, beta
    guard = g.m + 1
    while True:
        # properness makes the wanted edge at v unique
        for e in adj[v]:
            if colours[e] == want:
                break
        else:
            return AlternatingPath(x, alpha, beta, edges, v)
        edges.append(e)
        v ^= xor[e]
        want, succ = succ, want
        guard -= 1
        if guard < 0:  # unreachable: the walk uses each edge at most once
            raise AssertionError("alternating walk failed to terminate")


# ---------------------------------------------------------------------------
# Maximal fans
# ---------------------------------------------------------------------------


class Fan:
    """A fan around ``centre`` starting at ``edges[0]``: a maximal fan from
    :func:`max_fan`, or a conditional fan of the iterated machinery.

    ``edges`` = (e_0, ..., e_k), all containing the centre; ``far_endpoints``
    their other endpoints (v_0, ..., v_k); ``colour_seq`` = (a_0, ..., a_{k-1})
    with c(e_{i+1}) = a_i the minimal available colour at step i.  The colour
    sequence never repeats (its edges are distinct coloured edges at one
    vertex), so ``next_colour`` -- the minimal available colour at the final
    step, whose edge at the centre either does not exist or already sits in
    the fan -- repeats at most one earlier choice.

    augmenting: whether the fan, viewed as a chain, is augmenting; for a
        conditional fan, the chain is the first-level chain up to the
        suitable edge followed by the fan.
    next_colour: the stop colour a_k, or None when a conditional fan
        stopped early at a far endpoint missing a path colour.
    repeat_pos: position p >= 1 with edges[p] the centre's next_colour-edge,
        or None when no such edge exists (in which case the fan always turns
        out to be augmenting) or after an early stop.
    """

    __slots__ = (
        "centre", "edges", "far_endpoints", "colour_seq", "augmenting", "next_colour", "repeat_pos",
    )

    def __init__(
        self,
        centre: int,
        edges: list[int],
        far_endpoints: list[int],
        colour_seq: list[int],
        augmenting: bool,
        next_colour: int | None,
        repeat_pos: int | None,
    ):
        self.centre = centre
        self.edges = edges
        self.far_endpoints = far_endpoints
        self.colour_seq = colour_seq
        self.augmenting = augmenting
        self.next_colour = next_colour
        self.repeat_pos = repeat_pos


def _grow_fan(c: Colouring, centre: int, first: int, stop_mask: int = 0):
    """The loop of :func:`max_fan`, shared with the colourers' per-edge
    probes (which keep the tuple) and the conditional fans of the iterated
    machinery (which make it a :class:`Fan`).  Each step tests the centre's
    used mask before scanning its adjacency: a centre that does not use the
    wanted colour has no edge of it, so the fan stops there with no repeat,
    as the scan would.  The fan also stops as soon as a new far endpoint
    misses a colour in ``stop_mask``.  Returns (edges, far endpoints, colour
    sequence, next colour, repeat position); the next colour is None after
    such an early stop.
    """
    g = c.graph
    colours, used, full = c._colours, c._used, c._full
    xor = g._xor
    around = g.adj[centre]
    u, v, _ = g.edges[first]
    if centre != u and centre != v:
        raise ValueError(f"vertex {centre} is not an endpoint of edge {first}")
    tip = v if u == centre else u
    edges = [first]
    far = [tip]
    colour_seq: list[int] = []
    chosen_at: dict[int, int] = {}
    while True:
        avail = full & ~used[tip] & ~chosen_at.get(tip, 0)
        if avail == 0:  # cannot happen: at most pi-1 exclusions of >= pi missing
            raise AssertionError("fan step has no available colour")
        bit = avail & -avail
        col = bit.bit_length()
        if not used[centre] & bit:
            return edges, far, colour_seq, col, None
        # properness makes the centre's col-edge unique
        for nxt in around:
            if colours[nxt] == col:
                break
        else:  # unreachable: the centre's mask names only its edges' colours
            raise AssertionError(f"no edge of colour {col} at vertex {centre}")
        if nxt in edges:
            return edges, far, colour_seq, col, edges.index(nxt)
        chosen_at[tip] = chosen_at.get(tip, 0) | bit
        edges.append(nxt)
        tip = centre ^ xor[nxt]
        far.append(tip)
        colour_seq.append(col)
        if stop_mask & ~used[tip]:
            return edges, far, colour_seq, None, None


def max_fan(c: Colouring, x: int, e: int) -> Fan:
    """The unique maximal fan around x starting at the uncoloured edge e.

    Construction: repeatedly take the minimal colour available at the current
    far endpoint (missing colours there, minus colours already chosen at
    earlier steps with the same far endpoint -- possible with parallel
    edges).  If the centre has no edge of that colour, or that edge is
    already in the fan, stop; otherwise append it.

    Colours compare in their natural order.  The shifted-colouring shadow
    that a conditional fan of the iterated machinery is a prefix of orders
    beta last instead; only the tests grow it, with their own fan oracle.

    The augmenting flag says whether the full fan, as a chain, is
    augmenting.  A maximal fan is always proper-shiftable (each e_j takes a
    colour missing at v_j and not taken by a parallel fan edge), so the flag
    only asks whether x and v_k share a missing colour after the shift.  The
    shift permutes the colours at the centre, so x's missing set does not
    change.  v_k's changes only through the fan edges e_j ending at v_k,
    which give back their old colour a_{j-1} and take their new colour a_j;
    every fan colour sits on an edge at x, so neither change touches the
    colours missing at x.  The flag is therefore read off the masks before
    the shift, in O(1).
    """
    if not 0 <= e < c.graph.m:
        raise ValueError(f"edge id {e} out of range")
    if c.colours[e] != 0:
        raise ValueError(f"edge {e} is coloured; fans start at uncoloured edges")
    # raises ValueError when x is not an endpoint of e
    edges, far, colour_seq, next_colour, repeat_pos = _grow_fan(c, x, e)
    augmenting = bool(c.missing_mask(x) & c.missing_mask(far[-1]))
    return Fan(x, edges, far, colour_seq, augmenting, next_colour, repeat_pos)


def repeated_colour_indices(fan: Fan) -> tuple[int, int, int]:
    """The indices (j, k) with equal fan colours a_j = a_k =: beta.

    k is the fan's final index and beta its stop colour; j+1 is the position
    of the centre's beta-edge inside the fan.  Defined only for
    non-augmenting fans (ValueError otherwise) that did not stop early (the
    iterated machinery rules that out first); then the stop was forced by a
    repeated edge, the pair is unique (the colour sequence is injective),
    and the far endpoints v_j, v_k differ.
    """
    if fan.augmenting:
        raise ValueError("fan is augmenting; no repeated colour pair need exist")
    if fan.repeat_pos is None:  # unreachable: a no-edge stop is augmenting
        raise AssertionError("non-augmenting fan without a repeated edge")
    k = len(fan.edges) - 1
    beta = fan.next_colour
    j = fan.repeat_pos - 1
    if not (0 <= j < k and fan.colour_seq[j] == beta):
        raise AssertionError("the repeat edge does not carry the stop colour")
    if fan.far_endpoints[j] == fan.far_endpoints[k]:
        raise AssertionError("the repeated colour pair shares a far endpoint")
    return j, k, beta


# ---------------------------------------------------------------------------
# The full chain
# ---------------------------------------------------------------------------


class VizingChain:
    """An augmenting chain: a fan prefix, possibly followed by a path.

    When the fan is augmenting the chain is the whole fan and there is no
    tail.  Otherwise the chain keeps the fan prefix through the first
    critical index i (that is, fan_prefix_len = i+1 edges) and appends the
    alternating alpha/beta-path from v_i, which avoids the centre; the path
    colours are the tail's ``alpha`` and ``beta``.  Without a tail, ``tail``
    is None.

    A suitable edge's second level (``iterated.ScanEntry.second``) is the
    same record around the edge's far endpoint, with the conditional fan;
    it augments only after the first-level chain's shift up to that edge.
    """

    __slots__ = ("fan", "fan_prefix_len", "tail", "_edge_list")

    def __init__(self, fan: Fan, fan_prefix_len: int, tail: AlternatingPath | None = None):
        self.fan = fan
        self.fan_prefix_len = fan_prefix_len
        self.tail = tail
        self._edge_list: list[int] | None = None

    def edges(self) -> list[int]:
        """The chain's edge sequence (cached)."""
        if self._edge_list is None:
            seq = self.fan.edges[: self.fan_prefix_len]
            if self.tail is not None:
                seq = seq + self.tail.edges
            self._edge_list = seq
        return self._edge_list


def vizing_chain(c: Colouring, x: int, e: int) -> VizingChain:
    """The augmenting chain for the uncoloured edge e around endpoint x.

    If the maximal fan is augmenting, that fan is the chain.  Otherwise let
    alpha = min missing colour at x and beta the fan's repeated colour; of
    the two candidate indices from :func:`repeated_colour_indices`, the first
    critical index i is one whose alternating alpha/beta-path from v_i avoids
    x (at least one does; when both do, i = j is preferred), and the chain is
    the fan prefix through e_i followed by that path.

    The result always classifies as augmenting.
    """
    fan = max_fan(c, x, e)
    if fan.augmenting:
        return VizingChain(fan, len(fan.edges))
    return _path_chain(c, fan)


def _path_chain(c: Colouring, fan: Fan) -> VizingChain:
    """The chain :func:`vizing_chain` builds on a fan that is not
    augmenting; the colourers pass the fan they grew, not regrowing it."""
    x = fan.centre
    j, k, beta = repeated_colour_indices(fan)
    alpha = c.min_missing(x)
    # beta sits on an edge at x (the repeat edge), hence beta differs from
    # every colour missing at x, in particular from alpha; and beta, the
    # colour chosen at v_j and v_k, is missing at both.  So both walks meet
    # the preconditions of _walk.  x misses alpha, so it has at most one
    # edge in the two-coloured subgraph: a path avoids x unless it ends there.
    g, colours = c.graph, c.colours
    path_j = _walk(g, colours, fan.far_endpoints[j], alpha, beta)
    if path_j.last_vertex != x:
        i, tail = j, path_j
    else:
        path_k = _walk(g, colours, fan.far_endpoints[k], alpha, beta)
        if path_k.last_vertex == x:  # unreachable: both ends at x
            raise AssertionError("both candidate alternating paths end at x")
        i, tail = k, path_k
    return VizingChain(fan, i + 1, tail)
