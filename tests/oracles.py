"""Brute-force reference implementations used to cross-check the library.

Everything here recomputes results straight from the definitions, sharing no
code or caches with the package under test: graphs are consulted only through
their edge list, colourings are plain lists indexed by edge id (0 meaning
uncoloured), and every lookup is a fresh scan.  Slow on purpose.

:func:`oracle_classify` is the one chain referee: it labels a chain with the
strongest rung of the ladder in the ``colouring`` module's docstring
(edge-injective, shiftable, proper-shiftable, augmenting), and
:data:`LADDER` ranks its labels for :func:`at_least`.  The superb reference,
:func:`oracle_superb`, reads a suitable edge's scan entry as plain data
and shifts a raw colour list.

The last two sections are the exception.  Three composition checks drive the
package's own operations (the walk, chains, the superb scan) and compare
their results with the oracles', because the property they check is how
those operations compose.  The unimprovability referee,
:func:`oracle_unimprovable`, takes its plain clause from
:func:`oracle_vizing_chain` but its second-order clause from the package's
superb scan, which the scan's own tests referee.  And a few conveniences over the package's
operations -- a copying shift and augmentation refereed by
:func:`oracle_classify`, weighted chain mass, the suitable edges of a probe,
and pointwise reads of one suitable edge's :func:`superb_scan` entry -- serve
only the tests, so they live here rather than in the library.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from vizing import Colouring, superb_scan, vizing_chain
from vizing.chains import _walk


def incident_edges(g, x):
    """Ids of edges having x as an endpoint, by full edge-list scan."""
    return [i for i, (u, v, _) in enumerate(g.edges) if x == u or x == v]


def other_end(g, e, x):
    u, v, _ = g.edges[e]
    return v if x == u else u


def oracle_missing(g, cols, x):
    used = {cols[e] for e in incident_edges(g, x) if cols[e] != 0}
    return set(range(1, g.delta + g.pi + 1)) - used


def oracle_used_mask(g, cols, x):
    """Bitmask (bit col-1) of the colours on the edges at x."""
    return sum(1 << (col - 1) for col in {cols[e] for e in incident_edges(g, x)} - {0})


def oracle_is_proper(g, cols):
    for a in range(len(g.edges)):
        for b in range(a + 1, len(g.edges)):
            if cols[a] == 0 or cols[a] != cols[b]:
                continue
            au, av, _ = g.edges[a]
            bu, bv, _ = g.edges[b]
            if {au, av} & {bu, bv}:
                return False
    return True


def oracle_shift(cols, chain):
    """The shift along a chain: each edge takes its successor's old colour,
    the last edge becomes uncoloured."""
    new = list(cols)
    for a, b in zip(chain, chain[1:]):
        new[a] = cols[b]
    new[chain[-1]] = 0
    return new


# the labels of oracle_classify, weakest first: each implies all earlier ones
LADDER = ("not-edge-injective", "not-shiftable", "shiftable", "proper-shiftable", "augmenting")


def at_least(label, floor):
    """Is the chain label ``label`` at least as strong as ``floor``?"""
    return LADDER.index(label) >= LADDER.index(floor)


def oracle_classify(g, cols, chain):
    """The strongest label of :data:`LADDER` that ``chain`` earns under the
    raw colour list ``cols``, each rung checked from its definition."""
    if len(set(chain)) != len(chain):
        return "not-edge-injective"
    if cols[chain[0]] != 0 or any(cols[e] == 0 for e in chain[1:]):
        return "not-shiftable"
    shifted = oracle_shift(cols, chain)
    if not oracle_is_proper(g, shifted):
        return "shiftable"
    u, v, _ = g.edges[chain[-1]]
    if oracle_missing(g, shifted, u) & oracle_missing(g, shifted, v):
        return "augmenting"
    return "proper-shiftable"


def oracle_alternating_path(g, cols, x, alpha, beta):
    """Walk the alpha/beta alternating path from x.  Returns (edges, last).

    Precondition (asserted): beta missing at x.  The walk is forced: at each
    vertex there is at most one edge of the wanted colour, and it cannot be
    the edge just walked (its colour is the other one).
    """
    assert beta in oracle_missing(g, cols, x)
    edges = []
    cur = x
    want = alpha
    while len(edges) <= len(g.edges):
        cand = [h for h in incident_edges(g, cur) if cols[h] == want]
        assert len(cand) <= 1, "improper colouring"
        if not cand:
            return edges, cur
        h = cand[0]
        edges.append(h)
        cur = other_end(g, h, cur)
        want = beta if want == alpha else alpha
    raise AssertionError("alternating walk failed to terminate")


def oracle_max_fan(g, cols, x, e, big=None):
    """Simulate the maximal-fan construction step by step.

    Returns a dict with keys edges, far, colour_seq, next_colour, repeat_pos,
    augmenting.  Availability at each step is the missing set of the current
    far endpoint minus colours already chosen at earlier steps with the same
    far endpoint; the minimal available colour is taken (with ``big``, if
    given, reordered to compare larger than every other colour).  Stops when
    the centre has no edge of the chosen colour (repeat_pos None) or that
    edge is already in the fan.
    """
    assert cols[e] == 0 and x in g.edges[e][:2]
    edges = [e]
    far = [other_end(g, e, x)]
    colour_seq = []
    while True:
        tip = far[-1]
        banned = {colour_seq[j] for j in range(len(colour_seq)) if far[j] == tip}
        avail = sorted(oracle_missing(g, cols, tip) - banned,
                       key=lambda col: (col == big, col))
        assert avail, "fan step with no available colour"
        col = avail[0]
        cand = [h for h in incident_edges(g, x) if cols[h] == col]
        assert len(cand) <= 1
        if not cand:
            next_colour, repeat_pos = col, None
            break
        h = cand[0]
        if h in edges:
            next_colour, repeat_pos = col, edges.index(h)
            break
        edges.append(h)
        far.append(other_end(g, h, x))
        colour_seq.append(col)
    return {
        "edges": edges,
        "far": far,
        "colour_seq": colour_seq,
        "next_colour": next_colour,
        "repeat_pos": repeat_pos,
        "augmenting": oracle_classify(g, cols, edges) == "augmenting",
    }


def oracle_vizing_chain(g, cols, x, e):
    """The full augmenting chain as a plain edge list.

    Follows the construction literally: the whole fan when augmenting, else
    the fan prefix through the first critical index followed by the
    alternating path from its far endpoint, where a candidate index
    qualifies iff no edge of its path touches x (j preferred over k).
    """
    fan = oracle_max_fan(g, cols, x, e)
    if fan["augmenting"]:
        return list(fan["edges"])
    beta = fan["next_colour"]
    k = len(fan["edges"]) - 1
    matches = [j for j in range(k) if fan["colour_seq"][j] == beta]
    assert matches
    j = matches[0]
    alpha = min(oracle_missing(g, cols, x))

    def avoids_x(path_edges):
        return all(x not in g.edges[h][:2] for h in path_edges)

    for i in (j, k):
        path, _last = oracle_alternating_path(g, cols, fan["far"][i], alpha, beta)
        if avoids_x(path):
            return fan["edges"][: i + 1] + path
    raise AssertionError("no critical index with an x-avoiding path")


def oracle_superb(g, cols, chain, entry, alpha, beta):
    """Is a suitable edge superb: do its second paths survive the shift?

    ``chain`` is the first-level chain cut right after the suitable edge,
    ``entry`` the edge's scan entry, whose type, fan and TypeII witnesses
    are read as plain data, and alpha/beta the tail's colours.  Type0 is superb
    by definition.  Otherwise the shift of a copy of ``cols`` along the
    chain must be proper at the endpoints of the shifted edges (ValueError
    if not), and each compared walk must come out the same before and after
    it: for TypeI the alpha/beta walk from the fan's last far endpoint, for
    TypeII the delta/epsilon walks from the repeated index's far endpoint
    and from the last one.
    """
    kind, far = entry.type_tag.value, entry.fan.far_endpoints
    if kind == "Type0":
        return True
    if kind == "TypeI":
        walks = [(far[-1], alpha, beta)]
    else:
        walks = [(far[q], entry.delta, entry.epsilon) for q in (entry.repeat_index, -1)]
    shifted = oracle_shift(cols, chain)
    for h in chain:
        col = shifted[h]
        u, v, _ = g.edges[h]
        if col and any(shifted[k] == col for k in incident_edges(g, u) + incident_edges(g, v)
                       if k != h):
            raise ValueError(f"the shift puts colour {col} twice at an endpoint of edge {h}")
    return all(
        oracle_alternating_path(g, cols, *w)[0] == oracle_alternating_path(g, shifted, *w)[0]
        for w in walks
    )


def oracle_scan_cuts(g, cols, chain, lengths):
    """The shift checks of a superb scan, one cut of ``chain`` at a time.

    For each n in the increasing ``lengths``, yields (n, shifted) with
    shifted = :func:`oracle_shift` of ``cols`` along chain[:n] when that cut
    shifts properly; otherwise yields (n, message), the message of the
    ValueError the shift raises, and stops.  The checks come in the shift's
    order: an uncoloured edge after the first (the earliest), a repeated
    edge, then a rescan of the cut's edges in chain order for one whose new
    colour an edge at an endpoint also has after the shift.  Colours are
    placed in chain order, so a clash between two cut edges is reported at
    the later one.
    """
    at = {}
    for h, (u, v, _) in enumerate(g.edges):
        at.setdefault(u, []).append(h)
        at.setdefault(v, []).append(h)
    for n in lengths:
        cut = chain[:n]
        bare = [h for h in cut[1:] if cols[h] == 0]
        if bare:
            yield n, f"edge {bare[0]} is uncoloured"
            return
        if len(set(cut)) != len(cut):
            yield n, "an edge repeats in the chain"
            return
        shifted = oracle_shift(cols, cut)
        for i, h in enumerate(cut):
            col = shifted[h]
            later = set(cut[i:])
            u, v, _ = g.edges[h]
            if col and any(shifted[k] == col for k in at[u] + at[v] if k not in later):
                yield n, f"colour {col} already used at an endpoint of edge {h}"
                return
        yield n, shifted


def oracle_line_distance(g, e, f):
    """BFS distance in the line graph (edges adjacent iff sharing a vertex)."""
    if e == f:
        return 0
    dist = {e: 0}
    q = deque([e])
    while q:
        a = q.popleft()
        au, av, _ = g.edges[a]
        for b, (bu, bv, _) in enumerate(g.edges):
            if b not in dist and {au, av} & {bu, bv}:
                dist[b] = dist[a] + 1
                if b == f:
                    return dist[b]
                q.append(b)
    return None


def oracle_suitable_positions(g, cols, tail, alpha, e):
    """The 1-based positions of the suitable edges on a tail path, from the
    definition: coloured alpha, not the path's last edge, and farther than 4
    from e in the line graph (the ball is grown by edge-list scans)."""
    near = {e}
    for _ in range(4):
        verts = {w for h in near for w in g.edges[h][:2]}
        near |= {h for h, (u, v, _) in enumerate(g.edges) if u in verts or v in verts}
    return [p for p in range(1, len(tail))
            if cols[tail[p - 1]] == alpha and tail[p - 1] not in near]


# ---------------------------------------------------------------------------
# Composition checks on the package's own operations
# ---------------------------------------------------------------------------


def split_shift_check(c, chain, i):
    """Shift composition: does shifting along the (i+1)-prefix and then
    along the suffix starting at position i reproduce the direct shift?

    Works on raw colour arrays so intermediate states may be improper.  The
    chain must be c-shiftable and 0 <= i < l(chain) (ValueError otherwise).
    """
    if not at_least(oracle_classify(c.graph, list(c.colours), chain), "shiftable"):
        raise ValueError("chain is not shiftable")
    if not (0 <= i < len(chain)):
        raise ValueError(f"split position {i} out of range")

    def raw_shift(colours, seq):
        if colours[seq[0]] != 0 or any(colours[e] == 0 for e in seq[1:]):
            return None
        return oracle_shift(colours, seq)

    direct = raw_shift(list(c.colours), chain)
    step1 = raw_shift(list(c.colours), chain[: i + 1])
    if step1 is None:
        return False
    step2 = raw_shift(step1, chain[i:])
    return step2 is not None and step2 == direct


def prefix_stability_check(c, d, x, alpha, beta):
    """Is the alpha/beta-path under c a prefix of the one under d?  Both
    paths are the library's walk.

    Preconditions (violations raise ValueError, distinctly from a False
    result): both colourings proper on the same graph, beta missing at x in
    both, and c and d agree on every edge of the path under c.
    """
    if c.graph is not d.graph:
        raise ValueError("colourings must colour the same graph")
    if beta not in oracle_missing(c.graph, c.colours, x):
        raise ValueError(f"colour {beta} is not missing at vertex {x}")
    p_c = _walk(c.graph, c.colours, x, alpha, beta)
    if beta not in oracle_missing(d.graph, d.colours, x):
        raise ValueError(
            f"precondition violated: colour {beta} not missing at {x} under d"
        )
    for e in p_c.edges:
        if c.colour_of(e) != d.colour_of(e):
            raise ValueError(
                f"precondition violated: colourings disagree on path edge {e}"
            )
    p_d = _walk(d.graph, d.colours, x, alpha, beta)
    return p_d.edges[: len(p_c.edges)] == p_c.edges


def check_shadow_fan(c, x, e, f):
    """Does the conditional fan agree with its shifted-colouring shadow?

    Shifts a raw copy of the colours along the first-level chain through
    the suitable edge f with :func:`oracle_shift`, grows the ordinary fan
    around f's far vertex on them with :func:`oracle_max_fan`, beta
    reordered to compare largest, and checks that the conditional fan is a
    prefix of it.  True for every suitable f; ValueError when f is not
    suitable.
    """
    vc = vizing_chain(c, x, e)
    en = scan_entry(c, x, e, f)
    shifted = oracle_shift(c.colours, vc.edges()[: vc.fan_prefix_len + en.position])
    shadow = oracle_max_fan(c.graph, shifted, en.far_vertex, en.edge, big=vc.tail.beta)
    return en.fan.edges == shadow["edges"][: len(en.fan.edges)]


def oracle_short_chain(c, e, L, second):
    """Does the uncoloured edge e admit a short improvement at scale L?  At
    either endpoint x: a chain from :func:`oracle_vizing_chain` with fewer
    than L edges off x (an augmenting fan has none, since every fan edge
    meets x and no path edge does), or, when ``second`` is not None, a
    superb entry of the package's :func:`superb_scan` over the first L path
    positions whose second path has at most ``second`` edges."""
    g, cols = c.graph, list(c.colours)
    for x in g.edges[e][:2]:
        chain = oracle_vizing_chain(g, cols, x, e)
        if sum(x not in g.edges[h][:2] for h in chain) < L:
            return True
        if second is not None and any(
            en.superb and en.second_len <= second
            for en in superb_scan(c, vizing_chain(c, x, e), limit=L)
        ):
            return True
    return False


def oracle_unimprovable(c, L, mode):
    """check_unimprovable's referee: no uncoloured edge has a plain chain
    whose path is shorter than L, nor, in "iterated" mode, a superb edge
    among the first L path positions whose second path is shorter than L."""
    second = L - 1 if mode == "iterated" else None
    return not any(
        oracle_short_chain(c, e, L, second) for e, col in enumerate(c.colours) if col == 0
    )


# ---------------------------------------------------------------------------
# Test-only conveniences over the package's operations
# ---------------------------------------------------------------------------


def shift_along(c, chain):
    """Return the shift of ``c`` along ``chain`` as a new colouring.

    The first edge takes the second edge's old colour, each later edge takes
    its successor's, and the last edge becomes uncoloured; the uncoloured
    count is conserved.  The chain must be shiftable (ValueError otherwise),
    and the result must be proper (Colouring represents only proper states;
    inspect a merely-shiftable chain's shift via :func:`oracle_shift`).
    """
    status = oracle_classify(c.graph, list(c.colours), chain)
    if not at_least(status, "shiftable"):
        raise ValueError(f"chain is not shiftable: {status}")
    if not at_least(status, "proper-shiftable"):
        raise ValueError(
            "shift result is improper (chain is shiftable but not "
            "proper-shiftable); use oracle_shift to inspect it"
        )
    return Colouring(c.graph, oracle_shift(c.colours, chain))


def augment(c, chain):
    """Pure augmentation: a new colouring with one more coloured edge, all
    changes confined to the chain.  Accepts an edge sequence or any chain
    object with an ``edges()`` method.  The chain must classify as
    augmenting (ValueError otherwise)."""
    seq = chain.edges() if callable(getattr(chain, "edges", None)) else list(chain)
    if oracle_classify(c.graph, list(c.colours), seq) != "augmenting":
        raise ValueError("chain is not augmenting")
    out = c.copy()
    out.augment_in_place(seq)
    return out


def suitable_edges(c, x, e, limit=None):
    """The :func:`superb_scan` entries of the probe (x, e) among the first
    ``limit`` tail path edges, in path order, read for their suitable edges
    (edge, position, far_vertex, near_vertex); ValueError when the fan
    around (x, e) is augmenting."""
    return list(superb_scan(c, vizing_chain(c, x, e), limit))


def suitable_key(entry):
    """A scan entry's suitable edge as the tuple (edge, position,
    far_vertex, near_vertex)."""
    return entry.edge, entry.position, entry.far_vertex, entry.near_vertex


def scan_entry(c, x, e, f):
    """The :func:`superb_scan` entry of the probe (x, e) for the suitable
    edge f, named by its edge id, by its (edge, position, far_vertex,
    near_vertex) tuple, or by an entry with those four fields; ValueError
    when f names none."""
    key = f if isinstance(f, (int, tuple)) else suitable_key(f)
    for entry in superb_scan(c, vizing_chain(c, x, e)):
        if key == entry.edge or key == suitable_key(entry):
            return entry
    raise ValueError(f"edge {f} is not suitable for this chain")


def conditional_fan(c, x, e, f):
    """The conditional fan grown around the suitable edge's far vertex."""
    return scan_entry(c, x, e, f).fan


def classify_suitable(c, x, e, f):
    """The suitable edge's entry, read for its type and colour witnesses."""
    return scan_entry(c, x, e, f)


def is_superb(c, x, e, f):
    """Is the suitable edge's second-level chain stable under the shift?"""
    return scan_entry(c, x, e, f).superb


def iterated_chain(c, x, e, f):
    """The scan entry of a superb edge f, whose ``edges()`` is its
    second-level chain, checked to be augmenting; ValueError if f is
    suitable but not superb."""
    entry = scan_entry(c, x, e, f)
    if oracle_classify(c.graph, list(c.colours), entry.edges()) != "augmenting":
        raise AssertionError("the second-level chain is not augmenting")
    return entry


@dataclass
class EdgeWeights:
    """Positive rational weights on edges, looked up by edge id."""

    weight: dict

    def __post_init__(self):
        self.weight = {e: Fraction(w) for e, w in self.weight.items()}
        for e, w in self.weight.items():
            if w <= 0:
                raise ValueError(f"edge {e}: weight {w} is not positive")

    @classmethod
    def unit(cls, graph):
        return cls({e: Fraction(1) for e in range(graph.m)})

    def __getitem__(self, e):
        return self.weight[e]


def weighted_chain_mass(c, e, x, weights):
    """Total weight of the chain for (x, e) relative to e's own weight:
    sum of weight(f)/weight(e) over the chain's edges f other than e.
    With unit weights this is the chain length minus one.  weights may be
    an EdgeWeights or any mapping from edge id to a positive rational.
    """
    if c.colour_of(e) != 0:
        raise ValueError(f"edge {e} is coloured; chain mass needs an uncoloured edge")
    total = sum(weights[f] for f in vizing_chain(c, x, e).edges() if f != e)
    return Fraction(total) / Fraction(weights[e])
