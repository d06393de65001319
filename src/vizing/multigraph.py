"""Bounded-degree multigraphs with explicit degree and multiplicity bounds.

This module owns the input side of the package: a small immutable multigraph
structure, a deterministic random generator for test instances, a BFS distance
on the line graph, and a plain-text format.  ``Multigraph.to_text`` and
``Multigraph.from_text`` convert a graph to and from that text; reading and
writing files is the command line's business.

Vertices are integers 0..n-1.  Parallel edges are allowed and distinguished by
a multiplicity index k >= 1 per unordered vertex pair; self-loops are not.
Every graph carries its tightest degree bound (``delta``) and edge
multiplicity bound (``pi``), which downstream modules use to size colour
palettes as delta + pi.

The text format is line based::

    mg <n> <m> <delta> <pi>
    u v k
    ...

with one ``u v k`` line per edge; fields are separated by spaces or tabs,
and every field is an optional ``-`` followed by ASCII digits.  The parser is strict: the header bounds must equal the
recomputed tight bounds and the k values per vertex pair must form exactly
1..m (the writer always emits this normal form).  The header's
``n`` may not exceed :data:`MAX_VERTICES`; that is checked before anything is
allocated, since isolated vertices make ``n`` unbounded by the input's size.

Instances are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import random

__all__ = [
    "MAX_VERTICES",
    "Multigraph",
    "build",
    "generate_random",
]


# The largest vertex count an ``mg`` header may announce.  Parsing a graph
# peaks at about 75 bytes per vertex before its edges, so a header alone can
# ask for at most about 75 MB.
MAX_VERTICES = 1_000_000


# ---------------------------------------------------------------------------
# Data structure
# ---------------------------------------------------------------------------


class Multigraph:
    """An undirected multigraph without self-loops.

    Attributes:
        n:     Number of vertices (vertices are 0..n-1).
        edges: Tuple of (u, v, k) triples with u < v and k the 1-based
               multiplicity index among the parallel edges joining u and v.
               The position of a triple in this tuple is the edge's id.
        delta: Tightest degree bound (max number of incident edges; 0 iff
               the graph has no edges).
        pi:    Tightest multiplicity bound (max number of parallel edges on
               one vertex pair; 0 iff the graph has no edges).
        adj:   Per-vertex tuple of incident edge ids, ascending.

    Assigning or deleting an attribute raises AttributeError.  Two graphs
    are equal, and hash alike, when all five attributes are equal; copies
    and pickles rebuild the graph through the constructor.
    """

    __slots__ = ("n", "edges", "delta", "pi", "adj")

    n: int
    edges: tuple[tuple[int, int, int], ...]
    delta: int
    pi: int
    adj: tuple[tuple[int, ...], ...]

    def __init__(
        self,
        n: int,
        edges: tuple[tuple[int, int, int], ...],
        delta: int,
        pi: int,
        adj: tuple[tuple[int, ...], ...],
    ):
        init = object.__setattr__
        init(self, "n", n)
        init(self, "edges", edges)
        init(self, "delta", delta)
        init(self, "pi", pi)
        init(self, "adj", adj)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return self.n, self.edges, self.delta, self.pi, self.adj

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return Multigraph, self._key()

    # -- basic accessors ----------------------------------------------------

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    @property
    def palette(self) -> int:
        """Number of colours available to colourings of this graph."""
        return self.delta + self.pi

    # -- serialisation ------------------------------------------------------

    def to_text(self) -> str:
        """Serialise to the ``mg`` text format (byte-deterministic)."""
        lines = [f"mg {self.n} {self.m} {self.delta} {self.pi}"]
        lines.extend(f"{u} {v} {k}" for (u, v, k) in self.edges)
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Multigraph":
        """Parse the ``mg`` text format; see the module docstring.

        Raises ValueError with a 1-based line number on any malformed input.
        """
        return _parse_mg(text)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def build(n: int, triples: list[tuple[int, int, int]]) -> Multigraph:
    """Build a multigraph from (u, v, k) triples.

    The input k tags only distinguish parallel edges; they are renumbered to
    1..m per vertex pair in input order, so callers may pass any positive
    value (repeats included).  Edge ids follow input order.

    Args:
        n:       Vertex count; all endpoints must lie in 0..n-1.
        triples: One (u, v, k) per edge, u != v, any orientation.

    Returns:
        The graph with tight ``delta`` and ``pi`` bounds computed.

    Raises:
        ValueError: on self-loops, out-of-range vertices, or bad k.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    norm: list[tuple[int, int, int]] = []
    pair_count: dict[tuple[int, int], int] = {}
    for idx, (u, v, k) in enumerate(triples):
        if not (0 <= u < n) or not (0 <= v < n):
            raise ValueError(f"edge {idx}: vertex out of range 0..{n - 1}")
        if u == v:
            raise ValueError(f"edge {idx}: self-loops are not allowed")
        if k < 1:
            raise ValueError(f"edge {idx}: multiplicity index must be >= 1")
        if u > v:
            u, v = v, u
        c = pair_count.get((u, v), 0) + 1
        pair_count[(u, v)] = c
        norm.append((u, v, c))
    return _finish(n, norm, pair_count)


def _finish(
    n: int,
    norm: list[tuple[int, int, int]],
    pair_count: dict[tuple[int, int], int],
) -> Multigraph:
    adj_lists: list[list[int]] = [[] for _ in range(n)]
    for eid, (u, v, _) in enumerate(norm):
        adj_lists[u].append(eid)
        adj_lists[v].append(eid)
    delta = max((len(a) for a in adj_lists), default=0)
    pi = max(pair_count.values(), default=0)
    return Multigraph(
        n=n,
        edges=tuple(norm),
        delta=delta,
        pi=pi,
        adj=tuple(tuple(a) for a in adj_lists),
    )


# tab, the line breaks and printable ASCII but the '+' and '_' int() accepts
_TEXT_BYTES = bytes([9, 10, 13, *range(32, 127)]).translate(None, b"+_")


def _check_characters(text: str, header: bool = False) -> None:
    """Reject what int() accepts beyond the text formats' integers (an
    optional '-' then ASCII digits) and what split() and splitlines() take
    for a separator or a line break: non-ASCII characters, '+', '_' and the
    ASCII control characters but tab, '\\n' and '\\r'.  One scan of the whole
    text clears the usual input; the lines, numbered as the parsers number
    them, are searched for the message only on failure.  ``header`` names
    line 1's fields as the ``mg`` header's."""
    if text.isascii() and not text.encode("ascii").translate(None, _TEXT_BYTES):
        return
    for lineno, line in enumerate(text.splitlines(True), 1):
        if not line.isascii():
            raise ValueError(f"line {lineno}: non-ASCII character")
        if "+" in line or "_" in line:
            kind = "header fields" if header and lineno == 1 else "fields"
            raise ValueError(f"line {lineno}: {kind} must be integers")
        if line.encode("ascii").translate(None, _TEXT_BYTES):
            raise ValueError(f"line {lineno}: control character")


def _parse_mg(text: str) -> Multigraph:
    _check_characters(text, header=True)
    lines = text.splitlines()
    if not lines:
        raise ValueError("line 1: empty input, expected 'mg' header")
    return _parse_mg_lines(lines)


def _parse_mg_lines(lines: list[str]) -> Multigraph:
    """The ``mg`` parser on the lines of a checked text (at least one line):
    the header, then exactly the edge lines it announces."""
    head = lines[0].split()
    if len(head) != 5 or head[0] != "mg":
        raise ValueError("line 1: expected header 'mg <n> <m> <delta> <pi>'")
    try:
        n, m, delta, pi = (int(t) for t in head[1:])
    except ValueError:
        raise ValueError("line 1: header fields must be integers") from None
    if n < 0 or m < 0:
        raise ValueError("line 1: n and m must be non-negative")
    if n > MAX_VERTICES:
        raise ValueError(f"line 1: n = {n} exceeds the vertex limit {MAX_VERTICES}")
    body = lines[1:]
    if len(body) != m:
        raise ValueError(
            f"line {len(lines)}: header announces {m} edges, found {len(body)}"
        )
    triples: list[tuple[int, int, int]] = []
    pair_count: dict[tuple[int, int], int] = {}
    for off, line in enumerate(body):
        lineno = off + 2
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'u v k'")
        try:
            u, v, k = (int(t) for t in parts)
        except ValueError:
            raise ValueError(f"line {lineno}: fields must be integers") from None
        if not (0 <= u < n) or not (0 <= v < n):
            raise ValueError(f"line {lineno}: vertex out of range 0..{n - 1}")
        if u == v:
            raise ValueError(f"line {lineno}: self-loops are not allowed")
        if u > v:
            u, v = v, u
        c = pair_count.get((u, v), 0) + 1
        pair_count[(u, v)] = c
        if k != c:
            raise ValueError(
                f"line {lineno}: multiplicity index {k} out of order, expected {c}"
            )
        triples.append((u, v, k))
    g = _finish(n, triples, pair_count)
    if g.delta != delta or g.pi != pi:
        raise ValueError(
            f"line 1: header bounds delta={delta} pi={pi} do not match "
            f"recomputed delta={g.delta} pi={g.pi}"
        )
    return g


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------


def generate_random(
    n: int, target_delta: int, target_pi: int, seed: int
) -> Multigraph:
    """Generate a deterministic random multigraph within the given bounds.

    Runs 3 * n * target_delta attempts; each attempt draws an unordered
    vertex pair uniformly and adds an edge iff both endpoint degrees are
    below target_delta and the pair's multiplicity is below target_pi.  With
    that many attempts the degree caps saturate on all but small graphs, so
    the expected edge count approaches n * target_delta / 2.

    They stop once no edge fits (every pair at target_pi, or every vertex
    but at most one at target_delta), which leaves the result unchanged.

    The result is identical for identical (n, target_delta, target_pi, seed).
    The realised bounds satisfy delta <= target_delta and pi <= target_pi
    (they may be smaller; ``build`` recomputes tight values).
    """
    if target_delta < 1 or target_pi < 1:
        raise ValueError("target_delta and target_pi must be >= 1")
    if n < 2:
        return build(max(n, 0), [])
    rng = random.Random(seed)
    deg = [0] * n
    mult: dict[tuple[int, int], int] = {}
    triples: list[tuple[int, int, int]] = []
    full = min(target_pi * n * (n - 1) // 2, n * target_delta // 2)
    for _ in range(3 * n * target_delta):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        if u > v:
            u, v = v, u
        if deg[u] >= target_delta or deg[v] >= target_delta:
            continue
        c = mult.get((u, v), 0)
        if c >= target_pi:
            continue
        mult[(u, v)] = c + 1
        deg[u] += 1
        deg[v] += 1
        triples.append((u, v, c + 1))
        if len(triples) == full:
            break
    return build(n, triples)


# ---------------------------------------------------------------------------
# Line-graph distance
# ---------------------------------------------------------------------------


def line_distances(g: Multigraph, start: int, cap: int | None = None) -> dict[int, int]:
    """Line-graph distances from the edge ``start`` to every edge within
    distance ``cap`` of it (its whole line-graph component when cap is
    None), as {edge: distance}.

    Two edges are adjacent iff they share a vertex (parallel edges share
    two).  Breadth-first; cost is O(edges within the cap ball * delta).
    """
    dist = {start: 0}
    frontier = [start]
    d = 0
    adj = g.adj
    edges = g.edges
    while frontier and (cap is None or d < cap):
        d += 1
        nxt: list[int] = []
        for f in frontier:
            u, v, _ = edges[f]
            for x in (u, v):
                for h in adj[x]:
                    if h not in dist:
                        dist[h] = d
                        nxt.append(h)
        frontier = nxt
    return dist
