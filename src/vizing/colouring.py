"""Partial proper edge colourings, chains, and the shift operation.

A partial colouring assigns colours from the palette 1..(delta+pi) to a
subset of the edges so that edges sharing a vertex (parallel edges included)
get distinct colours.  Uncoloured edges form the set U_c; the whole package
is about shrinking U_c by augmenting along chains.

A chain is a sequence of edges in which consecutive edges share a vertex.
Shifting a colouring along a chain moves every edge's colour one position
toward the head: the first edge takes the second edge's colour, and the last
edge becomes uncoloured.  A chain is

  * edge-injective    if no edge repeats,
  * shiftable         if additionally its first edge is uncoloured and all
                      later edges are coloured,
  * proper-shiftable  if additionally the shifted colouring is proper,
  * augmenting        if additionally, after the shift, the endpoints of the
                      last edge share a missing colour (so the last edge can
                      be coloured and the colouring grows by one edge).

The library builds only augmenting chains, so it never labels one; the
brute-force ``oracle_classify`` of the test suite (``tests/oracles.py``)
implements this ladder and referees every chain the library builds.

:class:`Colouring` maintains properness as a class invariant (dense colour
array plus one used-colour bitmask per vertex, so missing-set probes are
O(1) in the palette size).  A colouring is built whole, from a colour array
(``from_assignment``, ``from_dump``) that is checked for properness, and
then changes in place; :func:`is_proper` re-checks a Colouring from its
colour array alone, without the masks.  ``colour_sequential`` and the
round scheduler write through three paths.  :meth:`Colouring._colour_free`
colours an edge whose maximal fan is the edge alone, most edges of a
sparse graph, off two masks.  :meth:`Colouring._rotate_fan` applies any
other augmenting maximal fan straight from the tuple ``chains._grow_fan``
returns, with no chain records or shift logs.  Every other chain goes
through :meth:`Colouring.augment_in_place`, one pass: the shift and the
colouring of the chain's last edge, undone on failure.
:meth:`Colouring.shift_in_place` applies a proper-shiftable chain and returns
an undo log for :meth:`Colouring.apply_undo`.  No library path calls either
(the superb scan shifts a colours-only overlay instead); they stay only
because the benchmark's tracer wraps them by name.

Shifts along infinite chains never arise here: all inputs are finite, so
every chain is a finite list.

Thread-safety: a Colouring is exclusively owned by one mutator at a time;
read-only snapshots may be shared freely.  Everything else in this module is
pure.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .multigraph import Multigraph, _check_characters

__all__ = ["Colouring", "is_proper"]


# ---------------------------------------------------------------------------
# The colouring structure
# ---------------------------------------------------------------------------


class Colouring:
    """A proper partial edge colouring of a :class:`Multigraph`.

    The colour of edge e is an integer in 1..graph.palette, or 0 when e is
    uncoloured.  Properness (no two incident coloured edges share a colour)
    is an invariant: the constructor checks it, and every write path
    (``augment_in_place``, ``shift_in_place``, ``apply_undo`` and the
    private fast paths) keeps it or raises ValueError with the colouring
    unchanged, also for an empty chain or log and for an edge id outside
    0..m-1, which Python indexing would otherwise alias to another edge.
    The readers missing_mask and min_missing sit on the chain
    builders' hot path: they take a valid vertex 0..n-1 unchecked.
    """

    __slots__ = ("graph", "_colours", "_used", "_uncoloured", "_full")

    def __init__(self, graph: Multigraph, _colours: list[int] | None = None):
        self.graph = graph
        self._full = (1 << graph.palette) - 1
        if _colours is None:
            self._colours = [0] * graph.m
            self._used = [0] * graph.n
            self._uncoloured = graph.m
        else:
            if len(_colours) != graph.m:
                raise ValueError("colour array length does not match edge count")
            self._colours = list(_colours)
            self._used = [0] * graph.n
            self._uncoloured = 0
            palette = graph.palette
            for e, col in enumerate(self._colours):
                if col == 0:
                    self._uncoloured += 1
                    continue
                if not (1 <= col <= palette):
                    raise ValueError(
                        f"edge {e}: colour {col} outside palette 1..{palette}"
                    )
                bit = 1 << (col - 1)
                u, v, _ = graph.edges[e]
                if (self._used[u] | self._used[v]) & bit:
                    raise ValueError(
                        f"edge {e}: colour {col} already used at an endpoint"
                    )
                self._used[u] |= bit
                self._used[v] |= bit

    # -- constructors -------------------------------------------------------

    @classmethod
    def empty(cls, graph: Multigraph) -> "Colouring":
        """The all-uncoloured colouring."""
        return cls(graph)

    @classmethod
    def from_assignment(
        cls, graph: Multigraph, assignment: Mapping[int, int] | Sequence[int]
    ) -> "Colouring":
        """Build from a dict {edge: colour} or a dense colour sequence.

        Unmentioned edges are uncoloured; colour 0 also means uncoloured.
        Raises ValueError if the assignment is out of range or improper.
        """
        if isinstance(assignment, Mapping):
            colours = [0] * graph.m
            for e, col in assignment.items():
                if not (0 <= e < graph.m):
                    raise ValueError(f"edge id {e} out of range")
                colours[e] = col
            assignment = colours
        return cls(graph, assignment)

    def copy(self) -> "Colouring":
        dup = Colouring.__new__(Colouring)
        dup.graph = self.graph
        dup._colours = list(self._colours)
        dup._used = list(self._used)
        dup._uncoloured = self._uncoloured
        dup._full = self._full
        return dup

    # -- queries ------------------------------------------------------------

    @property
    def colours(self) -> list[int]:
        """The dense colour array (do not mutate)."""
        return self._colours

    @property
    def uncoloured_count(self) -> int:
        return self._uncoloured

    def uncoloured(self) -> list[int]:
        """Ids of uncoloured edges, ascending."""
        return [e for e, col in enumerate(self._colours) if col == 0]

    def missing_mask(self, x: int) -> int:
        """Bitmask of colours missing at vertex x."""
        return self._full & ~self._used[x]

    def min_missing(self, x: int) -> int:
        """Smallest colour missing at x (every vertex misses >= pi colours)."""
        m = self.missing_mask(x)
        if m == 0:
            raise ValueError(f"vertex {x} has no missing colour")
        return (m & -m).bit_length()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Colouring)
            and self.graph is other.graph
            and self._colours == other._colours
        )

    __hash__ = None  # mutable; not usable as a dict key

    # -- mutation -----------------------------------------------------------

    def shift_in_place(self, chain: Sequence[int]) -> list[tuple[int, int]]:
        """Shift this colouring along a proper-shiftable chain, in place.

        Returns an undo log for :meth:`apply_undo`.  The caller guarantees
        the chain is proper-shiftable.  A chain that repeats an edge, has an
        uncoloured edge after the first, or whose shift would be improper
        raises ValueError and leaves the colouring unchanged.
        """
        old, new = self._shift_logs(chain)
        self._recolour(old, new)
        return old

    def augment_in_place(self, chain: Sequence[int]) -> int:
        """Shift along an augmenting chain and colour its last edge with the
        smallest colour then missing at both endpoints, in one pass.

        Returns the number of edges whose colour changed.  Raises ValueError
        on every chain :meth:`shift_in_place` rejects, and when the shifted
        last edge's endpoints share no missing colour; the colouring is
        then left unchanged.
        """
        old, new = self._shift_logs(chain)
        self._recolour(old, new)
        last = chain[-1]
        colours, used = self._colours, self._used
        u, v, _ = self.graph.edges[last]
        common = self._full & ~(used[u] | used[v])
        if not common:
            self._recolour(new, old)  # cannot fail: old was proper
            raise ValueError("chain is not augmenting: no common missing colour")
        # the colour is missing at both endpoints, so the colouring stays proper
        bit = common & -common
        colours[last] = bit.bit_length()
        used[u] |= bit
        used[v] |= bit
        self._uncoloured -= 1
        return sum([colours[e] != col for e, col in old])

    def _colour_free(self, x: int, y: int, e: int) -> bool:
        """Colour the uncoloured edge e = (x, y) when its maximal fan around
        x is e alone: when x misses the smallest colour missing at y, e takes
        that colour, written straight into the colour array and both masks,
        and True is returned.  Otherwise returns False and writes nothing;
        the edge needs the full chain (still e alone after a longer fan
        whose first critical index is 0 and whose path is empty).  The
        scheduler's probe makes the same test on its snapshot.

        This is the chain's colour, exactly: at fan step 0 nothing has been
        chosen, so the wanted colour is the smallest one missing at y (the
        exclusions that parallel edges cause begin at step 1); the fan stops
        there exactly when x has no edge of that colour, that is, misses it
        too; the fan is then augmenting, and augmenting along [e] gives e
        the smallest colour missing at both ends, this same colour.
        """
        used = self._used
        wanted = self._full & ~used[y]
        bit = wanted & -wanted
        if used[x] & bit:
            return False
        self._colours[e] = bit.bit_length()
        used[x] |= bit
        used[y] |= bit
        self._uncoloured -= 1
        return True

    def _rotate_fan(self, x: int, fan) -> bool:
        """Augment along the maximal fan around x that ``chains._grow_fan``
        returned, in place: each fan edge e_i takes a_i and the last, e_k,
        the smallest colour then missing at x and v_k.  Returns False and
        writes nothing when the fan is not augmenting (tested as in
        ``max_fan``).  The far endpoints' masks are written first, each step
        checked as :meth:`_recolour` checks it; the shift only permutes x's
        colours, so x's mask just gains e_k's colour.  A colour already used
        at a far endpoint, or shifted ends sharing no missing colour
        (neither happens to a fan of this colouring), raise
        augment_in_place's ValueError with the masks restored.
        """
        edges, far, seq = fan[0], fan[1], fan[2]
        colours, used = self._colours, self._used
        last = far[-1]
        if not self._full & ~(used[x] | used[last]):
            return False
        for i, col in enumerate(seq):
            # 1 << c >> 1 is colour c's bit, and 0 for the uncoloured e_0
            v, bit, old = far[i], 1 << (col - 1), 1 << colours[edges[i]] >> 1
            if used[v] & ~old & bit:
                self._unrotate(edges, far, seq, i)
                raise ValueError(f"colour {col} already used at an endpoint of edge {edges[i]}")
            used[v] = used[v] & ~old | bit
        at_last = used[last] & ~(1 << colours[edges[-1]] >> 1)
        common = self._full & ~(used[x] | at_last)
        if not common:
            self._unrotate(edges, far, seq, len(seq))
            raise ValueError("chain is not augmenting: no common missing colour")
        for i, col in enumerate(seq):
            colours[edges[i]] = col
        bit = common & -common
        colours[edges[-1]] = bit.bit_length()
        used[x] |= bit
        used[last] = at_last | bit
        self._uncoloured -= 1
        return True

    def _unrotate(self, edges, far, seq, n: int) -> None:
        """Undo the first n mask steps of :meth:`_rotate_fan`, which has
        written no colour yet."""
        colours, used = self._colours, self._used
        for i in range(n - 1, -1, -1):
            v = far[i]
            used[v] = used[v] & ~(1 << (seq[i] - 1)) | 1 << colours[edges[i]] >> 1

    def _shift_logs(self, chain: Sequence[int]):
        """The (edge, colour) pairs of ``chain`` before and after a shift,
        for :meth:`_recolour`.  Raises ValueError when the chain is empty,
        an edge id is outside 0..m-1, an edge repeats or an edge after the
        first is uncoloured."""
        colours = self._colours
        _check_edge_ids(chain, len(colours), "chain")
        cols = [colours[e] for e in chain]
        if 0 in cols[1:]:
            raise ValueError(f"edge {chain[cols.index(0, 1)]} is uncoloured")
        if len(set(chain)) != len(cols):
            raise ValueError("an edge repeats in the chain")
        old = list(zip(chain, cols))
        cols.append(0)
        return old, list(zip(chain, cols[1:]))

    def apply_undo(self, log: list[tuple[int, int]]) -> None:
        """Revert a :meth:`shift_in_place` (or any log of (edge, colour)
        pairs on distinct edges), with the same checks as the shift."""
        palette = self.graph.palette
        ids = [e for e, _ in log]
        _check_edge_ids(ids, self.graph.m, "undo log")
        for e, col in log:
            if not (0 <= col <= palette):
                raise ValueError(f"colour {col} outside palette 1..{palette}")
        if len(set(ids)) != len(log):
            raise ValueError("an edge repeats in the undo log")
        self._recolour([(e, self._colours[e]) for e in ids], log)

    def _recolour(self, old: list[tuple[int, int]], new: list[tuple[int, int]]) -> None:
        """Replace the current colours ``old`` of distinct edges by ``new``
        (the same edges, in the same order), writing the colour array and
        the used masks directly.  If a new colour is already used at an
        endpoint, the colouring is restored and ValueError is raised."""
        colours, used, edges = self._colours, self._used, self.graph.edges
        freed = 0
        for e, col in old:
            if col:
                bit = ~(1 << (col - 1))
                u, v, _ = edges[e]
                used[u] &= bit
                used[v] &= bit
                freed += 1
        for i, (e, col) in enumerate(new):
            colours[e] = col
            if not col:
                continue
            bit = 1 << (col - 1)
            u, v, _ = edges[e]
            if (used[u] | used[v]) & bit:
                self._uncoloured += freed
                self._recolour(new[:i], old)  # cannot fail: old was proper
                raise ValueError(f"colour {col} already used at an endpoint of edge {e}")
            used[u] |= bit
            used[v] |= bit
            freed -= 1
        self._uncoloured += freed

    # -- serialisation ------------------------------------------------------

    def to_text(self) -> str:
        """Dump format: one line per edge, ``edge_index colour``, 0 meaning
        uncoloured, edges in ascending id order."""
        return "".join(f"{e} {col}\n" for e, col in enumerate(self._colours))

    @staticmethod
    def parse_dump(graph: Multigraph, text: str) -> list[int]:
        """Parse a colouring dump into a raw colour array (no properness
        check; ``from_dump`` validates).

        Raises ValueError with a 1-based line number on malformed input.
        """
        _check_characters(text)
        return _parse_dump_lines(graph, text.splitlines())

    @staticmethod
    def from_dump(graph: Multigraph, text: str) -> "Colouring":
        """Parse a dump and validate it as a proper colouring."""
        return Colouring(graph, Colouring.parse_dump(graph, text))


def _parse_dump_lines(graph: Multigraph, lines: list[str], offset: int = 0) -> list[int]:
    """The body of :meth:`Colouring.parse_dump`, on the lines of a checked
    text that sit ``offset`` lines into their file (errors give file line
    numbers)."""
    if len(lines) != graph.m:
        raise ValueError(
            f"line {len(lines) + offset}: expected one line per edge ({graph.m}), "
            f"found {len(lines)}"
        )
    colours = [0] * graph.m
    palette = graph.palette
    for off, line in enumerate(lines):
        lineno = off + 1 + offset
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'edge_index colour'")
        try:
            e, col = map(int, parts)
        except ValueError:
            raise ValueError(f"line {lineno}: fields must be integers") from None
        if e != off:
            raise ValueError(f"line {lineno}: expected edge index {off}, got {e}")
        if not (0 <= col <= palette):
            raise ValueError(f"line {lineno}: colour {col} outside 0..{palette}")
        colours[e] = col
    return colours


def _check_edge_ids(ids: Sequence[int], m: int, what: str) -> None:
    """Reject an empty sequence of edge ids, or one with an id outside
    0..m-1, with ValueError: a negative id would index an edge from the end
    and alias another edge, which the repeat checks compare by id."""
    if not ids:
        raise ValueError(f"empty {what}")
    lo, hi = min(ids), max(ids)
    if lo < 0 or hi >= m:
        raise ValueError(f"edge id {lo if lo < 0 else hi} out of range")


# ---------------------------------------------------------------------------
# Properness
# ---------------------------------------------------------------------------


def is_proper(c: Colouring) -> bool:
    """Check a colouring's properness by direct re-scan of its colour array,
    with no reliance on the cached masks: True iff no two edges sharing a
    vertex carry the same non-zero colour.  The constructors and write
    paths keep every Colouring proper, so this is an independent check of
    that invariant, for callers that want one."""
    graph, colours = c.graph, c.colours
    for x in range(graph.n):
        seen = 0
        for e in graph.adj[x]:
            col = colours[e]
            if col == 0:
                continue
            bit = 1 << (col - 1)
            if seen & bit:
                return False
            seen |= bit
    return True
