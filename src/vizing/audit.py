"""Counting graphs and exact quantitative checks over partial colourings.

The constructive machinery promises more than termination: when a colouring
resists improvement at scale L, every uncoloured edge must sit at the start
of long chains, while each coloured edge is traversed by only boundedly many
of them.  This module makes those counting statements checkable on concrete
colourings:

  * audit graphs: bipartite incidence between uncoloured edges and the
    coloured edges their chains traverse -- one flavour for plain chains,
    one for second-order chains through superb path edges;

  * degree bounds: a coloured edge serves at most (delta+pi)^4 plain chains
    and at most (delta+pi)^9 second-order chains, while under
    unimprovability every uncoloured edge has plain degree at least L;
    only audit_report checks the caps, and DegreeBoundCheck is public as
    the type of its simple_caps and iterated_caps, which the command line
    reads;

  * improvement checks: whether any uncoloured edge still admits a short
    augmenting chain, in the plain or the second-order sense, asked of the
    round scheduler's probe with the audit's second-path bound;

  * fraction bounds: an unimprovable colouring leaves at most (delta+pi)^4/L
    (plain) or (delta+pi)^15/L^2 (second-order, once L > 10(delta+pi)^6) of
    the edges uncoloured;

  * superb-edge counting: among the first L path edges, some colour pair
    collects many superb edges whose second paths use only those colours;

  * chain mass: the report's minimum, over uncoloured edges and endpoints,
    of the chain's length minus one (its mass at unit edge weights).

Pass/fail decisions use exact rational arithmetic throughout; floating point
never decides anything.  Bounds that are vacuous at the chosen parameters (a
fraction bound of at least 1, a count bound of at most 0) verdict as
"vacuous-pass", distinct from substantive passes, so batch runs can insist
on a minimum number of substantive checks.  Each public call derives each
probe's chain (one uncoloured edge and one endpoint) once, from the
colouring itself, passes it down to every check that needs it, and runs at
most one superb scan on it: audit_report's superb counts for the requested
probes and both its fraction bounds ride on the chains and scans that build
its audit graphs, whose second-order partner union costs time linear in the
scanned tail.  A scale L < 1 is a ValueError.  Nothing is cached across calls.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .chains import AlternatingPath, VizingChain, vizing_chain
from .colouring import Colouring
from .iterated import ScanEntry, superb_scan

__all__ = [
    "AuditGraph",
    "AuditReport",
    "DegreeBoundCheck",
    "FractionBound",
    "SuperbCount",
    "VERDICT_PASS",
    "VERDICT_FAIL",
    "VERDICT_VACUOUS",
    "VERDICT_NOT_APPLICABLE",
    "audit_report",
    "build_audit_graph",
    "check_unimprovable",
    "superb_count_check",
    "uncoloured_fraction_bounds",
]

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_VACUOUS = "vacuous-pass"
VERDICT_NOT_APPLICABLE = "bound not applicable"

SIMPLE = "simple"
ITERATED = "iterated"


# ---------------------------------------------------------------------------
# Audit graphs
# ---------------------------------------------------------------------------


class AuditGraph:
    """Bipartite incidence between uncoloured edges and coloured edges.

    For kind "simple", an uncoloured edge e is adjacent to every coloured
    edge on one of its two augmenting chains.  For kind "iterated", e is
    adjacent to every coloured edge on a second-order chain through some
    superb path edge (searched among the first L_cap path positions).

    adjacency maps each uncoloured edge to its (possibly empty) partner
    set; reverse_degrees counts, for each coloured edge that appears at
    all, how many uncoloured edges it partners.
    """

    __slots__ = ("kind", "adjacency", "reverse_degrees")

    def __init__(
        self, kind: str, adjacency: dict[int, frozenset[int]], reverse_degrees: dict[int, int]
    ):
        self.kind = kind
        self.adjacency = adjacency
        self.reverse_degrees = reverse_degrees

    def min_uncoloured_degree(self) -> tuple[int | None, int]:
        """(edge, degree) minimising over uncoloured edges, the smallest
        edge among ties; (None, 0) when the colouring is full."""
        best, low = None, 0
        for e, partners in self.adjacency.items():
            d = len(partners)
            if best is None or d < low or (d == low and e < best):
                best, low = e, d
        return best, low

    def max_coloured_degree(self) -> tuple[int | None, int]:
        """(edge, degree) maximising over coloured edges, the smallest edge
        among ties; (None, 0) when no coloured edge appears in any chain."""
        best, top = None, 0
        for f, d in self.reverse_degrees.items():
            if best is None or d > top or (d == top and f < best):
                best, top = f, d
        return best, top


def _check_scale(L: int) -> None:
    if L < 1:
        raise ValueError(f"the scale L must be at least 1, got {L}")


def _endpoint_chains(c: Colouring, e: int) -> tuple[VizingChain, VizingChain]:
    """The augmenting chains of the uncoloured edge e, one per endpoint."""
    u, v, _ = c.graph.edges[e]
    return vizing_chain(c, u, e), vizing_chain(c, v, e)


def _partners(
    c: Colouring,
    kind: str,
    chains: tuple[VizingChain, ...],
    L_cap: int | None,
    tallies: tuple[_SuperbTally | None, ...] = (None, None),
) -> tuple[frozenset[int], int | None]:
    """The audit-graph partners of one uncoloured edge, from its endpoint
    chains: the coloured edges of those chains ("simple"), or of the
    second-order chains through superb path edges at positions up to L_cap
    ("iterated"; an augmenting fan has no path and contributes nothing),
    and the shortest second path of a scanned superb edge (None if none).

    A superb entry's chain is a first-level prefix, whose cut grows in scan
    order, then its own second level; so the union takes the last superb
    chain whole and only the second level of the others, which is linear in
    the tail rather than quadratic.  A tally beside a chain is fed every
    entry of that chain's scan."""
    partners: set[int] = set()
    shortest = None
    for chain, tally in zip(chains, tallies):
        if kind == SIMPLE:
            partners.update(chain.edges())
        elif chain.tail is not None:
            last = None
            for entry in superb_scan(c, chain, limit=L_cap):
                if tally is not None:
                    tally.add(entry)
                if entry.superb:
                    partners.update(entry.second.edges())
                    last = entry
                    if shortest is None or entry.second_len < shortest:
                        shortest = entry.second_len
            if last is not None:
                partners.update(last.edges())
    partners.discard(chains[0].fan.edges[0])
    return frozenset(partners), shortest


def _audit_graph(kind: str, adjacency: dict[int, frozenset[int]]) -> AuditGraph:
    reverse: Counter[int] = Counter()
    for partners in adjacency.values():
        reverse.update(partners)
    return AuditGraph(kind=kind, adjacency=adjacency, reverse_degrees=dict(reverse))


def build_audit_graph(
    c: Colouring, kind: str, L_cap: int | None = None
) -> AuditGraph:
    """The counting graph of the given kind for the colouring c.

    kind "simple" pairs each uncoloured edge with the coloured edges of its
    two plain chains (one per endpoint); kind "iterated" pairs it with the
    coloured edges of its second-order chains, searching superb edges among
    the first L_cap path positions (no cap when L_cap is None).  Exact and
    deterministic; the colouring is only read.
    """
    if kind not in (SIMPLE, ITERATED):
        raise ValueError(f"unknown audit graph kind {kind!r}")
    return _audit_graph(kind, {
        e: _partners(c, kind, _endpoint_chains(c, e), L_cap)[0] for e in c.uncoloured()
    })


# ---------------------------------------------------------------------------
# Degree bounds
# ---------------------------------------------------------------------------


class DegreeBoundCheck(NamedTuple):
    """Outcome of a coloured-side degree check: every coloured edge's
    degree must stay within `bound`; `worst_edge` attains `max_degree`
    (None when no coloured edge appears in the audit graph)."""

    ok: bool
    bound: int
    max_degree: int
    worst_edge: int | None


def _check_degree_bounds(
    audit_graph: AuditGraph, delta: int, pi: int
) -> DegreeBoundCheck:
    """Check every coloured edge's degree against the cap for the kind:
    (delta+pi)^4 for plain chains, (delta+pi)^9 for second-order ones."""
    power = 4 if audit_graph.kind == SIMPLE else 9
    bound = (delta + pi) ** power
    worst, max_degree = audit_graph.max_coloured_degree()
    return DegreeBoundCheck(
        ok=max_degree <= bound, bound=bound, max_degree=max_degree, worst_edge=worst
    )


# ---------------------------------------------------------------------------
# Improvement checks
# ---------------------------------------------------------------------------


def check_unimprovable(c: Colouring, L: int, mode: str = ITERATED) -> bool:
    """Whether no uncoloured edge admits a short improvement at scale L.

    For every uncoloured edge e and endpoint x, the fan must not be
    augmenting and the alternating path must have at least L edges.  In
    "iterated" mode (the default), additionally every superb path edge
    within the first L positions must lead to a second path of at least L
    edges -- an empty second path (always the case for Type0) violates this
    whenever L > 0.  "simple" mode checks only the fan and path clauses
    and runs no superb scan.  Each edge is asked of the round scheduler's
    engine._probe, with the second-path bound L - 1 or None.
    """
    if mode not in (SIMPLE, ITERATED):
        raise ValueError(f"unknown improvement mode {mode!r}")
    _check_scale(L)
    from .engine import _probe  # here, so that a plain audit loads no engine

    second = L - 1 if mode == ITERATED else None
    return all(_probe(c, e, L, second) is None for e in c.uncoloured())


# ---------------------------------------------------------------------------
# Uncoloured fraction bounds
# ---------------------------------------------------------------------------


class FractionBound(NamedTuple):
    """Uncoloured fraction against the unimprovability bound.  verdict is
    one of "pass", "fail", "vacuous-pass" (bound at least 1) or "bound not
    applicable" (precondition unmet; fraction and bound still reported)."""

    fraction: Fraction
    bound: Fraction
    verdict: str


def fraction_bound_value(mode: str, delta: int, pi: int, L: int) -> Fraction:
    """The bound formula alone: (delta+pi)^4/L for plain improvement,
    (delta+pi)^15/L^2 for the second-order variant."""
    _check_scale(L)
    if mode == SIMPLE:
        return Fraction((delta + pi) ** 4, L)
    if mode == ITERATED:
        return Fraction((delta + pi) ** 15, L * L)
    raise ValueError(f"unknown improvement mode {mode!r}")


def _fraction_verdict(fraction: Fraction, bound: Fraction, applicable: bool) -> str:
    if not applicable:
        return VERDICT_NOT_APPLICABLE
    if fraction > bound:
        return VERDICT_FAIL
    if bound >= 1:
        return VERDICT_VACUOUS
    return VERDICT_PASS


def uncoloured_fraction_bounds(c: Colouring, L: int, mode: str) -> FractionBound:
    """Measure the uncoloured fraction |U_c|/|E| and compare it with the
    bound for the mode.

    The bound only applies when check_unimprovable holds for the mode's
    definition; the second-order bound additionally needs L > 10(delta+pi)^6.
    When either precondition fails the verdict is "bound not applicable"
    and no pass/fail claim is made (the formula value is still reported).
    On real colourings satisfying the preconditions the "fail" verdict
    should be unreachable; it exists so a violation is loud, not silent.
    """
    return _fraction_bound(c, L, mode, check_unimprovable(c, L, mode=mode))


def _fraction_bound(c: Colouring, L: int, mode: str, unimprovable: bool) -> FractionBound:
    """The body of :func:`uncoloured_fraction_bounds`, given the mode's
    check_unimprovable verdict."""
    g = c.graph
    bound = fraction_bound_value(mode, g.delta, g.pi, L)
    fraction = Fraction(0) if g.m == 0 else Fraction(c.uncoloured_count, g.m)
    applicable = unimprovable and (mode != ITERATED or 10 * (g.delta + g.pi) ** 6 < L)
    return FractionBound(
        fraction=fraction, bound=bound, verdict=_fraction_verdict(fraction, bound, applicable)
    )


# ---------------------------------------------------------------------------
# Superb-edge counting
# ---------------------------------------------------------------------------


class SuperbCount(NamedTuple):
    """Best colour-pair bucket of superb edges in a path prefix.  count is
    the number of superb edges among the first L path positions whose
    second path uses only colours from {gamma, theta}; verdict compares it
    with `bound` ("vacuous-pass" when the bound is not positive)."""

    gamma: int
    theta: int
    count: int
    bound: Fraction
    verdict: str


def superb_count_bound(delta: int, pi: int, L: int) -> Fraction:
    """The guaranteed size of the best bucket:
    (L/2 - delta^5 - 1) / (3 (delta+pi)^2) - 2 delta^3."""
    return (Fraction(L, 2) - delta**5 - 1) / (3 * (delta + pi) ** 2) - 2 * delta**3


def _path_colour_set(path: AlternatingPath | None) -> frozenset[int]:
    """Colours actually used by a second path: empty paths use none and a
    single-edge path uses only its first colour."""
    if path is None or not path.edges:
        return frozenset()
    if len(path.edges) == 1:
        return frozenset((path.alpha,))
    return frozenset((path.alpha, path.beta))


class _SuperbTally:
    """The superb edges of one scan, counted by the colour set of their
    second paths and fed one entry at a time, so no entry is kept.  Those
    whose second path uses no colour count for every pair, in one int."""

    __slots__ = ("by_colours", "colourless")

    def __init__(self) -> None:
        self.by_colours: Counter[frozenset[int]] = Counter()
        self.colourless = 0

    def add(self, entry: ScanEntry) -> None:
        if entry.superb:
            cols = _path_colour_set(entry.second.tail)
            if cols:
                self.by_colours[cols] += 1
            else:
                self.colourless += 1

    def best(self, c: Colouring, L: int) -> SuperbCount:
        """The best colour-pair bucket (ties to the smallest pair) against
        the count bound at scale L: a pair counts every superb edge whose
        second path's colours it contains."""
        palette = c.graph.palette
        best: tuple[int, int, int] | None = None
        for gamma in range(1, palette + 1):
            for theta in range(gamma + 1, palette + 1):
                pair = {gamma, theta}
                count = self.colourless + sum(
                    n for cols, n in self.by_colours.items() if cols <= pair
                )
                if best is None or count > best[2]:
                    best = (gamma, theta, count)
        if best is None:
            raise AssertionError("palette has fewer than two colours")
        bound = superb_count_bound(c.graph.delta, c.graph.pi, L)
        if bound <= 0:
            verdict = VERDICT_VACUOUS
        elif best[2] >= bound:
            verdict = VERDICT_PASS
        else:
            verdict = VERDICT_FAIL
        return SuperbCount(
            gamma=best[0], theta=best[1], count=best[2], bound=bound, verdict=verdict
        )


def superb_count_check(c: Colouring, e: int, x: int, L: int) -> SuperbCount:
    """Bucket the superb edges among the first L path positions by the
    colour pair of their second paths and return the best bucket.

    A superb edge counts for the pair {gamma, theta} when its second path
    uses only those colours, so Type0 edges (empty second path) count for
    every pair and single-colour paths count for every pair containing
    that colour.  Requires the alternating path to have at least L edges;
    a shorter path (or an augmenting fan, which has no path) is an error.
    Ties prefer the lexicographically smallest pair.
    """
    _check_scale(L)
    chain = vizing_chain(c, x, e)
    if chain.tail is None:
        raise ValueError(
            "the fan around the edge is augmenting; there is no alternating "
            "path to count superb edges in"
        )
    path_len = len(chain.tail.edges)
    if path_len < L:
        raise ValueError(
            f"alternating path has {path_len} edges but the count needs at least L={L}"
        )
    tally = _SuperbTally()
    for entry in superb_scan(c, chain, limit=L):
        tally.add(entry)
    return tally.best(c, L)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


class AuditReport:
    """One colouring's worth of audit results, all recomputable from it.
    simple_caps and iterated_caps are the two audit graphs' coloured-side
    degree checks (worst_edge attains the maximum degree); simple_bound and
    iterated_bound are uncoloured_fraction_bounds in the two modes;
    min_uncoloured is the (edge, degree) pair of the simple graph's
    least-degree uncoloured edge.  superb_count_checks rows are (e, x,
    gamma, theta, count, bound, verdict).

    to_json and to_tsv render the same fields: the four scalars and the
    chain mass (rationals as ``p/q``; a missing mass is JSON null and an
    empty TSV cell), then the superb rows, which the TSV writes one per
    line after a ``superb_count_check`` cell."""

    __slots__ = (
        "simple_caps", "iterated_caps", "simple_bound", "iterated_bound",
        "min_uncoloured", "superb_count_checks", "weighted_min_mass",
    )

    def __init__(
        self,
        simple_caps: DegreeBoundCheck,
        iterated_caps: DegreeBoundCheck,
        simple_bound: FractionBound,
        iterated_bound: FractionBound,
        min_uncoloured: tuple[int | None, int],
        superb_count_checks: list[tuple[int, int, int, int, int, Fraction, str]],
        weighted_min_mass: Fraction | None,
    ):
        self.simple_caps = simple_caps
        self.iterated_caps = iterated_caps
        self.simple_bound = simple_bound
        self.iterated_bound = iterated_bound
        self.min_uncoloured = min_uncoloured
        self.superb_count_checks = superb_count_checks
        self.weighted_min_mass = weighted_min_mass

    @property
    def max_deg_simple(self) -> int:
        return self.simple_caps.max_degree

    @property
    def max_deg_iterated(self) -> int:
        return self.iterated_caps.max_degree

    @property
    def min_uncoloured_deg(self) -> int:
        return self.min_uncoloured[1]

    @property
    def uncoloured_fraction(self) -> Fraction:
        return self.simple_bound.fraction

    def _fields(self) -> list[tuple[str, object]]:
        """The one layout behind both renderings: (name, value) for each
        scalar in TSV order, rationals as ``p/q`` and a missing mass as
        None, then ("superb_count_checks", rows) with each bound as ``p/q``."""
        mass = self.weighted_min_mass
        return [
            ("max_deg_simple", self.max_deg_simple),
            ("max_deg_iterated", self.max_deg_iterated),
            ("min_uncoloured_deg", self.min_uncoloured_deg),
            ("uncoloured_fraction", _frac_str(self.uncoloured_fraction)),
            ("weighted_min_mass", None if mass is None else _frac_str(mass)),
            ("superb_count_checks", [
                [e, x, gamma, theta, count, _frac_str(bound), verdict]
                for (e, x, gamma, theta, count, bound, verdict) in self.superb_count_checks
            ]),
        ]

    def to_json(self) -> str:
        return json.dumps(dict(self._fields()), sort_keys=True, indent=2)

    def to_tsv(self) -> str:
        """One ``name<TAB>value`` line per scalar, then one line per superb
        row."""
        *scalars, (_, rows) = self._fields()
        lines = [f"{name}\t{'' if value is None else value}" for name, value in scalars]
        lines += ["\t".join(map(str, ("superb_count_check", *row))) for row in rows]
        return "\n".join(lines) + "\n"


def audit_report(
    c: Colouring, L: int, superb_probes: tuple[tuple[int, int], ...] = ()
) -> AuditReport:
    """Assemble the standard report: both audit graphs (second-order search
    capped at L), their extreme degrees, both fraction bounds, superb
    counts for the requested (e, x) probes, and the minimum chain mass over
    all uncoloured edges and endpoints (None when the colouring is full).

    Each (uncoloured edge, endpoint) probe's chain is built once and
    scanned once: the chain serves both audit graphs, the chain mass and
    the simple bound (unimprovable when every tail has L edges or more),
    and its scan serves the iterated graph, the iterated bound (no superb
    second path shorter than L either) and, when the probe is requested
    and its tail has at least L edges, the probe's superb count.  Any other
    requested probe goes through :func:`superb_count_check`, which raises
    its errors in probe order."""
    _check_scale(L)
    wanted = set(superb_probes)
    first_order = second_order = True
    tallies: dict[tuple[int, int], _SuperbTally] = {}
    simple: dict[int, frozenset[int]] = {}
    iterated: dict[int, frozenset[int]] = {}
    masses: list[Fraction] = []
    for e in c.uncoloured():
        chains = _endpoint_chains(c, e)
        fed = []
        for chain in chains:
            long_tail = chain.tail is not None and len(chain.tail.edges) >= L
            first_order &= long_tail
            probe = (e, chain.fan.centre)
            if probe in wanted and long_tail:
                tallies[probe] = _SuperbTally()
            fed.append(tallies.get(probe))
            masses.append(Fraction(len(chain.edges()) - 1))
        simple[e] = _partners(c, SIMPLE, chains, None)[0]
        iterated[e], shortest = _partners(c, ITERATED, chains, L, tuple(fed))
        second_order &= shortest is None or shortest >= L
    rows = []
    for e, x in superb_probes:
        tally = tallies.get((e, x))
        sc = superb_count_check(c, e, x, L) if tally is None else tally.best(c, L)
        rows.append((e, x, sc.gamma, sc.theta, sc.count, sc.bound, sc.verdict))
    g = c.graph
    simple_graph = _audit_graph(SIMPLE, simple)
    return AuditReport(
        simple_caps=_check_degree_bounds(simple_graph, g.delta, g.pi),
        iterated_caps=_check_degree_bounds(_audit_graph(ITERATED, iterated), g.delta, g.pi),
        simple_bound=_fraction_bound(c, L, SIMPLE, first_order),
        iterated_bound=_fraction_bound(c, L, ITERATED, first_order and second_order),
        min_uncoloured=simple_graph.min_uncoloured_degree(),
        superb_count_checks=rows,
        weighted_min_mass=min(masses, default=None),
    )
