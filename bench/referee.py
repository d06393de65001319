"""Independent checks of the program's outputs.

Every expectation here is recomputed from the benchmark's own edge lists or
derived by hand from the gadget constructions in ``inputs``, in exact
``Fraction`` arithmetic; nothing is compared against a stored copy of an
earlier output.  A failed check raises :class:`Rejected`.
"""

from __future__ import annotations

import json
from fractions import Fraction

from inputs import Graph, Probe


class Rejected(Exception):
    """An output the referee does not accept."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise Rejected(what)


# ---------------------------------------------------------------------------
# Colourings, dumps and orientations
# ---------------------------------------------------------------------------


def check_colouring(g: Graph, colours: list[int], full: bool) -> None:
    """Proper, within the palette delta + pi of g, and (when ``full``) every
    edge coloured."""
    delta, pi = g.bounds()
    _require(len(colours) == g.m, f"{len(colours)} colours for {g.m} edges")
    seen: set[tuple[int, int]] = set()
    for e, ((u, v, _), col) in enumerate(zip(g.edges, colours)):
        if col == 0:
            _require(not full, f"edge {e} left uncoloured")
            continue
        _require(1 <= col <= delta + pi, f"edge {e}: colour {col} outside 1..{delta + pi}")
        for x in (u, v):
            _require((x, col) not in seen, f"colour {col} repeats at vertex {x}")
            seen.add((x, col))


def parse_dump(g: Graph, graph_text: str, text: str) -> list[int]:
    """The colours of a dump whose graph block must equal ``graph_text``."""
    lines = text.splitlines(keepends=True)
    _require("".join(lines[: g.m + 1]) == graph_text, "dump graph block differs from the input file")
    rows = lines[g.m + 1 :]
    _require(len(rows) == g.m, f"dump has {len(rows)} colour lines for {g.m} edges")
    colours = []
    for e, row in enumerate(rows):
        parts = row.split()
        _require(len(parts) == 2 and parts[0] == str(e), f"dump colour line {e} malformed")
        colours.append(int(parts[1]))
    return colours


def check_dump(g: Graph, graph_text: str, text: str, full: bool) -> list[int]:
    colours = parse_dump(g, graph_text, text)
    check_colouring(g, colours, full)
    return colours


def check_orientation(g: Graph, text: str) -> None:
    """Every edge once, in id order, between its own endpoints, and no
    out-degree above ceil((delta + 2) / 2)."""
    delta, _ = g.bounds()
    cap = -(-(delta + 2) // 2)
    rows = text.splitlines()
    _require(len(rows) == g.m, f"orientation has {len(rows)} lines for {g.m} edges")
    out = [0] * g.n
    for e, row in enumerate(rows):
        parts = row.split()
        _require(len(parts) == 3 and parts[0] == str(e), f"orientation line {e} malformed")
        t, h = int(parts[1]), int(parts[2])
        u, v, _ = g.edges[e]
        _require({t, h} == {u, v}, f"edge {e} oriented {t}->{h}, its ends are {u}, {v}")
        out[t] += 1
        _require(out[t] <= cap, f"vertex {t} has out-degree above {cap}")


def check_unchanged(colours_now: list[int], colours_before: list[int], what: str) -> None:
    _require(list(colours_now) == colours_before, f"{what} changed the colouring")


def equal_to(want):
    """A check that accepts exactly ``want``."""
    def check(got) -> None:
        _require(got == want, f"got {got}, expected {want}")
    return check


def report_fields(report) -> dict:
    """The fields of an ``AuditReport`` that :func:`expected_stuck_report`
    predicts."""
    return {key: getattr(report, key) for key in (
        "max_deg_simple", "max_deg_iterated", "min_uncoloured_deg", "uncoloured_fraction", "weighted_min_mass",
    )}


# ---------------------------------------------------------------------------
# Hand-derived values of the gadgets
# ---------------------------------------------------------------------------


def suitable_window(tail: int, L: int) -> int:
    """Largest position a scan at scale L reaches on a tail of ``tail``
    edges: the last edge is never suitable."""
    return min(L, tail - 1)


def odd_positions(tail: int, L: int) -> int:
    """Odd tail positions p with 5 <= p <= min(L, tail - 1): the positions
    outside the distance-4 ball around e that carry the primary colour."""
    hi = suitable_window(tail, L)
    return 0 if hi < 5 else (hi - 5) // 2 + 1


def count_bound(delta: int, pi: int, L: int) -> Fraction:
    """(L/2 - delta^5 - 1) / (3 (delta + pi)^2) - 2 delta^3."""
    return (Fraction(L, 2) - delta**5 - 1) / (3 * (delta + pi) ** 2) - 2 * delta**3


def expected_census(p: Probe, L: int, delta: int, pi: int) -> tuple[int, int, int, Fraction, str]:
    """(gamma, theta, count, bound, verdict) of ``superb_count_check``.

    Every odd position in the window is superb except the unstable ones.
    Bare positions (Type0) count for every colour pair and a stable pendant's
    one-edge second path coloured 3 counts for pairs holding 3, so the best
    pair is (1, 3) when a stable pendant lies in the window and (1, 2), the
    first of a full tie, otherwise.
    """
    hi = suitable_window(p.tail, L)
    count = odd_positions(p.tail, L) - sum(1 for q in p.unstable if q <= hi)
    pair = (1, 3) if any(q <= hi for q in p.stable) else (1, 2)
    bound = count_bound(delta, pi, L)
    verdict = "vacuous-pass" if bound <= 0 else ("pass" if count >= bound else "fail")
    return pair[0], pair[1], count, bound, verdict


def expected_stuck_report(g: Graph, probes: list[Probe], L: int) -> dict:
    """The audit report of a union of locked gadgets beside a fully
    coloured background, at scale L with 5 <= L <= min tail.

    Each uncoloured edge's two plain chains are [e] plus a tail of T edges,
    on disjoint edges, so its simple degree is 2T and every coloured edge
    lies on one chain; the superb chains are prefixes of the same tails, so
    the iterated coloured degree is 1 too; the unit chain mass is T.
    """
    t_min = min(p.tail for p in probes)
    return {
        "max_deg_simple": 1,
        "max_deg_iterated": 1,
        "min_uncoloured_deg": 2 * t_min,
        "uncoloured_fraction": Fraction(len(probes), g.m),
        "weighted_min_mass": Fraction(t_min),
    }


def simple_bound(delta: int, pi: int, L: int) -> Fraction:
    return Fraction((delta + pi) ** 4, L)


def iterated_bound(delta: int, pi: int, L: int) -> Fraction:
    return Fraction((delta + pi) ** 15, L * L)


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def check_report_text(text: str, fmt: str, expected: dict | None) -> None:
    """``vizing audit`` output against ``expected`` (``None``: a full
    colouring, whose report is all zeros)."""
    if expected is None:
        expected = {
            "max_deg_simple": 0, "max_deg_iterated": 0, "min_uncoloured_deg": 0,
            "uncoloured_fraction": Fraction(0), "weighted_min_mass": None,
        }
    want = {k: (_frac(v) if isinstance(v, Fraction) else v) for k, v in expected.items()}
    if fmt == "json":
        doc = json.loads(text)
        _require(doc.pop("superb_count_checks", None) == [], "audit lists superb checks it was not asked for")
        _require(doc == want, f"audit report {doc} differs from {want}")
    else:
        want["weighted_min_mass"] = want["weighted_min_mass"] or ""
        got = dict(line.split("\t", 1) for line in text.splitlines())
        _require(got == {k: str(v) for k, v in want.items()}, f"audit rows {got} differ from {want}")


def check_round_log(text: str) -> None:
    """The schedule round log: one JSON object per non-empty line."""
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    _require(bool(records) and all(isinstance(r, dict) for r in records), "round log is empty or malformed")
