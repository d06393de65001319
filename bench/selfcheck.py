"""Shows that every referee check is live: each accepts a real output of
the program on a small instance and rejects the same output, or the
program's output on the same input, with one edge corrupted.
"""

from __future__ import annotations

import os
import random

from vizing import audit, colouring, engine, multigraph

import inputs
import referee
from referee import Rejected


def _rejects(check, *args) -> bool:
    try:
        check(*args)
    except Rejected:
        return True
    return False


def _neighbour(g: inputs.Graph, e: int) -> int:
    """An edge sharing an endpoint with e."""
    u, v, _ = g.edges[e]
    return next(f for f, (a, b, _) in enumerate(g.edges) if f != e and {a, b} & {u, v})


def _read(path: str) -> str:
    with open(path, encoding="ascii") as fh:
        return fh.read()


class _SelfCheck:
    """Runs the cases; ``failed`` collects the checks that are not live."""

    def __init__(self, work: str, run_cli) -> None:
        self.rng = random.Random("self-check")
        self.work = work
        self.run_cli = run_cli
        self.mg = os.path.join(work, "self.mg")
        self.dump = os.path.join(work, "self.dump")
        self.failed: list[str] = []

    def case(self, name: str, check, good, corrupted) -> None:
        if _rejects(check, good) or not _rejects(check, corrupted):
            self.failed.append(name)

    def colourings_and_dumps(self) -> None:
        # colourings: one edge takes a neighbour's colour, leaves the palette,
        # or is left uncoloured
        g = inputs.random_multigraph(self.rng, 60, 100, 4, 2, parallel_share=0.3)
        cols = list(engine.colour_sequential(multigraph.build(g.n, g.edges)).colours)
        delta, pi = g.bounds()
        j = _neighbour(g, 0)
        for what, col in (("proper", cols[j]), ("palette", delta + pi + 1), ("full", 0)):
            self.case(f"colouring: {what}", lambda c: referee.check_colouring(g, c, True), cols, [col] + cols[1:])

        # dumps written by `vizing colour`: one edge line of the graph block
        # moved to another vertex, or one colour line clashing
        text = g.mg_text()
        with open(self.mg, "w", encoding="ascii") as fh:
            fh.write(text)
        self.run_cli(["colour", "--input", self.mg, "--output", self.dump])
        out = _read(self.dump)
        lines = out.splitlines(keepends=True)
        u, v, k = g.edges[0]
        moved = lines[:1] + [f"{u} {next(w for w in range(g.n) if w not in (u, v))} {k}\n"] + lines[2:]
        dumped = list(lines)
        dumped[g.m + 1] = f"0 {referee.parse_dump(g, text, out)[j]}\n"
        check = lambda t: referee.check_dump(g, text, t, True)  # noqa: E731
        self.case("dump: graph block", check, out, "".join(moved))
        self.case("dump: colour line", check, out, "".join(dumped))

    def orientations(self) -> None:
        # orientations written by `vizing orient`: one edge given a foreign
        # endpoint, one edge reversed into a vertex already at the cap, one
        # edge missing
        s = inputs.random_multigraph(self.rng, 80, 150, 4, 1)
        with open(self.mg, "w", encoding="ascii") as fh:
            fh.write(s.mg_text())
        orient = os.path.join(self.work, "self.orient")
        self.run_cli(["colour", "--input", self.mg, "--output", self.dump])
        self.run_cli(["orient", "--input", self.dump, "--output", orient])
        rows = _read(orient).splitlines()
        check = lambda t: referee.check_orientation(s, "\n".join(t))  # noqa: E731
        e0, t0, h0 = rows[0].split()
        foreign = next(w for w in range(s.n) if w not in (int(t0), int(h0)))
        self.case("orientation: endpoints", check, rows, [f"{e0} {t0} {foreign}"] + rows[1:])
        out_deg = [0] * s.n
        for row in rows:
            out_deg[int(row.split()[1])] += 1
        cap = -(-(s.bounds()[0] + 2) // 2)
        flip = next((i for i, row in enumerate(rows) if out_deg[int(row.split()[2])] == cap), None)
        if flip is None:
            self.failed.append("orientation: out-degree (no vertex at the cap)")
        else:
            e, t, h = rows[flip].split()
            self.case("orientation: out-degree", check, rows, rows[:flip] + [f"{e} {h} {t}"] + rows[flip + 1 :])
        self.case("orientation: every edge", check, rows, rows[1:])

    def stuck_audits(self) -> None:
        # stuck audits: with the far end of one tail uncoloured, the program's
        # report no longer matches the hand-derived values; a colouring with
        # one edge changed is caught as changed
        b = inputs.Builder()
        probes = [inputs.add_locked(b, 12)]
        tail_end = len(b.pairs) - 1
        probes.append(inputs.add_locked(b, 16))
        bg = inputs.random_multigraph(self.rng, 20, 24, 3, 1)
        inputs.add_background(b, bg, inputs.greedy_colouring(bg))
        sg = inputs.normalise(b.n, b.pairs)
        pg = multigraph.build(sg.n, sg.edges)
        L = 9
        want = referee.expected_stuck_report(sg, probes, L)
        cut = list(b.colours)
        cut[tail_end] = 0
        good = colouring.Colouring.from_assignment(pg, b.colours)
        bad = colouring.Colouring.from_assignment(pg, cut)
        self.case("stuck report", referee.equal_to(want),
                  referee.report_fields(audit.audit_report(good, L)), referee.report_fields(audit.audit_report(bad, L)))
        self.case("unchanged colouring", lambda c: referee.check_unchanged(c, b.colours, "audit"), list(good.colours), cut)
        for fmt in ("json", "tsv"):
            texts = []
            for colours in (b.colours, cut):
                with open(self.dump, "w", encoding="ascii") as fh:
                    fh.write(inputs.dump_text(sg, colours))
                report = os.path.join(self.work, f"self.{fmt}")
                self.run_cli(["audit", "--L", str(L), "--format", fmt, "--input", self.dump, "--output", report])
                texts.append(_read(report))
            self.case(f"audit report ({fmt})", lambda t: referee.check_report_text(t, fmt, want), *texts)

    def census(self) -> None:
        # census: uncolouring the stable pendant turns its TypeI edge into a
        # bare one, which moves the best pair off (1, 3)
        b = inputs.Builder()
        probe = inputs.add_long_path(b, 60, [11], 31)
        pg = multigraph.build(b.n, inputs.normalise(b.n, b.pairs).edges)
        cut = list(b.colours)
        cut[probe.pendants[0]] = 0
        want = referee.expected_census(probe, 50, 3, 1)
        results = [
            tuple(audit.superb_count_check(colouring.Colouring.from_assignment(pg, colours), probe.e, probe.x, 50))
            for colours in (b.colours, cut)
        ]
        self.case("census", referee.equal_to(want), *results)


def run(work: str, run_cli) -> list[str]:
    """Names of the checks that failed to accept the true output or to
    reject its corruption, or whose small instance the program failed on;
    empty when every check is live."""
    checks = _SelfCheck(work, run_cli)
    for section in (checks.colourings_and_dumps, checks.orientations, checks.stuck_audits, checks.census):
        try:
            section()
        except Exception as ex:  # the program failed on a self-check input
            checks.failed.append(f"{section.__name__}: the program failed ({ex!r})")
    return checks.failed
