"""The three workloads: their inputs, their timed operations and the checks
the referee makes on each operation's output.

A workload's ``setup`` makes its inputs from the seed, builds the program's
objects from them and writes the files the command line reads.  Its
operations run in a fixed order every round; each adds its time (CPU
seconds, which the runner scales to reference seconds) to one end-to-end
metric, and is checked once the round is over.

Command-line operations start ``python3 -m vizing.cli`` as a child process,
as a user would, except in the traced run, where they call
``vizing.cli.main`` in-process so that the tracer sees inside them.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr
from dataclasses import dataclass
from typing import Callable

from vizing import audit, cli, colouring, engine, multigraph

import inputs
import referee

# Sizes are fixed per workload; the seed only changes which graph of that
# size is drawn, so every seed does the same amount of work.
# Each kind of graph is drawn three times: the in-process colouring runs on
# all three, the command line on the first.  Three small graphs keep the
# in-process metrics steadier than one large one.
COLOUR_RANDOM = {"kinds": {"pi1": (4000, 7_600, 4, 1), "pi3": (3000, 6_750, 5, 3)}, "copies": 3, "audit_L": 16}
# The grid's corner eccentricity 2 * 16 - 3 = 29 exceeds 3L = 27, so the
# grid takes the greedy power-colouring schedule; the random graph's
# components fit within 3L = 48 and take the round-robin one.
SCHEDULE_MIXED = {"random": (5000, 9_500, 4, 1), "L": 16, "grid_side": 16, "grid_L": 9}
# Locked tails of 800..1600 edges and L = 700 > (delta + pi)^4 = 625 make
# the simple fraction bound substantive; census tails of 6000 at L = 5700
# make the count bound positive at delta 3: (2850 - 244) / 48 - 54 = 0.29.
# Each census tail has (stable, unstable) decorations at seeded positions.
AUDIT_STUCK = {
    "locked_tails": (800, 1000, 1200, 1400, 1600),
    "L": 700,
    "background": (2000, 2800, 3, 1),
    "census_tail": 6000,
    "census_L": 5700,
    "census_decorations": ((0, False), (3, False), (2, True)),
}


class CliFailed(RuntimeError):
    """A command-line run exited with a non-zero code."""


@dataclass
class Op:
    """One timed operation: ``run`` does the work, ``check`` judges its
    result after the clock stops.  ``probes`` is the number of uncoloured
    edge-endpoints an audit operation examines."""

    name: str
    metric: str
    run: Callable[[], object]
    check: Callable[[object], None]
    probes: int = 0


class Cli:
    """Runs ``vizing`` subcommands, as child processes or in-process."""

    def __init__(self, root: str, in_process: bool) -> None:
        self.in_process = in_process
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def __call__(self, argv: list[str], stderr_path: str = os.devnull) -> None:
        with open(stderr_path, "w") as err:
            if self.in_process:
                with redirect_stderr(err):
                    code = cli.main(argv)
            else:
                code = subprocess.run(
                    [sys.executable, "-m", "vizing.cli", *argv],
                    env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                ).returncode
        if code != 0:
            raise CliFailed(f"vizing {argv[0]} exited with {code}")


def _read(path: str) -> str:
    with open(path, encoding="ascii") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def _program_graph(g: inputs.Graph):
    return multigraph.build(g.n, g.edges)


class Workload:
    name = ""

    def __init__(self, seed: int, work: str, run_cli: Cli) -> None:
        self.seed = seed
        self.work = work
        self.cli = run_cli

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def rng(self, part: str) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{part}")

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def layer_extras(self) -> dict[str, float]:
        """Per-layer figures read off the traced round's outputs."""
        return {}

    # shared operation builders ------------------------------------------

    def colouring_op(self, name, metric, fn, g: inputs.Graph) -> Op:
        return Op(name, metric, fn, lambda c: referee.check_colouring(g, list(c.colours), full=True))

    def cli_dump_op(self, name, metric, argv, g: inputs.Graph, graph_text: str, out: str, log: str = os.devnull) -> Op:
        def check(_):
            referee.check_dump(g, graph_text, _read(out), full=True)
            if log != os.devnull:
                referee.check_round_log(_read(log))
        return Op(name, metric, lambda: self.cli(argv + ["--output", out], log), check)

    def cli_audit_op(self, name, metric, dump: str, L: int, expected, fmt="json", mode="simple", probes=0) -> Op:
        out = dump + f".{mode}.{fmt}"
        argv = ["audit", "--L", str(L), "--mode", mode, "--format", fmt, "--input", dump, "--output", out]
        return Op(name, metric, lambda: self.cli(argv),
                  lambda _: referee.check_report_text(_read(out), fmt, expected), probes)


class ColourRandom(Workload):
    """``colour_sequential`` and ``vizing colour``/``orient``/``audit`` on
    random simple graphs (pi = 1) and random multigraphs with many parallel
    edges (pi = 3)."""

    name = "colour-random"

    def setup(self) -> None:
        rng = self.rng("graphs")
        self.g: dict[str, list[inputs.Graph]] = {}
        for kind, (n, m, delta, pi) in COLOUR_RANDOM["kinds"].items():
            share = 0.3 if pi > 1 else 0.0
            self.g[kind] = [
                inputs.random_multigraph(rng, n, m, delta, pi, parallel_share=share)
                for _ in range(COLOUR_RANDOM["copies"])
            ]
        self.pg = {kind: [_program_graph(g) for g in graphs] for kind, graphs in self.g.items()}
        self.text = {kind: graphs[0].mg_text() for kind, graphs in self.g.items()}
        for kind, text in self.text.items():
            _write(self.path(f"{kind}.mg"), text)

    def ops(self) -> list[Op]:
        ops = []
        for kind, metric in (("pi1", "api_s"), ("pi3", "api_alt_s")):
            for i, (g, pg) in enumerate(zip(self.g[kind], self.pg[kind])):
                ops.append(self.colouring_op(f"colour_sequential[{kind} #{i}]", metric,
                                             lambda pg=pg: engine.colour_sequential(pg), g))
        g1, g3, L = self.g["pi1"][0], self.g["pi3"][0], COLOUR_RANDOM["audit_L"]
        d1, d3, o1 = self.path("pi1.dump"), self.path("pi3.dump"), self.path("pi1.orient")
        return ops + [
            self.cli_dump_op("vizing colour[pi1]", "cli_s",
                             ["colour", "--input", self.path("pi1.mg")], g1, self.text["pi1"], d1),
            Op("vizing orient[pi1]", "cli_s",
               lambda: self.cli(["orient", "--input", d1, "--output", o1]),
               lambda _: referee.check_orientation(g1, _read(o1))),
            self.cli_dump_op("vizing colour[pi3]", "cli_s",
                             ["colour", "--input", self.path("pi3.mg")], g3, self.text["pi3"], d3),
            self.cli_audit_op("vizing audit[pi1]", "cli_audit_s", d1, L, None),
            self.cli_audit_op("vizing audit[pi3]", "cli_audit_s", d3, L, None),
        ]


class _RoundCounter:
    """A log sink for ``run_scheduler`` counting rounds and busy rounds."""

    def __init__(self) -> None:
        self.rounds = 0
        self.busy = 0

    def write(self, text: str) -> None:
        for line in text.splitlines():
            record = json.loads(line)
            self.rounds += 1
            self.busy += record.get("augmented", 0) > 0


class ScheduleMixed(Workload):
    """``run_scheduler`` and ``vizing schedule`` on a random graph (the
    round-robin schedule) and a square grid (the greedy power-colouring
    schedule, since the grid is wider than 3L)."""

    name = "schedule-mixed"

    def setup(self) -> None:
        n, m, delta, pi = SCHEDULE_MIXED["random"]
        self.r = inputs.random_multigraph(self.rng("random"), n, m, delta, pi)
        self.grid = inputs.grid(self.rng("grid"), SCHEDULE_MIXED["grid_side"])
        self.r_text = self.r.mg_text()
        _write(self.path("random.mg"), self.r_text)
        self.pr, self.pgrid = _program_graph(self.r), _program_graph(self.grid)
        self.sched_seed = self.rng("scheduler").randrange(2**31)

    def ops(self) -> list[Op]:
        L, gL, s = SCHEDULE_MIXED["L"], SCHEDULE_MIXED["grid_L"], self.sched_seed
        dump = self.path("random.dump")
        return [
            self.colouring_op("run_scheduler[random]", "api_s",
                              lambda: engine.run_scheduler(self.pr, L, s), self.r),
            self.colouring_op("run_scheduler[grid]", "api_alt_s",
                              lambda: engine.run_scheduler(self.pgrid, gL, s), self.grid),
            self.cli_dump_op("vizing schedule[random]", "cli_s",
                             ["schedule", "--L", str(L), "--seed", str(s), "--input", self.path("random.mg")],
                             self.r, self.r_text, dump, log=self.path("random.log")),
            self.cli_audit_op("vizing audit[scheduled]", "cli_audit_s", dump, L, None),
        ]

    def layer_extras(self) -> dict[str, float]:
        counter = _RoundCounter()
        engine.run_scheduler(self.pr, SCHEDULE_MIXED["L"], self.sched_seed, log=counter)
        engine.run_scheduler(self.pgrid, SCHEDULE_MIXED["grid_L"], self.sched_seed, log=counter)
        return {
            "engine.rounds": counter.rounds,
            "engine.busy_round_ratio": counter.busy / counter.rounds,
            "engine.round_log_bytes": os.path.getsize(self.path("random.log")),
        }


class AuditStuck(Workload):
    """Audits of a stuck union of locked gadgets beside a fully coloured
    random background, and the superb census on decorated long tails."""

    name = "audit-stuck"

    def setup(self) -> None:
        cfg = AUDIT_STUCK
        rng = self.rng("stuck")
        tails = list(cfg["locked_tails"])
        rng.shuffle(tails)
        b = inputs.Builder()
        probes = [inputs.add_locked(b, T) for T in tails]
        n, m, delta, pi = cfg["background"]
        bg = inputs.random_multigraph(rng, n, m, delta, pi)
        inputs.add_background(b, bg, inputs.greedy_colouring(bg))
        self.stuck = inputs.compose(rng, b, probes)
        self.stuck_dump = self.path("stuck.dump")
        _write(self.stuck_dump, inputs.dump_text(self.stuck.graph, self.stuck.colours))
        self.c_stuck = colouring.Colouring.from_assignment(_program_graph(self.stuck.graph), self.stuck.colours)

        rng = self.rng("census")
        T = cfg["census_tail"]
        b = inputs.Builder()
        probes = []
        for stable, unstable in cfg["census_decorations"]:
            spots = rng.sample(range(11, T - 11, 20), stable + unstable)
            probes.append(inputs.add_long_path(b, T, spots[:stable], spots[stable] if unstable else None))
        self.census = inputs.compose(rng, b, probes)
        self.c_census = colouring.Colouring.from_assignment(_program_graph(self.census.graph), self.census.colours)

    def ops(self) -> list[Op]:
        cfg = AUDIT_STUCK
        L = cfg["L"]
        g = self.stuck.graph
        delta, pi = g.bounds()
        probes = self.stuck.probes
        expected = referee.expected_stuck_report(g, probes, L)
        superb_probes = tuple((p.e, p.x) for p in probes)
        rows = [(p.e, p.x, *referee.expected_census(p, L, delta, pi)) for p in probes]
        fraction = expected["uncoloured_fraction"]
        c = self.c_stuck

        def on_stuck(check):
            def judge(result):
                referee.check_unchanged(c.colours, self.stuck.colours, "an audit")
                check(result)
            return judge

        def check_report(r):
            referee.equal_to(expected)(referee.report_fields(r))
            referee.equal_to(rows)([tuple(row) for row in r.superb_count_checks])

        simple = (fraction, referee.simple_bound(delta, pi, L), "pass")
        iterated = (fraction, referee.iterated_bound(delta, pi, L), "bound not applicable")
        ops = [
            Op("audit_report", "api_s", lambda: audit.audit_report(c, L, superb_probes), on_stuck(check_report)),
            Op("check_unimprovable[simple]", "api_s",
               lambda: audit.check_unimprovable(c, L, "simple"), on_stuck(referee.equal_to(True))),
            Op("check_unimprovable[iterated]", "api_s",
               lambda: audit.check_unimprovable(c, L, "iterated"), on_stuck(referee.equal_to(False))),
            Op("uncoloured_fraction_bounds[simple]", "api_s",
               lambda: audit.uncoloured_fraction_bounds(c, L, "simple"), on_stuck(lambda fb: referee.equal_to(simple)(tuple(fb)))),
            Op("uncoloured_fraction_bounds[iterated]", "api_s",
               lambda: audit.uncoloured_fraction_bounds(c, L, "iterated"), on_stuck(lambda fb: referee.equal_to(iterated)(tuple(fb)))),
        ]
        cL = cfg["census_L"]
        cdelta, cpi = self.census.graph.bounds()
        cc = self.c_census

        def census_op(i, p):
            want = referee.expected_census(p, cL, cdelta, cpi)

            def check(sc):
                referee.check_unchanged(cc.colours, self.census.colours, "superb_count_check")
                referee.equal_to(want)(tuple(sc))
            return Op(f"superb_count_check[tail {i}]", "api_alt_s",
                      lambda: audit.superb_count_check(cc, p.e, p.x, cL), check)

        ops += [census_op(i, p) for i, p in enumerate(self.census.probes)]
        ops += [
            self.cli_audit_op("vizing audit --mode iterated --format tsv", "cli_s", self.stuck_dump, L, expected,
                              fmt="tsv", mode="iterated"),
            self.cli_audit_op("vizing audit", "cli_audit_s", self.stuck_dump, L, expected, probes=2 * len(probes)),
        ]
        return ops

    def layer_extras(self) -> dict[str, float]:
        """Tail edges ``superb_count_check`` scans in one round, up to its
        window min(L, T' - 1): the census tails, and the locked tails that
        ``audit_report`` probes."""
        cfg = AUDIT_STUCK
        census = sum(referee.suitable_window(p.tail, cfg["census_L"]) for p in self.census.probes)
        locked = sum(referee.suitable_window(p.tail, cfg["L"]) for p in self.stuck.probes)
        return {"audit.count_path_edges": census + locked}


WORKLOADS = {w.name: w for w in (ColourRandom, ScheduleMixed, AuditStuck)}
