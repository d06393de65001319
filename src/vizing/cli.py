"""Command-line front end: reproducible generation, colouring, and auditing runs.

Subcommands:

    gen       generate a random multigraph file (``mg`` format)
    colour    colour every edge sequentially; writes a graph+colouring dump
    schedule  colour by rounds of short chains; dump plus JSON round log
    audit     recompute the counting checks for a dump; writes a JSON or TSV report
    stats     sweep the scheduler over several L values; fraction-vs-bound rows
    orient    orient a fully coloured multiplicity-1 graph; edge/tail/head rows

Artifacts are plain text.  A graph file is the ``mg`` format; a colouring
dump is the graph followed by one ``edge_index colour`` line per edge, so
every artifact is self-contained.  ``c.to_text()`` writes exactly the
bytes ``colour`` and ``schedule`` write for the colouring c, and
``Colouring.from_dump(text)`` reads them, as ``audit`` and ``orient`` do.
``--input``/``--output`` default to stdin/stdout.  Every command is a pure
function of its input bytes, flags, and seed: repeated runs are
byte-identical.

Exit codes: 0 when all asserted checks pass, 2 when a substantive bound
fails (the offender is described on stderr), 1 for usage and I/O errors,
including malformed inputs (reported with 1-based line numbers).

All numbers are printed exactly: plain decimal for integers and reduced
``p/q`` strings for rationals.

The artifact formats' modules load with this one; each command imports
the engine and audit modules it runs, so ``colour`` and ``orient`` never
load the audit and superb-scan modules.
"""

from __future__ import annotations

import argparse
import sys

from .colouring import Colouring, is_proper
from .multigraph import MAX_EDGES, MAX_VERTICES, Multigraph, generate_random

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BOUND = 2


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; this front end reserves 2
    for bound failures, so usage errors are remapped to 1."""

    def error(self, message: str):  # noqa: D401 - argparse API
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int, kind: str):
    """An argparse type: an integer of at least ``low``, called ``kind``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1, "positive")
_nonneg_int = _int_at_least(0, "non-negative")


def _int_list(text: str) -> list[int]:
    parts = [p for p in text.split(",") if p.strip()]
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one L value")
    return values


def _add_io(p: argparse.ArgumentParser, input_help: str) -> None:
    p.add_argument("--input", metavar="PATH", help=input_help + " (default stdin)")
    p.add_argument("--output", metavar="PATH", help="where to write (default stdout)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="vizing", description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("gen", help="generate a random multigraph")
    p.add_argument("--n", type=_nonneg_int, required=True, help="vertex count")
    p.add_argument("--delta", type=_positive_int, default=3, help="target maximum degree (default 3)")
    p.add_argument("--pi", type=_positive_int, default=1, help="target maximum multiplicity (default 1)")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p.add_argument("--output", metavar="PATH", help="where to write (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("colour", help="colour every edge of a graph")
    _add_io(p, "the mg graph file")
    p.set_defaults(func=cmd_colour)

    p = sub.add_parser("schedule", help="colour by rounds of short chains")
    _add_io(p, "the mg graph file")
    p.add_argument("--L", type=_positive_int, required=True, help="chain-length scale; must exceed 2*delta")
    p.add_argument("--seed", type=int, default=0, help="schedule shuffle seed (default 0)")
    p.add_argument("--max-rounds", type=_positive_int, default=None, help="abort after this many rounds")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("audit", help="recompute counting checks for a colouring dump")
    _add_io(p, "the graph+colouring dump")
    p.add_argument("--L", type=_positive_int, required=True, help="scale for chain-degree and fraction checks")
    p.add_argument("--mode", choices=("simple", "iterated"), default="simple",
                   help="which no-short-chain state gates the asserted checks (default simple)")
    p.add_argument("--format", choices=("json", "tsv"), default="json", help="report format (default json)")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("stats", help="sweep the scheduler over several L values")
    _add_io(p, "the mg graph file")
    p.add_argument("--L", type=_int_list, required=True, metavar="L1,L2,...",
                   help="comma-separated L values to sweep")
    p.add_argument("--seed", type=int, default=0, help="schedule shuffle seed (default 0)")
    p.add_argument("--max-rounds", type=_positive_int, default=None, help="abort after this many rounds per L")
    p.add_argument("--format", choices=("json", "tsv"), default="json", help="row format (default json)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("orient", help="orient a fully coloured graph")
    _add_io(p, "the graph+colouring dump")
    p.set_defaults(func=cmd_orient)

    return parser


# ---------------------------------------------------------------------------
# Artifact I/O
# ---------------------------------------------------------------------------


def _read_text(args) -> str:
    """The input file's or stdin's bytes, decoded alike: a byte outside
    ASCII becomes a lone surrogate, which the parsers reject with its line
    number."""
    if args.input:
        with open(args.input, "rb") as fh:
            data = fh.read()
    elif hasattr(sys.stdin, "buffer"):
        data = sys.stdin.buffer.read()
    else:  # a text stream in place of stdin, as when main() runs in-process
        return sys.stdin.read()
    return data.decode("ascii", "surrogateescape")


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_graph(args) -> Multigraph:
    return Multigraph.from_text(_read_text(args))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.n > MAX_VERTICES:  # the output would not parse back
        raise ValueError(f"--n {args.n} exceeds the vertex limit {MAX_VERTICES}")
    target = min(args.pi * args.n * (args.n - 1) // 2, args.n * args.delta // 2)
    if target > MAX_EDGES:  # generate_random would aim for that many edges
        raise ValueError(
            f"--n {args.n} --delta {args.delta} --pi {args.pi} aims for {target} edges, "
            f"which exceeds the edge limit {MAX_EDGES}"
        )
    g = generate_random(args.n, args.delta, args.pi, seed=args.seed)
    _emit(args, g.to_text())
    return EXIT_OK


def _exit_for(offenders: list[str]) -> int:
    """Describe each substantive failure on stderr; exit 2 if there is any."""
    for line in offenders:
        print(f"bound failure: {line}", file=sys.stderr)
    return EXIT_BOUND if offenders else EXIT_OK


def _colouring_offenders(c: Colouring) -> list[str]:
    """Substantive failures of a supposedly full proper colouring."""
    out: list[str] = []
    if c.uncoloured_count:
        out.append(
            f"{c.uncoloured_count} edges left uncoloured; "
            f"first is edge {c.uncoloured()[0]}"
        )
    if not is_proper(c):
        out.append("two edges at one vertex share a colour")
    return out


def cmd_colour(args) -> int:
    from .engine import colour_sequential

    g = _load_graph(args)
    c = colour_sequential(g)
    offenders = _colouring_offenders(c)
    if not offenders:
        _emit(args, c.to_text())
    return _exit_for(offenders)


def cmd_schedule(args) -> int:
    from .engine import MaxRoundsExceeded, run_scheduler

    g = _load_graph(args)
    try:
        c = run_scheduler(g, args.L, args.seed, max_rounds=args.max_rounds, log=sys.stderr)
    except MaxRoundsExceeded as ex:
        _emit(args, ex.colouring.to_text())
        return _exit_for([str(ex)])
    _emit(args, c.to_text())
    return EXIT_OK


def _audit_offenders(report, L: int, mode: str) -> list[str]:
    """Asserted checks behind the audit exit code, read off the report.  The
    degree caps always apply; the minimum-degree floor applies once no chain
    shorter than L exists, that is when the simple fraction bound applies;
    the mode's fraction-bound verdict of fail is always substantive."""
    from .audit import VERDICT_NOT_APPLICABLE

    out: list[str] = []
    for caps, chains in ((report.simple_caps, "chains"),
                         (report.iterated_caps, "second-order chains")):
        if not caps.ok:
            out.append(
                f"coloured edge {caps.worst_edge} lies on {caps.max_degree} "
                f"{chains}; the cap is {caps.bound}"
            )
    e, d = report.min_uncoloured
    if e is not None and d < L and report.simple_bound.verdict != VERDICT_NOT_APPLICABLE:
        out.append(
            f"uncoloured edge {e} has chain degree {d} < L={L} "
            "although no chain shorter than L exists"
        )
    fb = report.simple_bound if mode == "simple" else report.iterated_bound
    return out + _fraction_offenders(fb, mode, L)


def _fraction_offenders(fb, mode: str, L: int) -> list[str]:
    from .audit import VERDICT_FAIL, _frac_str

    if fb.verdict != VERDICT_FAIL:
        return []
    return [f"uncoloured fraction {_frac_str(fb.fraction)} exceeds the "
            f"{mode} bound {_frac_str(fb.bound)} at L={L}"]


def cmd_audit(args) -> int:
    from .audit import audit_report

    report = audit_report(Colouring.from_dump(_read_text(args)), args.L)
    _emit(args, report.to_tsv() if args.format == "tsv" else report.to_json() + "\n")
    return _exit_for(_audit_offenders(report, args.L, args.mode))


def cmd_stats(args) -> int:
    import json

    from .audit import _frac_str, _fraction_bound
    from .engine import MaxRoundsExceeded, run_scheduler

    g = _load_graph(args)
    rows = []
    offenders: list[str] = []
    for L in args.L:
        try:
            c = run_scheduler(g, L, args.seed, max_rounds=args.max_rounds)
        except MaxRoundsExceeded as ex:
            return _exit_for([str(ex)])
        # the scheduler's last round probed every uncoloured edge with the
        # second-path bound L and found no chain, so check_unimprovable
        # holds in both modes: its bounds, L - 1 and None, accept fewer
        simple = _fraction_bound(c, L, "simple", True)
        iterated = _fraction_bound(c, L, "iterated", True)
        rows.append(
            {
                "L": L,
                "uncoloured_fraction": _frac_str(simple.fraction),
                "simple_bound": _frac_str(simple.bound),
                "iterated_bound": _frac_str(iterated.bound),
            }
        )
        offenders += _fraction_offenders(simple, "simple", L)
        offenders += _fraction_offenders(iterated, "iterated", L)
    if args.format == "tsv":
        header = "L\tuncoloured_fraction\tsimple_bound\titerated_bound"
        lines = [header] + [
            f"{r['L']}\t{r['uncoloured_fraction']}\t{r['simple_bound']}\t{r['iterated_bound']}"
            for r in rows
        ]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, json.dumps(rows, sort_keys=True, indent=2) + "\n")
    return _exit_for(offenders)


def cmd_orient(args) -> int:
    from .engine import orient

    c = Colouring.from_dump(_read_text(args))
    o = orient(c)
    bound = (c.graph.delta + 3) // 2
    counts = o.out_degree_counts()
    offenders = [f"vertex {x} has out-degree {d} > {bound}"
                 for x, d in sorted(counts.items()) if d > bound][:1]
    if not offenders:
        _emit(args, "".join(f"{e} {t} {h}\n" for e, (t, h) in sorted(o.direction.items())))
    return _exit_for(offenders)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return int(ex.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
