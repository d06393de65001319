"""The golden manifest: SHA-256 digests of the command line's and the demos'
output, pinned in ``tests/golden_cli.json``.

The command-line matrix runs in process through ``vizing.cli.main``.  Its
graphs come from ``gen`` at delta 3 and 4 and pi 1, 2 and 3, two seeds each
(``SIZES``), and each header's pi must be the requested one.  On each graph
it runs ``gen`` itself, ``colour``, ``schedule --L 16`` with its round
log, ``schedule --L 16 --max-rounds 2`` (exit 2), ``audit`` as simple JSON
and as iterated TSV at L = 3, 5, 9 and 16 on both the full dump (from
``colour``) and the interrupted one, ``stats --L 9,16``, and ``orient``
when pi = 1: 256 runs.  Then it audits two stuck dumps built from the
gadgets of ``tests/gadgets.py``, at the scales ``STUCK_L``, as simple JSON
and as iterated TSV: locked instances beside a fully coloured random
background, and decorated long tails whose suitable edges are of every
type, superb and not.  These twelve runs reach the second-order scan, which
the graphs above barely do.  Each run's digest covers its exit code, stdout
and stderr.  Each demo's digest covers its stdout, with the wall-clock
figure of demo 02 masked; ``tests/test_demos.py`` checks those on its own
runs.

A change that alters output bytes on purpose regenerates the manifest and
says why::

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden_cli.json"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

_CLOCK = re.compile(r" in [0-9.]+ s;")

# (n, seeds) of the matrix's graphs by (delta, pi), else (1500, (0, 1)).
# gen --n 1500 never reaches multiplicity 3 at delta 3 or 4, so the pi = 3
# graphs are small ones whose headers read pi 3; at delta 3 no n from 8 to
# 40 does at seeds 0-39.  Delta stays at most 4, so L = 16 and 9 exceed
# 2 delta as schedule and stats require.
SIZES = {(3, 3): (6, (10, 13)), (4, 3): (16, (0, 22))}

# the scales of the stuck dumps' audits: below the first suitable position
# (5), inside the tails, and past the longest tail
STUCK_L = ("3", "40", "400")


def digest(*parts) -> str:
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


def demo_digest(name: str, stdout: str) -> str:
    """A demo's stdout digest, with wall-clock figures masked."""
    if name.startswith("02_"):
        stdout = _CLOCK.sub(" in <t> s;", stdout)
    return digest(stdout)


def _run(argv: list[str], stdin: str = "") -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process command."""
    from vizing.cli import main

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def cli_digests() -> dict[str, str]:
    """The digest of every run of the command-line matrix, by run name."""
    runs: dict[str, str] = {}
    for delta in (3, 4):
        for pi in (1, 2, 3):
            n, seeds = SIZES.get((delta, pi), (1500, (0, 1)))
            for seed in seeds:
                graph = f"d{delta}p{pi}s{seed}"

                def run(name, argv, stdin=""):
                    result = _run(argv, stdin)
                    runs[f"{graph} {name}"] = digest(*result)
                    return result

                _, mg, _ = run("gen", ["gen", "--n", str(n), "--delta", str(delta),
                                       "--pi", str(pi), "--seed", str(seed)])
                header = mg.partition("\n")[0]
                if header.split()[4] != str(pi):
                    raise AssertionError(f"{graph}: gen wrote the header {header!r}, not pi {pi}")
                _, full, _ = run("colour", ["colour"], mg)
                run("schedule", ["schedule", "--L", "16"], mg)
                code, partial, _ = run("schedule-max2", ["schedule", "--L", "16", "--max-rounds", "2"], mg)
                if code != 2:
                    raise AssertionError(f"{graph}: schedule --max-rounds 2 exited {code}, not 2")
                for dump_name, dump in (("full", full), ("partial", partial)):
                    for L in ("3", "5", "9", "16"):
                        run(f"audit-{dump_name}-L{L}-simple-json",
                            ["audit", "--L", L, "--mode", "simple", "--format", "json"], dump)
                        run(f"audit-{dump_name}-L{L}-iterated-tsv",
                            ["audit", "--L", L, "--mode", "iterated", "--format", "tsv"], dump)
                run("stats", ["stats", "--L", "9,16"], mg)
                if pi == 1:
                    run("orient", ["orient"], full)
    for name, dump in stuck_dumps().items():
        for L in STUCK_L:
            for mode, fmt in (("simple", "json"), ("iterated", "tsv")):
                argv = ["audit", "--L", L, "--mode", mode, "--format", fmt]
                runs[f"stuck-{name} audit-L{L}-{mode}-{fmt}"] = digest(*_run(argv, dump))
    return runs


def _union_dump(parts) -> str:
    """The dump of the disjoint union of (graph, colouring) parts, in order."""
    from vizing import Colouring, build

    triples, colours, n = [], [], 0
    for g, c in parts:
        triples += [(u + n, v + n, k) for u, v, k in g.edges]
        colours += c.colours
        n += g.n
    g = build(n, triples)
    return g.to_text() + Colouring.from_assignment(g, colours).to_text()


def stuck_dumps() -> dict[str, str]:
    """Dumps with uncoloured edges whose chains end in long tails: every
    graph has delta 4 and pi 1, so the union keeps each gadget's palette."""
    from gadgets import BARE, TYPE1, TYPE1_UNSTABLE, TYPE2, locked_instance, long_path_instance
    from vizing import colour_sequential, generate_random

    background = generate_random(300, 4, 1, seed=0)
    locked = [locked_instance(T) for T in (300, 121)]
    decorated = [
        long_path_instance(260, {5: TYPE1, 9: TYPE2, 13: BARE, 17: TYPE1_UNSTABLE,
                                 41: TYPE2, 97: TYPE1}, delta=4),
        long_path_instance(200, {7: TYPE2, 11: TYPE1, 15: TYPE2}, delta=4, side=3),
    ]
    return {
        "locked": _union_dump([(i.g, i.c) for i in locked[:1]]
                              + [(background, colour_sequential(background))]
                              + [(i.g, i.c) for i in locked[1:]]),
        "decorated": _union_dump([(i.g, i.c) for i in decorated]),
    }


def demo_digests() -> dict[str, str]:
    """The digest of every demo's stdout, each demo run once."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    out = {}
    with tempfile.TemporaryDirectory() as cwd:
        for demo in DEMOS:
            proc = subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                                  capture_output=True, text=True, check=True)
            out[demo.name] = demo_digest(demo.name, proc.stdout)
    return out


def load() -> dict:
    return json.loads(MANIFEST.read_text())


if __name__ == "__main__":
    manifest = {"cli": cli_digests(), "demos": demo_digests()}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(manifest['cli'])} command and {len(manifest['demos'])} demo digests "
          f"to {MANIFEST.relative_to(ROOT)}")
