"""Mutation check: each mutant below is a one-place text replacement in the
library that some test module must notice.

For each mutant the script copies ``src/`` to a temporary directory, makes
the replacement there (failing loudly unless the target text occurs exactly
once, so a refactor that removes a target is reported rather than passed),
and runs the named test module with ``-x`` against the copy.  The mutant is
killed when that run reports a failing test (pytest's exit status 1).  Any
survivor, missing target or broken run makes the script exit 1.

Run it from anywhere; it takes a minute or two::

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (what the mutant does, file under src/vizing, target text, replacement,
#  test module that must fail)
MUTANTS = [
    ("_apply skips a refused plan", "engine.py",
     'raise AssertionError(f"the {kind} plan around vertex {x} no longer applies")',
     "continue", "test_colouring"),
    ("_batch takes {x} as a fan's vertices", "engine.py",
     'verts = {x, *q[1]} if kind == "fan"', 'verts = {x} if kind == "fan"', "test_engine"),
    ("_apply counts a fan as one recoloured edge", "engine.py",
     "recoloured += len(q[0])", "recoloured += 1", "test_engine"),
    ("_probe compares with L instead of second", "engine.py",
     "entry.second_len <= second", "entry.second_len <= L", "test_engine"),
    ("check_unimprovable passes L", "audit.py",
     "second = L - 1 if mode == ITERATED else None",
     "second = L if mode == ITERATED else None", "test_audit"),
    ("simple mode runs a superb scan", "audit.py",
     "second = L - 1 if mode == ITERATED else None", "second = L - 1", "test_audit"),
    ("_classify builds its fan with augmenting=False", "iterated.py",
     "Fan(y, edges, far, colour_seq, augmenting, next_colour, repeat_pos)",
     "Fan(y, edges, far, colour_seq, False, next_colour, repeat_pos)", "test_iterated"),
    ("the one-edge Type0 fan has no next colour", "iterated.py",
     "self._next_colour, None)", "None, None)", "test_iterated"),
    ("a one-edge Type0 entry's chain stops short of its edge", "iterated.py",
     "return self._first_level[: self._cut + 1]", "return self._first_level[: self._cut]",
     "test_iterated"),
    ("superb_scan inverts every stable() verdict", "iterated.py",
     "en.superb = shifted.stable(paths)", "en.superb = not shifted.stable(paths)",
     "test_golden"),
    ("MaxRoundsExceeded stores rounds + 1", "engine.py",
     "self.rounds = rounds", "self.rounds = rounds + 1", "test_engine"),
    ("a TypeI second level is cut one edge short", "iterated.py",
     "en._second = VizingChain(fan, len(edges), p)",
     "en._second = VizingChain(fan, len(edges) - 1, p)", "test_iterated"),
    ("a TypeII entry prefers the last index's path", "iterated.py",
     "    if p_i.last_vertex != y:\n        en._second = VizingChain(fan, i + 1, p_i)\n"
     "    elif p_m.last_vertex != y:\n        en._second = VizingChain(fan, m + 1, p_m)\n",
     "    if p_m.last_vertex != y:\n        en._second = VizingChain(fan, m + 1, p_m)\n"
     "    elif p_i.last_vertex != y:\n        en._second = VizingChain(fan, i + 1, p_i)\n",
     "test_iterated"),
    ("superb_scan proves a cut on a path that no longer alternates", "iterated.py",
     "if not (prev and alternates):", "if not prev:", "test_iterated"),
    ("superb_scan proves the first cut, the fan's", "iterated.py",
     "if not (prev and alternates):", "if not alternates:", "test_iterated"),
    ("superb_scan compares second paths on an overlay not written to the cut", "iterated.py",
     "                    shifted.write(cut)\n", "", "test_iterated"),
    ("to_tsv prints None for a missing mass", "audit.py",
     "{'' if value is None else value}", "{value}", "test_cli"),
    ("is_proper skips vertex 0", "colouring.py",
     "    for x in range(graph.n):\n        seen = 0",
     "    for x in range(1, graph.n):\n        seen = 0", "test_colouring"),
    ("the dump reader numbers colour lines from the colour block, not the text", "colouring.py",
     "_parse_dump_lines(g, lines[m + 1 :], m + 1)", "_parse_dump_lines(g, lines[m + 1 :], 0)",
     "test_colouring"),
]


def _check_target(src: Path, name: str, filename: str, target: str) -> str:
    """The file's text, once the target is known to occur in it exactly once."""
    text = (src / "vizing" / filename).read_text()
    count = text.count(target)
    if count != 1:
        raise SystemExit(
            f"mutant {name!r}: the target text occurs {count} times in src/vizing/{filename}, "
            f"not once:\n{target}"
        )
    return text


def run(name: str, filename: str, target: str, replacement: str, module: str) -> bool:
    """Whether the mutant is killed; a run that is not a plain test
    failure raises SystemExit."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        text = _check_target(src, name, filename, target)
        (src / "vizing" / filename).write_text(text.replace(target, replacement))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run(
            [sys.executable, "-c", "import vizing; print(vizing.__file__)"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not Path(where).resolve().is_relative_to(src.resolve()):
            raise SystemExit(f"mutant {name!r}: vizing was imported from {where}, not the copy")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             str(ROOT / "tests" / f"{module}.py")],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
    if proc.returncode not in (0, 1):
        raise SystemExit(
            f"mutant {name!r}: pytest exited {proc.returncode}, not with a test result\n"
            + proc.stdout[-3000:] + proc.stderr[-3000:]
        )
    return proc.returncode == 1


def main() -> int:
    for name, filename, target, _, _ in MUTANTS:  # every target first, before any run
        _check_target(ROOT / "src", name, filename, target)
    survivors = []
    for name, filename, target, replacement, module in MUTANTS:
        killed = run(name, filename, target, replacement, module)
        print(f"{'killed  ' if killed else 'SURVIVED'} {module:<15} {name}", flush=True)
        if not killed:
            survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
