"""The package surface: every exported name resolves and has a caller
outside the tests, and each command loads only the modules it runs."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import vizing

MODULES = ["vizing"] + [f"vizing.{m.name}" for m in pkgutil.iter_modules(vizing.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """A name left in ``__all__`` after its definition is deleted would
    break only ``from ... import *``; catch it here."""
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


ROOT = Path(__file__).resolve().parent.parent


def _names_used_outside_the_tests() -> set[str]:
    """Every name that the library, the demos or the benchmark mention: each
    ``Name`` id and ``Attribute`` attr, each import alias in ``demos/`` and
    ``bench/``, and each string constant in ``bench/``, where ``spans.py``
    wraps methods by name."""
    used: set[str] = set()
    for folder in ("src/vizing", "demos", "bench"):
        outside = folder != "src/vizing"
        for path in sorted((ROOT / folder).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif outside and isinstance(node, ast.alias):
                    used.add(node.name)
                elif folder == "bench" and isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.add(node.value)
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    """Each name in a module's ``__all__``, and each public attribute of a
    class it exports, is used by the library, a demo or the benchmark, so
    code that only the tests call does not stay in the library.

    The scan works by name, so it is a floor: a name used for anything
    counts (``json.load`` would keep a method ``load``).  Only the string
    list in ``bench/spans.py`` keeps ``Colouring.shift_in_place`` and
    ``Colouring.apply_undo`` alive."""
    used = _names_used_outside_the_tests()
    unused = set()
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in module.__all__:
            if attr not in used:
                unused.add(f"{name}.{attr}")
            value = getattr(module, attr)
            if inspect.isclass(value):
                unused.update(
                    f"{value.__module__}.{value.__name__}.{member}"
                    for member in vars(value)
                    if not member.startswith("_") and member not in used
                )
    assert sorted(unused) == []


# what ``main`` loads, printed by a fresh interpreter after the command ran
_LOADED = """\
import sys
before = set(sys.modules)
from vizing.cli import main
code = main(sys.argv[1:])
print(*sorted(set(sys.modules) - before), sep="\\n")
sys.exit(code)
"""

_GRAPH = "mg 3 2 2 1\n0 1 1\n1 2 1\n"
_DUMP = "mg 4 4 2 1\n0 1 1\n1 2 1\n2 3 1\n0 3 1\n0 1\n1 2\n2 1\n3 2\n"
_FORMATS = {"vizing", "vizing.cli", "vizing.multigraph", "vizing.colouring"}
_COLOURER = _FORMATS | {"vizing.chains", "vizing.engine"}
_AUDIT = _FORMATS | {"vizing.chains", "vizing.iterated", "vizing.audit"}


@pytest.mark.parametrize(
    "argv, dump, modules",
    [
        (["gen", "--n", "5"], False, _FORMATS),
        (["colour"], False, _COLOURER),
        (["orient"], True, _COLOURER),
        # every chain of this graph is short, so no superb scan is loaded
        (["schedule", "--L", "5"], False, _COLOURER),
        (["audit", "--L", "5"], True, _AUDIT),
        (["stats", "--L", "5"], False, _AUDIT | {"vizing.engine"}),
    ],
    ids=["gen", "colour", "orient", "schedule", "audit", "stats"],
)
def test_each_command_loads_only_what_it_runs(tmp_path, argv, dump, modules):
    """A command imports the package modules it runs and no others; none
    imports dataclasses, and the colourers load neither fractions nor
    json, whose import costs show in every call's start-up."""
    source = tmp_path / "input"
    source.write_text(_DUMP if dump else _GRAPH)
    if argv[0] != "gen":
        argv = [*argv, "--input", str(source)]
    src = str(Path(vizing.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED, *argv, "--output", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {m for m in loaded if m.split(".")[0] == "vizing"} == modules
    assert "dataclasses" not in loaded
    if argv[0] in ("colour", "orient"):
        assert not loaded & {"fractions", "json"}
