"""Every demo runs to completion against the current library, and prints
what the golden manifest pins."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import golden
import vizing

DEMOS = golden.DEMOS
SRC = str(Path(vizing.__file__).resolve().parent.parent)


def test_all_seven_demos_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC if not path else SRC + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert golden.demo_digest(demo.name, proc.stdout) == golden.load()["demos"][demo.name]
