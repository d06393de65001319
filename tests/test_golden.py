"""The command line's output, byte for byte: every run of the matrix in
``tests/golden.py`` gives the exit code, stdout and stderr whose digest
``tests/golden_cli.json`` pins."""

from __future__ import annotations

import golden


def test_cli_matrix_matches_the_golden_manifest():
    want = golden.load()["cli"]
    got = golden.cli_digests()
    assert sorted(got) == sorted(want)
    assert sorted(name for name in want if got[name] != want[name]) == []
