"""The command line's output, byte for byte: every run of the matrix in
``tests/golden.py`` gives the exit code, stdout and stderr whose digest
``tests/golden_cli.json`` pins.  The matrix must also reach the
second-order scan: enough scan entries, and second paths of both types
compared under the shift."""

from __future__ import annotations

from collections import Counter

import pytest

import golden
from vizing import iterated


@pytest.fixture(scope="module")
def matrix():
    """The matrix's digests, and what its runs did in the scan: entries by
    type, and ``stable`` calls by the number of paths compared (one for a
    TypeI entry, two for a TypeII one)."""
    counts: Counter = Counter()
    classify, stable = iterated._classify, iterated._Shifted.stable

    def counted_classify(c, tail, en, *rest):
        paths = classify(c, tail, en, *rest)
        counts[en.type_tag] += 1
        return paths

    def counted_stable(self, paths):
        counts["stable", len(paths)] += 1
        return stable(self, paths)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(iterated, "_classify", counted_classify)
        mp.setattr(iterated._Shifted, "stable", counted_stable)
        digests = golden.cli_digests()
    return digests, counts


def test_cli_matrix_matches_the_golden_manifest(matrix):
    want = golden.load()["cli"]
    got, _ = matrix
    assert sorted(got) == sorted(want)
    assert sorted(name for name in want if got[name] != want[name]) == []


def test_cli_matrix_reaches_the_second_order_scan(matrix):
    _, counts = matrix
    types = iterated.SuitableType
    assert sum(counts[t] for t in types) >= 1000, counts
    assert all(counts[t] >= 1 for t in types), counts
    assert counts["stable", 1] >= 1 and counts["stable", 2] >= 1, counts
