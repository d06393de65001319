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

# (type, superb) of every entry the stuck dumps' audits scan, at every
# scale and in both modes, as the matrix counts them
STUCK_TALLY = {
    ("Type0", True): 1464,
    ("TypeI", False): 4,
    ("TypeI", True): 10,
    ("TypeII", True): 14,
}


@pytest.fixture(scope="module")
def matrix():
    """The matrix's digests, and what its runs did in the scan: entries by
    type, ``stable`` calls by the number of paths compared (one for a
    TypeI entry, two for a TypeII one), and the entries of the stuck dumps'
    audits, which come last, to be tallied once the scan has judged them."""
    counts: Counter = Counter()
    stuck: list | None = None
    classify, stable, dumps = iterated._classify, iterated._Shifted.stable, golden.stuck_dumps

    def counted_classify(c, tail, en, *rest):
        paths = classify(c, tail, en, *rest)
        counts[en.type_tag] += 1
        if stuck is not None:
            stuck.append(en)
        return paths

    def counted_stable(self, paths):
        counts["stable", len(paths)] += 1
        return stable(self, paths)

    def stuck_dumps():
        nonlocal stuck
        stuck = []
        return dumps()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(iterated, "_classify", counted_classify)
        mp.setattr(iterated._Shifted, "stable", counted_stable)
        mp.setattr(golden, "stuck_dumps", stuck_dumps)
        digests = golden.cli_digests()
    return digests, counts, Counter((en.type_tag.value, en.superb) for en in stuck)


def test_cli_matrix_matches_the_golden_manifest(matrix):
    want = golden.load()["cli"]
    got, _, _ = matrix
    assert sorted(got) == sorted(want)
    assert sorted(name for name in want if got[name] != want[name]) == []


def test_cli_matrix_reaches_the_second_order_scan(matrix):
    _, counts, _ = matrix
    types = iterated.SuitableType
    assert sum(counts[t] for t in types) >= 1000, counts
    assert all(counts[t] >= 1 for t in types), counts
    assert counts["stable", 1] >= 1 and counts["stable", 2] >= 1, counts


def test_stuck_dump_audits_judge_every_entry_as_pinned(matrix):
    """The stuck dumps' audit bytes barely show the scan's verdicts (on
    disjoint gadgets the largest iterated degree is 1 whatever they are),
    so the (type, superb) tally of every entry their audits scanned is
    pinned here."""
    _, _, stuck = matrix
    assert dict(stuck) == STUCK_TALLY
