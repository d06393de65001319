"""Small named fixture graphs used across the suite, and the settings
profile of its property-based tests."""

from __future__ import annotations

import pytest
from hypothesis import settings

from vizing import build

# The oracles guard their preconditions with bare asserts.  pytest rewrites
# asserts only in test modules and in modules registered here, and only a
# rewritten assert still runs under ``python -O``; register before any test
# module imports the oracles.
pytest.register_assert_rewrite("oracles")

# Derandomised: every run draws the same examples, so the suite stays
# deterministic, and no example database is written.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def p3():
    """Path on 3 vertices: e0 = 0-1, e1 = 1-2.  Delta 2, pi 1."""
    return build(3, [(0, 1, 1), (1, 2, 1)])


@pytest.fixture
def dbl():
    """One doubled pair: p1, p2 both joining 0 and 1.  Delta 2, pi 2."""
    return build(2, [(0, 1, 1), (0, 1, 2)])


@pytest.fixture
def star3():
    """Star with centre 0 and edges a = 0-1, b = 0-2, c = 0-3.  Delta 3."""
    return build(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])


@pytest.fixture
def c4():
    """Cycle 0-1-2-3: f0 = 0-1, f1 = 1-2, f2 = 2-3, f3 = 0-3."""
    return build(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])


@pytest.fixture
def path4():
    """Path on 4 vertices: e0 = 0-1, e1 = 1-2, e2 = 2-3."""
    return build(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])


@pytest.fixture
def path8():
    """Path on 8 vertices, 7 edges."""
    return build(8, [(i, i + 1, 1) for i in range(7)])
