"""
Walking a six-thousand-edge tail: the superb census
===================================================

When a chain's tail is long, the second level gets to work: walk the tail,
stop at the eligible edges (far enough from the start, carrying the right
colour), and ask of each one whether its own second-order repair is
self-contained and stable.  The ones that pass are "superb", and counting
them per colour pair is what powers the quadratic improvement of the
second level: enough superb edges in one bucket means many genuinely
disjoint ways to shorten the chain.

This script builds a worst-case-shaped instance by hand: one stalled fan
in front of a long path alternating colours 3 and 1, with the option of
pendant decorations part-way along.
"""

from vizing import Colouring, build, vizing_chain
from vizing.audit import superb_count_bound, superb_count_check
from vizing.iterated import superb_scan


def path_instance(T, pendants=()):
    """A stalled fan at vertex 0 whose chain tail is a T-edge path in
    colours 3/1; each position in `pendants` (odd, at least 5) gets a
    colour-2 pendant edge whose far vertex soaks up colours 3 and 4."""
    tail = [(1, 6, 1)] + [(5 + t, 6 + t, 1) for t in range(1, T)]
    extra = []
    n = 6 + T
    for pos in pendants:
        y = 5 + pos
        extra += [(y, n, 1), (n, n + 1, 1), (n, n + 2, 1)]
        n += 3
    g = build(n, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (3, 4, 1), (3, 5, 1)]
              + tail + extra)
    cols = {1: 1, 2: 2, 3: 3, 4: 4}
    for t in range(T):
        cols[5 + t] = 3 if t % 2 == 0 else 1
    eid = 5 + T
    for _ in pendants:
        cols[eid], cols[eid + 1], cols[eid + 2] = 2, 3, 4
        eid += 3
    return g, Colouring.from_assignment(g, cols)


T = 6000
g, c = path_instance(T)
chain = vizing_chain(c, 0, 0)
print(g.m, "edges; chain tail has", len(chain.tail.edges), "edges")

# The scan yields one entry per eligible edge, in path order.  On a bare
# path the eligible positions are the odd ones from 5 on, every one a
# Type0 (its second-order repair needs no path at all), and every one
# superb.
entries = []
for entry in superb_scan(c, chain, limit=12):
    entries.append(entry)
    print("position", entry.suitable.position, "edge", entry.suitable.edge,
          "type", entry.classification.type_tag, "superb?", entry.superb)

# Counting: bucket the superb edges by the colour pair their second path
# uses.  Type0 edges count for every pair, so on the bare path the
# lexicographically first pair takes them all.
best = superb_count_check(c, 0, 0, T)
print("best bucket: pair", (best.gamma, best.theta), "count", best.count,
      "bound", best.bound, "->", best.verdict)

# The bound the count is measured against is (L/2 - delta^5 - 1) divided
# by 3(delta+pi)^2, minus 2*delta^3: the subtracted constants pay for the
# fan, the blocked prefix, and pairs that overlap.  It only turns positive
# once L clears a threshold; at delta 3 that happens between 5672 and
# 5674.
for L in (4000, 5672, 5674, 6000):
    print(f"L={L}: bound {superb_count_bound(3, 1, L)}")

# A pendant decoration turns its position into a Type I edge whose second
# path uses colour 3, so the all-pairs tie breaks differently: bucket
# (1, 2) loses that position but bucket (1, 3) keeps everything.
g2, c2 = path_instance(T, pendants=(99,))
best2 = superb_count_check(c2, 0, 0, T)
print("with a pendant at position 99: pair", (best2.gamma, best2.theta),
      "count", best2.count)
