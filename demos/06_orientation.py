"""
Low out-degree orientations from a finished colouring
=====================================================

Pair up the colour classes of a full colouring and each pair's union falls
apart into paths and even cycles; walking those gives every edge a
direction with at most one outgoing edge per vertex per pair.  The result:
max out-degree at most ceil((delta + 2) / 2), read straight off the
colouring with no flow machinery.
"""

from collections import Counter

from vizing import build, colour_sequential, generate_random, orient

# A hexagon with long chords: 3-regular, so 4 colours and a bound of
# ceil(5/2) = 2.
g = build(6, [(i, (i + 1) % 6, 1) for i in range(6)] + [(i, i + 3, 1) for i in range(3)])
c = colour_sequential(g)
o = orient(c)
for e in range(g.m):
    tail, head = o.direction[e]
    print(f"edge {e} ({g.edges[e][0]}-{g.edges[e][1]}) colour {c.colours[e]}: {tail} -> {head}")
print("out-degrees:", dict(sorted(o.out_degree_counts().items())),
      "max", o.max_out_degree(), "bound 2")

# The bound holds across shapes and densities, not just on this toy.
print()
worst = 0
for seed in range(40):
    h = generate_random(150, 2 + seed % 7, 1, seed=seed)
    oh = orient(colour_sequential(h))
    bound = (h.delta + 3) // 2
    assert oh.max_out_degree() <= bound
    worst = max(worst, oh.max_out_degree())
print("40 random graphs, no bound violated; largest out-degree seen:", worst)

# Orientation is defined only for simple graphs with a full colouring, and
# it refuses anything else rather than guessing.
from vizing import Colouring

try:
    orient(Colouring.empty(g))
except ValueError as exc:
    print("partial colouring ->", exc)
try:
    orient(colour_sequential(build(2, [(0, 1, 1), (0, 1, 2)])))
except ValueError as exc:
    print("parallel edges ->", exc)
