"""
Auditing a partial colouring with exact arithmetic
==================================================

Stop the scheduler after two rounds and put the half-done
colouring under the microscope.  The audit builds a bipartite view pairing
each uncoloured edge with the coloured edges its chains run through, and
reads two guarantees off it:

  * no coloured edge is leaned on by too many chains (degree caps that
    depend only on the palette size), and
  * once no short chain exists anywhere, the uncoloured edges must be so
    spread out that their fraction of the graph is tiny.

All the fractions are exact rationals; nothing here is a float.
"""

from fractions import Fraction

from vizing import (
    Colouring,
    MaxRoundsExceeded,
    build,
    build_audit_graph,
    check_unimprovable,
    generate_random,
    run_scheduler,
    uncoloured_fraction_bounds,
    vizing_chain,
)

g = generate_random(900, 3, 1, seed=77)
print(g.m, "edges, delta", g.delta, "pi", g.pi)

# Interrupt the run partway to get a genuinely partial colouring.
try:
    run_scheduler(g, 8, seed=0, max_rounds=2)
except MaxRoundsExceeded as ex:
    c = ex.colouring
print("interrupted run:", c.uncoloured_count, "of", g.m, "edges still bare")

# First level: each uncoloured edge is paired with the coloured edges on
# its two chains.  The palette has delta + pi = 4 colours; no coloured
# edge may serve more than 4**4 = 256 chains, and on a graph this sparse
# the real numbers are far smaller.
simple = build_audit_graph(c, "simple")
edge, deg = simple.max_coloured_degree()
print("busiest coloured edge:", edge, "serving", deg, "chains (cap 256)")

# Second level: chains of chains.  An uncoloured edge reaches the edges on
# the chains of the edges on its own chain, capped at scale L.  The degree
# cap becomes 4**9.
iterated = build_audit_graph(c, "iterated", L_cap=8)
edge, deg = iterated.max_coloured_degree()
print(f"busiest at the second level: {edge} serving {deg} (cap {4**9})")

# The second level came back empty because easy random colourings repair
# with short fans; there are no long tails for chains-of-chains to live
# on.  Stall a fan on purpose and the picture changes.  Vertex 0 is the
# pivot: its three edges use colours 1 and 2 plus the bare edge, vertex 3
# soaks up colours 3 and 4 so the fan keeps demanding colour 1 twice, and
# behind the stall sits a 40-edge path alternating colours 3 and 1.
T = 40
tail = [(1, 6, 1)] + [(5 + t, 6 + t, 1) for t in range(1, T)]
g2 = build(6 + T, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (3, 4, 1), (3, 5, 1)] + tail)
cols = {1: 1, 2: 2, 3: 3, 4: 4}
for t in range(T):
    cols[5 + t] = 3 if t % 2 == 0 else 1
c2 = Colouring.from_assignment(g2, cols)
ch = vizing_chain(c2, 0, 0)
print()
print("stalled instance: tail of", len(ch.tail.edges), "edges in colours",
      ch.tail.alpha, "/", ch.tail.beta)
it2 = build_audit_graph(c2, "iterated", L_cap=8)
print("second-level partners of the bare edge:", sorted(it2.adjacency[0]))
edge, deg = it2.max_coloured_degree()
print("busiest coloured edge at the second level:", edge, "serving", deg)

# Back to the interrupted random run for the fraction bound.  It needs the
# premise that no chain shorter than L exists; a freshly interrupted run
# does not satisfy it, and the audit says so rather than quoting a bound
# it has no right to.
print()
print("no short chain anywhere?", check_unimprovable(c, 8, mode="simple"))
fb = uncoloured_fraction_bounds(c, 8, "simple")
print("fraction", fb.fraction, "bound", fb.bound, "->", fb.verdict)

# Let the scheduler finish and the verdict flips: the premise holds
# (vacuously here, since everything got coloured) and the fraction is 0.
done = run_scheduler(g, 8, seed=0)
fb = uncoloured_fraction_bounds(done, 8, "simple")
print("settled run: fraction", fb.fraction, "bound", fb.bound, "->", fb.verdict)

# The first-level bound is (palette)^4 / L: it shrinks linearly in L.  The
# second level trades a much bigger constant, (palette)^15, for quadratic
# decay 1/L^2, so it only takes over for very large L (the crossover on a
# 4-colour palette is L = 4^11).  Both are exact fractions, so comparisons
# are never rounding artefacts.
for L in (16, 1024, 4**11, 4**13):
    s = uncoloured_fraction_bounds(done, L, "simple").bound
    i = uncoloured_fraction_bounds(done, L, "iterated").bound
    print(f"L={L:9d}  simple bound {s}  iterated bound {i}")
assert uncoloured_fraction_bounds(done, 1024, "simple").bound == Fraction(1, 4)
assert uncoloured_fraction_bounds(done, 4**11, "simple").bound == \
    uncoloured_fraction_bounds(done, 4**11, "iterated").bound
