"""
Colouring one edge with a chain, up close
=========================================

Build a small multigraph by hand, colour most of it, and watch what the
chain machinery does to fit in one more edge.
"""

from vizing import Colouring, build, max_fan, vizing_chain

# Two triangles sharing vertex 2, plus a parallel edge on (0, 1).
g = build(5, [
    (0, 1, 1), (0, 1, 2), (1, 2, 1), (0, 2, 1),
    (2, 3, 1), (2, 4, 1), (3, 4, 1),
])
print(g.to_text())
print("max degree", g.delta, "/ max multiplicity", g.pi)

# Palette is delta + pi = 5 colours.  Hand-colour everything except edge 3
# so there is exactly one hole to repair.
c = Colouring.from_assignment(g, {0: 1, 1: 2, 2: 3, 4: 1, 5: 2, 6: 3})
print("uncoloured edges:", c.uncoloured())

# A fan grows around one endpoint of the hole.  Pivot at vertex 0:
fan = max_fan(c, 0, 3)
print("fan edges:", list(fan.edges))
print("fan augments outright?", fan.augmenting)

# The full chain is the fan prefix plus, if the fan stalls, an alternating
# path that frees up a colour.  Here the fan already works, so the chain
# is just the fan.
chain = vizing_chain(c, 0, 3)
print("chain edges:", chain.edges())
print("has alternating tail?", chain.tail is not None)

# Augmenting along the chain shifts the hole down it (each edge takes its
# successor's colour and the last edge goes bare), then the freed-up last
# edge takes a colour missing at both its endpoints.  That is what actually
# shrinks the uncoloured set.  Augmenting works in place, so try it on a
# copy.
d = c.copy()
d.augment_in_place(chain.edges())
print("after augmenting, edge 3 has colour", d.colours[3])
print("all", g.m, "edges coloured?", d.uncoloured() == [])

# Try the other endpoint too.  Pivot at vertex 2, which touches four
# edges, and see the fan wind through them before augmenting.
fan2 = max_fan(c, 2, 3)
print("fan at vertex 2:", list(fan2.edges), "augmenting?", fan2.augmenting)
d2 = c.copy()
d2.augment_in_place(vizing_chain(c, 2, 3).edges())
print("that route also finishes:", d2.uncoloured() == [])

# Chains are not always this short.  In a tighter colouring the fan stalls
# on a colour that is already spoken for, and the chain grows a tail: an
# alternating path in two colours whose swap frees one of them at the
# pivot.  This 7-vertex graph produces one.
g2 = build(7, [
    (4, 5, 1), (5, 6, 1), (3, 6, 1), (0, 6, 1), (2, 4, 1),
    (3, 4, 1), (1, 5, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1),
])
c2 = Colouring.from_assignment(
    g2, {0: 1, 1: 4, 2: 3, 3: 2, 4: 2, 6: 2, 7: 4, 8: 1, 9: 3})
ch = vizing_chain(c2, 3, 5)
print()
print("chain with a tail:", ch.edges())
print("  fan part:", ch.edges()[:ch.fan_prefix_len])
print("  tail in colours", ch.tail.alpha, "/", ch.tail.beta, "over edges", list(ch.tail.edges))
before = [c2.colours[f] for f in ch.tail.edges]
d3 = c2.copy()
d3.augment_in_place(ch.edges())
print("  tail colours before:", before)
print("  tail colours after: ", [d3.colours[f] for f in ch.tail.edges])
print("  edge 5 landed colour", d3.colours[5])
