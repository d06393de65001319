
# coding: utf-8

# # Colouring a whole graph, one chain at a time

# The sequential driver walks the edges in index order and repairs each one
# with a single chain.  The palette never needs more than max degree plus
# max multiplicity colours, no matter how the graph is wired.

# In[1]:

from collections import Counter

from vizing import colour_sequential, generate_random, is_proper


# A random multigraph: 800 vertices, aiming for degree 5 and doubled edges.

# In[2]:

g = generate_random(800, 5, 2, seed=31)
print(g.n, "vertices,", g.m, "edges, delta", g.delta, "pi", g.pi)


# In[3]:

c = colour_sequential(g)
print("uncoloured after the pass:", c.uncoloured_count)
print("proper?", is_proper(c))


# Count how often each colour is used.  The palette has delta + pi slots
# but the driver is greedy about small colours, so the histogram leans low.

# In[4]:

hist = Counter(c.colours[e] for e in range(g.m))
for col in sorted(hist):
    print("colour", col, "used", hist[col], "times")
print("palette size available:", g.delta + g.pi)


# The same seed gives the same graph and the same colouring, byte for byte.

# In[5]:

again = colour_sequential(generate_random(800, 5, 2, seed=31))
print("identical rerun?", list(again.colours) == list(c.colours))


# Scaling up: a quarter-million edges still colours in seconds.

# In[6]:

import time

big = generate_random(120_000, 4, 1, seed=7)
t0 = time.monotonic()
cb = colour_sequential(big)
dt = time.monotonic() - t0
print(big.m, "edges in", round(dt, 2), "s;", "proper?", is_proper(cb))
