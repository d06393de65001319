"""
Round-based colouring with disjoint chain batches
=================================================

The scheduler colours in rounds instead of edge by edge.  The edges are
shuffled once by the seed.  Each round walks the still-uncoloured edges in
that order, finds a short chain (at most 3L edges) for each, and keeps
every chain that shares no vertex with the ones it already kept; then it
applies the whole batch against the same snapshot.  Vertex-disjoint chains
cannot interfere, so the batch is safe and the order of application does
not matter.  The run stops when a round finds no chain at all.

A graph made of many disjoint blocks shows the batches well: every block
contributes its own chains to the same round.  That is the shape this
script uses.
"""

import io
import json

from vizing import build, generate_random, is_proper, run_scheduler

# Sixty disjoint random blocks of ~20 vertices each, vertex ids shifted so
# the union is one multigraph.
triples = []
offset = 0
for k in range(60):
    block = generate_random(20, 3, 1, seed=100 + k)
    triples += [(u + offset, v + offset, mult) for (u, v, mult) in block.edges]
    offset += block.n
g = build(offset, triples)
print(g.n, "vertices,", g.m, "edges, delta", g.delta)

# The run writes one JSON line per round that applied chains; capture and
# replay the story.
L = 12
log = io.StringIO()
c = run_scheduler(g, L, seed=0, log=log)
rounds = [json.loads(line) for line in log.getvalue().splitlines()]

print(len(rounds), "rounds to settle")
print("uncoloured at the end:", c.uncoloured_count, "/ proper?", is_proper(c))

# Batch size per round: the first rounds colour most of the graph at once,
# the later ones mop up edges whose neighbourhood was busy.
for r in rounds:
    print("round", r["round"], "applied", r["augmented"], "chains, recoloured",
          r["recoloured"], "edges -> remaining", r["uncoloured_remaining"])

# Each chain in a batch has at most 3L edges, so a round recolours at most
# 3L times the number of chains it applied.  The log records both numbers.
worst = max(rounds, key=lambda r: r["recoloured"])
print("busiest round recoloured", worst["recoloured"], "edges over",
      worst["augmented"], "chains (cap", 3 * L, "each, so", 3 * L * worst["augmented"], "in all)")
assert worst["recoloured"] <= 3 * L * worst["augmented"]
