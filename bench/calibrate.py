"""A fixed pure-Python kernel that measures how fast the machine is running.

On a 2-core machine shared with other work, the speed of pure-Python code
swings by a quarter within seconds and drifts by a fifth over minutes, in
CPU time as much as in wall time.  The runner times this kernel before the
first operation of a round and after each operation, and scales the
round's CPU times by ``REFERENCE_S`` over the round's median kernel time:
kernel and program slow down together, so the scaled time keeps the
program's own cost.  The kernel is part of the benchmark, so a change to
the program cannot change it.  Such scaled times are *reference seconds*:
CPU seconds on a machine on which the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import random
import resource
import time

import inputs

# A round figure near the kernel's time on the machine the figures in
# README.md come from (2 cores, Python 3.11.7; 25 to 33 ms there), so that
# reference seconds read close to wall seconds.
REFERENCE_S = 0.025


class Kernel:
    """Greedy edge colouring and a line-graph BFS over a fixed graph: list,
    set and tuple work of the same kind the program does."""

    def __init__(self) -> None:
        self.g = inputs.random_multigraph(random.Random("calibration"), 4000, 7600, 4, 1)
        self.adj: list[list[int]] = [[] for _ in range(self.g.n)]
        for e, (u, v, _) in enumerate(self.g.edges):
            self.adj[u].append(e)
            self.adj[v].append(e)

    def _work(self) -> int:
        cols = inputs.greedy_colouring(self.g)
        edges, adj = self.g.edges, self.adj
        seen = bytearray(len(edges))
        seen[0] = 1
        frontier = [0]
        reached = 1
        while frontier:
            nxt = []
            for e in frontier:
                u, v, _ = edges[e]
                for x in (u, v):
                    for f in adj[x]:
                        if not seen[f]:
                            seen[f] = 1
                            nxt.append(f)
            reached += len(nxt)
            frontier = nxt
        return reached + max(cols)

    def time(self) -> float:
        """CPU time of three passes of the kernel's work, with the garbage
        collector off so that its time does not depend on the heap."""
        gc.disable()
        try:
            start = cpu_seconds()
            for _ in range(3):
                self._work()
            return cpu_seconds() - start
        finally:
            gc.enable()


def cpu_seconds() -> float:
    """User plus system time of this process and of its children that have
    been waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def normalised(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` CPU seconds in reference seconds, given the kernel times
    measured just before and just after it (used for set-up, which runs
    once between two kernel timings)."""
    return elapsed * REFERENCE_S / (before * after) ** 0.5
