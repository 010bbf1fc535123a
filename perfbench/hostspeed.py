"""The host's current speed, from a fixed kernel of the benchmark's own.

A shared host can switch its speed for minutes at a time (on a 2-CPU VM:
states of 5 to 90 s, about 1.5x apart), longer than a run.  Raw instance
times then fall into two clusters from run to run, whatever statistic is
taken over a run.  The benchmark therefore times this probe around every
timed call and scales the call's time to a host on which the probe takes
``REFERENCE_S``.  The probe shares no code with gridpaths, so a change to
the program moves the scaled times exactly as it moves the raw ones.

The kernel is pure-Python graph work of the kind gridpaths does: in-degree
counting, a Kahn topological sort and an edge scan over a fixed seeded DAG
of 1500 vertices, about 1.5 ms.
"""

from __future__ import annotations

import random
import time

# The probe's time on a 2-CPU VM (Python 3.11) in its faster state; scaled
# times are the times such a host would show.
REFERENCE_S = 0.0015
_REPEATS = 3


def _dag(n: int = 1500, seed: int = 7) -> dict:
    rng = random.Random(seed)
    adj: dict = {v: [] for v in range(n)}
    for v in range(n):
        for _ in range(3):
            u = rng.randrange(n)
            if u > v:
                adj[v].append(u)
    return adj


_GRAPH = _dag()


def _kernel(graph: dict) -> int:
    indeg = dict.fromkeys(graph, 0)
    for outs in graph.values():
        for u in outs:
            indeg[u] += 1
    order = [v for v, d in indeg.items() if d == 0]
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for u in graph[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                order.append(u)
    pos = {v: k for k, v in enumerate(order)}
    return sum(pos[u] - pos[v] for v, outs in graph.items() for u in outs)


def probe() -> float:
    """Seconds the kernel takes now: the fastest of a few runs."""
    best = float("inf")
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _kernel(_GRAPH)
        best = min(best, time.perf_counter() - start)
    return best


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between probes ``before`` and ``after``, scaled
    to the reference host."""
    return seconds * REFERENCE_S * 2 / (before + after)
