"""Heap-Dijkstra traffic best responses: the test-only reference for
``TrafficOracle``.

The library answers a batch of beliefs with one Bellman-Ford sweep over an
array of edge weights.  The tests answer each belief here, one at a time,
with two pure-Python heap Dijkstras (from the source, and backwards from the
sink) and the greedy walk to the lexicographically least shortest path, and
require bitwise-equal paths and utilities.  ``greedy_walk`` is the path
reconstruction the library used before its depth-first search: it always
takes the first edge on a shortest path, so it cannot leave a zero-time
cycle.
"""

from __future__ import annotations

import heapq

import numpy as np

from infomenu.errors import InvalidInstance, NoPath
from infomenu.oracles import TrafficInstance


def dijkstra(inst: TrafficInstance, weights: np.ndarray, start: int, forward: bool) -> np.ndarray:
    """Shortest distances from ``start`` (to it when not ``forward``)."""
    adj: list[list[int]] = [[] for _ in range(inst.n_vertices)]
    for e, (u, v, _, _) in enumerate(inst.edges):
        adj[u if forward else v].append(e)
    dist = np.full(inst.n_vertices, np.inf)
    dist[start] = 0.0
    heap = [(0.0, start)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for e in adj[u]:
            v = inst.edges[e][1] if forward else inst.edges[e][0]
            nd = d + weights[e]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def respond(inst: TrafficInstance, belief) -> tuple[tuple[int, ...], float]:
    """The best response to one belief: (edge indices, utility)."""
    weights = inst.times @ np.asarray(belief, dtype=float)
    dist_s = dijkstra(inst, weights, inst.source, True)
    dist_t = dijkstra(inst, weights, inst.sink, False)
    total = dist_s[inst.sink]
    if not np.isfinite(total):
        raise NoPath("no source-sink path")
    path = greedy_walk(inst, dist_s, weights, dist_t)
    utility = (inst.horizon - float(total)) / inst.horizon
    if utility < -1e-12:
        raise InvalidInstance("horizon H smaller than an optimal path time")
    return tuple(path), utility


def greedy_walk(inst: TrafficInstance, dist_s, weights, dist_t) -> tuple[int, ...]:
    """From the source, always the smallest-index edge that stays on a
    shortest path; NoPath when that walk revisits a vertex or gets stuck."""
    out: list[list[int]] = [[] for _ in range(inst.n_vertices)]
    for e, (u, _, _, _) in enumerate(inst.edges):
        out[u].append(e)
    total = dist_s[inst.sink]
    tol = 1e-9 * max(1.0, total)
    path: list[int] = []
    u = inst.source
    while u != inst.sink:
        if len(path) > len(inst.edges):
            raise NoPath("shortest-path reconstruction cycled")
        for e in out[u]:
            v = inst.edges[e][1]
            if abs(dist_s[u] + weights[e] + dist_t[v] - total) <= tol:
                path.append(e)
                u = v
                break
        else:
            raise NoPath("shortest-path reconstruction stuck")
    return tuple(path)
