"""Vertex-transitive graph families hosting the particle process.

Two families are supported: the d-dimensional discrete torus (Z/LZ)^d and
the complete graph K_n.  Both are regular, connected and vertex-transitive,
which the flow construction and the load-uniformity checks rely on.

Torus vertices are flat indices of coordinate tuples (little-endian base L).
A torus with L = 2 is degenerate: the +1 and -1 neighbors along an axis
coincide, so the neighbor list contains repeats and the graph is effectively
a multigraph of degree 2d.  Such graphs are flagged via ``degenerate`` and
reported as "degenerate-torus" downstream.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass


class _NeighborTable:
    """The neighbor lists of a frozen graph, kept on the graph once built."""

    @functools.cached_property
    def neighbor_table(self) -> tuple[tuple[int, ...], ...]:
        """``neighbors(v)`` for every vertex v, built once per graph."""
        return tuple(self.neighbors(v) for v in range(self.vertex_count))


@dataclass(frozen=True)
class Torus(_NeighborTable):
    """The discrete torus (Z/LZ)^d."""

    d: int
    L: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("torus dimension must be >= 1")
        if self.L < 2:
            raise ValueError("torus side length must be >= 2")

    @property
    def vertex_count(self) -> int:
        return self.L**self.d

    @property
    def degree(self) -> int:
        # 2d by convention, counting each axis direction even when L = 2.
        return 2 * self.d

    @property
    def degenerate(self) -> bool:
        return self.L == 2

    def coords(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.vertex_count:
            raise ValueError(f"vertex {v} out of range")
        out = []
        for _ in range(self.d):
            out.append(v % self.L)
            v //= self.L
        return tuple(out)

    def vertex(self, coords) -> int:
        if len(coords) != self.d:
            raise ValueError("coordinate arity mismatch")
        v = 0
        for c in reversed(coords):
            v = v * self.L + (c % self.L)
        return v

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbor list with one entry per axis direction (repeats if L = 2):
        +1 then -1 along each axis, by the flat-index stride L**axis."""
        L = self.L
        if not 0 <= v < self.vertex_count:
            raise ValueError(f"vertex {v} out of range")
        out = []
        stride = 1
        for _ in range(self.d):
            c = v // stride % L
            out.append(v + stride if c < L - 1 else v - c * stride)
            out.append(v - stride if c > 0 else v + (L - 1) * stride)
            stride *= L
        return tuple(out)

    def as_json(self) -> dict:
        return {"family": "torus", "d": self.d, "L": self.L}


@dataclass(frozen=True)
class Complete(_NeighborTable):
    """The complete graph on n vertices (no self-loops)."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("complete graph needs at least 2 vertices")

    @property
    def vertex_count(self) -> int:
        return self.n

    @property
    def degree(self) -> int:
        return self.n - 1

    @property
    def degenerate(self) -> bool:
        return False

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return tuple(w for w in range(self.n) if w != v)

    def as_json(self) -> dict:
        return {"family": "complete", "n": self.n}


GraphSpec = Torus | Complete


def graph_from_json(data: dict) -> GraphSpec:
    family = data.get("family")
    if family == "torus":
        return Torus(d=int(data["d"]), L=int(data["L"]))
    if family == "complete":
        return Complete(n=int(data["n"]))
    raise ValueError(f"unknown graph family: {family!r}")


def bfs_distance_counts(graph: GraphSpec, source: int) -> tuple[list[int], list[int]]:
    """Distances from ``source`` and exact shortest-path counts to every vertex.

    Counts use Python integers, so they never overflow.  Parallel edges
    (degenerate torus) contribute separate paths.
    """
    neighbors = graph.neighbor_table
    n = len(neighbors)
    dist = [-1] * n
    count = [0] * n
    dist[source] = 0
    count[source] = 1
    queue = deque([source])
    while queue:
        x = queue.popleft()
        dx = dist[x]
        cx = count[x]
        for w in neighbors[x]:
            if dist[w] == -1:
                dist[w] = dx + 1
                count[w] = cx
                queue.append(w)
            elif dist[w] == dx + 1:
                count[w] += cx
    return dist, count


def all_pairs_bfs(graph: GraphSpec) -> tuple[list[list[int]], list[list[int]]]:
    """Distance and shortest-path-count rows from every source, one BFS each."""
    rows = [bfs_distance_counts(graph, u) for u in range(graph.vertex_count)]
    return [d for d, _ in rows], [c for _, c in rows]
