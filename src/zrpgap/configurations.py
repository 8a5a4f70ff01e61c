"""Particle configurations: enumeration, ranking, sampling and single moves.

A configuration of r indistinguishable particles on n vertices is a tuple of
non-negative occupancies summing to r.  There are C(n+r-1, r) of them; the
canonical order used everywhere in this package is lexicographic on the
occupancy tuple, which makes the rank/unrank pair a stable dense index.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError
from .graphs import GraphSpec

DEFAULT_MAX_CONFIGURATIONS = 200_000


def configuration_count(n: int, r: int) -> int:
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    return math.comb(n + r - 1, r)


def validate_configuration(occ, graph: GraphSpec | None = None) -> tuple[int, ...]:
    occ = tuple(int(k) for k in occ)
    if any(k < 0 for k in occ):
        raise ValueError("occupancies must be non-negative")
    if graph is not None and len(occ) != graph.vertex_count:
        raise ValueError("configuration length does not match vertex count")
    return occ


def enumerate_configurations(n: int, r: int, limit: int = DEFAULT_MAX_CONFIGURATIONS):
    """All occupancy tuples of r particles on n vertices, lexicographic order."""
    total = configuration_count(n, r)
    if total > limit:
        raise CapacityError(
            f"{total} configurations for n={n}, r={r} exceed the limit {limit}"
        )
    if n == 1:
        return [(r,)]
    occ = [0] * (n - 1) + [r]
    out = [tuple(occ)]
    while True:
        # Lexicographic successor: bump the rightmost position that has mass
        # to its right, then push the remaining mass to the end.
        i = n - 2
        suffix = occ[n - 1]
        while i >= 0 and suffix == 0:
            i -= 1
            if i >= 0:
                suffix += occ[i + 1]
        if i < 0:
            return out
        occ[i] += 1
        for k in range(i + 1, n):
            occ[k] = 0
        occ[n - 1] = suffix - 1
        out.append(tuple(occ))


def rank_configuration(occ) -> int:
    """Lexicographic position of ``occ`` among all same-(n, r) configurations."""
    occ = validate_configuration(occ)
    n = len(occ)
    rem = sum(occ)
    index = 0
    for i in range(n - 1):
        m = n - i - 1  # entries to the right of position i
        for b in range(occ[i]):
            index += math.comb(rem - b + m - 1, m - 1)
        rem -= occ[i]
    return index


def unrank_configuration(index: int, n: int, r: int) -> tuple[int, ...]:
    """Inverse of :func:`rank_configuration`."""
    total = configuration_count(n, r)
    if not 0 <= index < total:
        raise ValueError(f"index {index} out of range for n={n}, r={r}")
    occ = []
    rem = r
    for i in range(n - 1):
        m = n - i - 1
        b = 0
        while True:
            block = math.comb(rem - b + m - 1, m - 1)
            if index < block:
                break
            index -= block
            b += 1
        occ.append(b)
        rem -= b
    occ.append(rem)
    return tuple(occ)


def random_configuration(n: int, r: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniform sample over all C(n+r-1, r) configurations.

    Small spaces draw a uniform rank and unrank it; otherwise a uniform
    stars-and-bars draw (an (n-1)-subset of n+r-1 slot positions) is used.
    Both are exact.
    """
    if r == 0:
        return (0,) * n
    if n == 1:
        return (r,)
    total = configuration_count(n, r)
    if total <= 2**63 - 1:
        return unrank_configuration(int(rng.integers(total)), n, r)
    slots = n + r - 1
    bars = np.sort(rng.choice(slots, size=n - 1, replace=False))
    occ = []
    prev = -1
    for b in bars:
        occ.append(int(b) - prev - 1)
        prev = int(b)
    occ.append(slots - 1 - prev)
    return tuple(occ)


def transitions(graph: GraphSpec, occ) -> list[tuple[tuple[int, ...], float]]:
    """All single-particle moves out of ``occ``.

    One entry per ordered (occupied vertex v, neighbor w) pair, each at rate
    1/degree, so the total outflow rate is the number of occupied vertices.
    Neighbor repeats on a degenerate torus stay as separate entries.
    """
    occ = validate_configuration(occ, graph)
    rate = 1.0 / graph.degree
    out = []
    for v, k in enumerate(occ):
        if k == 0:
            continue
        for w in graph.neighbors(v):
            target = list(occ)
            target[v] -= 1
            target[w] += 1
            out.append((tuple(target), rate))
    return out

