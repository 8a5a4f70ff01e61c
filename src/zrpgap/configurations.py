"""Particle configurations: enumeration, ranking, sampling and single moves.

A configuration of r indistinguishable particles on n vertices is a tuple of
non-negative occupancies summing to r.  There are C(n+r-1, r) of them; the
canonical order used everywhere in this package is lexicographic on the
occupancies: :func:`enumerate_configurations` lists them as rows in that
order, and a configuration's rank (one at a time, or vectorized over rows)
is its row index.
"""

from __future__ import annotations

import itertools
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


def enumerate_configurations(n: int, r: int, limit: int = DEFAULT_MAX_CONFIGURATIONS) -> np.ndarray:
    """All configurations of r particles on n vertices as an ``(N, n)`` int64
    array, one row each, in lexicographic order.

    Stars and bars: the (n-1)-subsets of the n+r-1 slots (the bar positions)
    come from ``itertools.combinations`` in lexicographic order, and the gaps
    between consecutive bars are the occupancies, so the rows come out
    lexicographic too.
    """
    total = configuration_count(n, r)
    if total > limit:
        raise CapacityError(
            f"{total} configurations for n={n}, r={r} exceed the limit {limit}"
        )
    slots = n + r - 1
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), n - 1)),
        dtype=np.int64,
        count=total * (n - 1),
    ).reshape(total, n - 1)
    return np.diff(bars, axis=1, prepend=-1, append=slots) - 1


def _rank_table(n: int, r: int) -> np.ndarray:
    """``table[m, x] = C(x + m, m)`` for ``m < n`` and ``x <= r``.

    Row m is the running sum of row m - 1 (Pascal's rule), and every entry is
    at most C(r + n - 1, n - 1), the size of the space, so int64 is exact.
    """
    table = np.ones((n, r + 1), dtype=np.int64)
    for m in range(1, n):
        np.cumsum(table[m - 1], out=table[m])
    return table


def _lex_ranks(occ: np.ndarray, table: np.ndarray) -> np.ndarray:
    """:func:`rank_configuration` of every row of ``occ``, vectorized.

    With ``rem_i`` the particles at positions >= i and ``m = n - i - 1``,
    position i contributes sum_{b < occ_i} C(rem_i - b + m - 1, m - 1), which
    by the hockey-stick identity is ``table[m, rem_i] - table[m, rem_{i+1}]``.
    """
    n = occ.shape[1]
    rem = np.cumsum(occ[:, ::-1], axis=1)[:, ::-1]
    m = np.arange(n - 1, 0, -1)
    return (table[m, rem[:, :-1]] - table[m, rem[:, 1:]]).sum(axis=1)


def move_ranks(occ: np.ndarray, v: int, targets):
    """Single-particle moves out of v, for every row of ``occ`` at once.

    ``occ`` holds configurations of one (n, r) space as rows.  Returns the
    indices of the rows with v occupied and a ``(len(targets), rows)`` array
    whose row k holds their ranks after one particle moves from v to
    ``targets[k]`` (a target equal to v gives the row's own rank).
    """
    table = _rank_table(occ.shape[1], int(occ[0].sum()))
    src = np.flatnonzero(occ[:, v])
    moved = occ[src]
    moved[:, v] -= 1
    ranks = np.empty((len(targets), src.size), dtype=np.int64)
    for k, w in enumerate(targets):
        moved[:, w] += 1
        ranks[k] = _lex_ranks(moved, table)
        moved[:, w] -= 1
    return src, ranks


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
    return tuple((np.diff(bars, prepend=-1, append=slots) - 1).tolist())


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

