"""Particle configurations: enumeration, ranking, sampling and single moves.

A configuration of r indistinguishable particles on n vertices is a tuple of
non-negative occupancies summing to r.  There are C(n+r-1, r) of them; the
canonical order used everywhere in this package is lexicographic on the
occupancies: :func:`enumerate_configurations` lists them as rows in that
order, one numpy pass per column, a configuration's rank is its row index,
and :func:`move_kernel` gives the ranks after every single-particle move of a
whole space at once.  Both read one table of binomial coefficients,
:func:`_completion_counts`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError, format_count
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


def _completion_counts(n: int, r: int) -> np.ndarray:
    """``table[m, x] = C(x + m, m)`` for m < n - 1 and x <= r: the number of
    ways to place x particles on m + 1 vertices.

    Row m is the running sum of row m - 1.  Every entry is at most
    C(r + n - 2, n - 2) <= C(r + n - 1, r), the size of the whole space, so
    int64 is exact for any space that is built.
    """
    table = np.ones((n - 1, r + 1), dtype=np.int64)
    for m in range(1, n - 1):
        table[m - 1].cumsum(out=table[m])
    return table


def enumerate_configurations(n: int, r: int, limit: int = DEFAULT_MAX_CONFIGURATIONS) -> np.ndarray:
    """All configurations of r particles on n vertices as an ``(N, n)`` int64
    array, one row each, in lexicographic order.

    The rows sharing their first j occupancies form a block.  A block with R
    particles left splits, at column j, into sub-blocks b = 0..R, and
    sub-block b holds the C(R - b + m - 1, m - 1) ways to place the R - b
    particles left on the m vertices to the right.  The column pass keeps
    the particles left per sub-block in row order (``left``), repeats each
    over its rows, and writes column j as the particles left before it minus
    those left after it.  Whatever is left after column n - 2 is the last
    column.  Only arrays of one column's size are alive beside the result.
    """
    total = configuration_count(n, r)
    if total > limit:
        raise CapacityError(
            f"{format_count(total)} configurations for n={n}, r={r} exceed the limit {limit}"
        )
    occ = np.empty((total, n), dtype=np.int64)
    left = np.full(1, r, dtype=np.int64)
    rows_left = r
    # a block with R left has R + 1 sub-blocks with R, R - 1, ..., 0 left;
    # ends is one past each block's last sub-block, where 0 are left
    for j, sizes in enumerate(_completion_counts(n, r)[::-1]):
        span = left + 1
        ends = span.cumsum()
        left = ends.repeat(span)
        left -= np.arange(1, ends[-1] + 1)
        below = left.repeat(sizes[left])
        np.subtract(rows_left, below, out=occ[:, j])
        rows_left = below
    occ[:, -1] = rows_left
    return occ


def move_kernel(occ: np.ndarray):
    """Single-particle moves of every configuration of one (n, r) space.

    ``occ`` is the whole space as rows in rank order
    (:func:`enumerate_configurations`).  Returns ``moves(v, ws)``, which
    gives the indices ``src`` of the rows with v occupied and a
    ``(len(ws), len(src))`` array whose row k holds their ranks after one
    particle moves from v to ``ws[k]`` (repeats allowed; v itself gives the
    row's own rank).

    With ``R_j`` the particles at positions >= j and ``T[m, x] = C(x + m, m)``,
    the rank of a configuration is ``T[n-1, r] - 1 - sum_{j=1}^{n-1}
    T[n-j, R_j - 1]``.  A move v -> w with v < w raises ``R_j`` by one on
    v < j <= w and leaves the rest alone, so by Pascal's rule the rank of
    row i after the move is

        i - sum_{j=v+1}^{w} T[n-1-j, R_j],

    a difference of two entries of one prefix table ``up``, built once per
    call (w = v gives an empty sum).  A move v -> w with w < v undoes the
    move w -> v, a bijection from the rows with w occupied onto the rows
    with v occupied, so its ranks are that move's sources, scattered to the
    positions of its targets.
    """
    dim, n = occ.shape
    r = int(occ[0].sum())
    table = _completion_counts(n, r)
    up = np.zeros((n, dim), dtype=np.int64)
    rem = np.full(dim, r, dtype=np.int64)
    for j in range(1, n):
        rem -= occ[:, j - 1]
        np.add(up[j - 1], table[n - 1 - j][rem], out=up[j])

    def moves(v, ws):
        src = np.flatnonzero(occ[:, v])
        from_up = src + up[v, src]
        ranks = np.empty((len(ws), src.size), dtype=np.int64)
        for k, w in enumerate(ws):
            if w >= v:
                np.subtract(from_up, up[w, src], out=ranks[k])
            else:
                rows = np.flatnonzero(occ[:, w])
                ranks[k, np.searchsorted(src, rows - up[v, rows] + up[w, rows])] = rows
        return src, ranks

    return moves


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
    bars = np.sort(rng.choice(slots, size=n - 1, replace=False)).tolist()
    return tuple(b - a - 1 for a, b in zip([-1] + bars, bars + [slots]))


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

