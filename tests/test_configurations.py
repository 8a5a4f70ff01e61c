import itertools
import math
import random
import tracemalloc
from itertools import product

import numpy as np
import pytest
from scipy import stats as sps

from zrpgap.configurations import (
    configuration_count,
    enumerate_configurations,
    move_kernel,
    random_configuration,
    rank_configuration,
    transitions,
    unrank_configuration,
)
from zrpgap.errors import CapacityError, format_count
from zrpgap.graphs import Complete, Torus
from zrpgap.seeding import make_generator


def brute_force_enumeration(n, r):
    """Independent oracle: filter the full product lattice."""
    return sorted(occ for occ in product(range(r + 1), repeat=n) if sum(occ) == r)


def stars_and_bars(n, r):
    """Independent oracle: the (n-1)-subsets of the n+r-1 slots (the bar
    positions) in lexicographic order, and the gaps between bars."""
    slots = n + r - 1
    total = math.comb(slots, n - 1)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), n - 1)),
        dtype=np.int64,
        count=total * (n - 1),
    ).reshape(total, n - 1)
    cuts = np.hstack([np.full((total, 1), -1), bars, np.full((total, 1), slots)])
    return np.diff(cuts, axis=1) - 1


@pytest.mark.parametrize(
    "n, r", [(1, 7), (6, 0), (2, 5000), (3, 630), (8, 12), (12, 5), (60, 3)]
)
def test_enumeration_matches_stars_and_bars(n, r):
    configs = enumerate_configurations(n, r)
    assert configs.dtype == np.int64 and configs.flags.c_contiguous
    assert np.array_equal(configs, stars_and_bars(n, r))
    rng = random.Random(n * 1000 + r)
    for index in rng.sample(range(len(configs)), min(len(configs), 20)):
        occ = tuple(configs[index].tolist())
        assert rank_configuration(occ) == index
        assert unrank_configuration(index, n, r) == occ


def test_enumeration_examples():
    assert enumerate_configurations(2, 2).tolist() == [[0, 2], [1, 1], [2, 0]]
    assert enumerate_configurations(3, 0).tolist() == [[0, 0, 0]]
    assert enumerate_configurations(1, 4).tolist() == [[4]]
    configs = enumerate_configurations(3, 2)
    assert configs.shape == (6, 3) and configs.dtype == np.int64
    assert configs.tolist().index([1, 0, 1]) == 3
    assert rank_configuration((1, 0, 1)) == 3


def test_rank_extremes():
    assert rank_configuration((0, 0, 2)) == 0
    assert rank_configuration((2, 0, 0)) == 5


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("r", range(6))
def test_enumeration_rank_unrank_consistency(n, r):
    configs = [tuple(c) for c in enumerate_configurations(n, r).tolist()]
    assert configs == brute_force_enumeration(n, r)
    assert len(configs) == configuration_count(n, r) == math.comb(n + r - 1, r)
    for i, occ in enumerate(configs):
        assert rank_configuration(occ) == i
        assert unrank_configuration(i, n, r) == occ


def test_enumeration_peak_memory_is_near_its_result():
    # beside the output, only arrays of one column's size are alive; with
    # np.diff's padded copy the peak was three times the result
    tracemalloc.start()
    try:
        configs = enumerate_configurations(8, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * configs.nbytes


def test_enumeration_peak_memory_on_many_vertices():
    # 40 columns: a full-size table beside the output would double the peak
    tracemalloc.start()
    try:
        configs = enumerate_configurations(40, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * configs.nbytes


def test_move_kernel_peak_memory_is_one_prefix_table():
    # one (n, N) int64 prefix table serves moves in both directions
    configs = enumerate_configurations(8, 12)
    tracemalloc.start()
    try:
        move_kernel(configs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * configs.nbytes


def assert_moves_match_scalar_ranks(configs, targets):
    """Oracle: move each row's particle with plain lists and rank the result."""
    moves = move_kernel(configs)
    for v, ws in enumerate(targets):
        src, ranks = moves(v, ws)
        for k, w in enumerate(ws):
            expected = []
            for occ in configs[src].tolist():
                occ[v] -= 1
                occ[w] += 1
                expected.append(rank_configuration(occ))
            assert ranks[k].tolist() == expected


def test_lex_ranks_are_row_indices():
    # a move from v back to v leaves the row where it is, so its rank is the
    # row index on every space, including n = 1 and r = 0
    for n in range(1, 7):
        for r in range(7):
            configs = enumerate_configurations(n, r)
            moves = move_kernel(configs)
            for v in range(n):
                src, ranks = moves(v, [v, v])
                assert src.tolist() == np.flatnonzero(configs[:, v]).tolist()
                assert ranks.tolist() == [src.tolist()] * 2
                assert [rank_configuration(c) for c in configs[src].tolist()] == src.tolist()


def test_move_ranks_match_scalar_ranks():
    # every move (w < v, w == v and w > v) of every configuration, with each
    # target listed twice so that repeats are covered too
    for n in range(1, 6):
        for r in range(5):
            targets = [list(range(n)) * 2] * n
            assert_moves_match_scalar_ranks(enumerate_configurations(n, r), targets)


@pytest.mark.parametrize("L", [2, 3, 5, 8])
def test_move_ranks_across_the_torus_wrap(L):
    # on the ring the moves 0 -> L-1 and L-1 -> 0 cross the most positions;
    # L = 2 lists the one neighbor twice
    graph = Torus(1, L)
    targets = [graph.neighbors(v) for v in range(L)]
    assert L - 1 in targets[0] and 0 in targets[L - 1]
    assert_moves_match_scalar_ranks(enumerate_configurations(L, 4), targets)


def test_unrank_range_check():
    with pytest.raises(ValueError):
        unrank_configuration(70, 5, 4)
    with pytest.raises(ValueError):
        unrank_configuration(-1, 5, 4)
    # full roundtrips: all 70 configurations of n=5, r=4 and 126 of n=5, r=5
    for i in range(70):
        assert rank_configuration(unrank_configuration(i, 5, 4)) == i
    for i in range(126):
        assert rank_configuration(unrank_configuration(i, 5, 5)) == i


def test_rank_unrank_random_roundtrips():
    rng = random.Random(20041)
    for _ in range(300):
        n, r = rng.randint(1, 40), rng.randint(0, 40)
        total = configuration_count(n, r)
        index = rng.randrange(total)
        occ = unrank_configuration(index, n, r)
        assert len(occ) == n and sum(occ) == r
        assert rank_configuration(occ) == index
        # stars and bars: an independent uniform draw of a configuration
        bars = sorted(rng.sample(range(n + r - 1), n - 1))
        cuts = [-1] + bars + [n + r - 1]
        drawn = tuple(b - a - 1 for a, b in zip(cuts, cuts[1:]))
        assert unrank_configuration(rank_configuration(drawn), n, r) == drawn


def test_capacity_limit():
    with pytest.raises(CapacityError):
        enumerate_configurations(30, 30, limit=10_000)
    # C(17999, 9000) has 5,417 digits, past what str() converts
    with pytest.raises(CapacityError, match=r"^about 10\^5416 configurations for n=9000"):
        enumerate_configurations(9000, 9000)


def test_format_count():
    assert format_count(0) == "0"
    assert format_count(10**30 - 1) == "9" * 30
    assert format_count(10**30) == "about 10^30"
    assert format_count(math.comb(17999, 9000)) == "about 10^5416"


def test_transition_examples():
    assert transitions(Complete(2), (1, 1)) == [((0, 2), 1.0), ((2, 0), 1.0)]
    assert transitions(Torus(1, 4), (2, 0, 0, 0)) == [
        ((1, 1, 0, 0), 0.5),
        ((1, 0, 0, 1), 0.5),
    ]
    # one entry per (occupied vertex, neighbor): two occupied vertices with
    # two neighbors each, so four entries at rate 1/2 and total outflow 2
    moves = transitions(Complete(3), (2, 1, 0))
    assert len(moves) == 4
    assert all(rate == 0.5 for _, rate in moves)
    assert sum(rate for _, rate in moves) == pytest.approx(2.0)


def test_transitions_conserve_particles():
    for graph in (Torus(1, 4), Complete(4), Torus(2, 2)):
        for occ in enumerate_configurations(graph.vertex_count, 3).tolist():
            for target, rate in transitions(graph, occ):
                assert sum(target) == 3
                assert rate == 1.0 / graph.degree


def test_rate_symmetry():
    """Aggregated rates between any two configurations match both ways."""
    for graph in (Torus(1, 4), Complete(4), Torus(1, 2)):
        for r in (1, 2, 3):
            table = {}
            for occ in enumerate_configurations(graph.vertex_count, r).tolist():
                occ = tuple(occ)
                agg = {}
                for target, rate in transitions(graph, occ):
                    agg[target] = agg.get(target, 0.0) + rate
                table[occ] = agg
            for occ, agg in table.items():
                for target, rate in agg.items():
                    assert table[target][occ] == rate


def test_degenerate_torus_transition_rates():
    # both axis directions point at the same neighbor, so rates double up
    moves = transitions(Torus(1, 2), (1, 0))
    assert moves == [((0, 1), 0.5), ((0, 1), 0.5)]


def test_random_configuration_is_uniform():
    rng = make_generator(99)
    n, r = 3, 2
    counts = {tuple(occ): 0 for occ in enumerate_configurations(n, r).tolist()}
    draws = 12000
    for _ in range(draws):
        counts[random_configuration(n, r, rng)] += 1
    _, p = sps.chisquare(list(counts.values()))
    assert p > 1e-3


def test_random_configuration_edge_cases():
    rng = make_generator(1)
    assert random_configuration(4, 0, rng) == (0, 0, 0, 0)
    assert random_configuration(1, 7, rng) == (7,)


def test_random_configuration_gaps_above_int64():
    # C(71, 36) > 2**63 configurations: the draw takes the stars-and-bars
    # branch, and its gaps match np.diff over the sorted bars
    n = r = 36
    slots = n + r - 1
    assert configuration_count(n, r) > 2**63
    rng, reference = make_generator(5), make_generator(5)
    for _ in range(5):
        bars = np.sort(reference.choice(slots, size=n - 1, replace=False))
        expected = tuple((np.diff(bars, prepend=-1, append=slots) - 1).tolist())
        occ = random_configuration(n, r, rng)
        assert occ == expected and sum(occ) == r
