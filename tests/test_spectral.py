import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from zrpgap import spectral, stats
from zrpgap.configurations import (
    enumerate_configurations,
    move_kernel,
    rank_configuration,
    transitions,
)
from zrpgap.errors import CapacityError, SolverConvergenceError
from zrpgap.graphs import Complete, Torus
from zrpgap.seeding import make_generator
from zrpgap.spectral import (
    DENSE_THRESHOLD,
    Generator,
    build_generator,
    exact_gap,
    fit_decay_rate,
    occupation_tail,
    rayleigh_quotient,
    transient_distribution,
    tv_curve,
    wilson_bound,
    wilson_profile,
    wilson_test_function,
)


def test_generator_example_two_vertices():
    gen = build_generator(Complete(2), 2)
    expected = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
    assert np.array_equal(gen.matrix.toarray(), expected)


def test_generator_empty_space():
    gen = build_generator(Complete(3), 0)
    assert gen.dimension == 1
    assert gen.matrix.toarray() == np.zeros((1, 1))
    with pytest.raises(ValueError):
        exact_gap(gen)


def test_three_cycle_equals_triangle():
    a = build_generator(Torus(1, 3), 1).matrix.toarray()
    b = build_generator(Complete(3), 1).matrix.toarray()
    assert np.array_equal(a, b)


def loop_generator(graph, r):
    """Reference assembly: one state at a time from ``transitions``."""
    configs = [tuple(c) for c in enumerate_configurations(graph.vertex_count, r).tolist()]
    index = {c: i for i, c in enumerate(configs)}
    rows, cols, vals = [], [], []
    for i, occ in enumerate(configs):
        total = 0.0
        for target, rate in transitions(graph, occ):
            rows.append(i)
            cols.append(index[target])
            vals.append(rate)
            total += rate
        rows.append(i)
        cols.append(i)
        vals.append(-total)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(len(configs), len(configs)))


@pytest.mark.parametrize(
    "graph,r",
    [
        (Complete(3), 2), (Complete(4), 3), (Torus(1, 4), 2), (Torus(1, 2), 2),
        (Torus(2, 2), 4), (Torus(3, 3), 3), (Complete(4), 5), (Complete(9), 6),
        (Torus(1, 7), 7),
    ],
)
def test_generator_symmetric_with_uniform_stationary(graph, r):
    q = build_generator(graph, r).matrix
    ref = loop_generator(graph, r)
    assert np.array_equal(q.indptr, ref.indptr)
    assert np.array_equal(q.indices, ref.indices)
    assert np.abs(q.data - ref.data).max() <= 1e-15
    assert abs(q - q.T).max() == 0.0
    # uniform stationarity: column sums vanish
    assert np.abs(q.sum(axis=0)).max() < 1e-12
    assert np.abs(q.sum(axis=1)).max() < 1e-12


# SHA-256 of the CSR ``indptr``, ``indices`` and ``data`` buffers (int32,
# int32, float64, little-endian), taken from the per-(v, w) re-ranking
# assembly that the prefix-table kernel replaced: any change to the order,
# values or dtypes of the assembled matrix shows here.
PINNED_GENERATORS = [
    (Complete(2), 5, (
        "2fa74b5d18466b36157bb42a4e830422c68ed859a5f5b508953444ee348142bb",
        "365952b171aa1c74ce38830e1aba09ffd43a1a9455938c7da908c52e5f4f43a5",
        "3cd6171f5b580d28f22166ab71ed58d7dd9be9d1ec9fe73fe96a8f04c2f17dc5",
    )),
    (Torus(1, 2), 5, (
        "2fa74b5d18466b36157bb42a4e830422c68ed859a5f5b508953444ee348142bb",
        "365952b171aa1c74ce38830e1aba09ffd43a1a9455938c7da908c52e5f4f43a5",
        "3cd6171f5b580d28f22166ab71ed58d7dd9be9d1ec9fe73fe96a8f04c2f17dc5",
    )),
    (Torus(3, 2), 3, (
        "23ae47c6972e3ba1858433990842824c206fea75afb4e9a880ed6749fd49f154",
        "96b0912736bc80ed0a12582bbfd07872ea6aac13203a24a81dbd3bbb3ace1616",
        "fe7daaeb474fe9cd4c167f0d753672063c555ace7939d49cb9baaf09f0601eb7",
    )),
    (Complete(9), 6, (
        "de34251168810c231f5d6739752c45d7ef322d7fea780e7a68737ceac3ce77e2",
        "7b8db68f12a4bcd14e427f1d223797ed5c2279a178a68ef716b94e5ab3ec1caa",
        "b137c378db0eb245c39b5083398b70e490778a27a0921268f2b76a84ab5f3203",
    )),
    (Torus(2, 3), 6, (
        "141a29ab0fc3a3c3008e62a130a4248942a43782cfbe90a0264a7bfebdda1df0",
        "5049eb94584ffacd80f233c23c9c6012146c10a7737c7316f97637435dd5c137",
        "e5bb26a21f191c5a6816dc85b66dff6502fe8cab250a91f844acf729e776cbbe",
    )),
    (Torus(1, 7), 7, (
        "61dbf801100389121aa8a71661909be9667cb0f6d56a5503d3a0ae91ad99308d",
        "1575c002900305f5c3fef3a9dee8c0b93dffe9d0cbf01ee93a1cae41a4a86aa4",
        "c9842cf4ab83d5936fba5776e06d5a8220281af33b665019888ca0485c57d101",
    )),
    (Torus(1, 3), 0, (
        "01acecb507abfe1a354aa8064f4af5d3f1acd019e37db3c11c97523b71c76e9d",
        "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119",
        "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    )),
    (Torus(3, 3), 2, (
        "fbd6f16ad1b9e196d1f6c06a7a2959042581750e7c4255feace3e98c9faf385b",
        "0a55d5df8b3b313d146c3bdf4742de6499fa37b730a12c63a02b0e713ce3f8a7",
        "90f42ee15b97dc8d386d80b5183718eaeff5b95dc5861c9adcbf6e3619e57d1c",
    )),
    (Torus(2, 2), 4, (
        "95cec7e384019046689d9b49850e39b6c0e616b9c3f144196984b0440c32dc5c",
        "73a92408b2fd9e4a887b4d63ed4adcd3f37a66bfa3c280e143505fe2cb3393f3",
        "21f36c29e33e9c1ec345e0fd261fc33b710613847db5e706ac657c5e7fd0423c",
    )),
    (Complete(4), 0, (
        "01acecb507abfe1a354aa8064f4af5d3f1acd019e37db3c11c97523b71c76e9d",
        "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119",
        "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    )),
    (Torus(1, 8), 12, (
        "89d797a02d043d9a66d3742b8e58d9e0d2d136703d5ea8b88d177af01de5f727",
        "05b85136edb8af281c1b9ebe3856b740f9d0f64ff97c0c32e03343d7d5314923",
        "28a6bf544e2837e3de60dde82a48e4d065a1603bab32b454eeac854357ea7010",
    )),
    (Torus(2, 4), 5, (
        "cbbbf7dffdbf675b3cce28785e77d8fbe93fe2e0a10ead7c1a1c35c5a58df5ae",
        "dfa99bc1f556e0df42b39c2484561a45c4ea8a0fb0b7f0a14680adbd5418d1c4",
        "2357fafa8f551e07bc0a9d03327e5c348f118b7cd70c4b481a0834c7343b5053",
    )),
]


@pytest.mark.parametrize(
    "graph,r,digests", PINNED_GENERATORS, ids=[f"{g}-r{r}" for g, r, _ in PINNED_GENERATORS]
)
def test_generator_bytes_are_pinned(graph, r, digests):
    q = build_generator(graph, r).matrix
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (q.indptr, q.indices, q.data))
    assert got == digests


def test_generator_assembly_memory_is_bounded():
    # the Wilson instance, 50,388 states: assembly through COO arrays and a
    # sort peaked at 35.2 MB, where the CSR arrays and the configurations
    # take 9.7 MB
    build_generator(Complete(3), 2)  # first use of scipy.sparse, untraced
    tracemalloc.start()
    try:
        build_generator(Torus(1, 8), 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


@pytest.mark.parametrize("graph,r", [(Torus(2, 3), 3), (Torus(1, 2), 5), (Complete(5), 3)])
def test_generator_assembly_ranks_each_move_once(graph, r, monkeypatch):
    # every move v -> w is ranked once, with v < w; its reverse is read off it
    calls = []

    def counting_kernel(occ):
        moves = move_kernel(occ)

        def counted(v, ws):
            calls.append((v, list(ws)))
            return moves(v, ws)

        return counted

    monkeypatch.setattr(spectral, "move_kernel", counting_kernel)
    build_generator(graph, r)
    assert [v for v, _ in calls] == list(range(graph.vertex_count))
    assert all(w > v for v, ws in calls for w in ws)


def test_generator_holds_only_its_matrix():
    # the Wilson instance, 50,388 states: the configurations (3.1 MB) are
    # freed when assembly returns, and only the CSR arrays stay
    build_generator(Complete(3), 2)  # first use of scipy.sparse, untraced
    tracemalloc.start()
    try:
        gen = build_generator(Torus(1, 8), 12)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    q = gen.matrix
    assert held <= q.data.nbytes + q.indices.nbytes + q.indptr.nbytes + 2**19


@pytest.mark.parametrize("graph,r", [(Complete(2), 3), (Torus(1, 2), 4), (Torus(2, 3), 2),
                                     (Complete(5), 0)])
def test_generator_occupancies_are_the_enumeration(graph, r):
    # the matrix is all a generator keeps; its configurations are enumerated on demand
    assert [f.name for f in dataclasses.fields(Generator)] == ["graph", "particles", "matrix"]
    gen = build_generator(graph, r)
    occ = gen.occupancies
    assert np.array_equal(occ, enumerate_configurations(graph.vertex_count, r))
    assert gen.configurations == [tuple(row) for row in occ.tolist()]


def test_spectrum_real_nonnegative_simple_zero():
    for graph, r in [(Complete(3), 3), (Torus(1, 4), 2), (Complete(4), 2)]:
        neg = -build_generator(graph, r).matrix.toarray()
        values = np.linalg.eigvalsh(neg)
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert values[1] > 1e-8
        assert (values >= -1e-12).all()


def test_gap_closed_forms():
    assert exact_gap(build_generator(Complete(2), 2)).gap == pytest.approx(1.0, abs=1e-10)
    for n in range(2, 7):
        rep = exact_gap(build_generator(Complete(n), 1))
        assert rep.gap == pytest.approx(n / (n - 1), abs=1e-10)
        assert rep.relaxation_time * rep.gap == pytest.approx(1.0)
    for L in range(3, 9):
        rep = exact_gap(build_generator(Torus(1, L), 1))
        assert rep.gap == pytest.approx(1 - math.cos(2 * math.pi / L), abs=1e-10)


def test_dense_and_iterative_agree():
    # sizes from 3 states up to and across DENSE_THRESHOLD
    for graph, r in [
        (Complete(2), 2), (Complete(4), 3), (Torus(1, 5), 3), (Complete(5), 2),
        (Torus(1, 4), 8), (Complete(5), 6), (Torus(2, 3), 2), (Torus(1, 5), 7),
    ]:
        gen = build_generator(graph, r)
        dense = exact_gap(gen, method="dense")
        iterative = exact_gap(gen, method="iterative")
        assert iterative.method == "iterative"
        assert abs(dense.gap - iterative.gap) < 1e-10
        assert iterative.residual < 1e-10


def test_k2_gap_matches_birth_death_closed_form():
    # on K2 the first vertex's count is a reflecting walk on {0, ..., r}
    # stepping each way at rate 1
    for r in range(1, 41):
        gen = build_generator(Complete(2), r)
        exact = 2.0 * (1.0 - math.cos(math.pi / (r + 1)))
        methods = ["dense", "iterative"] if gen.dimension >= 3 else ["dense"]
        for method in methods:
            assert abs(exact_gap(gen, method=method).gap - exact) <= 1e-10
    # relative accuracy at a small gap, where c - theta would lose up to 1e-9
    # on the iterative path: its gap is the Rayleigh quotient instead
    for r, method, tol in [(150, "dense", 1e-10), (300, "iterative", 1e-12),
                           (500, "iterative", 1e-12), (1000, "iterative", 1e-12),
                           (2000, "iterative", 1e-10), (5000, "iterative", 1e-10)]:
        exact = 4.0 * math.sin(math.pi / (2 * (r + 1))) ** 2
        gap = exact_gap(build_generator(Complete(2), r), method=method).gap
        assert abs(gap - exact) <= tol * exact


def test_dense_path_rejects_a_second_zero_mode():
    # two disconnected copies of one chain: the zero eigenvalue is double
    gen = build_generator(Complete(3), 2)
    split = Generator(
        graph=gen.graph,
        particles=gen.particles,
        matrix=sparse.block_diag([gen.matrix, gen.matrix], format="csr"),
    )
    assert split.dimension <= DENSE_THRESHOLD
    with pytest.raises(SolverConvergenceError, match="no simple zero mode"):
        exact_gap(split)
    assert exact_gap(gen, method="dense").gap > 0


def test_iterative_gap_of_multiplicity_two():
    # 252 states, just above the dense threshold; the +k and -k Fourier
    # modes of the ring give the gap multiplicity 2
    gen = build_generator(Torus(1, 6), 5)
    assert gen.dimension > DENSE_THRESHOLD
    values = np.linalg.eigvalsh(-gen.matrix.toarray())
    assert values[2] - values[1] < 1e-12 < values[3] - values[2]
    report = exact_gap(gen)
    assert report.method == "iterative"
    assert abs(report.gap - values[1]) < 1e-10


def test_iterative_gap_is_reproducible():
    gen = build_generator(Torus(1, 5), 8)
    first = exact_gap(gen, method="iterative")
    for _ in range(3):
        assert exact_gap(gen, method="iterative") == first


def test_iterative_matvec_cap_raises(monkeypatch):
    # Complete(2) r=300 takes 300 Lanczos steps, and a cap of 100 stops pass
    # one after 50; the cap is read per call
    gen = build_generator(Complete(2), 300)
    assert exact_gap(gen, method="iterative").gap > 0
    monkeypatch.setattr(spectral, "LANCZOS_MAX_MATVECS", 100)
    with pytest.raises(SolverConvergenceError, match="did not converge"):
        exact_gap(gen, method="iterative")


def test_matvec_cap_refusal_names_the_steps_made(monkeypatch):
    gen = build_generator(Complete(2), 300)
    monkeypatch.setattr(spectral, "LANCZOS_MAX_MATVECS", 100)
    with pytest.raises(SolverConvergenceError,
                       match="in 50 Lanczos steps, .* cap of 100 matrix-vector products"):
        exact_gap(gen, method="iterative")


# sha256 of _top_eigenvector(gen).tobytes() from the solve that kept no
# basis and reran the whole recurrence in pass two: ordinary convergence
# (100 steps), k = dim - 1 (300 steps) and a longer run (176 steps)
PINNED_EIGENVECTORS = [
    (Torus(1, 7), 7, "e14a929000962d6acaa97c47f57b68382400527f14d873f99fb5ee22fba398ea"),
    (Complete(2), 300, "9e5d8a63e8ecf3ad493bd876afd91c241b03e937bfabf70552a4f1f91211b385"),
    (Complete(3), 60, "7dc1303cf95297a7e51ffe59faad0f24954d91e1bf342f3d8635d87e5208570a"),
]


class _CountingMatrix:
    def __init__(self, matrix, counter):
        self.matrix, self.counter = matrix, counter

    def __matmul__(self, vector):
        self.counter.append(1)
        return self.matrix @ vector


def _count_products(monkeypatch):
    products = []
    lanczos = spectral._lanczos
    monkeypatch.setattr(spectral, "_lanczos", lambda shifted, *state: lanczos(
        _CountingMatrix(shifted, products), *state))
    return products


@pytest.mark.parametrize("kept", [None, 1, 7])
@pytest.mark.parametrize(
    "graph,r,digest", PINNED_EIGENVECTORS, ids=[f"{g}-r{r}" for g, r, _ in PINNED_EIGENVECTORS]
)
def test_kept_basis_changes_no_bit(monkeypatch, graph, r, digest, kept):
    # kept=None is the default budget, which holds each basis; room for one
    # vector or for a few makes pass two resume the recurrence
    gen = build_generator(graph, r)
    if kept is not None:
        monkeypatch.setattr(spectral, "LANCZOS_BASIS_BYTES", kept * 8 * gen.dimension)
    vec = spectral._top_eigenvector(gen)
    assert hashlib.sha256(vec.tobytes()).hexdigest() == digest


def test_kept_basis_makes_one_product_per_step(monkeypatch):
    gen = build_generator(Torus(1, 7), 7)
    products = _count_products(monkeypatch)
    spectral._top_eigenvector(gen)
    steps = len(products)
    assert steps == 100
    for kept in (1, 7, steps - 1, steps):
        monkeypatch.setattr(spectral, "LANCZOS_BASIS_BYTES", kept * 8 * gen.dimension)
        products.clear()
        spectral._top_eigenvector(gen)
        assert len(products) == 2 * steps - kept
    # the start vector is kept even when it alone is over the budget
    monkeypatch.setattr(spectral, "LANCZOS_BASIS_BYTES", 0)
    products.clear()
    spectral._top_eigenvector(gen)
    assert len(products) == 2 * steps - 1


def test_kept_basis_stays_within_its_budget(monkeypatch):
    # Complete(2) r=2000 takes 2,000 steps: 32 MB of basis if all were kept;
    # 1 MB holds 65 of them, and the rest of the solve about 0.5 MB
    spectral._top_eigenvector(build_generator(Complete(2), 300))  # loads scipy.linalg, untraced
    gen = build_generator(Complete(2), 2000)
    budget = 2**20
    monkeypatch.setattr(spectral, "LANCZOS_BASIS_BYTES", budget)
    products = _count_products(monkeypatch)
    tracemalloc.start()
    try:
        spectral._top_eigenvector(gen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < budget + 2 * 2**20
    kept = budget // (8 * gen.dimension)
    assert len(products) == 2 * 2000 - kept


def test_iterative_needs_three_states():
    with pytest.raises(ValueError):
        exact_gap(build_generator(Complete(2), 1), method="iterative")


@pytest.mark.parametrize("n,r", [(2, 7), (3, 4), (5, 5), (9, 3), (12, 5), (30, 3)])
def test_vectorized_ranks_match_rank_configuration(n, r):
    # all n^2 moves out of up to 20 sampled configurations per source vertex
    rng = make_generator(n * 100 + r)
    configs = enumerate_configurations(n, r)
    moves = move_kernel(configs)
    for v in range(n):
        src, ranks = moves(v, range(n))
        picks = rng.choice(src.size, size=min(src.size, 20), replace=False)
        for col in picks.tolist():
            occ = configs[src[col]].tolist()
            for w in range(n):
                moved = list(occ)
                moved[v] -= 1
                moved[w] += 1
                assert ranks[w, col] == rank_configuration(moved)


def test_transient_distribution_is_stochastic():
    gen = build_generator(Complete(3), 2)
    dist = transient_distribution(gen, (2, 0, 0), [0.0, 0.3, 2.0])
    assert dist.shape == (3, 6)
    assert (dist >= 0).all()
    assert np.abs(dist.sum(axis=1) - 1.0).max() < 1e-10
    assert dist[0, gen.config_index((2, 0, 0))] == pytest.approx(1.0)


def test_config_index_is_the_row_index():
    gen = build_generator(Complete(3), 2)
    assert [gen.config_index(c) for c in gen.configurations] == list(range(6))
    for bad in [(1, 0, 0), (3, 0, 0), (2, 0), (2, 0, 0, 0), (3, -1, 0)]:
        with pytest.raises(ValueError):
            gen.config_index(bad)


@pytest.mark.parametrize("start", [-1, True, (2, 0)], ids=["index", "bool", "short"])
def test_transient_start_must_be_a_configuration(start):
    gen = build_generator(Complete(3), 2)
    with pytest.raises((TypeError, ValueError)):
        transient_distribution(gen, start, [0.0, 1.0])


def test_uniformization_memory_is_bounded():
    # about 10,000 Poisson terms at 101 times: the whole weight table would
    # take 8 MB, and its evaluation several times that
    gen = build_generator(Complete(3), 2)
    times = np.linspace(0.0, 5000.0, 101)
    tracemalloc.start()
    try:
        transient_distribution(gen, (2, 0, 0), times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_one_time_law_keeps_no_block_of_powers():
    # Torus(1,8) r=12, 50,388 states: a table of UNIFORMIZATION_BLOCK powers
    # would take 413 MB; one time needs the kernel, a sparse copy of the
    # generator, and a few state vectors
    gen = build_generator(Torus(1, 8), 12)
    csr = sum(a.nbytes for a in (gen.matrix.data, gen.matrix.indices, gen.matrix.indptr))
    tracemalloc.start()
    try:
        transient_distribution(gen, (12,) + (0,) * 7, [1.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * csr + 16 * gen.dimension * 8


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_transient_distribution_rejects_non_finite_times(t):
    gen = build_generator(Complete(3), 2)
    with pytest.raises(ValueError, match="finite"):
        transient_distribution(gen, (2, 0, 0), [0.0, t])


def test_uniformization_budget_is_checked_before_the_series(monkeypatch):
    # exit rate 2 on Complete(3) r=2: a Poisson mean of 2e300, where the
    # quantile turns to nan, and a mean just past the budget are both refused
    # without evaluating the quantile
    gen = build_generator(Complete(3), 2)

    def no_quantile(*args):
        raise AssertionError("poisson_isf called")

    monkeypatch.setattr(stats, "poisson_isf", no_quantile)
    for t_max in (1e300, 0.5 * spectral.UNIFORMIZATION_MAX_TERMS + 1.0):
        with pytest.raises(CapacityError, match="budget"):
            transient_distribution(gen, (2, 0, 0), [0.0, t_max])


def test_uniformization_tables_are_budgeted():
    # 100,001 times: a block of Poisson weights may take 1,024 rows of
    # them, over 10**8 floats, so the run is refused before any table
    gen = build_generator(Complete(3), 2)
    with pytest.raises(CapacityError, match="table cells"):
        transient_distribution(gen, (2, 0, 0), np.zeros(10**5 + 1))


def test_occupation_tail_meets_the_two_state_closed_form():
    # 0 -> 1 at rate q, 1 absorbing: the time in {0} is min(Exp(q), T), so
    # P_0(time >= a) = exp(-q a) for 0 < a <= T
    q, horizon = 1.7, 2.0
    matrix = sparse.csr_matrix([[-q, q], [0.0, 0.0]])
    in_set = [True, False]
    for a in np.linspace(0.0, horizon, 41)[1:]:
        tail = occupation_tail(matrix, in_set, horizon, a)
        assert abs(tail[0] - math.exp(-q * a)) <= 1e-12
        assert tail[1] == 0.0
    for a in (horizon * (1 + 1e-12), 3.0, math.inf):
        assert occupation_tail(matrix, in_set, horizon, a).tolist() == [0.0, 0.0]
    for a in (0.0, -1.0):
        assert occupation_tail(matrix, in_set, horizon, a).tolist() == [1.0, 1.0]


def test_occupation_tail_without_exits_is_the_set_indicator():
    matrix = sparse.csr_matrix((3, 3))
    tail = occupation_tail(matrix, [False, True, True], 2.0, 0.5)
    assert tail.tolist() == [0.0, 1.0, 1.0]


@pytest.mark.parametrize("dim,horizon,match", [
    (6, 2e6, "term budget"),  # a Poisson mean of 2e6 terms
    (1000, 2e5, "table cells"),  # 1,000 states x about 2e5 count columns
])
def test_occupation_tail_is_refused_before_the_series(dim, horizon, match, monkeypatch):
    def no_weights(*args):
        raise AssertionError("poisson_pmf called")

    monkeypatch.setattr(spectral, "poisson_pmf", no_weights)
    matrix = -sparse.identity(dim, format="csr")
    with pytest.raises(CapacityError, match=match):
        occupation_tail(matrix, np.ones(dim, dtype=bool), horizon, 1.0)


def test_occupation_tail_reads_every_threshold_from_one_law():
    # thresholds inside [0, horizon] match one call each; those outside it
    # are exact, in any order and shape
    gen = build_generator(Complete(4), 8)
    empty = gen.occupancies[:, 0] == 0
    horizon = 3.0
    thresholds = np.array([0.1, -1.0, 1.5, 0.0, horizon, 3.5, 2.9])
    table = occupation_tail(gen.matrix, empty, horizon, thresholds)
    assert table.shape == (gen.dimension, thresholds.size)
    for column, a in zip(table.T, thresholds):
        single = occupation_tail(gen.matrix, empty, horizon, a)
        assert single.shape == (gen.dimension,)
        assert np.abs(column - single).max() <= 1e-15
    assert (table[:, [1, 3]] == 1.0).all() and (table[:, 5] == 0.0).all()
    grid = occupation_tail(gen.matrix, empty, horizon, thresholds.reshape(7, 1))
    assert np.array_equal(grid, table.reshape(gen.dimension, 7, 1))


@pytest.mark.parametrize("horizon,threshold", [
    (-1.0, 0.5), (-1.0, -2.0), (-1.0, 2.0), (2.0, math.nan), (2.0, [0.5, math.nan]),
])
def test_occupation_tail_refuses_a_negative_horizon_or_a_nan_threshold(horizon, threshold):
    matrix = sparse.csr_matrix([[-1.0, 1.0], [1.0, -1.0]])
    with pytest.raises(ValueError):
        occupation_tail(matrix, [True, False], horizon, threshold)


@pytest.mark.parametrize("r", [0, 2])
def test_transient_distribution_refuses_empty_times(r):
    gen = build_generator(Complete(3), r)
    with pytest.raises(ValueError, match="non-empty"):
        transient_distribution(gen, (r, 0, 0), [])


def test_uniformization_holds_two_tables():
    # Torus(1,8) r=12, 50,388 states at 41 times: one (times, states) table
    # is 16.5 MB; the accumulator is held with the powers, then with its
    # C-ordered copy, beside the kernel (and a copy or two of the generator
    # while it is built), but never a third table
    gen = build_generator(Torus(1, 8), 12)
    times = np.linspace(0.0, 20.0, 41)
    table = times.size * gen.dimension * 8
    csr = sum(a.nbytes for a in (gen.matrix.data, gen.matrix.indices, gen.matrix.indptr))
    tracemalloc.start()
    try:
        transient_distribution(gen, (12,) + (0,) * 7, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * table + 3 * csr


def test_tv_curve_point_start():
    gen = build_generator(Complete(2), 2)
    curve = tv_curve(gen, (2, 0), [0.0, 1.0, 5.0, 40.0])
    assert curve.values[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    # non-increasing toward the ergodic limit 0
    assert all(a >= b - 1e-12 for a, b in zip(curve.values, curve.values[1:]))
    assert curve.values[-1] < 1e-8


def test_tv_decay_rate_matches_gap():
    times = np.linspace(0.0, 10.0, 41)
    for graph, r in [(Complete(2), 2), (Complete(3), 2)]:
        gen = build_generator(graph, r)
        start = (r,) + (0,) * (graph.vertex_count - 1)
        rate = fit_decay_rate(tv_curve(gen, start, times), 5.0, 10.0)
        gap = exact_gap(gen).gap
        assert abs(rate - gap) / gap < 0.01


def brute_force_quotient(gen, values):
    """Double-sum Dirichlet form over variance, directly from the rates."""
    n = gen.dimension
    q = gen.matrix.toarray()
    dirichlet = 0.0
    for x in range(n):
        for y in range(n):
            if x != y:
                dirichlet += 0.5 * (1.0 / n) * q[x, y] * (values[y] - values[x]) ** 2
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return dirichlet / var


def test_rayleigh_matches_brute_force():
    gen = build_generator(Complete(2), 2)
    values = [float(occ[1]) for occ in gen.configurations]
    assert rayleigh_quotient(gen, values) == pytest.approx(
        brute_force_quotient(gen, values), rel=1e-12
    )
    gen2 = build_generator(Torus(1, 4), 2)
    values2 = [float(occ[0] * 2 - occ[2]) for occ in gen2.configurations]
    assert rayleigh_quotient(gen2, values2) == pytest.approx(
        brute_force_quotient(gen2, values2), rel=1e-12
    )


def test_rayleigh_at_second_eigenvector_is_gap():
    gen = build_generator(Complete(3), 2)
    rep = exact_gap(gen)
    _, vectors = np.linalg.eigh(-gen.matrix.toarray())
    vec = vectors[:, 1]
    assert rayleigh_quotient(gen, vec) == pytest.approx(rep.gap, rel=1e-10)
    # shift invariance
    assert rayleigh_quotient(gen, vec + 7.5) == pytest.approx(rep.gap, rel=1e-8)


def test_rayleigh_upper_bounds_gap():
    gen = build_generator(Torus(1, 5), 2)
    gap = exact_gap(gen).gap
    suite = [
        [float(occ[0]) for occ in gen.configurations],
        [float(occ[1] - occ[3]) for occ in gen.configurations],
        [float(max(occ)) for occ in gen.configurations],
        wilson_test_function(Torus(1, 5), "full_wave"),
    ]
    for f in suite:
        assert rayleigh_quotient(gen, f) >= gap - 1e-10


def test_rayleigh_zero_variance_rejected():
    gen = build_generator(Complete(3), 2)
    with pytest.raises(ValueError):
        rayleigh_quotient(gen, [4.0] * gen.dimension)


def test_wilson_profile_values():
    phi = wilson_profile(Torus(1, 4), "full_wave")
    assert phi == pytest.approx([1.0, 0.0, -1.0, 0.0], abs=1e-15)
    phi2 = wilson_profile(Torus(1, 4), "half_wave")
    assert phi2[0] == pytest.approx(1.0)
    assert phi2[3] == pytest.approx(-math.sqrt(0.5))
    with pytest.raises(ValueError):
        wilson_profile(Complete(4), "full_wave")
    with pytest.raises(ValueError):
        wilson_profile(Torus(1, 4), "sawtooth")


def test_wilson_single_particle_exact_eigenfunction():
    bound = wilson_bound(Torus(1, 4), 1, "full_wave", mode="enumerate")
    assert bound.quotient == pytest.approx(1.0, abs=1e-12)


def test_wilson_upper_bounds_gap():
    for L, r in [(3, 2), (4, 3), (5, 2)]:
        gap = exact_gap(build_generator(Torus(1, L), r)).gap
        for variant in ("half_wave", "full_wave"):
            bound = wilson_bound(Torus(1, L), r, variant, mode="enumerate")
            assert bound.quotient >= gap - 1e-10


WILSON_CASES = [
    (Torus(1, 5), 4),
    (Torus(1, 2), 3),
    (Torus(2, 2), 3),
    (Torus(3, 2), 2),
    (Torus(2, 3), 3),
    (Torus(1, 8), 6),
]


@pytest.mark.parametrize("graph,r", WILSON_CASES, ids=[f"{g}-r{r}" for g, r in WILSON_CASES])
def test_wilson_modes_agree(graph, r):
    # enumerate and closed_form against the Rayleigh quotient on the
    # assembled generator; on an L = 2 torus a repeated neighbour is two
    # share terms but one summed generator entry
    gen = build_generator(graph, r)
    for variant in ("half_wave", "full_wave"):
        reference = rayleigh_quotient(gen, wilson_test_function(graph, variant))
        exact = wilson_bound(graph, r, variant, mode="enumerate")
        closed = wilson_bound(graph, r, variant, mode="closed_form")
        assert exact.quotient == pytest.approx(reference, rel=1e-12)
        assert closed.quotient == pytest.approx(reference, rel=1e-12)
        sampled = wilson_bound(graph, r, variant, mode="monte_carlo", samples=30_000, seed=17)
        assert abs(sampled.quotient - exact.quotient) < 5 * sampled.stderr


def test_wilson_enumeration_memory_is_bounded():
    # the (N, n) occupancy table (3.2 MB here) and its row-wise sums; a
    # quotient taken through the assembled generator peaks at 16.1 MB
    graph, r = Torus(1, 8), 12
    table = spectral.configuration_count(graph.vertex_count, r) * graph.vertex_count * 8
    tracemalloc.start()
    try:
        wilson_bound(graph, r, mode="enumerate")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * table


def test_wilson_closed_form_scales_to_large_spaces():
    # far beyond enumeration limits, still exact
    bound = wilson_bound(Torus(1, 64), 128, "full_wave", mode="closed_form")
    assert 0 < bound.quotient < 1e-2


def test_wilson_rejects_zero_particles():
    with pytest.raises(ValueError):
        wilson_bound(Torus(1, 4), 0, "full_wave")
