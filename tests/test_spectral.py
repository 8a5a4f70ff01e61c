import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from zrpgap import spectral
from zrpgap.configurations import (
    _lex_ranks,
    _rank_table,
    enumerate_configurations,
    rank_configuration,
    transitions,
    unrank_configuration,
)
from zrpgap.errors import SolverConvergenceError
from zrpgap.graphs import Complete, Torus
from zrpgap.seeding import make_generator
from zrpgap.spectral import (
    DENSE_THRESHOLD,
    Generator,
    build_generator,
    exact_gap,
    fit_decay_rate,
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


def test_dense_path_rejects_a_second_zero_mode():
    # two disconnected copies of one chain: the zero eigenvalue is double
    gen = build_generator(Complete(3), 2)
    split = Generator(
        graph=gen.graph,
        particles=gen.particles,
        occupancies=np.vstack([gen.occupancies, gen.occupancies]),
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


def test_iterative_restart_cap_raises(monkeypatch):
    # Complete(2) r=300 needs 79 ARPACK restarts; the cap is read per call
    gen = build_generator(Complete(2), 300)
    assert exact_gap(gen, method="iterative").gap > 0
    monkeypatch.setattr(spectral, "LANCZOS_MAX_RESTARTS", 5)
    with pytest.raises(SolverConvergenceError, match="did not converge"):
        exact_gap(gen, method="iterative")


def test_iterative_needs_three_states():
    with pytest.raises(ValueError):
        exact_gap(build_generator(Complete(2), 1), method="iterative")


@pytest.mark.parametrize("n,r", [(2, 7), (3, 4), (5, 5), (9, 3), (12, 10), (30, 6)])
def test_vectorized_ranks_match_rank_configuration(n, r):
    rng = make_generator(n * 100 + r)
    total = math.comb(n + r - 1, r)
    picks = rng.integers(total, size=min(total, 300))
    configs = [unrank_configuration(int(i), n, r) for i in picks]
    ranks = _lex_ranks(np.array(configs), _rank_table(n, r))
    assert ranks.tolist() == [rank_configuration(c) for c in configs]


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


def test_tv_curve_csv():
    gen = build_generator(Complete(2), 2)
    text = tv_curve(gen, (2, 0), [0.0, 1.0]).to_csv()
    assert text.splitlines()[0] == "time,tv"
    assert len(text.splitlines()) == 3


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


def test_wilson_modes_agree():
    for variant in ("half_wave", "full_wave"):
        exact = wilson_bound(Torus(1, 5), 4, variant, mode="enumerate")
        closed = wilson_bound(Torus(1, 5), 4, variant, mode="closed_form")
        assert closed.quotient == pytest.approx(exact.quotient, rel=1e-12)
        sampled = wilson_bound(
            Torus(1, 5), 4, variant, mode="monte_carlo", samples=30_000, seed=17
        )
        assert abs(sampled.quotient - exact.quotient) < 5 * sampled.stderr


def test_wilson_closed_form_scales_to_large_spaces():
    # far beyond enumeration limits, still exact
    bound = wilson_bound(Torus(1, 64), 128, "full_wave", mode="closed_form")
    assert 0 < bound.quotient < 1e-2


def test_wilson_rejects_zero_particles():
    with pytest.raises(ValueError):
        wilson_bound(Torus(1, 4), 0, "full_wave")
