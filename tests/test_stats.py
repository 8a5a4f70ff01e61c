import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import poisson

from zrpgap import stats
from zrpgap.configurations import (
    enumerate_configurations,
    random_configuration,
    validate_configuration,
)
from zrpgap.errors import CapacityError
from zrpgap.graphs import Complete
from zrpgap.seeding import derive_seed, make_generator, replica_generators, splitmix64
from zrpgap.spectral import UNIFORMIZATION_TAIL, build_generator, occupation_tail
from zrpgap.stats import (
    WINDOW_CONSTANT,
    OccupancyTrace,
    empty_probability_exact,
    estimate_window_constant,
    fit_exponential_tail,
    occupancy_marginal_moments,
    occupancy_stats,
    poisson_cdf,
    poisson_concentration,
    poisson_isf,
    poisson_pmf,
    poisson_sf,
    poisson_truncation,
    rw_no_return_exact,
    rw_no_return_probability,
    skellam_tail,
    skellam_tail_bessel,
    skellam_table,
)


def test_seed_derivation_is_stable():
    # pinned values guard cross-platform reproducibility of every stream
    assert splitmix64(0) == 16294208416658607535
    assert derive_seed(12345, 0) != derive_seed(12345, 1)
    g1 = make_generator(derive_seed(7, 3))
    g2 = make_generator(derive_seed(7, 3))
    assert g1.integers(0, 1 << 30) == g2.integers(0, 1 << 30)


def test_empty_probability_values():
    assert empty_probability_exact(5, 0) == 1
    assert empty_probability_exact(2, 1) == Fraction(1, 2)
    assert empty_probability_exact(3, 3) == Fraction(2, 5)


def test_empty_probability_matches_enumeration():
    n, r = 3, 3
    configs = enumerate_configurations(n, r).tolist()
    count = sum(1 for occ in configs if occ[0] == 0)
    assert empty_probability_exact(n, r) == Fraction(count, len(configs))
    assert count == 4 and len(configs) == 10


def test_occupancy_moments_match_enumeration():
    for n, r in [(3, 2), (4, 3), (2, 5)]:
        configs = enumerate_configurations(n, r).tolist()
        e1 = Fraction(sum(occ[0] for occ in configs), len(configs))
        e2 = Fraction(sum(occ[0] ** 2 for occ in configs), len(configs))
        assert occupancy_marginal_moments(n, r) == (e1, e2)


def test_occupancy_zero_particles_always_empty():
    trace = occupancy_stats(3, 0, 50.0, seed=1)
    assert trace.empty_time == (50.0, 50.0, 50.0)
    assert trace.empty_fraction == 1.0


def test_occupancy_accumulator_matches_grid_resimulation():
    trace = occupancy_stats(3, 2, 40.0, seed=9, record_path=True)
    path = trace.path
    delta = 1e-3
    grid = np.zeros(3)
    times = [t for t, _ in path] + [trace.horizon]
    occs = [occ for _, occ in path]
    k = 0
    t = 0.0
    while t < trace.horizon:
        while k + 1 < len(occs) and times[k + 1] <= t:
            k += 1
        for v in range(3):
            if occs[k][v] == 0:
                grid[v] += delta
        t += delta
    tolerance = 3 * delta * (len(path) + 1)
    assert np.abs(grid - np.array(trace.empty_time)).max() <= tolerance


def reference_occupancy_stats(n, r, horizon, seed, start="stationary",
                              m_param=1.0, record_path=False):
    """The event loop with masked per-event numpy updates."""
    rng = make_generator(seed)
    if start == "stationary":
        occ = list(random_configuration(n, r, rng))
    else:
        occ = list(validate_configuration(start))
    start_occ = tuple(occ)
    rho = r / n
    window_length = (rho + 1.0) ** 2
    truncation = m_param * (rho + 1.0)
    empty = np.zeros(n)
    window_empty = np.zeros(n)
    window_means = []
    next_boundary = window_length
    path = [(0.0, tuple(occ))] if record_path else None
    t = 0.0
    t_accum = 0.0
    events = 0
    inv_rate = 1.0 / n
    chunk = 8192
    bi = blen = 0
    empty_mask = np.array([k == 0 for k in occ])

    def accumulate(dt):
        nonlocal next_boundary, t_accum
        remaining = dt
        while remaining > 0.0:
            room = next_boundary - t_accum
            if room > remaining:
                empty[empty_mask] += remaining
                window_empty[empty_mask] += remaining
                t_accum += remaining
                return
            empty[empty_mask] += room
            window_empty[empty_mask] += room
            t_accum += room
            remaining -= room
            window_means.append(float(np.mean(np.minimum(window_empty, truncation))))
            window_empty[:] = 0.0
            next_boundary += window_length

    while True:
        if bi == blen:
            buf_v = rng.integers(0, n, chunk).tolist()
            buf_u = rng.integers(0, n - 1, chunk).tolist()
            buf_e = (rng.standard_exponential(chunk) * inv_rate).tolist()
            bi = 0
            blen = chunk
        dt, v, u = buf_e[bi], buf_v[bi], buf_u[bi]
        bi += 1
        w = u + 1 if u >= v else u
        if t + dt >= horizon:
            accumulate(horizon - t)
            break
        accumulate(dt)
        t += dt
        events += 1
        if occ[v] > 0:
            occ[v] -= 1
            occ[w] += 1
            empty_mask[v] = occ[v] == 0
            empty_mask[w] = False
            if record_path:
                path.append((t, tuple(occ)))
    return OccupancyTrace(
        n=n, r=r, horizon=float(horizon), seed=seed, start=start_occ,
        empty_time=tuple(float(x) for x in empty), window_length=window_length,
        truncation=truncation, window_means=tuple(window_means), events=events,
        path=tuple(path) if record_path else None,
    )


@pytest.mark.parametrize("n,r,horizon,seed,kwargs", [
    # r = 0: every vertex always empty, a window boundary every 8 events
    (8, 0, 300.0, 21, {}),
    (2, 3, 5000.0, 22, {}),  # K2 over two chunks of draws
    (2, 0, 40.0, 23, {}),
    (5, 7, 1e-5, 24, {}),  # the horizon comes before the first event
    (64, 64, 40.0, 25, {}),  # several accumulation blocks per chunk
    (3, 2, 40.0, 26, {"record_path": True}),
    (4, 4, 2500.0, 27, {"start": (4, 0, 0, 0), "m_param": 0.5}),
    (4, 4, 4.0, 28, {}),  # one window ending exactly at the horizon
])
def test_occupancy_matches_masked_update_loop(n, r, horizon, seed, kwargs):
    trace = occupancy_stats(n, r, horizon, seed, **kwargs)
    assert trace == reference_occupancy_stats(n, r, horizon, seed, **kwargs)
    assert (trace.events == 0) == (horizon < 1e-3)


def test_occupancy_windows_truncated():
    trace = occupancy_stats(4, 4, 100.0, seed=3)
    assert trace.window_length == pytest.approx(4.0)
    assert trace.truncation == pytest.approx(2.0)
    assert len(trace.window_means) == 25
    assert all(0.0 <= x <= trace.truncation for x in trace.window_means)


def test_long_run_empty_fraction_scaling():
    # long-run empty fraction stays above a constant multiple of 1/(rho+1)
    for rho in (1, 2, 4):
        trace = occupancy_stats(8, 8 * rho, 2000.0, seed=17 + rho)
        scaled = trace.empty_fraction * (rho + 1.0)
        assert scaled > 0.5


# the helpers must give scipy's bits, so that every output built from them
# stays byte-identical: compared on means from 0 to 5e4 and k below 2,000
POISSON_MEANS = np.concatenate([[0.0], np.geomspace(1e-3, 5e4, 400)])


@pytest.mark.parametrize(
    "ours,reference",
    [(poisson_pmf, poisson.pmf), (poisson_cdf, poisson.cdf), (poisson_sf, poisson.sf)],
)
def test_poisson_helpers_match_scipy_bitwise(ours, reference):
    ks = np.arange(2000)[:, None]
    got = ours(ks, POISSON_MEANS[None, :])
    assert np.array_equal(got, reference(ks, POISSON_MEANS[None, :]))
    assert ours(3, 2.0) == reference(3, 2.0)


@pytest.mark.parametrize("ours,reference", [(poisson_cdf, poisson.cdf), (poisson_sf, poisson.sf)])
def test_poisson_cdf_and_sf_below_the_support(ours, reference):
    # special.pdtr and pdtrc give nan at k < 0; the helpers mask it
    ks = np.arange(-3, 1)[:, None]
    assert np.array_equal(ours(ks, POISSON_MEANS[None, :]), reference(ks, POISSON_MEANS[None, :]))
    for k in (-2, -1, 0):
        assert ours(k, 2.0) == reference(k, 2.0)
    assert poisson_cdf(-1, 2.0) == 0.0 and poisson_sf(-1, 2.0) == 1.0


@pytest.mark.parametrize("q", [UNIFORMIZATION_TAIL, 1e-12, 2.5e-15, 1e-14 / 4.0, 1e-6])
def test_poisson_isf_matches_scipy_bitwise(q):
    assert np.array_equal(poisson_isf(q, POISSON_MEANS), poisson.isf(q, POISSON_MEANS))
    for mu in (0.0, 1.0, 12.5, 4096.0):
        assert poisson_isf(q, mu) == poisson.isf(q, mu)


def test_poisson_truncation_refuses_before_the_quantile(monkeypatch):
    # the quantile turns to nan near a mean of 1e12, so a mean above the
    # budget is refused without evaluating it
    def no_quantile(*args):
        raise AssertionError("poisson_isf called")

    monkeypatch.setattr(stats, "poisson_isf", no_quantile)
    for mean in (1e13, 1_000_001.0):
        with pytest.raises(CapacityError, match="budget"):
            poisson_truncation(mean, 1e-12, 1_000_000)


def test_poisson_truncation_values_and_refusals():
    assert poisson_truncation(12.5, 1e-12, 1_000) == poisson_isf(1e-12, 12.5)
    assert poisson_truncation(0.0, 1e-12, 1) == 0
    # the mean is within the budget, its quantile is not
    with pytest.raises(CapacityError, match="budget"):
        poisson_truncation(999_000.0, 1e-12, 1_000_000)
    for mean in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="finite"):
            poisson_truncation(mean, 1e-12, 1_000_000)


@pytest.mark.parametrize("bad", [-1.0, math.nan])
def test_bad_window_cap_rejected(bad):
    with pytest.raises(ValueError, match="m_param"):
        occupancy_stats(4, 4, 10.0, seed=1, m_param=bad)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_parameters_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        occupancy_stats(4, 4, bad, seed=1)
    with pytest.raises(ValueError, match="finite"):
        poisson_concentration(bad)
    with pytest.raises(ValueError, match="finite"):
        skellam_tail(bad, 0)


def test_skellam_values():
    assert skellam_tail(1.0, 0) == pytest.approx(0.6542541612768356, abs=1e-12)
    assert skellam_tail(1.0, 0) - skellam_tail(1.0, 1) == pytest.approx(
        0.3085083225536709, abs=1e-12
    )
    # tail of everything
    assert skellam_tail(1.0, -50) == pytest.approx(1.0, abs=1e-12)


def test_skellam_symmetry_identities():
    for lam in (0.5, 1.0, 7.0):
        p0 = skellam_tail(lam, 0)
        p1 = skellam_tail(lam, 1)
        atom = p0 - p1
        # P(D >= 1) = (1 - P(D = 0)) / 2 by symmetry of the difference
        assert p1 == pytest.approx((1.0 - atom) / 2.0, abs=1e-12)
        for m in (1, 3):
            assert skellam_tail(lam, m) + skellam_tail(lam, -m + 1) == pytest.approx(
                1.0, abs=1e-12
            )


def test_skellam_monotone_in_threshold():
    values = [skellam_tail(5.0, m) for m in range(-10, 11)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


def test_skellam_bessel_cross_check():
    for lam in (1.0, 4.0, 40.0):
        for m in (-3, 0, 1, 5):
            assert skellam_tail(lam, m) == pytest.approx(
                skellam_tail_bessel(lam, m), abs=1e-12
            )


def test_skellam_table_structure():
    table = skellam_table(2.0, [0, 1, 2])
    assert table.concentration == pytest.approx(poisson_concentration(2.0))
    ms = [m for m, _ in table.tails]
    assert ms == [0, 1, 2]


def test_vacuous_bound_at_alpha_zero():
    # exp(0) = 1 dominates every probability
    assert skellam_tail(50.0, 0) <= 1.0 == math.exp(0.0)


def test_poisson_concentration_decays_exponentially():
    rates = []
    for lam in (20, 60, 100, 140, 200):
        p = poisson_concentration(lam)
        rates.append(-math.log(p) / lam)
    assert min(rates) > 0.1


def test_skellam_quadratic_tail_rate_positive():
    worst = math.inf
    for lam in range(20, 201, 20):
        for a_num in range(1, 6):
            alpha = Fraction(a_num, 10)
            m = math.ceil(alpha * lam)
            p = skellam_tail(float(lam), m)
            worst = min(worst, -math.log(p) / (float(alpha) ** 2 * lam))
    assert worst > 0.25


def test_rw_no_return_r1_closed_form():
    # the window [1, 1] only constrains the time-1 state
    est = rw_no_return_probability(1, 60_000, seed=5)
    exact = 1.0 - 0.3085083225536709
    assert abs(est.value - exact) <= 3 * est.stderr


def test_rw_no_return_stream_is_pinned():
    # the hit count of a fixed seed: changing how the steps are built from
    # the draws must not change the walks
    est = rw_no_return_probability(4, 20_000, seed=5)
    assert est.value * 20_000 == 2942


# hit counts at seed 11 of the sweep drawn in one call per sweep, for walker
# counts around the block of 2**15: one short, exact, one over, and three
# blocks and a bit, so that draws split at block boundaries are covered
@pytest.mark.parametrize("r,hits", [
    (1, (22786, 22801, 22722, 67938)),
    (2.5, (7997, 7978, 7981, 23748)),
    (8, (2405, 2529, 2456, 7159)),
])
def test_rw_no_return_stream_across_blocks_is_pinned(r, hits):
    block = 2**15
    replicas = (block - 1, block, block + 1, 3 * block + 7)
    got = tuple(round(rw_no_return_probability(r, m, seed=11).value * m) for m in replicas)
    assert got == hits


def test_rw_no_return_memory_is_bounded():
    # position, time and flag are 17 bytes a walker; a million walkers took
    # 46.6 MB when the sweep built full-size temporaries
    tracemalloc.start()
    try:
        rw_no_return_probability(1, 1_000_000, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_rw_no_return_walker_limit_is_a_capacity_error(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("walker state allocated")

    monkeypatch.setattr(stats.np, "zeros", no_allocation)
    with pytest.raises(CapacityError, match="walkers"):
        rw_no_return_probability(2, stats.RW_MAX_REPLICAS + 1, seed=1)


def test_rw_no_return_decreasing_in_r():
    values = [rw_no_return_probability(r, 30_000, seed=40 + r).value for r in (1, 2, 4)]
    assert values[0] > values[1] > values[2]


def test_rw_no_return_scaled_lower_bound():
    worst = math.inf
    for r in range(1, 9):
        est = rw_no_return_probability(r, 30_000, seed=60 + r)
        worst = min(worst, est.ci_low * r)
    assert worst > 0.0


def test_rw_no_return_exact_values():
    assert rw_no_return_exact(1) == pytest.approx(1.0 - 0.3085083225536709, abs=1e-15)
    got = [rw_no_return_exact(r) for r in (2, 3, 5, 8)]
    assert got == pytest.approx([0.30670, 0.20016, 0.11887, 0.07404], abs=5e-6)
    # r p(r) tends to E|X_1| / sqrt(pi) = 0.5910
    assert 8 * got[-1] == pytest.approx(0.5910, abs=2e-3)
    with pytest.raises(ValueError):
        rw_no_return_exact(0.5)


def test_fit_recovers_synthetic_rate():
    rng = make_generator(321)
    fit = fit_exponential_tail(rng.exponential(0.5, 50_000), bootstrap=150)
    assert fit.gamma == pytest.approx(2.0, rel=0.05)
    assert fit.ci_low < fit.gamma < fit.ci_high
    assert not fit.heavy_tail_flag


def test_fit_scale_equivariance():
    rng = make_generator(322)
    samples = rng.exponential(1.0, 20_000)
    base = fit_exponential_tail(samples, bootstrap=0)
    scaled = fit_exponential_tail(samples * 4.0, bootstrap=0)
    assert scaled.gamma == pytest.approx(base.gamma / 4.0, rel=1e-9)


def test_fit_flags_heavy_tails():
    rng = make_generator(323)
    pareto = (1.0 / (1.0 - rng.random(30_000))) ** (1.0 / 1.2)
    fit = fit_exponential_tail(pareto, bootstrap=0)
    assert fit.heavy_tail_flag


def test_fit_with_censoring():
    rng = make_generator(324)
    samples = rng.exponential(1.0, 30_000)
    horizon = np.quantile(samples, 0.995)
    kept = samples[samples < horizon]
    fit = fit_exponential_tail(kept, n_censored=samples.size - kept.size,
                               bootstrap=0, window=(0.5, 0.95))
    assert fit.gamma == pytest.approx(1.0, rel=0.05)
    assert fit.n_censored > 0


def _bootstrap_interval(values, n_censored, window, bootstrap, seed):
    """The percentile interval with one resample drawn and fitted at a time."""
    rng = make_generator(derive_seed(seed, 0xB0075))
    m = values.size
    surv = (m - 1 - np.arange(m) + n_censored) / (m + n_censored)
    gammas = []
    for _ in range(bootstrap):
        resample = np.sort(values[rng.integers(0, m, m)])
        lo, hi = np.quantile(resample, window)
        mask = (resample >= lo) & (resample <= hi) & (surv > 0)
        ts, ys = resample[mask], np.log(surv[mask])
        if ts.size >= 10 and ts.max() > ts.min():
            gammas.append(-np.polyfit(ts, ys, 1)[0])
    return tuple(np.quantile(gammas, [0.025, 0.975]).tolist())


@pytest.mark.parametrize("m,n_censored,window,bootstrap", [
    (27, 0, (0.05, 0.99), 50),  # odd m: resamples start mid-word
    (999, 0, (0.5, 0.99), 70),  # 32 resamples per block, the last block short
    (2049, 5, (0.5, 0.95), 40),
    (40_000, 0, (0.5, 0.99), 3),  # one resample per block
])
def test_bootstrap_blocks_match_one_resample_at_a_time(m, n_censored, window, bootstrap):
    values = np.round(make_generator(m).exponential(1.0, m), 2)  # with ties
    fit = fit_exponential_tail(values, n_censored=n_censored, window=window,
                               bootstrap=bootstrap, seed=m)
    assert (fit.ci_low, fit.ci_high) == _bootstrap_interval(
        values, n_censored, window, bootstrap, m)


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit_exponential_tail([])
    with pytest.raises(ValueError):
        fit_exponential_tail([1.0, 2.0, 3.0])  # far too few points


def test_window_constant_estimate_positive():
    c = estimate_window_constant(grid=((4, 1), (6, 2)), replicas=60, seed=77)
    assert 0.05 < c < 2.0


def test_window_constant_is_the_default_estimate():
    assert estimate_window_constant() == WINDOW_CONSTANT


@pytest.mark.parametrize("n,rho,exact", [
    pytest.param(4, 1, 0.64500, id="1-0.645"),
    pytest.param(4, 2, 0.59056, id="2-0.59056"),
    pytest.param(8, 1, 0.68853, id="K8-1-0.68853"),
])
def test_window_constant_cases_meet_the_exact_occupation_law(n, rho, exact):
    # the per-case mean of estimate_window_constant on K_n, E[min(empty time,
    # rho+1)] / (rho+1) of one vertex over a window from a uniform start
    # with at most 2(rho+1) particles there, is the integral of the exact
    # occupation tail over thresholds in [0, rho+1], all read from one law
    r = n * rho
    horizon, cap_time, cap_start = (rho + 1.0) ** 2, rho + 1.0, 2.0 * (rho + 1.0)
    gen = build_generator(Complete(n), r)
    empty = gen.occupancies[:, 0] == 0
    eligible = gen.occupancies[:, 0] <= cap_start
    start = eligible / np.count_nonzero(eligible)
    nodes, weights = np.polynomial.legendre.leggauss(24)
    tails = occupation_tail(gen.matrix, empty, horizon, cap_time * (nodes + 1) / 2)
    mean = start @ tails @ weights / 2
    assert abs(mean - exact) < 5e-6
    # the simulated ratio of sums over the first 2,000 replicas of the
    # estimator's default seed, its standard error by linearisation over
    # replicas
    sums, counts = [], []
    for seed, rng in replica_generators(20260809, range(2000)):
        trace = occupancy_stats(n, r, horizon, seed, rng=rng)
        kept = [min(e, trace.truncation) / cap_time
                for e, o in zip(trace.empty_time, trace.start) if o <= cap_start]
        sums.append(sum(kept))
        counts.append(len(kept))
    sums, counts = np.array(sums), np.array(counts)
    ratio = sums.sum() / counts.sum()
    stderr = (sums - ratio * counts).std(ddof=1) / math.sqrt(len(sums)) / counts.mean()
    assert abs(ratio - mean) <= 3 * stderr


@pytest.mark.parametrize("replicas", [0, 100_004])
def test_window_constant_rejects_replica_counts(replicas):
    # above 100,003 the grid cases' replica indices would overlap
    with pytest.raises(ValueError):
        estimate_window_constant(replicas=replicas)
