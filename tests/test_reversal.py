import bisect
import dataclasses
import hashlib
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm

from zrpgap import reversal, spectral
from zrpgap.errors import CapacityError
from zrpgap.graphs import Complete
from zrpgap.reversal import (
    DEFAULT_MAX_CHAIN_STATES,
    MERGED,
    DriftParams,
    balance_residuals,
    balanced_states,
    build_tagged_pair_chain,
    drift_check,
    occupation_time_inequality,
    reverse_chain,
    reversed_attempt_rates,
    reversed_rate_bounds_hold,
    sample_hitting_times,
    simulate_reversed_hitting,
    survival_agreement,
)
from zrpgap.seeding import derive_seed, make_generator
from scipy import stats as sps

from zrpgap.spectral import (
    UNIFORMIZATION_BLOCK,
    UNIFORMIZATION_TAIL,
    _uniformize,
    build_generator,
    occupation_tail,
    transient_distribution,
    uniformization_terms,
)
from zrpgap.stats import WINDOW_CONSTANT, MCEstimate, fit_exponential_tail


def brute_force_states(n, high_count):
    """Independent enumeration: every occupancy/tag triple that is legal."""
    total = high_count + 2
    out = set()
    for occ in product(range(total + 1), repeat=n):
        if sum(occ) != total:
            continue
        for s in range(n):
            for t in range(n):
                if s != t and occ[s] >= 1 and occ[t] >= 1:
                    out.add((occ, s, t))
    return out


@pytest.mark.parametrize("n,j", [(3, 0), (3, 1), (4, 0), (4, 1)])
def test_state_enumeration_matches_brute_force(n, j):
    chain = build_tagged_pair_chain(n, j)
    proper = set(chain.states) - {MERGED}
    assert proper == brute_force_states(n, j)
    assert chain.size == n * (n - 1) * math.comb(n + j - 1, j) + 1


def test_rate_structure_bounds():
    for n, j in [(3, 1), (4, 1), (3, 2)]:
        chain = build_tagged_pair_chain(n, j)
        for i, state in enumerate(chain.states):
            row = chain.rates[i]
            assert all(q > 0 for q in row.values())
            if state != MERGED:
                assert len(row) <= (n - 1) * (j + 2)
                # one unit of exit rate per occupied vertex
                occupied = sum(1 for k in state[0] if k > 0)
                assert chain.exit_rate(i) == Fraction(occupied)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("j", [0, 1])
def test_balance_equations_exact(n, j):
    chain = build_tagged_pair_chain(n, j)
    residuals = balance_residuals(chain)
    assert all(x == 0 for x in residuals)


def test_perturbed_weights_break_balance():
    chain = build_tagged_pair_chain(3, 1)
    residuals = balance_residuals(chain, weights=[1] * chain.size)
    assert any(x != 0 for x in residuals)


def test_reversal_identity_between_equal_weights():
    chain = build_tagged_pair_chain(3, 0)
    rev = reverse_chain(chain)
    for i, row in enumerate(chain.rates):
        for j, q in row.items():
            if chain.pi[i] == chain.pi[j]:
                assert rev.rates[j][i] == q


def test_double_reversal_is_identity():
    for n, j in [(3, 0), (3, 1), (4, 1)]:
        chain = build_tagged_pair_chain(n, j)
        twice = reverse_chain(reverse_chain(chain))
        assert all(twice.rates[i] == chain.rates[i] for i in range(chain.size))


# at (2, 0) no move is possible: both vertices hold a tag and no high
@pytest.mark.parametrize("n,j", [(2, 0), (3, 0), (3, 1), (4, 1), (4, 2), (5, 2)])
def test_reversed_rates_match_attempt_description(n, j):
    suppressed = reverse_chain(build_tagged_pair_chain(n, j), suppress_merged=True)
    closed_form = reversed_attempt_rates(n, j)
    assert closed_form.states == suppressed.states
    for i in range(suppressed.size):
        assert suppressed.rates[i] == closed_form.rates[i]


def test_reversed_vertex_rate_bounds():
    assert reversed_rate_bounds_hold(3, 1)
    assert reversed_rate_bounds_hold(4, 1)
    assert reversed_rate_bounds_hold(3, 2)


@pytest.mark.parametrize("bad", [-5.0, math.nan])
def test_hitting_times_reject_bad_horizon(bad):
    with pytest.raises(ValueError, match="horizon"):
        sample_hitting_times(4, 1, 10, seed=1, horizon=bad, c_const=0.3)


def test_hitting_times_at_zero_horizon():
    # a run stops at once: hit when it starts balanced, censored otherwise
    runs = sample_hitting_times(4, 1, 50, seed=1, horizon=0.0, c_const=0.3)
    assert all(run.stop_time == 0.0 and run.hit != run.censored for run in runs)
    assert any(run.hit for run in runs) and any(run.censored for run in runs)


def test_capacity_guard():
    with pytest.raises(CapacityError):
        build_tagged_pair_chain(10, 8, max_states=500)
    # 12,048 digits of chain states, past what str() converts
    with pytest.raises(CapacityError, match=r"^about 10\^12047 chain states"):
        build_tagged_pair_chain(20000, 20000)


def test_attempt_rates_capacity_guard():
    # 2,187,901 states against the default limit, refused before enumeration
    with pytest.raises(CapacityError):
        reversed_attempt_rates(10, 8)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_drift_rejects_non_finite_parameters(bad):
    with pytest.raises(ValueError, match="finite"):
        DriftParams(density=1.0, c_const=bad)
    with pytest.raises(ValueError, match="finite"):
        drift_check(4, 1, replicas=10, seed=1, c_const=0.3, t_ref=bad)


def test_drift_parameter_values():
    params = DriftParams(density=0.0, c_const=32.0)  # scale 64*1/32 = 2
    assert params.scale == pytest.approx(2.0)
    assert params.alpha == pytest.approx(1.0 / 6.0)
    assert params.rung(2) == pytest.approx(-0.5)
    assert params.rung(3) == pytest.approx(-1.0 / 6.0)
    assert params.ladder(3) == pytest.approx(-2.0 / 3.0)
    assert params.ladder(1) == 0.0
    # rungs are nonpositive and the ladder never increases
    prev = 0.0
    for k in range(2, 12):
        assert params.rung(k) < 0
        assert params.ladder(k) <= prev
        prev = params.ladder(k)
    with pytest.raises(ValueError):
        params.rung(1)


def test_hitting_from_balanced_state_is_zero():
    chain = build_tagged_pair_chain(3, 1)
    inside = next(
        s for s in chain.states if s != MERGED and s[0][s[1]] == s[0][s[2]]
    )
    run = simulate_reversed_hitting(chain, seed=4, horizon=100.0, c_const=0.3,
                                    start=inside)
    assert run.hit and run.stop_time == 0.0
    merged_run = simulate_reversed_hitting(chain, seed=4, horizon=100.0,
                                           c_const=0.3, start=MERGED)
    assert merged_run.hit and merged_run.stop_time == 0.0


class _FixedUniform:
    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


@pytest.mark.parametrize("n,j", [(4, 1), (6, 2)])
def test_start_law_matches_cumsum_searchsorted(n, j):
    chain = build_tagged_pair_chain(n, j)
    cum = np.cumsum(np.asarray(chain.pi, dtype=float))
    # u exactly on every boundary, just below it, and at random points
    boundaries = cum / cum[-1]
    points = np.concatenate([boundaries, np.nextafter(boundaries, 0.0),
                             np.random.default_rng(n).random(500), [0.0]])
    on_boundary = 0
    for x in points:
        x = float(x)
        on_boundary += bool(np.any(x * cum[-1] == cum))
        expected = int(np.searchsorted(cum, x * cum[-1], side="right"))
        assert reversal._sample_start(chain, _FixedUniform(x)) == expected
    assert on_boundary >= chain.size // 2


def test_reversed_simulation_requires_forward_chain():
    chain = build_tagged_pair_chain(3, 1)
    with pytest.raises(ValueError):
        simulate_reversed_hitting(reverse_chain(chain), seed=1, horizon=10.0,
                                  c_const=0.3)


def test_drift_bookkeeping_identity():
    chain = build_tagged_pair_chain(4, 2)
    for seed in range(200):
        simulate_reversed_hitting(chain, seed=seed, horizon=1e4, c_const=0.3,
                                  check_identity=True)


def test_hitting_time_tail_is_exponential():
    runs = sample_hitting_times(4, 1, 10_000, seed=12, horizon=1e6, c_const=0.3)
    assert all(run.hit for run in runs)
    times = [run.stop_time for run in runs if run.stop_time > 0]
    fit = fit_exponential_tail(times, bootstrap=0)
    assert fit.r_squared > 0.95


def test_drift_check_nonnegative():
    check = drift_check(4, 1, replicas=2000, seed=13, c_const=0.3, t_ref=5.0)
    assert check.nonnegative_within_2se
    assert check.mean_rate > 0


@pytest.mark.parametrize("n,j", [(3, 0), (3, 1), (4, 1)])
def test_forward_reversed_survival_agreement(n, j):
    chain = build_tagged_pair_chain(n, j)
    agreement = survival_agreement(chain, [0.5, 1.0, 2.0])
    assert agreement.sup_difference <= 1e-10


@pytest.mark.parametrize("j,times", [(1, [-1.0, 1.0]), (0, []), (1, [])])
def test_survival_agreement_refuses_negative_or_empty_times(j, times):
    with pytest.raises(ValueError, match="non-empty, finite and non-negative"):
        survival_agreement(build_tagged_pair_chain(3, j), times)


def test_every_uniformized_law_sets_up_through_one_helper(monkeypatch):
    # each law derives Lambda, the term count and the kernel from one
    # helper call per series: a second derivation would not be counted
    calls = []

    def counted(matrix, times, *args):
        calls.append(matrix.shape[0])
        return uniformization(matrix, times, *args)

    uniformization = spectral._uniformization
    monkeypatch.setattr(spectral, "_uniformization", counted)
    gen = build_generator(Complete(3), 2)
    transient_distribution(gen, (2, 0, 0), [0.5, 1.0])
    assert calls == [6]
    chain = build_tagged_pair_chain(3, 1)
    survival_agreement(chain, [0.5])
    unmerged = chain.size - len(balanced_states(chain))
    assert calls == [6, unmerged, unmerged]
    occupation_time_inequality(chain, 0.2, chain.states[1], chain.states[2], horizon=1.0)
    assert calls == [6, unmerged, unmerged, chain.size, chain.size]


def dense_generator(chain):
    """The generator filled densely from the exact rates."""
    q = np.zeros((chain.size, chain.size))
    for i, row in enumerate(chain.rates):
        q[i, i] = -float(chain.exit_rate(i))
        for j, rate in row.items():
            q[i, j] += float(rate)
    return q


def expm_survival(chain, times):
    """Reference survival: pi on the non-balanced block times
    expm(t Q_block), summed."""
    absorbed = set(balanced_states(chain))
    keep = [i for i in range(chain.size) if i not in absorbed]
    q = dense_generator(chain)[np.ix_(keep, keep)]
    start = np.array([chain.pi[i] for i in keep], dtype=float) / sum(chain.pi)
    return np.array([(start @ expm(t * q)).sum() for t in times])


EXPM_TIMES = [0.0, 0.5, 1.0, 2.0, 4.0]


@pytest.mark.parametrize("case", [
    pytest.param((3, 1), id="survival-3-1"),
    pytest.param((4, 1), id="survival-4-1"),
    "complete-3-r2",
    "point-start-3-1",
])
def test_uniformization_matches_expm(case):
    if case == "complete-3-r2":
        gen = build_generator(Complete(3), 2)
        dists = transient_distribution(gen, (2, 0, 0), EXPM_TIMES)
        start = gen.config_index((2, 0, 0))
        dense = gen.matrix.toarray()
        expected = np.array([expm(t * dense)[start] for t in EXPM_TIMES])
        assert np.abs(dists - expected).max() <= 1e-12
        return
    if case == "point-start-3-1":
        # the generators above are symmetric, and from pi the forward and
        # reversed survival curves coincide, so neither sees a transposed
        # kernel; a point start on the non-symmetric tagged chain does
        dense = dense_generator(build_tagged_pair_chain(3, 1))
        point = np.zeros(len(dense))
        point[5] = 1.0
        laws = _uniformize(sparse.csr_matrix(dense), point, np.array(EXPM_TIMES), 1e-14, 10_000)
        expected = np.array([expm(t * dense)[5] for t in EXPM_TIMES])
        assert np.abs(laws - expected).max() <= 1e-12
        return
    chain = build_tagged_pair_chain(*case)
    agreement = survival_agreement(chain, EXPM_TIMES)
    forward = expm_survival(chain, EXPM_TIMES)
    backward = expm_survival(reverse_chain(chain), EXPM_TIMES)
    assert forward[-1] > 1e-3  # the curves are not trivially zero
    assert np.abs(np.array(agreement.forward) - forward).max() <= 1e-12
    assert np.abs(np.array(agreement.backward) - backward).max() <= 1e-12


@pytest.mark.parametrize("points", [1, 7])
@pytest.mark.parametrize("case", ["complete-2-r40", "killed-3-1"])
def test_uniformization_matches_expm_across_blocks(case, points):
    # series longer than UNIFORMIZATION_BLOCK terms, at 7 times, which do not
    # divide a block; the killed block loses its mass fast, so each law is
    # compared relative to the mass still in the block
    if case == "complete-2-r40":
        dense = build_generator(Complete(2), 40).matrix.toarray()
        t_max = 600.0
    else:
        chain = build_tagged_pair_chain(3, 1)
        keep = [i for i, state in enumerate(chain.states) if state != MERGED]
        dense = dense_generator(chain)[np.ix_(keep, keep)]
        t_max = 400.0
    lam = float(-dense.diagonal().min())
    assert uniformization_terms(lam, t_max, points, len(dense)) > UNIFORMIZATION_BLOCK
    times = np.linspace(t_max / points, t_max, points)
    point = np.zeros(len(dense))
    point[1] = 1.0
    laws = _uniformize(sparse.csr_matrix(dense), point, times)
    expected = np.array([expm(t * dense)[1] for t in times])
    assert (np.abs(laws - expected).max(axis=1) <= 1e-12 * expected.sum(axis=1)).all()


def transposing_uniformize(matrix, start_vector, times):
    """Reference uniformization that transposes the kernel on every term.

    The powers are summed as ``_uniformize`` sums them: ``min(points,
    UNIFORMIZATION_BLOCK)`` at a time, by one product with their weights.
    """
    lam = float(-matrix.diagonal().min())
    kernel = sparse.identity(matrix.shape[0], format="csr") + matrix / lam
    kmax = int(sps.poisson.isf(UNIFORMIZATION_TAIL, lam * float(times.max()))) + 1
    rows = min(times.size, UNIFORMIZATION_BLOCK)
    acc = np.zeros((matrix.shape[0], times.size))
    mu = np.array(start_vector, dtype=float)
    for first in range(0, kmax + 1, UNIFORMIZATION_BLOCK):
        ks = range(first, min(first + UNIFORMIZATION_BLOCK, kmax + 1))
        weights = sps.poisson.pmf(np.array(ks)[:, None], lam * times[None, :])
        for lo in range(0, len(ks), rows):
            powers = []
            for k in ks[lo:lo + rows]:
                powers.append(mu)
                if k < kmax:
                    mu = kernel.T @ mu
            acc += np.array(powers).T @ weights[lo:lo + len(powers)]
    return np.ascontiguousarray(acc.T)


@pytest.mark.parametrize("case", ["tagged-3-1-unmerged", "complete-3-r2"])
def test_uniformization_matches_per_term_transpose(case):
    if case == "complete-3-r2":
        matrix = build_generator(Complete(3), 2).matrix
    else:
        # the (3,1) tagged chain killed on merging: a non-symmetric
        # sub-generator
        chain = build_tagged_pair_chain(3, 1)
        keep = [i for i, state in enumerate(chain.states) if state != MERGED]
        matrix = sparse.csr_matrix(dense_generator(chain)[np.ix_(keep, keep)])
        assert (matrix != matrix.T).nnz and matrix.sum(axis=1).max() < 0
    point = np.zeros(matrix.shape[0])
    point[1] = 1.0
    times = np.array(EXPM_TIMES + [40.0])
    assert np.array_equal(_uniformize(matrix, point, times),
                          transposing_uniformize(matrix, point, times))


def test_survival_at_time_zero_is_mass_outside_hitting_set():
    chain = build_tagged_pair_chain(3, 1)
    agreement = survival_agreement(chain, [0.0])
    absorbed = set(balanced_states(chain))
    outside = sum(chain.pi[i] for i in range(chain.size) if i not in absorbed)
    expected = outside / sum(chain.pi)
    assert agreement.forward[0] == pytest.approx(expected, abs=1e-12)
    assert agreement.backward[0] == pytest.approx(expected, abs=1e-12)


def test_two_tags_only_is_everywhere_balanced():
    # with no high particles every proper state has both tags alone, so the
    # survival of the balanced-set hitting time vanishes identically
    chain = build_tagged_pair_chain(3, 0)
    assert set(balanced_states(chain)) == set(range(chain.size))
    agreement = survival_agreement(chain, [0.5, 1.0])
    assert agreement.forward == (0.0, 0.0)
    assert agreement.backward == (0.0, 0.0)


def test_occupation_time_inequality_threshold_zero_is_sure():
    chain = build_tagged_pair_chain(3, 0)
    report = occupation_time_inequality(
        chain, 0.0, chain.states[1], chain.states[2], horizon=0.5,
    )
    assert report.forward == 1.0
    assert report.reversed_max == 1.0
    assert report.constant >= 1.0
    assert report.bound_holds


def test_occupation_time_inequality_nontrivial():
    chain = build_tagged_pair_chain(3, 0)
    x_state = chain.states[1]
    for start in chain.states[1:4]:
        report = occupation_time_inequality(chain, 0.2, x_state, start, horizon=1.0)
        assert report.bound_holds


def _jump_rows(rates):
    """Per state: total exit rate, targets and cumulative target rates."""
    rows = []
    for i in range(rates.shape[0]):
        lo, hi = rates.indptr[i], rates.indptr[i + 1]
        cum = np.cumsum(rates.data[lo:hi]).tolist()
        rows.append((cum[-1] if cum else 0.0, rates.indices[lo:hi].tolist(), cum))
    return rows


def _simulate_occupation(rows, start_idx, x_idx, horizon, rng):
    """Occupation time of one state up to the horizon, one trajectory."""
    state = start_idx
    clock = 0.0
    occupied = 0.0
    while clock < horizon:
        total, targets, cum = rows[state]
        if total <= 0.0:
            if state == x_idx:
                occupied += horizon - clock
            break
        dt = rng.standard_exponential() / total
        if state == x_idx:
            occupied += min(dt, horizon - clock)
        clock += dt
        if clock >= horizon:
            break
        state = targets[bisect.bisect_right(cum, rng.random() * total)]
    return occupied


@pytest.mark.parametrize("n,j", [(3, 0), (4, 1)])
def test_occupation_tail_matches_path_simulation(n, j):
    # the exact occupation law against event-by-event paths of the same
    # float rates, forward and reversed, from each start in states[1:4]
    replicas, threshold, horizon = 20_000, 0.2, 1.0
    forward = build_tagged_pair_chain(n, j)
    x_idx = 1
    in_x = np.arange(forward.size) == x_idx
    for case, chain in enumerate((forward, reverse_chain(forward))):
        exact = occupation_tail(reversal._float_generator(chain), in_x, horizon, threshold)
        rows = _jump_rows(reversal._float_rates(chain))
        for start in range(1, 4):
            rng = make_generator(derive_seed(17, 10 * case + start))
            hits = sum(_simulate_occupation(rows, start, x_idx, horizon, rng) >= threshold
                       for _ in range(replicas))
            estimate = MCEstimate.binomial(hits, replicas, 17)
            assert abs(exact[start] - estimate.value) <= 3 * estimate.stderr


# ---------------------------------------------------------------------------
# Fraction-accumulation references for the integer-numerator rate kernels
# ---------------------------------------------------------------------------

def _moved(eta, v, w):
    moved = list(eta)
    moved[v] -= 1
    moved[w] += 1
    return tuple(moved)


def _high(state):
    eta, s, t = state
    high = list(eta)
    high[s] -= 1
    high[t] -= 1
    return high


def reference_forward_rates(chain):
    """Forward rates summed one Fraction(1, n-1) per move."""
    n = chain.n
    unit = Fraction(1, n - 1)
    rates = [dict() for _ in chain.states]
    for i, state in enumerate(chain.states):
        if state == MERGED:
            continue
        eta, s, t = state
        high = _high(state)
        for v in range(n):
            if eta[v] == 0:
                continue
            for w in range(n):
                if w == v:
                    continue
                moved = _moved(eta, v, w)
                if high[v] > 0:
                    target = (moved, s, t)
                elif v == s:
                    target = MERGED if w == t else (moved, w, t)
                else:
                    target = MERGED if w == s else (moved, s, w)
                j = chain.state_index(target)
                rates[i][j] = rates[i].get(j, Fraction(0)) + unit
    merged = chain.state_index(MERGED)
    rates[merged] = {i: 2 * unit for i in range(chain.size) if i != merged}
    return rates


def reference_reverse_rates(chain, suppress_merged):
    rates = [dict() for _ in chain.states]
    merged = chain.state_index(MERGED)
    for i, row in enumerate(chain.rates):
        if suppress_merged and i == merged:
            continue
        for j, q in row.items():
            rates[j][i] = rates[j].get(i, Fraction(0)) + Fraction(chain.pi[i], chain.pi[j]) * q
    if suppress_merged:
        rates[merged] = {}
    return rates


def reference_attempt_rates(chain):
    """Attempt-form reversed rates as attempt rate times moving share."""
    n = chain.n
    rates = [dict() for _ in chain.states]
    for i, state in enumerate(chain.states):
        if state == MERGED:
            continue
        eta, s, t = state
        high = _high(state)
        for v in range(n):
            if eta[v] == 0:
                continue
            for w in range(n):
                if w == v:
                    continue
                attempt = Fraction(eta[w] + 1, (high[w] + 1) * (n - 1))
                moved = _moved(eta, v, w)
                if high[v] > 0:
                    j = chain.state_index((moved, s, t))
                    rates[i][j] = rates[i].get(j, Fraction(0)) + attempt * Fraction(high[v], eta[v])
                if v in (s, t) and eta[w] == 0:
                    target = (moved, w, t) if v == s else (moved, s, w)
                    j = chain.state_index(target)
                    rates[i][j] = rates[i].get(j, Fraction(0)) + attempt * Fraction(1, eta[v])
    return rates


def reference_balance_residuals(chain, weights):
    pi = list(chain.pi) if weights is None else list(weights)
    inflow = [Fraction(0)] * chain.size
    outflow = [Fraction(0)] * chain.size
    for i, row in enumerate(chain.rates):
        for j, q in row.items():
            inflow[j] += pi[i] * q
            outflow[i] += pi[i] * q
    return [inflow[i] - outflow[i] for i, state in enumerate(chain.states) if state != MERGED]


def reference_rate_bounds_hold(chain):
    """The per-vertex bounds, rescanning the row for every vertex."""
    n = chain.n
    for i, state in enumerate(chain.states):
        if state == MERGED:
            continue
        eta, s, t = state
        if eta[s] == eta[t]:
            continue
        high = _high(state)
        for v in range(n):
            if eta[v] > 0 and Fraction(eta[v] + 1, high[v] + 1) > 1 + Fraction(1, eta[v]):
                return False
            if eta[v] == 0:
                continue
            expel = Fraction(0)
            for j, q in chain.rates[i].items():
                target = chain.states[j]
                if target != MERGED and target[0][v] == eta[v] - 1:
                    expel += q
            if expel < 1 - Fraction(1, eta[v]):
                return False
    return True


def assert_same_rows(rates, expected):
    """Equal rates, Fraction-typed, with the same key order in every row."""
    assert len(rates) == len(expected)
    for row, ref in zip(rates, expected):
        assert list(row.items()) == list(ref.items())
        assert all(type(q) is Fraction for q in row.values())


# on n = 2 every tag move lands on the other tag, in the merged state
REFERENCE_CASES = [(2, 3), (3, 0), (3, 1), (4, 1), (4, 2), (5, 2), (6, 1)]


@pytest.mark.parametrize("n,j", REFERENCE_CASES)
def test_rates_match_fraction_accumulation(n, j):
    chain = build_tagged_pair_chain(n, j)
    assert_same_rows(chain.rates, reference_forward_rates(chain))
    for suppress in (False, True):
        assert_same_rows(reverse_chain(chain, suppress_merged=suppress).rates,
                         reference_reverse_rates(chain, suppress))
    attempt = reversed_attempt_rates(n, j)
    assert attempt.states == chain.states
    assert_same_rows(attempt.rates, reference_attempt_rates(attempt))


def test_reversal_of_the_largest_two_vertex_chain():
    # (2, 9998) is the largest n = 2 chain the default limit admits; its
    # weights reach 5000**2, so the reversed products pi num, pi den do too
    chain = build_tagged_pair_chain(2, 9_998)
    assert max(chain.pi) == 5000**2
    with pytest.raises(CapacityError):
        build_tagged_pair_chain(2, 9_999)
    once = reverse_chain(chain)
    assert_same_rows(once.rates, reference_reverse_rates(chain, False))
    assert reverse_chain(once).rates == chain.rates


def test_double_reversal_is_exact_or_refused():
    # weights reach 65001**2 > 2**32: the second reversal's products leave int64
    chain = build_tagged_pair_chain(2, 130_000, max_states=10**6)
    once = reverse_chain(chain)
    assert once.num.min() > 0 and once.den.min() > 0
    try:
        twice = reverse_chain(once)
    except CapacityError:
        return
    for name in ("indptr", "indices", "num", "den"):
        assert np.array_equal(getattr(twice, name), getattr(chain, name))


def test_float_rates_leave_the_chain_rows_in_order():
    chain = build_tagged_pair_chain(4, 2)
    survival_agreement(chain, [0.5])  # sorts the float rates by column
    expected = reference_forward_rates(chain)
    assert any(list(row) != sorted(row) for row in expected)
    assert_same_rows(chain.rates, expected)


@pytest.mark.parametrize("n,j", REFERENCE_CASES)
def test_balance_residuals_match_fraction_accumulation(n, j):
    forward = build_tagged_pair_chain(n, j)
    ratios = [Fraction(k + 2, k + 1) for k in range(forward.size)]
    for chain in (forward, reverse_chain(forward)):
        for weights in (None, [1] * chain.size, ratios):
            residuals = balance_residuals(chain, weights)
            assert residuals == reference_balance_residuals(chain, weights)
            assert all(type(x) is Fraction for x in residuals)
        assert all(x == 0 for x in balance_residuals(chain))
    assert any(x != 0 for x in balance_residuals(forward, ratios))


@pytest.mark.parametrize("n,j", REFERENCE_CASES)
def test_rate_bounds_match_fraction_accumulation(n, j, monkeypatch):
    attempt = reversed_attempt_rates(n, j)
    assert reversed_rate_bounds_hold(n, j) is reference_rate_bounds_hold(attempt) is True
    # a kernel with every denominator scaled up slows both the attempt chain
    # and the totals the bound check sums, pushing them across the bound
    kernel = reversal._attempt_kernel
    for scale in (2, 4):
        monkeypatch.setattr(
            reversal, "_attempt_kernel",
            lambda n, j: (a := kernel(n, j))._replace(den=a.den * scale),
        )
        slowed = reversed_attempt_rates(n, j)
        assert slowed.states == attempt.states
        assert_same_rows(slowed.rates, [{k: q / scale for k, q in row.items()}
                                        for row in attempt.rates])
        assert reversed_rate_bounds_hold(n, j) is reference_rate_bounds_hold(slowed)
    # at j = 0 every state is balanced, so no bound is ever checked
    assert reversed_rate_bounds_hold(n, j) is (j == 0)


@pytest.mark.parametrize("build", [
    build_tagged_pair_chain, reversed_attempt_rates, reversed_rate_bounds_hold,
])
def test_chain_states_are_enumerated_once(build, monkeypatch):
    calls = []
    enumerate_configurations = reversal.enumerate_configurations

    def spy(*args, **kwargs):
        calls.append(args)
        return enumerate_configurations(*args, **kwargs)

    monkeypatch.setattr(reversal, "enumerate_configurations", spy)
    build(4, 2)
    assert calls == [(4, 2)]


@pytest.mark.parametrize("n,j", [(3, 1), (4, 1), (4, 2), (5, 2)])
def test_attempts_in_bound_holds_in_every_state(n, j):
    # (eta+1)/(high+1) <= 1 + 1/eta reduces to this, so it needs no check
    for state in reversed_attempt_rates(n, j).states:
        if state != MERGED:
            eta = state[0]
            high = _high(state)
            assert all(eta[v] <= high[v] + 1 for v in range(n))


PINNED_FLOAT_RATES = [
    (4, 1, "forward", (
        "d7f08629fd3082f93d55fdd33eff0335b7d77d8a3d21d55302975706da7ec6be",
        "c7c56fb3f768b0cd3577da83989a53009e7125c14e42502df501c2023575dcb9",
        "31ea58a150e432d7f06606b508425b7d3c9b807b950d4f69c6f4e7bf72295552",
    )),
    (4, 1, "reversed", (
        "4c9ab3eeb34b9fc664aca8d84b0c7247c3b1bfc599f5d3c759accc5c0dc44751",
        "e01f7bfd816e552c508061d47bc7eacc930cd251926319943a2363d2a177df66",
        "70f00d639dc10f09ba3d422e9496614254bed476c52403b7a7d393eed9aeb2ce",
    )),
    (5, 2, "forward", (
        "8d9c8086aa86eb3ab6eb1d040e154c05467c9a9028a72e371dfd02d5394b6570",
        "f874c72134d51d1ca1879762bd157313dc3fd0ed924062d62e1dd2580ccf3b7c",
        "4a5d28db6b8803e0e45fe94265c500e452409820f9931dcf49a7f2222a888d41",
    )),
    (5, 2, "reversed", (
        "40b20e1219f0af0141ce338ce28255ec1424ae3ff95806ed681eefd5a6a3eb66",
        "6b6811b048bb530137a032f2e4f7160e2e61b46c4387b4107a885919ad2f6cba",
        "6dd2e6bce04e5e0aad6f6ef90d6327cd1f045eb8760f973b6d2c9509061af4c3",
    )),
]


@pytest.mark.parametrize(
    "n,j,direction,digests", PINNED_FLOAT_RATES,
    ids=[f"{n}-{j}-{d}" for n, j, d, _ in PINNED_FLOAT_RATES],
)
def test_float_rate_bytes_are_pinned(n, j, direction, digests):
    chain = build_tagged_pair_chain(n, j)
    if direction == "reversed":
        chain = reverse_chain(chain)
    rates = reversal._float_rates(chain)
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest()
                for a in (rates.indptr, rates.indices, rates.data))
    assert got == digests


def test_survival_agreement_admits_the_chain_limit():
    chain = build_tagged_pair_chain(5, 6)
    assert 4000 < chain.size == 4201 <= DEFAULT_MAX_CHAIN_STATES
    agreement = survival_agreement(chain, [0.5])
    assert agreement.sup_difference <= 1e-10


def test_survival_agreement_refuses_above_the_chain_limit(monkeypatch):
    # the limit is read at call time, so a small chain stands in for a large one
    chain = build_tagged_pair_chain(4, 1)
    monkeypatch.setattr(reversal, "DEFAULT_MAX_CHAIN_STATES", chain.size - 1)
    with pytest.raises(CapacityError, match="exceed the limit"):
        survival_agreement(chain, [0.5])


def test_occupation_time_inequality_refuses_above_the_chain_limit(monkeypatch):
    # the limit is read at call time, so a small chain stands in for a large one
    chain = build_tagged_pair_chain(4, 1)
    monkeypatch.setattr(reversal, "DEFAULT_MAX_CHAIN_STATES", chain.size - 1)
    with pytest.raises(CapacityError, match="exceed the limit"):
        occupation_time_inequality(chain, 0.2, chain.states[1], chain.states[2], horizon=1.0)


def _runs_digest(results):
    return hashlib.sha256(
        repr([dataclasses.astuple(x) for x in results]).encode()
    ).hexdigest()


def _identity_runs():
    chain = build_tagged_pair_chain(4, 2)
    return [simulate_reversed_hitting(chain, seed, 1e4, 0.3, check_identity=True)
            for seed in range(200)]


PINNED_REVERSED_RUNS = {
    # the README's reversal-w and drift runs, a short horizon that censors
    # about a third of the runs, and runs that check the bookkeeping identity
    # after every event
    "reversal-w-4-1": (
        lambda: sample_hitting_times(4, 1, 2000, 7, 1e6, WINDOW_CONSTANT),
        "99e1632af36a778e734661111dad2d27a0339694c1d1edd358db3b8673180fb7",
    ),
    "drift-4-1": (
        lambda: [drift_check(4, 1, 10_000, 7, WINDOW_CONSTANT)],
        "84428805c01e5fb64bef822552b25562d2d801cdef9506422564ed242eeef081",
    ),
    "drift-6-2": (
        lambda: [drift_check(6, 2, 1000, 9, WINDOW_CONSTANT)],
        "131ce8c0c06121018b5f1dc33f530e7d7360be0cd09033439744797b86beb2b8",
    ),
    "censored-5-1": (
        lambda: sample_hitting_times(5, 1, 500, 3, 1.0, WINDOW_CONSTANT),
        "928f5c4c1eae05e34505521d3f33cdf2c1a0623f76b336d9ef6345b794599fa3",
    ),
    "identity-4-2": (
        _identity_runs,
        "36c8614319d48abaef70c34dc68376f1410655a4f64f7d466646899c7cb6734c",
    ),
    # n = 2, where the source draw integers(1) consumes no random word; with
    # an odd particle count the tags never balance, so runs end at the
    # horizon or t_ref unless they start merged
    "censored-2-1": (
        lambda: sample_hitting_times(2, 1, 500, 5, 2.0, WINDOW_CONSTANT),
        "a56dcb5fbdc3673056273a36bdd8dfc9b8ec85f459bf47c6e8aa89bf8d4712ae",
    ),
    "drift-2-3": (
        lambda: [drift_check(2, 3, 2000, 5, WINDOW_CONSTANT)],
        "d3f3c63340b6f907cc48654731082d8f09645284f5ed33731607741fcd0e3fdc",
    ),
    # n = 3, the smallest source draw that takes a half word
    "hitting-3-1": (
        lambda: sample_hitting_times(3, 1, 2000, 5, 1e6, WINDOW_CONSTANT),
        "ba6f439cb401f46947c6958bd85f1c2122f9f1d6638e8c1e9813e176355d6d09",
    ),
}


@pytest.mark.parametrize("name", PINNED_REVERSED_RUNS)
def test_reversed_runs_are_pinned(name):
    run, digest = PINNED_REVERSED_RUNS[name]
    assert _runs_digest(run()) == digest
