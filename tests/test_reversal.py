import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm

from zrpgap import reversal
from zrpgap.errors import CapacityError
from zrpgap.graphs import Complete
from zrpgap.reversal import (
    DEFAULT_MAX_CHAIN_STATES,
    MERGED,
    DriftParams,
    TaggedPairChain,
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
from zrpgap.spectral import _uniformize, build_generator, transient_distribution
from zrpgap.stats import fit_exponential_tail


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


@pytest.mark.parametrize("n,j", [(3, 0), (3, 1), (4, 1)])
def test_reversed_rates_match_attempt_description(n, j):
    suppressed = reverse_chain(build_tagged_pair_chain(n, j), suppress_merged=True)
    closed_form = reversed_attempt_rates(n, j)
    for i in range(suppressed.size):
        assert suppressed.rates[i] == closed_form.rates[i]


def test_reversed_vertex_rate_bounds():
    assert reversed_rate_bounds_hold(3, 1)
    assert reversed_rate_bounds_hold(4, 1)
    assert reversed_rate_bounds_hold(3, 2)


def test_capacity_guard():
    with pytest.raises(CapacityError):
        build_tagged_pair_chain(10, 8, max_states=500)


def test_attempt_rates_capacity_guard():
    # 2,187,901 states against the default limit, refused before enumeration
    with pytest.raises(CapacityError):
        reversed_attempt_rates(10, 8)


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
        start = gen.config_index((2, 0, 0))
        dists = transient_distribution(gen, start, EXPM_TIMES)
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
        chain, 0.0, chain.states[1], chain.states[2], replicas=1000, seed=2,
        horizon=0.5,
    )
    assert report.forward.value == 1.0
    assert report.reversed_max.value == 1.0
    assert report.constant >= 1.0
    assert report.bound_holds_within_2se


def test_occupation_time_inequality_nontrivial():
    chain = build_tagged_pair_chain(3, 0)
    x_state = chain.states[1]
    for start in chain.states[1:4]:
        report = occupation_time_inequality(
            chain, 0.2, x_state, start, replicas=4000, seed=9, horizon=1.0
        )
        assert report.bound_holds_within_2se


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


REFERENCE_CASES = [(3, 0), (3, 1), (4, 1), (4, 2), (5, 2)]


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
    # slowed-down rates push the expel totals across the bound
    for scale in (Fraction(1, 2), Fraction(1, 4)):
        slowed = TaggedPairChain(
            n=n, high_count=j, states=attempt.states,
            rates=tuple({k: q * scale for k, q in row.items()} for row in attempt.rates),
            pi=attempt.pi, kind=attempt.kind,
        )
        monkeypatch.setattr(reversal, "reversed_attempt_rates", lambda n, j: slowed)
        assert reversed_rate_bounds_hold(n, j) is reference_rate_bounds_hold(slowed)


def test_survival_agreement_admits_the_chain_limit():
    chain = build_tagged_pair_chain(5, 6)
    assert 4000 < chain.size == 4201 <= DEFAULT_MAX_CHAIN_STATES
    agreement = survival_agreement(chain, [0.5])
    assert agreement.sup_difference <= 1e-10
