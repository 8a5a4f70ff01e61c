import dataclasses
import hashlib

import numpy as np
import pytest
from scipy import stats as sps

from zrpgap import coupling
from zrpgap.configurations import validate_configuration
from zrpgap.coupling import (
    CouplingRun,
    _advance,
    default_horizon,
    estimate_relaxation,
    init_coupling,
    point_mass,
    run_to_coalescence,
    sample_coupling_times,
    sample_marginal,
)
from zrpgap.graphs import Complete
from zrpgap.seeding import derive_seed, make_generator
from zrpgap.spectral import build_generator, transient_distribution


def _step(state, v, w, dt):
    """Feed one event, v firing toward w after a holding time dt, to the
    coupling kernel."""
    _advance(state, [v], [w], [state.clock + dt], 0, 1)


def test_init_rejects_small_graphs():
    with pytest.raises(ValueError):
        init_coupling((1, 1), seed=0)
    with pytest.raises(ValueError):
        init_coupling((0, 0, 0), seed=0)


@pytest.mark.parametrize("sampler", [
    lambda n, r: sample_coupling_times(n, r, 50, 3),
    lambda n, r: sample_marginal(n, r, 1.0, 50, 3),
], ids=["coupling_times", "marginal"])
def test_samplers_validate_the_start_once(sampler, monkeypatch):
    calls = []

    def counted(occ, graph=None):
        calls.append(occ)
        return validate_configuration(occ, graph)

    monkeypatch.setattr(coupling, "validate_configuration", counted)
    sampler(4, 3)
    assert calls == [point_mass(4, 3)]
    for n, r in [(2, 3), (4, 0)]:
        with pytest.raises(ValueError):
            sampler(n, r)


def test_single_particle_skips_phase_one():
    state = init_coupling((1, 0, 0), seed=3, eta_prime0=(0, 0, 1))
    assert state.stage == 0 and state.phase == 2
    assert (state.a, state.b) == (0, 2)


def test_equal_start_coalesces_instantly():
    state = init_coupling((1, 1, 0), seed=5, eta_prime0=(1, 1, 0))
    assert state.coalesced and state.clock == 0.0
    run = run_to_coalescence((2, 0, 1), seed=6, horizon=10.0, eta_prime0=(2, 0, 1))
    assert run.coupling_time == 0.0 and not run.censored


def test_hand_executed_trajectory():
    """Scripted draws against a fully hand-computed trajectory.

    Start with both particles of copy one at vertex 0 and copy two split
    over vertices 1, 2.  Stage 0 pairs (a, b) = (0, 1); copy two sees every
    draw through the 0 <-> 1 swap.
    """
    state = init_coupling((2, 0, 0), seed=1, eta_prime0=(0, 1, 1),
                          check_invariants=True)
    assert state.stage == 0 and state.phase == 2
    assert (state.a, state.b) == (0, 1)

    script = [(2, 0), (0, 1), (0, 2), (1, 0), (2, 1), (0, 2), (1, 2)]
    expected = [
        ((2, 0, 0), (0, 2, 0), 0, False),  # empty vertex fires in copy one
        ((1, 1, 0), (1, 1, 0), 0, False),  # rank-1 walkers step apart
        ((0, 1, 1), (1, 0, 1), 0, False),  # low particles shuffled
        ((1, 0, 1), (0, 1, 1), 0, False),  # rank-1 back onto the pair
        ((1, 1, 0), (1, 1, 0), 0, False),
        ((0, 1, 1), (1, 0, 1), 1, False),  # rank-1 leaves {a, b}: stage 0 done
        ((0, 0, 2), (0, 0, 2), 2, True),   # stage 1 resolves immediately
    ]
    for (v, w), (eta, eta_p, stage, done) in zip(script, expected):
        _step(state, v, w, 0.25)
        assert state.one.occupancy() == eta
        assert state.two.occupancy() == eta_p
        assert state.stage == stage
        assert state.coalesced == done
    assert state.clock == pytest.approx(7 * 0.25)


def test_swap_phase_mirrors_moves():
    # during phase 2 a move a -> c in copy one appears as b -> c in copy two
    state = init_coupling((2, 0, 0), seed=1, eta_prime0=(0, 1, 1))
    a, b = state.a, state.b
    assert (a, b) == (0, 1)
    before_one = state.one.occupancy()
    before_two = state.two.occupancy()
    gap_before = abs(before_one[a] - before_one[b])
    _step(state, a, 2, 0.1)
    after_one = state.one.occupancy()
    after_two = state.two.occupancy()
    # copy one lost at a, copy two lost at b, both gained at c = 2
    assert after_one[a] == before_one[a] - 1
    assert after_two[b] == before_two[b] - 1
    assert after_one[2] == before_one[2] + 1
    assert after_two[2] == before_two[2] + 1
    gap_after = abs(after_one[a] - after_one[b])
    assert abs(gap_before - gap_after) == 1


def test_run_accounting_identities():
    run = run_to_coalescence((4, 0, 0, 0), seed=11, horizon=1e4,
                             check_invariants=True)
    assert not run.censored
    assert run.final_eta == run.final_eta_prime
    assert len(run.stage_durations) == 4
    assert all(d >= 0 for d in run.stage_durations)
    assert sum(run.stage_durations) == pytest.approx(run.coupling_time)
    assert len(run.phase1_durations) == 4
    for stage_total, phase1 in zip(run.stage_durations, run.phase1_durations):
        assert phase1 <= stage_total + 1e-12


def test_run_determinism():
    a = run_to_coalescence((3, 0, 0, 0), seed=42, horizon=1e4)
    b = run_to_coalescence((3, 0, 0, 0), seed=42, horizon=1e4)
    assert a == b


def test_censoring_flagged():
    run = run_to_coalescence((5, 0, 0), seed=8, horizon=1e-6)
    assert run.censored and run.coupling_time is None


def test_observations_past_coalescence_keep_coupling_time():
    run = run_to_coalescence((3, 0, 0), seed=12, horizon=1e4,
                             observe_times=(50.0, 80.0))
    assert run.coupling_time < 50.0
    assert sum(run.stage_durations) == pytest.approx(run.coupling_time)
    assert len(run.observations) == 2
    for _, eta, eta_prime in run.observations:
        assert eta == eta_prime  # the merged pair moves as one process


def test_invariants_hold_over_random_runs():
    for seed in range(30):
        run_to_coalescence((3, 1, 0, 0), seed=seed, horizon=1e4,
                           check_invariants=True)


def test_sample_reproducibility():
    runs1 = sample_coupling_times(3, 2, 50, seed=7)
    runs2 = sample_coupling_times(3, 2, 50, seed=7)
    assert runs1 == runs2
    times = sorted(r.coupling_time for r in runs1)
    assert times[0] >= 0.0


def test_mean_time_stable_across_seed_ranges():
    runs_a = sample_coupling_times(3, 2, 1500, seed=100)
    runs_b = sample_coupling_times(3, 2, 1500, seed=200)
    ta = np.array([r.coupling_time for r in runs_a])
    tb = np.array([r.coupling_time for r in runs_b])
    se = np.hypot(ta.std(ddof=1) / np.sqrt(ta.size), tb.std(ddof=1) / np.sqrt(tb.size))
    assert abs(ta.mean() - tb.mean()) < 3 * se


def test_default_horizon_scales():
    assert default_horizon(4, 4, 1000) == pytest.approx(
        200.0 * 4.0 * np.log(1000)
    )
    assert default_horizon(4, 4, 1) == pytest.approx(800.0)


def test_marginal_law_small_instance():
    n, r, t, reps = 3, 2, 1.0, 20_000
    counts = sample_marginal(n, r, t, reps, seed=21)
    gen = build_generator(Complete(n), r)
    exact = transient_distribution(gen, point_mass(n, r), [t])[0]
    empirical = np.zeros(gen.dimension)
    for occ, c in counts.items():
        empirical[gen.config_index(occ)] = c / reps
    tv = 0.5 * np.abs(empirical - exact).sum()
    assert tv < 0.03


def test_marginal_rejects_zero_replicas():
    with pytest.raises(ValueError):
        sample_marginal(3, 2, 1.0, 0, seed=21)


def test_long_time_law_uniform():
    """At large times the observed copy is uniform over configurations."""
    n, r = 3, 2
    counts = sample_marginal(n, r, 25.0, 6000, seed=31)
    observed = np.zeros(6)
    gen = build_generator(Complete(n), r)
    for occ, c in counts.items():
        observed[gen.config_index(occ)] = c
    _, p = sps.chisquare(observed)
    assert p > 1e-3


def _synthetic_runs(times, horizon=1e9):
    return [
        CouplingRun(
            seed=i,
            coupling_time=float(t),
            censored=False,
            horizon=horizon,
            stage_durations=(float(t),),
            phase1_durations=(0.0,),
            events=1,
            final_eta=(1,),
            final_eta_prime=(1,),
        )
        for i, t in enumerate(times)
    ]


def test_estimate_relaxation_on_synthetic_exponential():
    rng = make_generator(55)
    runs = _synthetic_runs(rng.exponential(0.5, 40_000))
    est = estimate_relaxation(runs, bootstrap=100)
    assert est.relaxation_upper == pytest.approx(0.5, rel=0.05)
    assert est.censored_fraction == 0.0
    assert est.relaxation_ci[0] < 0.5 < est.relaxation_ci[1] * 1.05


def test_estimate_relaxation_requires_samples():
    rng = make_generator(56)
    runs = _synthetic_runs(rng.exponential(1.0, 100))
    with pytest.raises(ValueError):
        estimate_relaxation(runs)


# sha256 prefixes of repr() of the results of the loop that settled the
# phase markers after every event; runs go through dataclasses.astuple
def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _runs_digest(runs):
    return _digest([dataclasses.astuple(run) for run in runs])


@pytest.mark.parametrize("n,r,replicas,seed,digest", [
    (3, 3, 200, 11, "31f56f41ae54afb1"),
    (4, 4, 200, 12, "10d37bf48a1109ec"),
    (16, 16, 10, 13, "b502fafbbfd7147f"),
])
def test_coupling_times_match_pinned_digests(n, r, replicas, seed, digest):
    assert _runs_digest(sample_coupling_times(n, r, replicas, seed)) == digest


def test_marginal_matches_pinned_digest():
    counts = sample_marginal(4, 3, 1.0, 300, 14)
    assert _digest(sorted(counts.items())) == "7c12fbf99f299d5a"


def test_observed_checked_runs_match_pinned_digest():
    # observations before, at and past coalescence and the horizon, censored
    # runs, and a pair that starts coalesced
    runs = []
    for seed in range(30):
        runs.append(run_to_coalescence(point_mass(5, 6), seed, 50.0,
                                       observe_times=(0.5, 3.0, 40.0, 80.0),
                                       check_invariants=True))
        runs.append(run_to_coalescence((1, 2, 0, 3), seed, 2.0,
                                       observe_times=(5.0, 1.0),
                                       check_invariants=True))
        runs.append(run_to_coalescence((2, 0, 1), seed, 10.0, eta_prime0=(2, 0, 1),
                                       observe_times=(0.0, 0.25, 7.5),
                                       check_invariants=True))
    assert sum(run.censored for run in runs) == 26
    assert sum(len(run.observations) for run in runs) == 244
    assert _runs_digest(runs) == "974b9b330cd3509d"


@pytest.mark.parametrize("n,r,replicas,seed,horizon,digest", [
    # replica 18 runs 9,112 events, into the first 8,192-draw chunk
    (16, 64, 20, 47, None, "580e3b9bd6633d41"),
    # every run censored, the horizon falling in the third chunk
    (16, 32, 20, 16, 30.0, "d271afe7b1cbee09"),
    # 5 of 20 censored, the horizon falling in the fourth chunk
    (16, 32, 20, 16, 90.0, "79e55eb6ef0b82bc"),
])
def test_long_and_censored_runs_match_pinned_digests(n, r, replicas, seed, horizon, digest):
    assert _runs_digest(sample_coupling_times(n, r, replicas, seed, horizon)) == digest


def test_late_observations_match_pinned_digest():
    # observations in later chunks, exactly at the horizon and after
    # coalescence; the K16 r=64 pairs are carried over several 8,192-draw
    # chunks past coalescence to reach theirs
    runs = [run_to_coalescence(point_mass(16, 16), seed, 30.0,
                               observe_times=(12.0, 30.0, 400.0),
                               check_invariants=True)
            for seed in range(8)]
    runs += [run_to_coalescence(point_mass(16, 64), seed, 1e4, observe_times=(1500.0,))
             for seed in range(2)]
    assert sum(run.censored for run in runs) == 2
    assert sum(len(run.observations) for run in runs) == 24
    assert _runs_digest(runs) == "90ad5f1907f73bd1"


def _replay(eta0, seed, horizon):
    """``run_to_coalescence``'s draw schedule fed one event at a time
    through ``_step``: the final state and, after each applied event, the
    clock and both configurations."""
    state = init_coupling(eta0, seed)
    rng, n, inv_n = state.rng, state.n, 1.0 / state.n
    trail = []
    chunk = 64
    while True:
        chunk = min(chunk * 2, 8192)
        vs = rng.integers(0, n, chunk).tolist()
        us = rng.integers(0, n - 1, chunk).tolist()
        dts = (rng.standard_exponential(chunk) * inv_n).tolist()
        for v, u, dt in zip(vs, us, dts):
            if state.clock + dt > horizon:
                return state, trail
            _step(state, v, u + 1 if u >= v else u, dt)
            trail.append((state.clock, state.one.occupancy(), state.two.occupancy()))
            if state.coalesced:
                return state, trail


@pytest.mark.parametrize("eta0,seed,horizon", [
    pytest.param(point_mass(16, 16), 3, 1e4, id="K16-r16"),
    pytest.param(point_mass(16, 32), 5, 30.0, id="K16-r32-censored"),
    pytest.param(point_mass(16, 64), derive_seed(47, 18), 1e4, id="K16-r64-9112-events"),
    pytest.param((1, 2, 0, 3), 9, 1e4, id="K4-r6"),
])
def test_advance_replays_run_to_coalescence(eta0, seed, horizon):
    run = run_to_coalescence(eta0, seed, horizon)
    state, trail = _replay(eta0, seed, horizon)
    assert run.events == state.events == len(trail)
    assert run.censored == (not state.coalesced)
    assert run.coupling_time == state.coalesced_at
    assert run.stage_durations == tuple(state.stage_durations)
    assert run.phase1_durations == tuple(state.phase1_durations)
    assert run.final_eta == state.one.occupancy()
    assert run.final_eta_prime == state.two.occupancy()


def test_cuts_at_an_event_time_include_that_event():
    # an observation at an event's time sees the state after it, and a
    # horizon at an event's time still applies it
    eta0, seed = point_mass(16, 16), 3
    _, trail = _replay(eta0, seed, 1e4)
    k = next(k for k in range(300, len(trail)) if trail[k][1:] != trail[k - 1][1:])
    t, eta, eta_prime = trail[k]
    run = run_to_coalescence(eta0, seed, 1e4, observe_times=(t,))
    assert run.observations == ((t, eta, eta_prime),)
    run = run_to_coalescence(eta0, seed, t)
    assert run.censored and run.events == k + 1
    assert (run.final_eta, run.final_eta_prime) == (eta, eta_prime)


def test_run_floats_are_python_floats():
    # an np.float64 would change repr(), and so the digests and CLI output
    runs = sample_coupling_times(16, 16, 3, 1)
    runs += sample_coupling_times(16, 32, 3, 2, horizon=30.0)
    runs += [run_to_coalescence(point_mass(5, 6), seed, 50.0,
                                observe_times=(0.5, 40.0, 80.0))
             for seed in range(5)]
    values = []
    for run in runs:
        values += [run.horizon, *run.stage_durations, *run.phase1_durations]
        values += [t for t, _, _ in run.observations]
        if not run.censored:
            values.append(run.coupling_time)
    assert values and all(type(x) is float for x in values)
