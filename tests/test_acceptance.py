"""Acceptance suite: fifteen numbered end-to-end checks.

Each check pins its own tolerance and runtime budget: exact small-instance
identities with no tolerance at all, spectral quantities at 1e-8, Monte
Carlo quantities at a few standard errors, and scaling shapes against
frozen first-run values.  Run with ``pytest tests/test_acceptance.py -v -s``
to see one summary line per criterion alongside the pass/fail verdict.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from zrpgap.coupling import (
    estimate_relaxation,
    point_mass,
    sample_coupling_times,
    sample_marginal,
)
from zrpgap.flow import comparison_certificate, edge_loads, induced_flow_check
from zrpgap.graphs import Complete, Torus
from zrpgap.reversal import (
    balance_residuals,
    build_tagged_pair_chain,
    drift_check,
    survival_agreement,
)
from zrpgap.spectral import (
    build_generator,
    exact_gap,
    fit_decay_rate,
    transient_distribution,
    tv_curve,
    wilson_bound,
)
from zrpgap.stats import (
    empty_probability_exact,
    estimate_window_constant,
    occupancy_stats,
    rw_no_return_exact,
    rw_no_return_probability,
    skellam_tail,
)

# frozen oracle values, computed once by the module's own exact routines and
# pinned here; see the tolerance notes on the criteria that use them
FROZEN_SKELLAM_GRID_MIN = 0.2976198984413333
FROZEN_WILSON_BAND = (20.0, 25.5)

GRID_L = (3, 4, 5, 6)
GRID_RHO = (Fraction(1, 3), Fraction(1), Fraction(2))


def _grid_points():
    for L in GRID_L:
        for rho in GRID_RHO:
            r = round(rho * L)
            yield L, r, r / L


class _Budget:
    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds
        self.start = time.perf_counter()

    def done(self, detail):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, (
            f"{self.label} exceeded its {self.seconds}s budget ({elapsed:.1f}s)"
        )
        print(f"[{self.label}] PASS {detail} ({elapsed:.1f}s < {self.seconds:.0f}s)")


def test_criterion_01_exact_gaps():
    budget = _Budget("criterion 01", 5.0)
    gap = exact_gap(build_generator(Complete(2), 2)).gap
    assert gap == pytest.approx(1.0, abs=1e-8)
    for n in range(2, 7):
        gap = exact_gap(build_generator(Complete(n), 1)).gap
        assert gap == pytest.approx(n / (n - 1), abs=1e-8)
    for L in range(3, 9):
        gap = exact_gap(build_generator(Torus(1, L), 1)).gap
        assert gap == pytest.approx(1.0 - math.cos(2.0 * math.pi / L), abs=1e-8)
    budget.done("closed-form gaps on 12 instances, tolerance 1e-8")


def test_criterion_02_tv_decay_matches_gap():
    budget = _Budget("criterion 02", 10.0)
    times = np.linspace(0.0, 10.0, 41)
    errors = []
    for n in (2, 3):
        gen = build_generator(Complete(n), 2)
        gap = exact_gap(gen).gap
        curve = tv_curve(gen, point_mass(n, 2), times)
        rate = fit_decay_rate(curve, 5.0, 10.0)
        errors.append(abs(rate - gap) / gap)
        assert errors[-1] < 0.01
    budget.done(
        "late-time TV slopes within "
        + ", ".join(f"{e:.2%}" for e in errors)
        + " of the exact gaps"
    )


def test_criterion_03_edge_load_bound():
    budget = _Budget("criterion 03", 30.0)
    spot = {(1, 3): 2, (1, 4): 4, (2, 3): 6}
    for d in (1, 2):
        for L in (3, 4, 5, 6):
            report = edge_loads(Torus(d, L))
            assert report.uniform, f"loads differ across edges on d={d}, L={L}"
            assert report.max_undirected <= L * (L**d - 1)
            if (d, L) in spot:
                assert report.max_undirected == Fraction(spot[(d, L)])
    budget.done("uniform exact loads <= L(L^d - 1) on d in {1,2}, L in {3..6}")


def test_criterion_04_comparison_bound_end_to_end():
    budget = _Budget("criterion 04", 60.0)
    checked = 0
    for L in (3, 4, 5):
        graph = Torus(1, L)
        cert = comparison_certificate(graph)
        for r in (1, 2, 3):
            tau1 = exact_gap(build_generator(graph, r)).relaxation_time
            tau2 = exact_gap(build_generator(Complete(L), r)).relaxation_time
            assert tau1 <= float(cert.bound_factor) * tau2
            assert float(cert.bound_factor) * tau2 <= cert.headline_factor * tau2
            checked += 1
    budget.done(f"tau1 <= 2d C(f) L(f) tau2 <= 2 d^2 L^2 tau2 on {checked} instances")


def test_criterion_05_induced_flow_identity():
    budget = _Budget("criterion 05", 60.0)
    for L in (3, 4):
        for r in (1, 2):
            check = induced_flow_check(Torus(1, L), r)
            assert check.per_edge_equal
            assert check.max_config_flow == check.predicted_flow
    budget.done("configuration-level edge flow equals vertex-level loads exactly")


def test_criterion_06_balance_equations():
    budget = _Budget("criterion 06", 30.0)
    states = []
    for n in (3, 4):
        for j in (0, 1):
            chain = build_tagged_pair_chain(n, j)
            residuals = balance_residuals(chain)
            assert all(x == 0 for x in residuals)
            states.append(chain.size)
    budget.done(f"stationary balance exact on chains of size {states}")


def test_criterion_07_forward_reversed_agreement():
    budget = _Budget("criterion 07", 30.0)
    times = [0.25, 0.5, 1.0, 2.0, 4.0]
    trivial = survival_agreement(build_tagged_pair_chain(3, 0), times)
    assert trivial.sup_difference <= 1e-10
    # the criterion instance has no high particles, making both curves zero;
    # also check a substantive instance to the same tolerance
    substantive = survival_agreement(build_tagged_pair_chain(3, 1), times)
    assert substantive.sup_difference <= 1e-10
    budget.done(
        f"sup |forward - reversed| = {trivial.sup_difference:.1e} (n=3, j=0), "
        f"{substantive.sup_difference:.1e} (n=3, j=1)"
    )


def test_criterion_08_coupling_marginal_law():
    budget = _Budget("criterion 08", 120.0)
    n, r, at, reps = 4, 3, 1.0, 100_000
    counts = sample_marginal(n, r, at, reps, seed=20260809)
    gen = build_generator(Complete(n), r)
    exact = transient_distribution(gen, point_mass(n, r), [at])[0]
    empirical = np.zeros(gen.dimension)
    for occ, c in counts.items():
        empirical[gen.config_index(occ)] = c / reps
    tv = 0.5 * np.abs(empirical - exact).sum()
    assert tv <= 0.02
    budget.done(f"one-copy law vs uniformization: TV = {tv:.4f} <= 0.02")


def test_criterion_09_coupling_relaxation_estimates():
    budget = _Budget("criterion 09", 300.0)
    details = []
    for n, r in ((3, 2), (4, 4)):
        runs = sample_coupling_times(n, r, 3000, seed=2026)
        assert sum(run.censored for run in runs) == 0
        est = estimate_relaxation(runs, bootstrap=100, seed=1)
        tau2 = exact_gap(build_generator(Complete(n), r)).relaxation_time
        assert est.relaxation_upper >= 0.9 * tau2
        details.append(f"K{n} r={r}: {est.relaxation_upper:.2f} >= {0.9 * tau2:.2f}")
    uppers = []
    for rho in (1, 2, 4):
        runs = sample_coupling_times(16, 16 * rho, 1500, seed=777)
        assert sum(run.censored for run in runs) == 0
        uppers.append(estimate_relaxation(runs, bootstrap=0).relaxation_upper)
    slope = float(np.polyfit(np.log([2.0, 3.0, 5.0]), np.log(uppers), 1)[0])
    assert slope <= 2.5
    budget.done("; ".join(details) + f"; K16 density slope {slope:.2f} <= 2.5")


def test_criterion_10_relaxation_scaling_shape():
    budget = _Budget("criterion 10", 120.0)
    norms = []
    for L, r, rho in _grid_points():
        rep = exact_gap(build_generator(Torus(1, L), r))
        norms.append(rep.relaxation_time / ((rho + 1.0) ** 2 * L * L))
    spread = max(norms) / min(norms)
    assert spread <= 10.0
    budget.done(
        f"tau / ((rho+1)^2 L^2) in [{min(norms):.4f}, {max(norms):.4f}], "
        f"spread {spread:.2f} <= 10"
    )


def test_criterion_11_wilson_bound_on_grid():
    budget = _Budget("criterion 11", 120.0)
    normalized = []
    for L, r, rho in _grid_points():
        graph = Torus(1, L)
        bound = wilson_bound(graph, r, "full_wave")
        gap = exact_gap(build_generator(graph, r)).gap
        assert bound.quotient >= gap - 1e-10
        value = bound.quotient * (rho + 1.0) ** 2 * L * L
        assert FROZEN_WILSON_BAND[0] <= value <= FROZEN_WILSON_BAND[1]
        normalized.append(value)
    budget.done(
        f"quotient >= gap everywhere; normalized values in "
        f"[{min(normalized):.2f}, {max(normalized):.2f}] within {FROZEN_WILSON_BAND}"
    )


def test_criterion_12_long_run_empty_fraction():
    budget = _Budget("criterion 12", 120.0)
    details = []
    for n, r in ((3, 3), (8, 8)):
        trace = occupancy_stats(n, r, 10_000.0, seed=424242)
        exact = float(empty_probability_exact(n, r))
        rel = abs(trace.empty_fraction - exact) / exact
        assert rel < 0.02
        details.append(f"K{n} r={r}: {trace.empty_fraction:.4f} vs {exact:.4f}")
    budget.done("; ".join(details) + " (within 2%)")


def test_criterion_13_poisson_difference_tables():
    budget = _Budget("criterion 13", 30.0)
    head = skellam_tail(1.0, 0)
    assert head == pytest.approx(0.6543, abs=1e-4)
    worst = math.inf
    for lam in range(20, 201, 20):
        for a_num in range(1, 6):
            alpha = Fraction(a_num, 10)
            m = math.ceil(alpha * lam)
            p = skellam_tail(float(lam), m)
            worst = min(worst, -math.log(p) / (float(alpha) ** 2 * lam))
    assert worst > 0.0
    assert worst == pytest.approx(FROZEN_SKELLAM_GRID_MIN, abs=1e-6)
    budget.done(
        f"P(X-Y>=0 | lam=1) = {head:.6f}; quadratic-rate grid minimum "
        f"{worst:.10f} matches the frozen value"
    )


def test_criterion_14_no_return_probability():
    budget = _Budget("criterion 14", 120.0)
    est = rw_no_return_probability(1, 1_000_000, seed=31)
    exact = rw_no_return_exact(1)
    assert abs(est.value - exact) <= 3.0 * est.stderr
    worst = 0.0
    for r in range(1, 9):
        e = rw_no_return_probability(r, 1_000_000, seed=300 + r)
        worst = max(worst, abs(e.value - rw_no_return_exact(r)) / e.stderr)
    assert worst <= 3.0
    budget.done(
        f"r=1 estimate {est.value:.4f} within 3 SE of {exact:.4f}; "
        f"r=1..8 within {worst:.2f} SE of the exact values"
    )


def test_criterion_15_reversed_drift_nonnegative():
    budget = _Budget("criterion 15", 120.0)
    c_const = estimate_window_constant(replicas=100, seed=20260809)
    check = drift_check(4, 1, replicas=10_000, seed=55, c_const=c_const, t_ref=5.0)
    assert check.mean_rate >= -2.0 * check.stderr_rate
    budget.done(
        f"mean drift {check.mean_rate:.5f} per unit time "
        f"(se {check.stderr_rate:.5f}, C = {c_const:.3f})"
    )
