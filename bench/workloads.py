"""The four benchmark workloads: operation lists with per-operation checks.

Each workload is a list of :class:`Op`.  ``call`` is the timed call into the
package; ``check`` runs untimed on its result and returns the counts the
end-to-end metrics need.  Package functions are always reached through their
module (``spectral.exact_gap``, never a name bound at import time), so the
spans that :mod:`tracing` installs see every call.

Why these workloads:

* ``readme`` -- the README's 14 CLI examples through ``zrpgap.cli.main``: the
  ROADMAP's definition of end to end, and the only workload that exercises
  ``cli`` and the implicit ``estimate_window_constant()`` default.
* ``spectral`` -- exact gaps on the dense and the iterative path, the
  enumerate-mode Wilson quotient (assembly without eigensolve) and a sparse
  forward TV curve.  No Monte Carlo.
* ``rational`` -- exact ``Fraction`` work in ``flow``, ``graphs`` and
  ``reversal`` plus a small dense backward uniformization.  No eigensolve.
* ``monte_carlo`` -- long event-loop runs (K16 couplings, K8/K64 occupancy)
  next to short replicas dominated by per-replica set-up, so a gain in one
  that costs the other shows.

Every stochastic input is drawn from ``derive_seed(workload seed, k)``; the
exact workloads are deterministic.  Statistical checks use tolerances whose
false-alarm probability per run is below about 1e-6, so they hold for any
seed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shlex
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy import stats as sps

from zrpgap import cli, coupling, flow, graphs, reversal, spectral, stats
from zrpgap.seeding import derive_seed

# Kinds select which end-to-end figure an operation feeds:
# gap -> gap_s, certificate -> certificate_s,
# mc_long -> mc_events_per_s, mc_short -> mc_replicas_per_s.
GAP, CERTIFICATE, MC_LONG, MC_SHORT = "gap", "certificate", "mc_long", "mc_short"

GAP_TOL = 1e-8
RESIDUAL_TOL = 1e-8
TV_RATE_TOL = 0.01
SURVIVAL_TOL = 1e-10
OCCUPANCY_REL_TOL = 0.02
# 5 standard errors (two-sided false alarm 6e-7), where 3 would fail one
# run in 370; the chi-square threshold matches it.
RW_Z = 5.0
CHI2_MIN_P = 1e-6
RW_EXACT_R1 = 1.0 - 0.3085083225536709  # 1 - e^-2 I_0(2)


@dataclass
class Op:
    name: str
    kind: str | None
    call: Callable[[], object]
    check: Callable[[object], dict]


class CheckFailed(Exception):
    """An operation returned a result that fails its correctness check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def gap_key(graph, r: int) -> str:
    if isinstance(graph, graphs.Torus):
        return f"torus-{graph.d}-{graph.L}-r{r}"
    return f"complete-{graph.n}-r{r}"


def load_key(graph) -> str:
    return f"torus-{graph.d}-{graph.L}"


def check_gap(refs: dict, key: str, gap: float, residual: float | None = None) -> None:
    ref = refs["gaps"][key]
    require(abs(gap - ref) <= GAP_TOL, f"{key}: gap {gap!r} vs reference {ref!r}")
    if residual is not None:
        require(residual <= RESIDUAL_TOL, f"{key}: residual {residual:.3e}")


def build(name: str, seed: int, refs: dict, small: bool, tmpdir: str) -> list[Op]:
    """Operation list of workload ``name``; ``small`` is the smoke-test scale."""
    builders = {
        "readme": _readme,
        "spectral": _spectral,
        "rational": _rational,
        "monte_carlo": _monte_carlo,
    }
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}")
    return builders[name](seed, refs, small, tmpdir)


# ---------------------------------------------------------------------------
# readme
# ---------------------------------------------------------------------------

README_COMMANDS = (
    "exact-gap --graph complete --n 2 --r 2",
    "exact-gap --d 1 --L 6 --rho 2",
    "tv-curve --graph complete --n 3 --r 2 --t-max 10 --fit-window 5 10",
    "wilson --d 1 --L 5 --r 5",
    "flow --d 1 --L 4",
    "certificate --d 1 --L 4 --r 2",
    "couple --n 4 --r 4 --replicas 3000 --seed 7",
    "zeta-balance --n 4 --j 1 --dump-chain",
    "reversal-w --n 4 --j 1 --replicas 2000 --seed 7",
    "drift --n 4 --j 1 --replicas 10000 --seed 7",
    "occupancy --n 8 --r 8 --horizon 10000 --seed 7",
    "tails --kind skellam --lam 1 --m 0,1,2",
    "tails --kind rw --r-values 1,2,4,8 --replicas 100000 --seed 7",
    "sweep --task exact-gap --L-values 3,4,5,6 --rho-values 1/3,1,2",
)
README_KINDS = {
    "exact-gap": GAP,
    "sweep": GAP,
    "occupancy": MC_LONG,
    "couple": MC_SHORT,
    "reversal-w": MC_SHORT,
    "drift": MC_SHORT,
}
FLOW_CSV_ROW = "1,4,4/3,2,16/3,32"
# smoke scale: a tenth of the replicas and horizon, no L = 6 instances
README_SMALL = {
    "3000": "300", "2000": "200", "10000": "1000", "100000": "10000",
    "6": "5", "3,4,5,6": "3,4,5",
}


def _readme_argv(command: str, index: int, seed: int, small: bool) -> list[str]:
    argv = shlex.split(command)
    if "--seed" in argv:
        argv[argv.index("--seed") + 1] = str(derive_seed(seed, index))
    if small:
        argv = [README_SMALL.get(a, a) if argv[i - 1] in (
            "--replicas", "--horizon", "--L", "--L-values") else a
            for i, a in enumerate(argv)]
    return argv


def _check_outputs(outdir: str) -> int:
    """Manifest digests against the files written; returns the bytes written."""
    with open(os.path.join(outdir, "manifest.json")) as handle:
        manifest = json.load(handle)
    outputs = manifest["outputs"]
    require(set(os.listdir(outdir)) == set(outputs) | {"manifest.json"},
            "written files differ from the manifest")
    total = os.path.getsize(os.path.join(outdir, "manifest.json"))
    for name, digest in outputs.items():
        with open(os.path.join(outdir, name), "rb") as handle:
            data = handle.read()
        require(hashlib.sha256(data).hexdigest() == digest, f"digest mismatch: {name}")
        total += len(data)
    return total


def _readme(seed, refs, small, tmpdir):
    ops = []
    for index, command in enumerate(README_COMMANDS):
        argv = _readme_argv(command, index, seed, small)
        outdir = os.path.join(tmpdir, f"cmd{index:02d}")
        sub = argv[0]

        def call(argv=argv, outdir=outdir):
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv + ["--out", outdir])

        def check(status, argv=argv, outdir=outdir, sub=sub):
            require(status == 0, f"exit status {status}")
            info = {"bytes": _check_outputs(outdir)}
            if sub == "exact-gap":
                with open(os.path.join(outdir, "exact_gap.json")) as handle:
                    payload = json.load(handle)
                graph = graphs.graph_from_json(payload["graph"])
                check_gap(refs, gap_key(graph, payload["r"]), payload["gap"],
                          payload["residual"])
            elif sub == "sweep":
                with open(os.path.join(outdir, "sweep.csv")) as handle:
                    for row in csv.DictReader(handle):
                        graph = graphs.Torus(int(row["d"]), int(row["L"]))
                        check_gap(refs, gap_key(graph, int(row["r"])), float(row["gap"]))
            elif sub == "flow":
                with open(os.path.join(outdir, "flow.csv")) as handle:
                    rows = handle.read().splitlines()
                require(rows[1] == FLOW_CSV_ROW, f"flow.csv row {rows[1]!r}")
            elif sub == "occupancy":
                with open(os.path.join(outdir, "occupancy.json")) as handle:
                    info["events"] = json.load(handle)["events"]
            if "--replicas" in argv and README_KINDS.get(sub) == MC_SHORT:
                info["replicas"] = int(argv[argv.index("--replicas") + 1])
            return info

        ops.append(Op(f"cli {' '.join(argv)}", README_KINDS.get(sub), call, check))
    return ops


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------

def _spectral(seed, refs, small, tmpdir):
    Torus, Complete = graphs.Torus, graphs.Complete
    if small:
        instances = [(Torus(1, 5), 5), (Torus(1, 10), 5)]
        wilson_case = (Torus(1, 6), 6)
    else:
        instances = [
            (Torus(1, 7), 7),
            (Complete(9), 6),
            (Torus(2, 3), 6),
            (Torus(1, 10), 6),
            (Torus(1, 6), 12),
        ]
        wilson_case = (Torus(1, 8), 12)
    ops = []
    for graph, r in instances:
        key = gap_key(graph, r)

        def call(graph=graph, r=r):
            return spectral.exact_gap(spectral.build_generator(graph, r))

        def check(report, key=key):
            check_gap(refs, key, report.gap, report.residual)
            return {}

        ops.append(Op(f"exact_gap {key}", GAP, call, check))

    w_graph, w_r = wilson_case
    w_key = gap_key(w_graph, w_r)

    def wilson_check(bound):
        gap = refs["gaps"][w_key]
        require(bound.quotient >= gap, f"Wilson quotient {bound.quotient!r} < gap {gap!r}")
        return {}

    ops.append(Op(
        f"wilson_bound {w_key} enumerate", None,
        lambda: spectral.wilson_bound(w_graph, w_r, mode="enumerate"), wilson_check,
    ))

    tv_graph, tv_r = Torus(1, 7), 7
    tv_key = gap_key(tv_graph, tv_r)

    def tv_call():
        gen = spectral.build_generator(tv_graph, tv_r)
        curve = spectral.tv_curve(gen, coupling.point_mass(7, 7), np.linspace(0.0, 80.0, 41))
        return spectral.fit_decay_rate(curve, 40.0, 80.0)

    def tv_check(rate):
        gap = refs["gaps"][tv_key]
        require(abs(rate - gap) <= TV_RATE_TOL * gap, f"TV rate {rate!r} vs gap {gap!r}")
        return {}

    ops.append(Op(f"tv_curve {tv_key} [0,80] fit [40,80]", None, tv_call, tv_check))
    return ops


# ---------------------------------------------------------------------------
# rational
# ---------------------------------------------------------------------------

def _rational(seed, refs, small, tmpdir):
    Torus = graphs.Torus
    if small:
        loads_graph, cert_graph, induced_case, chain_case = (
            Torus(2, 3), Torus(1, 4), (Torus(1, 4), 2), (4, 1))
    else:
        loads_graph, cert_graph, induced_case, chain_case = (
            Torus(2, 10), Torus(3, 5), (Torus(2, 4), 3), (7, 3))
    ctx = {}
    ops = []

    def max_load(graph):
        return Fraction(refs["max_loads"][load_key(graph)])

    def loads_check(report):
        require(report.uniform, "edge loads are not uniform")
        require(report.max_undirected == max_load(loads_graph),
                f"max load {report.max_undirected}")
        ctx["loads"] = report
        return {}

    ops.append(Op(f"edge_loads {loads_graph}", CERTIFICATE,
                  lambda: flow.edge_loads(loads_graph), loads_check))

    def certificate_check(graph):
        def check(cert):
            expected = max_load(graph) / (graph.vertex_count - 1)
            require(cert.congestion == expected, f"congestion {cert.congestion}")
            return {}
        return check

    ops.append(Op(
        f"comparison_certificate {loads_graph} with loads", CERTIFICATE,
        lambda: flow.comparison_certificate(loads_graph, loads=ctx["loads"]),
        certificate_check(loads_graph),
    ))
    ops.append(Op(
        f"comparison_certificate {cert_graph}", CERTIFICATE,
        lambda: flow.comparison_certificate(cert_graph), certificate_check(cert_graph),
    ))

    def induced_check(check):
        require(check.per_edge_equal, "induced flow differs from the vertex loads")
        require(check.max_config_flow == check.predicted_flow, "max induced flow differs")
        return {}

    ops.append(Op(
        f"induced_flow_check {induced_case[0]} r={induced_case[1]}", CERTIFICATE,
        lambda: flow.induced_flow_check(*induced_case), induced_check,
    ))

    n, j = chain_case

    def chain_check(chain):
        expected = n * (n - 1) * math.comb(n + j - 1, j) + 1
        require(chain.size == expected, f"{chain.size} chain states, expected {expected}")
        ctx["chain"] = chain
        return {}

    def balance_check(residuals):
        require(all(x == 0 for x in residuals), "nonzero balance residual")
        return {}

    def reverse_check(rev):
        ctx["reversed"] = rev
        return {}

    def attempt_check(attempt):
        rev = ctx["reversed"]
        require(attempt.states == rev.states and attempt.rates == rev.rates,
                "reversed rates differ from the attempt rates")
        return {}

    def bounds_check(holds):
        require(holds, "reversed rate bounds fail")
        return {}

    def survival_check(agreement):
        require(agreement.sup_difference <= SURVIVAL_TOL,
                f"survival sup difference {agreement.sup_difference:.3e}")
        return {}

    ops += [
        Op(f"build_tagged_pair_chain {n},{j}", CERTIFICATE,
           lambda: reversal.build_tagged_pair_chain(n, j), chain_check),
        Op("balance_residuals", CERTIFICATE,
           lambda: reversal.balance_residuals(ctx["chain"]), balance_check),
        Op("reverse_chain suppress_merged", CERTIFICATE,
           lambda: reversal.reverse_chain(ctx["chain"], suppress_merged=True), reverse_check),
        Op(f"reversed_attempt_rates {n},{j}", CERTIFICATE,
           lambda: reversal.reversed_attempt_rates(n, j), attempt_check),
        Op(f"reversed_rate_bounds_hold {n},{j}", CERTIFICATE,
           lambda: reversal.reversed_rate_bounds_hold(n, j), bounds_check),
        Op("survival_agreement", CERTIFICATE,
           lambda: reversal.survival_agreement(ctx["chain"], [0.25, 0.5, 1.0, 2.0]),
           survival_check),
    ]
    return ops


# ---------------------------------------------------------------------------
# monte_carlo
# ---------------------------------------------------------------------------

def _monte_carlo(seed, refs, small, tmpdir):
    scale = 0.1 if small else 1.0

    def count(x):
        return max(1, int(round(x * scale)))

    def stream(k):
        return derive_seed(seed, k)

    ctx = {}
    ops = []

    # long runs: the event loop dominates
    for k, (rho, replicas) in enumerate(((1, 900), (2, 450), (4, 180)), start=1):
        reps = count(replicas)

        def check(runs):
            require(not any(run.censored for run in runs), "censored coupling runs")
            return {"events": sum(run.events for run in runs)}

        ops.append(Op(
            f"sample_coupling_times K16 r={16 * rho} x{reps}", MC_LONG,
            lambda r=16 * rho, reps=reps, s=stream(k):
                coupling.sample_coupling_times(16, r, reps, s),
            check,
        ))
    for k, (n, horizon) in enumerate(((8, 20_000.0), (64, 2_000.0)), start=4):
        h = horizon * (0.25 if small else 1.0)

        def check(trace, n=n):
            exact = (n - 1) / (2 * n - 1)
            rel = abs(trace.empty_fraction - exact) / exact
            require(rel <= OCCUPANCY_REL_TOL, f"K{n} empty fraction off by {rel:.2%}")
            return {"events": trace.events}

        ops.append(Op(f"occupancy_stats K{n} r={n} horizon {h:g}", MC_LONG,
                      lambda n=n, h=h, s=stream(k): stats.occupancy_stats(n, n, h, s), check))

    # short replicas: per-replica set-up dominates
    marginal_reps = count(5000)
    law = refs["marginal_k4_r3_t1"]

    def marginal_check(counts):
        configs = [tuple(c) for c in law["configurations"]]
        observed = np.array([counts.get(c, 0) for c in configs], dtype=float)
        require(observed.sum() == marginal_reps, "replicas outside the configuration space")
        expected = np.asarray(law["probabilities"]) * marginal_reps
        # pool cells whose expected count is below 5 into one
        low = expected < 5.0
        obs = np.append(observed[~low], observed[low].sum())
        exp = np.append(expected[~low], expected[low].sum())
        keep = exp > 0
        stat = float(((obs[keep] - exp[keep]) ** 2 / exp[keep]).sum())
        p = float(sps.chi2.sf(stat, keep.sum() - 1))
        require(p >= CHI2_MIN_P, f"marginal law chi-square p = {p:.2e}")
        return {"replicas": marginal_reps}

    ops.append(Op(f"sample_marginal K4 r=3 t=1 x{marginal_reps}", MC_SHORT,
                  lambda s=stream(6): coupling.sample_marginal(4, 3, 1.0, marginal_reps, s),
                  marginal_check))

    window_reps = count(200)

    def window_check(c_const):
        require(0.0 < c_const <= 1.0, f"window constant {c_const!r}")
        ctx["c_const"] = c_const
        return {"replicas": 4 * window_reps}

    ops.append(Op("estimate_window_constant", MC_SHORT,
                  lambda s=stream(7): stats.estimate_window_constant(replicas=window_reps, seed=s),
                  window_check))
    for k, (n, j, replicas) in enumerate(((4, 1, 3000), (6, 2, 1000)), start=8):
        reps = count(replicas)

        def check(result, reps=reps):
            require(result.nonnegative_within_2se,
                    f"drift {result.mean_rate:.4g} below -2 SE ({result.stderr_rate:.2g})")
            return {"replicas": reps}

        ops.append(Op(
            f"drift_check n={n} j={j} x{reps}", MC_SHORT,
            lambda n=n, j=j, reps=reps, s=stream(k):
                reversal.drift_check(n, j, reps, s, ctx["c_const"]),
            check,
        ))

    relax_reps, relax_seed = count(3000), stream(10)
    tau2 = 1.0 / refs["gaps"]["complete-4-r4"]

    def relax_call():
        runs = coupling.sample_coupling_times(4, 4, relax_reps, relax_seed)
        return runs, coupling.estimate_relaxation(
            runs, min_uncensored=min(relax_reps, 1000), bootstrap=count(200), seed=relax_seed)

    def relax_check(result):
        runs, estimate = result
        require(not any(run.censored for run in runs), "censored coupling runs")
        require(estimate.relaxation_upper >= 0.9 * tau2,
                f"relaxation_upper {estimate.relaxation_upper:.3f} < 0.9 tau2 {tau2:.3f}")
        return {"replicas": relax_reps}

    ops.append(Op(f"sample_coupling_times K4 r=4 x{relax_reps} + tail fit", MC_SHORT,
                  relax_call, relax_check))

    walks = count(1_000_000)
    for k, r in enumerate((1, 8), start=11):

        def check(est, r=r):
            if r == 1:
                require(abs(est.value - RW_EXACT_R1) <= RW_Z * est.stderr,
                        f"no-return estimate {est.value:.5f} vs {RW_EXACT_R1:.5f}")
            return {}

        ops.append(Op(f"rw_no_return_probability r={r} x{walks}", None,
                      lambda r=r, s=stream(k): stats.rw_no_return_probability(r, walks, s),
                      check))
    return ops
