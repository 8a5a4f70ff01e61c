"""Experiment runner: dispatches subcommands, sweeps grids, writes manifests.

Every run echoes its fully resolved configuration (defaults included) into a
manifest together with sha256 digests of the written outputs, so a rerun
with the same configuration and seed is byte-identical and verifiably so.
Exit codes: 0 success, 1 configuration error (an overflowing value
included), 2 capacity error (a failed allocation included), 3 partial
sweep, 4 eigensolver failure.  The only environment variable consulted is
ZRPGAP_OUT (default output directory).

Handlers only compute: each takes the parsed arguments and returns
``(payload, extra_files)``, a JSON-serializable payload and a mapping of
further file names to their text (every CSV table is built by :func:`_csv`).
:func:`main` does the rest, once: it writes the payload to
``<subcommand>.json`` (dashes become underscores) and prints the same text,
writes the extra files and the manifest, and maps each exception to its
exit code.  A payload with a non-zero ``failures`` count is a partial run
(exit 3).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .configurations import DEFAULT_MAX_CONFIGURATIONS, configuration_count
from .coupling import (
    default_horizon,
    estimate_relaxation,
    point_mass,
    sample_coupling_times,
)
from .errors import CapacityError, SolverConvergenceError
from .flow import comparison_certificate, edge_loads
from .graphs import Complete, Torus
from .reversal import (
    balance_residuals,
    build_tagged_pair_chain,
    drift_check,
    sample_hitting_times,
)
from .spectral import (
    WILSON_VARIANTS,
    build_generator,
    exact_gap,
    fit_decay_rate,
    tv_curve,
    uniformization_terms,
    wilson_bound,
)
from .stats import (
    WINDOW_CONSTANT,
    empty_probability_exact,
    fit_exponential_tail,
    occupancy_stats,
    poisson_concentration,
    rw_no_return_probability,
    skellam_table,
)


class ConfigError(Exception):
    pass


def _parse_rho(text: str) -> float:
    num, slash, den = text.partition("/")
    if slash and int(den) == 0:
        raise ConfigError(f"density {text!r} has a zero denominator")
    try:
        rho = float(Fraction(int(num), int(den))) if slash else float(text)
    except OverflowError:  # a fraction beyond the float range
        rho = math.inf
    if not math.isfinite(rho):
        raise ConfigError(f"density must be finite, got {text!r}")
    return rho


def _resolve_graph(args) -> Torus | Complete:
    """The graph the flags name (flow and certificate have no --graph, --n)."""
    n = getattr(args, "n", None)
    if getattr(args, "graph", None) == "complete" or (n is not None and args.L is None):
        if n is None:
            raise ConfigError("complete graph needs --n")
        return Complete(n=n)
    if args.L is None:
        raise ConfigError("torus needs --d and --L (or pass --graph complete --n N)")
    return Torus(d=1 if args.d is None else args.d, L=args.L)


def _particles_at(rho: float, vertex_count: int) -> int:
    return int(round(rho * vertex_count))


def _resolve_particles(args, vertex_count: int) -> tuple[int, dict]:
    if (args.r is None) == (args.rho is None):
        raise ConfigError("give exactly one of --r or --rho")
    echo = {}
    r = args.r
    if r is None:
        echo["rho_requested"] = _parse_rho(args.rho)
        r = _particles_at(echo["rho_requested"], vertex_count)
    if r < 0:
        raise ConfigError("particle count must be non-negative")
    echo.update(r=r, rho_actual=r / vertex_count)
    return r, echo


def _write_outputs(outdir: str, files: dict[str, str], manifest: dict) -> None:
    """Write ``files`` and then the manifest with their sha256 digests."""
    os.makedirs(outdir, exist_ok=True)
    digests = {}
    for name, text in files.items():
        with open(os.path.join(outdir, name), "w") as handle:
            handle.write(text)
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    manifest["outputs"] = digests
    with open(os.path.join(outdir, "manifest.json"), "w") as handle:
        handle.write(_dump_json(manifest))


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv(header: str, rows) -> str:
    """CSV text: the comma-separated ``header``, then one line per row.

    Cells are written by ``csv.writer``: floats as their repr, ``None`` as
    an empty cell, a ``Fraction`` as ``p/q`` (``p`` when integer-valued),
    and a cell holding a comma or a quote is quoted.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header.split(","))
    writer.writerows(rows)
    return buf.getvalue()


def _echo_config(args) -> dict:
    skip = {"func", "out", "config"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (payload, extra_files)
# ---------------------------------------------------------------------------

def _cmd_exact_gap(args):
    graph = _resolve_graph(args)
    r, echo = _resolve_particles(args, graph.vertex_count)
    gen = build_generator(graph, r, max_states=args.max_states)
    report = exact_gap(gen, method=args.method)
    payload = report.as_dict()
    payload["graph"] = graph.as_json()
    payload.update(echo)
    if graph.degenerate:
        payload["degenerate_torus"] = True
    return payload, {}


def _cmd_tv_curve(args):
    if args.points < 2:
        raise ConfigError("--points must be at least 2")
    if args.t_max < 0:
        raise ConfigError("--t-max must be non-negative")
    graph = _resolve_graph(args)
    r, echo = _resolve_particles(args, graph.vertex_count)
    # the uniformization rate, the largest exit rate, is min(r, n): refuse an
    # over-budget table or series as _uniformize would, before any state is
    # built
    uniformization_terms(min(r, graph.vertex_count), args.t_max, args.points,
                         configuration_count(graph.vertex_count, r))
    gen = build_generator(graph, r, max_states=args.max_states)
    times = [args.t_max * k / (args.points - 1) for k in range(args.points)]
    start = point_mass(graph.vertex_count, r)
    curve = tv_curve(gen, start, times)
    payload = curve.as_dict()
    payload["graph"] = graph.as_json()
    payload.update(echo)
    if args.fit_window:
        lo, hi = args.fit_window
        payload["fitted_rate"] = fit_decay_rate(curve, lo, hi)
        payload["fit_window"] = [lo, hi]
    return payload, {"tv_curve.csv": _csv("time,tv", zip(curve.times, curve.values))}


def _cmd_wilson(args):
    graph = _resolve_graph(args)
    if not isinstance(graph, Torus):
        raise ConfigError("wilson bounds need a torus")
    r, echo = _resolve_particles(args, graph.vertex_count)
    variants = WILSON_VARIANTS if args.variant == "both" else (args.variant,)
    results = {
        variant: wilson_bound(
            graph,
            r,
            variant=variant,
            mode=args.mode,
            samples=args.samples,
            seed=args.seed,
            max_states=args.max_states,
        ).as_dict()
        for variant in variants
    }
    payload = {"graph": graph.as_json(), "bounds": results}
    payload.update(echo)
    return payload, {}


def _cmd_flow(args):
    graph = _resolve_graph(args)
    loads = edge_loads(graph)
    cert = comparison_certificate(graph, loads=loads)
    table = _csv("d,L,congestion,length,bound_factor,headline_factor",
                 [(cert.d, cert.L, cert.congestion, cert.length, cert.bound_factor,
                   cert.headline_factor)])
    payload = {
        "certificate": cert.as_dict(),
        "edge_loads": loads.as_dict(),
    }
    return payload, {"flow.csv": table}


def _cmd_certificate(args):
    if args.r is not None and args.tau2 is not None:
        raise ConfigError("give at most one of --r and --tau2")
    graph = _resolve_graph(args)
    if args.r is None:
        return comparison_certificate(graph, tau2=args.tau2).as_dict(), {}
    gen = build_generator(Complete(n=graph.vertex_count), args.r, max_states=args.max_states)
    payload = comparison_certificate(graph, tau2=exact_gap(gen).relaxation_time).as_dict()
    payload.update({"tau2_source": "exact complete-graph gap", "r": args.r})
    return payload, {}


def _cmd_couple(args):
    horizon = args.horizon
    if horizon is None:
        horizon = default_horizon(args.n, args.r, args.replicas)
    runs = sample_coupling_times(args.n, args.r, args.replicas, args.seed, horizon)
    header = "replica,seed,T,censored," + ",".join(f"stage_{j}" for j in range(args.r))
    table = _csv(header, (
        (i, run.seed, run.coupling_time, int(run.censored), *run.stage_durations,
         *[math.nan] * (args.r - len(run.stage_durations)))
        for i, run in enumerate(runs)
    ))
    estimate = estimate_relaxation(runs, min_uncensored=min(args.replicas, 1000),
                                   bootstrap=args.bootstrap, seed=args.seed)
    payload = estimate.as_dict()
    payload.update({"n": args.n, "r": args.r, "replicas": args.replicas,
                    "horizon": horizon})
    return payload, {"couple.csv": table}


def _cmd_zeta_balance(args):
    chain = build_tagged_pair_chain(args.n, args.j)
    residuals = balance_residuals(chain)
    worst = max((abs(x) for x in residuals), default=Fraction(0))
    payload = {
        "n": args.n,
        "high_count": args.j,
        "states": chain.size,
        "max_abs_residual": {"num": worst.numerator, "den": worst.denominator},
        "balanced_exactly": worst == 0,
    }
    files = {}
    if args.dump_chain:
        files["zeta_chain.json"] = _dump_json(chain.as_dict())
    return payload, files


def _cmd_reversal_w(args):
    c_const = WINDOW_CONSTANT if args.c_param is None else args.c_param
    horizon = 1e6 if args.horizon is None else args.horizon
    runs = sample_hitting_times(args.n, args.j, args.replicas, args.seed,
                                horizon, c_const)
    table = _csv("replica,W,censored,mean_drift,B_final,M_max", (
        (i, run.stop_time, int(run.censored),
         run.drift_increment / run.stop_time if run.stop_time > 0 else 0.0,
         run.failed_boosts, run.max_occ_seen)
        for i, run in enumerate(runs)
    ))
    times = [run.stop_time for run in runs if run.hit and run.stop_time > 0]
    payload = {
        "n": args.n,
        "high_count": args.j,
        "replicas": args.replicas,
        "c_param": c_const,
        "censored": sum(1 for run in runs if run.censored),
        "hit_fraction": sum(1 for run in runs if run.hit) / len(runs),
        "mean_W": sum(times) / len(times) if times else 0.0,
    }
    if len(times) >= 1000:
        fit = fit_exponential_tail(times, bootstrap=args.bootstrap, seed=args.seed)
        payload["tail_fit"] = fit.as_dict()
    return payload, {"reversal_w.csv": table}


def _cmd_drift(args):
    c_const = WINDOW_CONSTANT if args.c_param is None else args.c_param
    check = drift_check(args.n, args.j, args.replicas, args.seed, c_const,
                        t_ref=args.t_ref)
    return check.as_dict(), {}


def _cmd_occupancy(args):
    trace = occupancy_stats(args.n, args.r, args.horizon, args.seed,
                            m_param=args.m_param)
    payload = trace.as_dict()
    exact = empty_probability_exact(args.n, args.r)
    payload["stationary_empty_probability"] = {
        "num": exact.numerator,
        "den": exact.denominator,
        "decimal": float(exact),
    }
    return payload, {"occupancy.csv": _csv("vertex,empty_time", enumerate(trace.empty_time))}


def _cmd_tails(args):
    if args.kind == "skellam":
        table = skellam_table(args.lam, args.m)
        payload = table.as_dict()
        header, rows = "m,probability", table.tails
    elif args.kind == "poisson":
        payload = {
            "lambda": args.lam,
            "concentration_half": poisson_concentration(args.lam),
        }
        header = "lambda,concentration_half"
        rows = [(args.lam, payload["concentration_half"])]
    else:
        if args.seed is None:
            raise ConfigError("tails --kind rw needs --seed")
        estimates = []
        header, rows = "r,estimate,stderr,ci_low,ci_high,scaled_by_r", []
        for rr in args.r_values:
            est = rw_no_return_probability(rr, args.replicas, args.seed)
            estimates.append(
                {
                    "r": rr,
                    "estimate": est.as_dict(),
                    "scaled_by_r": est.value * rr,
                    "scaled_ci_low": est.ci_low * rr,
                }
            )
            rows.append((rr, est.value, est.stderr, est.ci_low, est.ci_high, est.value * rr))
        payload = {"replicas": args.replicas, "rows": estimates}
    return payload, {"tails.csv": _csv(header, rows)}


def _cmd_sweep(args):
    ds = args.d_values
    Ls = args.L_values
    rhos = [_parse_rho(x) for x in args.rho_values]
    rows = []
    failures = 0
    for d in ds:
        for L in Ls:
            for rho in rhos:
                graph = Torus(d=d, L=L)
                r = _particles_at(rho, graph.vertex_count)
                actual = r / graph.vertex_count
                prefix = (d, L, r, rho, actual)
                try:
                    if args.task == "exact-gap":
                        gen = build_generator(graph, r, max_states=args.max_states)
                        report = exact_gap(gen)
                        norm = report.relaxation_time / ((actual + 1.0) ** 2 * L * L)
                        rows.append((*prefix, report.gap, report.relaxation_time, norm, None))
                    else:
                        bound = wilson_bound(graph, r, variant=args.variant,
                                             max_states=args.max_states)
                        norm = bound.quotient * (actual + 1.0) ** 2 * L * L
                        rows.append((*prefix, bound.quotient, None, norm, None))
                except (CapacityError, SolverConvergenceError, ValueError) as exc:
                    failures += 1
                    rows.append((*prefix, None, None, None, f"{type(exc).__name__}: {exc}"))
    payload = {
        "task": args.task,
        "points": len(rows),
        "failures": failures,
    }
    table = _csv("d,L,r,rho_requested,rho_actual,gap,relaxation_time,normalized,error", rows)
    return payload, {"sweep.csv": table}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _str_list(text: str) -> list[str]:
    return [x for x in text.split(",") if x]


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zrpgap",
        description="Exact and Monte Carlo analyses of the constant-rate "
        "zero range process",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, seed=None, max_states=False):
        """``seed``: None for no --seed flag, else whether it is required."""
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--config", default=None, help="JSON config file; flags override")
        if max_states:
            p.add_argument("--max-states", dest="max_states", type=_positive_int,
                           default=DEFAULT_MAX_CONFIGURATIONS)
        if seed is not None:
            p.add_argument("--seed", type=int, default=None, required=seed)

    def add_graph(p):
        p.add_argument("--graph", choices=["torus", "complete"], default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--d", type=int, default=None)
        p.add_argument("--L", type=int, default=None)

    def add_particles(p):
        p.add_argument("--r", type=int, default=None)
        p.add_argument("--rho", default=None)

    p = sub.add_parser("exact-gap", help="exact spectral gap and relaxation time")
    add_common(p, max_states=True)
    add_graph(p)
    add_particles(p)
    p.add_argument("--method", choices=["auto", "dense", "iterative"], default="auto")
    p.set_defaults(func=_cmd_exact_gap)

    p = sub.add_parser("tv-curve", help="total variation distance to uniform over time")
    add_common(p, max_states=True)
    add_graph(p)
    add_particles(p)
    p.add_argument("--t-max", dest="t_max", type=_finite_float, default=10.0)
    p.add_argument("--points", type=int, default=41)
    p.add_argument("--fit-window", dest="fit_window", type=_finite_float, nargs=2, default=None)
    p.set_defaults(func=_cmd_tv_curve)

    p = sub.add_parser("wilson", help="cosine test-function bounds on the gap")
    add_common(p, seed=False, max_states=True)
    add_graph(p)
    add_particles(p)
    p.add_argument("--variant", choices=list(WILSON_VARIANTS) + ["both"], default="both")
    p.add_argument("--mode", choices=["auto", "enumerate", "closed_form", "monte_carlo"],
                   default="auto")
    p.add_argument("--samples", type=int, default=20_000)
    p.set_defaults(func=_cmd_wilson)

    p = sub.add_parser("flow", help="edge loads and the comparison certificate")
    add_common(p)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--L", type=int, required=True)
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("certificate", help="comparison certificate, optionally with tau2")
    add_common(p, max_states=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--r", type=int, default=None,
                   help="compute tau2 exactly for this particle count")
    p.add_argument("--tau2", type=_finite_float, default=None)
    p.set_defaults(func=_cmd_certificate)

    p = sub.add_parser("couple", help="sample coupling times and fit the tail")
    add_common(p, seed=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--replicas", type=int, default=2000)
    p.add_argument("--horizon", type=_finite_float, default=None)
    p.add_argument("--bootstrap", type=int, default=200)
    p.set_defaults(func=_cmd_couple)

    p = sub.add_parser("zeta-balance", help="exact balance residuals of the tagged chain")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True, help="high-priority particle count")
    p.add_argument("--dump-chain", dest="dump_chain", action="store_true")
    p.set_defaults(func=_cmd_zeta_balance)

    p = sub.add_parser("reversal-w", help="reversed-chain hitting times of the balanced set")
    add_common(p, seed=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--replicas", type=int, default=2000)
    p.add_argument("--horizon", type=_finite_float, default=None)
    p.add_argument("--c-param", dest="c_param", type=_finite_float, default=None)
    p.add_argument("--bootstrap", type=int, default=200)
    p.set_defaults(func=_cmd_reversal_w)

    p = sub.add_parser("drift", help="averaged submartingale drift of the ladder functional")
    add_common(p, seed=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--replicas", type=int, default=10_000)
    p.add_argument("--t-ref", dest="t_ref", type=_finite_float, default=5.0)
    p.add_argument("--c-param", dest="c_param", type=_finite_float, default=None)
    p.set_defaults(func=_cmd_drift)

    p = sub.add_parser("occupancy", help="empty-time statistics of a single run")
    add_common(p, seed=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--horizon", type=_finite_float, default=10_000.0)
    p.add_argument("--m-param", dest="m_param", type=_finite_float, default=1.0)
    p.set_defaults(func=_cmd_occupancy)

    p = sub.add_parser("tails", help="Poisson-difference tables and no-return estimates")
    add_common(p, seed=False)
    p.add_argument("--kind", choices=["skellam", "poisson", "rw"], required=True)
    p.add_argument("--lam", type=_finite_float, default=1.0)
    p.add_argument("--m", type=_int_list, default=[0, 1, 2])
    p.add_argument("--r-values", dest="r_values", type=_int_list, default=[1, 2, 3, 4])
    p.add_argument("--replicas", type=int, default=100_000)
    p.set_defaults(func=_cmd_tails)

    p = sub.add_parser("sweep", help="grid sweep of a subcommand over d, L, rho")
    add_common(p, max_states=True)
    p.add_argument("--task", choices=["exact-gap", "wilson"], default="exact-gap")
    p.add_argument("--d-values", dest="d_values", type=_int_list, default=[1])
    p.add_argument("--L-values", dest="L_values", type=_int_list, required=True)
    p.add_argument("--rho-values", dest="rho_values", type=_str_list, required=True)
    p.add_argument("--variant", choices=WILSON_VARIANTS, default="full_wave")
    p.set_defaults(func=_cmd_sweep)

    return parser


def _with_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """``argv`` with the ``--config`` file's entries inserted as flags.

    They go right after the subcommand, so they pass the same types and
    choices as flags, can supply required flags, and lose to any flag given
    on the command line (argparse keeps the last value it sees).
    """
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    # the subcommand is the first bare token: no top-level option takes a value
    where = next((k for k, tok in enumerate(argv) if not tok.startswith("-")), 0)
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub = subparsers.choices.get(argv[where]) if argv else None
    if path is None or sub is None:
        return argv  # parse_args reports what is missing
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        sub.error(f"cannot read config file: {exc}")
    if not isinstance(data, dict):
        sub.error("config file must hold a JSON object")
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    flags = []
    for key, value in data.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            sub.error(f"unknown config key {key!r}")
        flag = action.option_strings[0]
        if action.nargs == 0:  # store_true
            flags += [flag] if value is True else []
        elif isinstance(value, list):
            items = [str(x) for x in value]
            flags += [flag, *items] if action.nargs else [flag, ",".join(items)]
        elif value is not None:
            flags += [flag, str(value)]
    return argv[: where + 1] + flags + argv[where + 1 :]


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_with_config(parser, argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        started = time.perf_counter()
        payload, files = args.func(args)
        elapsed = time.perf_counter() - started
    except (ConfigError, ValueError, OverflowError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (CapacityError, MemoryError) as exc:
        # a MemoryError raised by Python itself carries no message
        print(f"capacity error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except SolverConvergenceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4

    text = _dump_json(payload)
    partial = bool(payload.get("failures"))
    manifest = {
        "version": __version__,
        "subcommand": args.subcommand,
        "config": _echo_config(args),
        "timing_seconds": {args.subcommand: elapsed},
        "status": "partial" if partial else "ok",
    }
    outdir = args.out or os.environ.get("ZRPGAP_OUT") or "zrpgap_out"
    name = args.subcommand.replace("-", "_") + ".json"
    _write_outputs(outdir, {name: text, **files}, manifest)
    print(text, end="")
    return 3 if partial else 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
