"""Spans around the package's public functions, installed from outside it.

:meth:`Tracer.install` replaces each traced function in every loaded
``zrpgap`` module that holds it (``cli.build_generator`` as well as
``spectral.build_generator``), so calls between modules are seen too.  Spans
are kept in memory as ``(name, start, end, parent, op)`` tuples and written
once, when the pass ends.  Nothing that runs once per event or once per
enumerated state is wrapped (``transitions``, ``_apply_move``, ``_settle``,
``rank_configuration``...): the finest spans are per replica.

The worker hands its spans and counts to the harness, and
:func:`layer_metrics` turns them into per-layer figures there.  A layer's
time is its self time: span duration minus its child spans, each duration
measured by the harness's clock (``run.py`` passes reference seconds).
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict


def _n_states(counts, args, kwargs, result):
    counts["states_enumerated"] += len(result)


def _calls(key):
    def hook(counts, args, kwargs, result):
        counts[key] += 1
    return hook


def _assembled(counts, args, kwargs, result):
    counts["assembled_states"] += result.dimension
    counts["generator_nnz"] += result.matrix.nnz


def _eigensolve(counts, args, kwargs, result):
    counts["eigensolve_calls"] += 1
    counts["max_residual"] = max(counts["max_residual"], result.residual)
    return result.method  # the span becomes spectral.eigensolve.dense or .iterative


def _uniformize_inputs(counts, args, kwargs, result):
    # the Poisson truncation kmax is computed from these inputs after the
    # pass, as transient_distribution does, so its cost is in no span
    from zrpgap import spectral

    gen = args[0]
    times = args[2] if len(args) > 2 else kwargs["times"]
    tail = args[3] if len(args) > 3 else kwargs.get("tail_tol", spectral.UNIFORMIZATION_TAIL)
    lam = float((-gen.matrix.diagonal()).max())
    t_max = float(max(times))
    if lam > 0 and t_max > 0:
        counts.setdefault("uniformize_inputs", []).append((tail, lam * t_max))


def _induced(counts, args, kwargs, result):
    counts["induced_config_edges"] += result.config_edges


def _chain(counts, args, kwargs, result):
    counts["chain_states"] += result.size


def _reversed_run(counts, args, kwargs, result):
    counts["sim_runs"] += 1
    counts["sim_events"] += result.events


def _coupling_run(counts, args, kwargs, result):
    counts["coupling_runs"] += 1
    counts["coupling_events"] += result.events
    counts["coupling_censored"] += int(result.censored)


def _occupancy(counts, args, kwargs, result):
    trace = result[0] if isinstance(result, tuple) else result
    counts["occupancy_runs"] += 1
    counts["occupancy_events"] += trace.events


# (module, function, span name, count hook).  A hook that returns a string
# appends it to the span name, as exact_gap's does with the solver method.
TARGETS = (
    ("configurations", "enumerate_configurations", "configurations.enumerate", _n_states),
    ("configurations", "random_configuration", "configurations.random_configuration",
     _calls("random_configuration_calls")),
    ("seeding", "make_generator", "seeding.make_generator", _calls("make_generator_calls")),
    ("spectral", "build_generator", "spectral.assemble", _assembled),
    ("spectral", "exact_gap", "spectral.eigensolve", _eigensolve),
    ("spectral", "transient_distribution", "spectral.uniformize", _uniformize_inputs),
    ("spectral", "tv_curve", "spectral.tv_curve", None),
    ("spectral", "fit_decay_rate", "spectral.fit_decay_rate", None),
    ("spectral", "wilson_bound", "spectral.wilson", None),
    ("graphs", "bfs_distance_counts", "graphs.bfs", _calls("bfs_calls")),
    ("flow", "edge_loads", "flow.edge_loads", None),
    ("flow", "comparison_certificate", "flow.certificate", None),
    ("flow", "induced_flow_check", "flow.induced", _induced),
    ("reversal", "build_tagged_pair_chain", "reversal.chain_build", _chain),
    ("reversal", "balance_residuals", "reversal.balance", None),
    ("reversal", "reverse_chain", "reversal.reverse", None),
    ("reversal", "reversed_attempt_rates", "reversal.attempt_rates", None),
    ("reversal", "reversed_rate_bounds_hold", "reversal.rate_bounds", None),
    ("reversal", "survival_agreement", "reversal.survival", None),
    ("reversal", "simulate_reversed_hitting", "reversal.sim", _reversed_run),
    ("reversal", "sample_hitting_times", "reversal.sample_hitting_times", None),
    ("reversal", "drift_check", "reversal.drift_check", None),
    ("coupling", "init_coupling", "coupling.init", None),
    ("coupling", "run_to_coalescence", "coupling.run", _coupling_run),
    ("coupling", "sample_coupling_times", "coupling.sample_coupling_times", None),
    ("coupling", "sample_marginal", "coupling.sample_marginal", None),
    ("coupling", "estimate_relaxation", "coupling.estimate_relaxation", None),
    ("stats", "occupancy_stats", "stats.occupancy", _occupancy),
    ("stats", "estimate_window_constant", "stats.window_constant", None),
    ("stats", "fit_exponential_tail", "stats.tail_fit", None),
    ("stats", "rw_no_return_probability", "stats.rw", None),
    ("stats", "skellam_table", "stats.skellam", None),
    ("stats", "skellam_tail", "stats.skellam", None),
    ("cli", "main", "cli.main", None),
)

# metric name -> span name whose self time it reports
SELF_TIMES = {
    "configurations.enumerate_s": "configurations.enumerate",
    "configurations.random_configuration_s": "configurations.random_configuration",
    "seeding.make_generator_s": "seeding.make_generator",
    "coupling.init_s": "coupling.init",
    "spectral.assemble_s": "spectral.assemble",
    "spectral.eigensolve_dense_s": "spectral.eigensolve.dense",
    "spectral.eigensolve_iterative_s": "spectral.eigensolve.iterative",
    "spectral.uniformize_s": "spectral.uniformize",
    "spectral.wilson_s": "spectral.wilson",
    "graphs.bfs_s": "graphs.bfs",
    "flow.edge_loads_s": "flow.edge_loads",
    "flow.certificate_s": "flow.certificate",
    "flow.induced_s": "flow.induced",
    "reversal.chain_build_s": "reversal.chain_build",
    "reversal.balance_s": "reversal.balance",
    "reversal.reverse_s": "reversal.reverse",
    "reversal.attempt_rates_s": "reversal.attempt_rates",
    "reversal.rate_bounds_s": "reversal.rate_bounds",
    "reversal.survival_s": "reversal.survival",
    "reversal.sim_s": "reversal.sim",
    "coupling.run_s": "coupling.run",
    "stats.occupancy_s": "stats.occupancy",
    "stats.window_constant_s": "stats.window_constant",
    "stats.tail_fit_s": "stats.tail_fit",
    "stats.rw_s": "stats.rw",
    "stats.skellam_s": "stats.skellam",
    "cli.self_s": "cli.main",
}


class Tracer:
    """In-memory span recorder for one pass."""

    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict = defaultdict(float)
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, name, fn, hook=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            suffix = hook(counts, args, kwargs, result) if hook is not None else None
            if suffix is not None:
                spans[index] = (f"{name}.{suffix}", start, end, parent, self.op)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded zrpgap module that holds it."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "zrpgap" or key.startswith("zrpgap."))]
        for module_name, func_name, span_name, hook in TARGETS:
            original = getattr(sys.modules[f"zrpgap.{module_name}"], func_name)
            traced = self.wrap(span_name, original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)

    def write(self, path: str) -> None:
        """Write the spans as gzip-compressed JSON lists."""
        with gzip.open(path, "wt") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, handle)


def self_times(spans, seconds) -> dict:
    """Span name -> summed self time, each span timed by ``seconds(start, end)``."""
    durations = [seconds(start, end) for _, start, end, _, _ in spans]
    covered = [0.0] * len(spans)
    for (_, _, _, parent, _), duration in zip(spans, durations):
        if parent >= 0:
            covered[parent] += duration
    totals: defaultdict = defaultdict(float)
    for (name, *_), duration, child in zip(spans, durations, covered):
        totals[name] += duration - child
    return totals


def layer_metrics(spans, counts: dict, seconds) -> dict:
    """Per-layer figures of one traced pass, name -> {"value", "unit"}.

    ``spans`` and ``counts`` are a pass's :attr:`Tracer.spans` and
    :attr:`Tracer.counts`; ``seconds`` converts a ``perf_counter`` interval
    into the unit every time here is reported in.
    """
    from scipy import stats as sps

    own = self_times(spans, seconds)
    c = defaultdict(float, counts)
    times = {metric: own.get(span, 0.0) for metric, span in SELF_TIMES.items()}

    def per(num, den, factor=1.0):
        return factor * num / den if den else 0.0

    figures = {metric: (value, "s") for metric, value in times.items()}
    figures.update({
        "configurations.states_enumerated": (c["states_enumerated"], "count"),
        "configurations.random_configuration_calls": (c["random_configuration_calls"], "count"),
        "seeding.make_generator_calls": (c["make_generator_calls"], "count"),
        "spectral.assemble_states_per_s": (per(c["assembled_states"],
                                               times["spectral.assemble_s"]), "1/s"),
        "spectral.generator_nnz": (c["generator_nnz"], "count"),
        "spectral.eigensolve_calls": (c["eigensolve_calls"], "count"),
        "spectral.max_residual": (c["max_residual"], "1"),
        "spectral.uniformize_terms": (
            sum(int(sps.poisson.isf(tail, mean)) + 1
                for tail, mean in counts.get("uniformize_inputs", [])), "count"),
        "graphs.bfs_calls": (c["bfs_calls"], "count"),
        "flow.induced_config_edges": (c["induced_config_edges"], "count"),
        "reversal.chain_states": (c["chain_states"], "count"),
        "reversal.sim_runs": (c["sim_runs"], "count"),
        "reversal.sim_events": (c["sim_events"], "count"),
        "reversal.sim_us_per_event": (per(times["reversal.sim_s"], c["sim_events"], 1e6), "us"),
        "coupling.runs": (c["coupling_runs"], "count"),
        "coupling.events": (c["coupling_events"], "count"),
        "coupling.us_per_event": (per(times["coupling.run_s"], c["coupling_events"], 1e6), "us"),
        "coupling.censored": (c["coupling_censored"], "count"),
        "stats.occupancy_runs": (c["occupancy_runs"], "count"),
        "stats.occupancy_events": (c["occupancy_events"], "count"),
        "stats.occupancy_us_per_event": (per(times["stats.occupancy_s"],
                                             c["occupancy_events"], 1e6), "us"),
        "cli.bytes_written": (c["bytes"], "bytes"),
        "trace.spans": (len(spans), "count"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in figures.items()}
