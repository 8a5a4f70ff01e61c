"""Benchmark harness for zrpgap: four fixed workloads, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --report [--seed N] [--seconds S]

A run repeats *passes* of one workload for about ``--seconds``.  Every pass
is a fresh interpreter (``worker.py``) that runs the workload's operation
list once, as a CLI user would pay for it.  BLAS/OpenMP threads are pinned
to one and recorded.  The pass count is the sample count of every
end-to-end figure; times are per-operation medians over passes.

Times are in reference seconds: a :class:`SpeedProbe` spins on the second
core for the whole run and each interval is measured in its rounds, which
cancels the machine-wide speed swings of a shared virtual machine.  The raw
wall-clock figures are printed beside them (``wall_clock_s``,
``setup_clock_s``).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

* ``setup_s``: fresh interpreter until ``zrpgap``, ``zrpgap.cli``, numpy and
  scipy are imported; median of at least three starts.
* ``wall_s``: time in the workload's operations (correctness checks
  excluded), summed over operations from per-operation medians.
* ``peak_rss_mb``: ``ru_maxrss`` of the pass process.

``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics (self times in reference seconds and counts from :mod:`tracing`,
median over traced passes) plus ``trace.overhead_s``, traced minus untraced
``wall_s``.  A workload whose pass takes a third of ``--seconds`` or more
gets a single traced pass, so its per-layer figures and overhead rest on it.

``--report`` runs all four workloads untraced and prints, for each, eight
end-to-end figures with units, quartiles and sample counts: the three above
plus ``fail_ratio``, ``gap_s``, ``certificate_s``, ``mc_events_per_s`` and
``mc_replicas_per_s``.  The last four apply only to the workloads that run
such operations, and
``fail_ratio`` is 0 on a healthy tree, so none of these five can be a gated
metric; failures are reported as ``failed`` over ``attempted``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
seed, the sample counts, the raw clock figures and the environment.  The
harness needs the package source at ``src/`` next to this directory and
exits non-zero without a result when it is missing.
"""

from __future__ import annotations

import argparse
import bisect
import compileall
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOADS = ("readme", "spectral", "rational", "monte_carlo")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUP_SAMPLES = 3
PASS_TIMEOUT_S = 150.0


class HarnessError(Exception):
    """The harness itself could not produce a result."""


class SpeedProbe:
    """A clock that runs at the machine's current speed.

    On a shared 2-core virtual machine the CPU speed one process gets swings
    by up to 2.5x within minutes, and both cores swing together (correlation
    0.97 over 1-s windows).  A thread of this process spins a fixed pure-Python
    loop on the otherwise idle second core and records how many rounds it
    has done; :meth:`seconds` converts a wall-clock interval into the rounds
    done in it, over ``RATE``.  Figures timed this way are in reference
    seconds: wall time at the speed where the probe makes ``RATE`` rounds
    per second.  Only ratios between runs matter, so ``RATE`` is fixed.
    """

    RATE = 6000.0
    INTERVAL = 0.02

    def __init__(self):
        self.times = [time.perf_counter()]
        self.rounds = [0]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._spin, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _spin(self):
        done, last = 0, self.times[0]
        while not self._stop.is_set():
            acc = 0
            for k in range(2000):
                acc += k * k
            done += 1
            now = time.perf_counter()
            if now - last >= self.INTERVAL:
                self.times.append(now)
                self.rounds.append(done)
                last = now
        self.times.append(time.perf_counter())
        self.rounds.append(done)

    def _rounds_at(self, t: float) -> float:
        i = bisect.bisect_left(self.times, t)
        if i == 0:
            return 0.0
        if i == len(self.times):
            raise HarnessError("interval outside the probe's record")
        t0, t1 = self.times[i - 1], self.times[i]
        n0, n1 = self.rounds[i - 1], self.rounds[i]
        return n0 + (n1 - n0) * (t - t0) / (t1 - t0)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds between two ``time.perf_counter()`` readings."""
        return (self._rounds_at(end) - self._rounds_at(start)) / self.RATE


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    env["PYTHONHASHSEED"] = "0"
    env.pop("ZRPGAP_OUT", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(extra: list[str]) -> tuple[tuple[float, float], dict | None]:
    """Start one worker; returns ((start, ready) times, its result or None)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *extra],
        stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, text=True,
    )
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        rest, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker {' '.join(extra)} timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or first.strip() != "ready":
        raise HarnessError(f"worker {' '.join(extra)} exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    return (start, ready), (json.loads(lines[-1]) if lines else None)


def pass_args(args, trace: bool) -> list[str]:
    extra = ["--workload", args.workload, "--seed", str(args.seed)]
    if trace:
        extra.append("--trace")
    if args.small:
        extra.append("--small")
    return extra


def collect(args, trace: bool) -> dict:
    """Passes until the time is up; untraced ones only, or alternating.

    A pass starts only if it should end within half a pass of ``--seconds``,
    judged by the previous pass, so a run lasts about ``--seconds``.
    """
    untraced, traced, setups = [], [], []
    start = time.perf_counter()
    while True:
        tracing_now = trace and len(traced) < len(untraced)
        began = time.perf_counter()
        ready, result = spawn(pass_args(args, tracing_now))
        last = time.perf_counter() - began
        (traced if tracing_now else untraced).append(result)
        if not tracing_now:
            setups.append(ready)
        late = time.perf_counter() - start + last / 2 > args.seconds
        if late and (not trace or traced):
            break
    if not trace:
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(spawn(["--setup-only"])[0])
    return {"untraced": untraced, "traced": traced, "setup": setups}


def measure(args, trace: bool) -> dict:
    """:func:`collect` under a :class:`SpeedProbe`; every operation's
    ``seconds``, every span and every set-up sample become reference seconds,
    and the raw figures stay in ``wall_clock_s`` and ``setup_clock``."""
    with SpeedProbe() as probe:
        samples = collect(args, trace)
    for result in samples["untraced"] + samples["traced"]:
        for op in result["ops"]:
            op["wall_clock_s"] = op["seconds"]
            op["seconds"] = probe.seconds(op["start"], op["start"] + op["seconds"])
    for result in samples["traced"]:
        result["layers"] = tracing.layer_metrics(
            result.pop("spans"), result.pop("counts"), probe.seconds)
    samples["setup_clock"] = [ready - start for start, ready in samples["setup"]]
    samples["setup"] = [probe.seconds(start, ready) for start, ready in samples["setup"]]
    return samples


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def median_pass(results: list[dict], field: str = "seconds") -> dict:
    """A pass whose operation times are the per-operation medians over passes
    of ``field`` (``wall_clock_s`` for the raw clock).

    Summing per-operation medians keeps a slow stretch of the machine that
    hits part of one pass from moving the figure.
    """
    ops = []
    for same_op in zip(*(r["ops"] for r in results)):
        op = dict(same_op[0])
        op["seconds"] = statistics.median(o[field] for o in same_op)
        op["ok"] = all(o["ok"] for o in same_op)
        ops.append(op)
    return {"ops": ops,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results)}


def pass_figures(result: dict) -> dict:
    """End-to-end figures of one pass, name -> value (None if not applicable)."""
    ops = result["ops"]

    def seconds(kind):
        return sum(op["seconds"] for op in ops if op["kind"] == kind)

    def rate(kind, field):
        spent = seconds(kind)
        return sum(op[field] for op in ops if op["kind"] == kind) / spent if spent else None

    return {
        "wall_s": sum(op["seconds"] for op in ops),
        "peak_rss_mb": result["peak_rss_mb"],
        "fail_ratio": sum(not op["ok"] for op in ops) / len(ops),
        "gap_s": seconds("gap") if any(op["kind"] == "gap" for op in ops) else None,
        "certificate_s": (seconds("certificate")
                          if any(op["kind"] == "certificate" for op in ops) else None),
        "mc_events_per_s": rate("mc_long", "events"),
        "mc_replicas_per_s": rate("mc_short", "replicas"),
    }


UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "fail_ratio": "1",
    "gap_s": "s", "certificate_s": "s", "mc_events_per_s": "1/s",
    "mc_replicas_per_s": "1/s",
}
GATED = ("setup_s", "wall_s", "peak_rss_mb")


def summarize(results: list[dict], setups: list[float]) -> dict:
    """name -> {value, q1, q3, n}: the value from per-operation medians,
    quartiles over the passes (over set-up starts for ``setup_s``)."""
    q1, med, q3 = quartiles(setups)
    out = {"setup_s": {"value": med, "q1": q1, "q3": q3, "n": len(setups)}}
    per_pass = [pass_figures(r) for r in results]
    for name, value in pass_figures(median_pass(results)).items():
        if value is not None:
            q1, _, q3 = quartiles([p[name] for p in per_pass])
            out[name] = {"value": value, "q1": q1, "q3": q3, "n": len(per_pass)}
    return out


def counts(samples: dict) -> tuple[int, int]:
    ops = [op for r in samples["untraced"] + samples["traced"] for op in r["ops"]]
    return len(ops), sum(not op["ok"] for op in ops)


def environment(samples: dict) -> dict:
    env = dict(samples["untraced"][0]["environment"])
    env.update({
        "nproc": os.cpu_count(),
        "threads": {var: "1" for var in THREAD_VARS},
        "PYTHONHASHSEED": "0",
        "probe_rounds_per_reference_s": SpeedProbe.RATE,
        "rule": "fresh interpreter per pass; times are per-operation medians over "
                "passes, in reference seconds of the speed probe",
    })
    return env


def clock_figures(samples: dict) -> dict:
    """The raw wall-clock counterparts of ``wall_s`` and ``setup_s``."""
    clock_pass = median_pass(samples["untraced"], "wall_clock_s")
    return {
        "wall_clock_s": pass_figures(clock_pass)["wall_s"],
        "setup_clock_s": statistics.median(samples["setup_clock"]),
    }


def run_workload(args) -> int:
    samples = measure(args, trace=bool(args.trace))
    attempted, failed = counts(samples)
    summary = summarize(samples["untraced"], samples["setup"])
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": {"untraced": len(samples["untraced"]), "traced": len(samples["traced"])},
        "summary": summary,
        "clock": clock_figures(samples),
        "environment": environment(samples),
    }
    if args.trace:
        layers = [r["layers"] for r in samples["traced"]]
        metrics = {
            name: {"value": statistics.median(layer[name]["value"] for layer in layers),
                   "unit": figure["unit"]}
            for name, figure in layers[0].items()
        }
        traced_wall = pass_figures(median_pass(samples["traced"]))["wall_s"]
        overhead = traced_wall - summary["wall_s"]["value"]
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {name: {"value": summary[name]["value"], "unit": UNITS[name]}
                   for name in GATED}
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def report(args) -> int:
    print(f"seed {args.seed}, {args.seconds:g} s per workload; value from "
          "per-operation medians, quartiles over passes")
    print(f"{'workload':12} {'metric':18} {'unit':5} {'value':>12} "
          f"{'q1':>12} {'q3':>12} {'n':>3}")
    env = None
    for name in WORKLOADS:
        args.workload = name
        samples = measure(args, trace=False)
        env = environment(samples)
        attempted, failed = counts(samples)
        summary = summarize(samples["untraced"], samples["setup"])
        for metric, unit in UNITS.items():
            s = summary.get(metric)
            if s is None:
                print(f"{name:12} {metric:18} {unit:5} {'n/a':>12}")
            else:
                print(f"{name:12} {metric:18} {unit:5} {s['value']:12.5g} "
                      f"{s['q1']:12.5g} {s['q3']:12.5g} {s['n']:3d}")
        for metric, value in clock_figures(samples).items():
            print(f"{name:12} {metric:18} {'s':5} {value:12.5g}")
        print(f"{name:12} {'operations':18} {'':5} {attempted:12d} failed {failed}")
    print(json.dumps({"environment": env}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run all four workloads and print every end-to-end figure")
    parser.add_argument("--small", action="store_true",
                        help="smoke-test scale: smaller instances and replica counts")
    args = parser.parse_args(argv)
    if not args.report and args.workload is None:
        parser.error("give --workload or --report")
    if not os.path.isfile(os.path.join(SRC_DIR, "zrpgap", "__init__.py")):
        print(f"no package source at {SRC_DIR}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC_DIR, quiet=1)
    compileall.compile_dir(BENCH_DIR, quiet=1, maxlevels=0)
    try:
        return report(args) if args.report else run_workload(args)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
