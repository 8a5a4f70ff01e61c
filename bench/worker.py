"""One pass of one benchmark workload, in a fresh interpreter.

Started by ``run.py``.  It imports what every CLI call imports, prints
``ready`` (the parent times set-up up to that line), runs the workload's
operation list once, and prints one JSON object as its last stdout line:
per-operation records and, with ``--trace``, the raw spans and counts.
With ``--setup-only`` it exits right after ``ready``.

    python3 bench/worker.py --workload spectral --seed 1 [--trace] [--small]
"""

import numpy
import scipy
import zrpgap
import zrpgap.cli

print("ready", flush=True)

import argparse  # noqa: E402  (after the timed set-up on purpose)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")


def run_pass(args) -> dict:
    with open(os.path.join(BENCH_DIR, "references.json")) as handle:
        refs = json.load(handle)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    records = []
    extra_counts = {"bytes": 0}
    try:
        ops = workloads.build(args.workload, args.seed, refs, args.small, tmpdir)
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = index
            start = time.perf_counter()
            record = {"name": op.name, "kind": op.kind, "ok": False,
                      "events": 0, "replicas": 0, "start": start}
            try:
                result = op.call()
                record["seconds"] = time.perf_counter() - start
                info = op.check(result)
            except Exception as exc:  # an operation failure, not a harness one
                record.setdefault("seconds", time.perf_counter() - start)
                record["error"] = f"{type(exc).__name__}: {exc}"
                print(f"operation failed: {op.name}", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            else:
                record["ok"] = True
                record["events"] = int(info.get("events", 0))
                record["replicas"] = int(info.get("replicas", 0))
                extra_counts["bytes"] += int(info.get("bytes", 0))
            records.append(record)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    out = {
        "ops": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "zrpgap": zrpgap.__version__,
        },
    }
    if tracer is not None:
        out["spans"] = tracer.spans
        out["counts"] = {**tracer.counts, **extra_counts}
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.json.gz"))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if not os.path.abspath(zrpgap.__file__).startswith(SRC_DIR + os.sep):
        print(f"zrpgap was imported from {zrpgap.__file__}, not from {SRC_DIR}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        return 0
    print(json.dumps(run_pass(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
