"""Smoke test of the benchmark harness, at reduced scale.

    python3 -m pytest bench/test_smoke.py

Runs every workload of ``BENCHMARK.json`` with ``--small``, traced and
untraced, and checks that each declared metric is emitted with its unit;
checks that a wrong pinned reference is caught; and checks that the harness
refuses to run without the package source.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def run(*extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "3", "--seconds", "1", "--small", *extra],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_emitted(workload, trace):
    result = result_of(run("--workload", workload, "--trace", trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def copy_benchmark(dest, with_source):
    """Copy BENCHMARK.json and the benchmark's paths (and ``src/``) to ``dest``."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    for path in SPEC["paths"] + (["src"] if with_source else []):
        shutil.copytree(os.path.join(ROOT, path), dest / path, ignore=ignore)


def test_wrong_reference_raises_fail_ratio(tmp_path):
    copy_benchmark(tmp_path, with_source=True)
    path = tmp_path / "bench" / "references.json"
    refs = json.loads(path.read_text())
    refs["gaps"]["torus-1-5-r5"] += 1e-6
    path.write_text(json.dumps(refs))
    result = result_of(run("--workload", "spectral", "--trace", "0", cwd=tmp_path))
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_refuses_to_run_without_the_source(tmp_path):
    copy_benchmark(tmp_path, with_source=False)
    proc = run("--workload", "spectral", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
