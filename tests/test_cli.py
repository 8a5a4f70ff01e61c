import argparse
import csv
import hashlib
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from zrpgap import cli, graphs, spectral
from zrpgap.cli import main
from zrpgap.errors import SolverConvergenceError


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def test_exact_gap_example(tmp_path, capsys):
    code, out = run_cli(
        ["exact-gap", "--graph", "complete", "--n", "2", "--r", "2"],
        tmp_path, "gap",
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gap"] == pytest.approx(1.0, abs=1e-10)
    assert read_json(out / "exact_gap.json")["gap"] == payload["gap"]


def test_flow_csv_row(tmp_path):
    code, out = run_cli(["flow", "--d", "1", "--L", "4"], tmp_path, "flow")
    assert code == 0
    lines = (out / "flow.csv").read_text().splitlines()
    assert lines[0] == "d,L,congestion,length,bound_factor,headline_factor"
    assert lines[1] == "1,4,4/3,2,16/3,32"


def test_flow_csv_integer_fraction(tmp_path):
    # the bound factor 6 is an integer-valued Fraction: written without "/1"
    code, out = run_cli(["flow", "--d", "1", "--L", "5"], tmp_path, "flow")
    assert code == 0
    lines = (out / "flow.csv").read_text().splitlines()
    assert lines == ["d,L,congestion,length,bound_factor,headline_factor",
                     "1,5,3/2,2,6,50"]


def test_degenerate_torus_flagged(tmp_path, capsys):
    code, _ = run_cli(["exact-gap", "--d", "1", "--L", "2", "--r", "2"], tmp_path, "deg")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["degenerate_torus"] is True
    assert payload["gap"] == pytest.approx(1.0)


def test_manifest_digests_match_outputs(tmp_path):
    code, out = run_cli(["flow", "--d", "1", "--L", "3"], tmp_path, "digest")
    assert code == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["status"] == "ok"
    for name, digest in manifest["outputs"].items():
        data = (out / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


def test_reruns_are_byte_identical(tmp_path):
    args = ["couple", "--n", "3", "--r", "2", "--replicas", "1200",
            "--seed", "99", "--bootstrap", "50"]
    code1, out1 = run_cli(list(args), tmp_path, "c1")
    code2, out2 = run_cli(list(args), tmp_path, "c2")
    assert code1 == code2 == 0
    assert (out1 / "couple.csv").read_bytes() == (out2 / "couple.csv").read_bytes()
    assert (out1 / "couple.json").read_bytes() == (out2 / "couple.json").read_bytes()


def test_tv_curve_outputs(tmp_path):
    code, out = run_cli(
        ["tv-curve", "--graph", "complete", "--n", "2", "--r", "2",
         "--t-max", "10", "--points", "21", "--fit-window", "5", "10"],
        tmp_path, "tv",
    )
    assert code == 0
    payload = read_json(out / "tv_curve.json")
    assert payload["fitted_rate"] == pytest.approx(1.0, rel=0.01)
    lines = (out / "tv_curve.csv").read_text().splitlines()
    assert lines[0] == "time,tv"
    assert len(lines) == 22


def test_rho_resolution_echoed(tmp_path, capsys):
    code, _ = run_cli(
        ["exact-gap", "--d", "1", "--L", "4", "--rho", "1/3"], tmp_path, "rho"
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["r"] == 1
    assert payload["rho_requested"] == pytest.approx(1.0 / 3.0)
    assert payload["rho_actual"] == pytest.approx(0.25)


def test_config_error_exit_codes(tmp_path):
    # stochastic command without a seed
    code, _ = run_cli(["couple", "--n", "3", "--r", "2"], tmp_path, "e1")
    assert code == 1
    # both r and rho
    code, _ = run_cli(
        ["exact-gap", "--d", "1", "--L", "4", "--r", "1", "--rho", "1"],
        tmp_path, "e2",
    )
    assert code == 1
    # neither r nor rho
    code, _ = run_cli(["exact-gap", "--d", "1", "--L", "4"], tmp_path, "e3")
    assert code == 1


def test_capacity_exit_code(tmp_path):
    code, _ = run_cli(
        ["exact-gap", "--graph", "complete", "--n", "40", "--r", "40"],
        tmp_path, "cap",
    )
    assert code == 2


@pytest.mark.parametrize(
    "args, count",
    [
        ("exact-gap --graph complete --n 100000 --r 100000", "about 10^60203 configurations"),
        ("zeta-balance --n 20000 --j 20000", "about 10^12047 chain states"),
        ("certificate --d 1 --L 9000 --r 9000", "about 10^5416 configurations"),
    ],
)
def test_astronomical_space_exit_code(args, count, tmp_path, capsys):
    # counts of more than 4,300 digits, which str() refuses to convert
    code, out = run_cli(args.split(), tmp_path, "huge")
    assert code == 2
    assert capsys.readouterr().err.startswith(f"capacity error: {count} ")
    assert not out.exists()


def test_max_states_limits_exact_gap(tmp_path):
    code, _ = run_cli(
        ["exact-gap", "--graph", "complete", "--n", "3", "--r", "3", "--max-states", "5"],
        tmp_path, "limit",
    )
    assert code == 2


@pytest.mark.parametrize("rho", ["inf", "-inf", "nan", "1e400", "10" * 200 + "/1"])
def test_non_finite_density_is_a_config_error(rho, tmp_path, capsys):
    code, out = run_cli(["exact-gap", "--d", "1", "--L", "4", f"--rho={rho}"], tmp_path, "rho")
    assert code == 1
    assert "density must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_uniformization_budget_exit_code(tmp_path, capsys, monkeypatch):
    # the budget is checked at the exit rate min(r, n) before any assembly
    def no_assembly(*args, **kwargs):
        raise AssertionError("build_generator called")

    monkeypatch.setattr(cli, "build_generator", no_assembly)
    for graph in ("--graph complete --n 3 --r 2", "--d 3 --L 3 --r 5"):
        code, out = run_cli(
            ["tv-curve", *graph.split(), "--t-max", "1e300"], tmp_path, "budget"
        )
        assert code == 2
        assert "capacity error" in capsys.readouterr().err
        assert not out.exists()


def test_tv_curve_points_budget_exit_code(tmp_path, capsys, monkeypatch):
    # 10**9 times over 6 states: refused before assembly or any table
    def no_assembly(*args, **kwargs):
        raise AssertionError("build_generator called")

    monkeypatch.setattr(cli, "build_generator", no_assembly)
    started = time.perf_counter()
    code, out = run_cli(["tv-curve", "--graph", "complete", "--n", "3", "--r", "2",
                         "--points", "1000000000"], tmp_path, "points")
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert "capacity error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lam", ["1e7", "1e13"])
def test_skellam_truncation_budget_exit_code(lam, tmp_path, capsys):
    code, out = run_cli(["tails", "--kind", "skellam", "--lam", lam], tmp_path, "skellam")
    assert code == 2
    assert "capacity error" in capsys.readouterr().err
    assert not out.exists()


def test_allocation_failure_exit_code(tmp_path, capsys, monkeypatch):
    # 8e17 bytes of samples: more than any 64-bit address space maps
    args = ["wilson", "--d", "1", "--L", "4", "--r", "2", "--mode", "monte_carlo",
            "--seed", "1", "--samples", str(10**17)]
    code, out = run_cli(args, tmp_path, "alloc")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("capacity error: Unable to allocate") and "Traceback" not in err
    assert not out.exists()

    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "wilson_bound", no_memory)
    assert run_cli(args, tmp_path, "alloc")[0] == 2
    assert capsys.readouterr().err == "capacity error: MemoryError\n"


@pytest.mark.parametrize("command", ["flow", "certificate"])
def test_edge_load_limit_exit_code(command, tmp_path, capsys, monkeypatch):
    # Torus(4,20), 1,280,000 directed edges: refused before its BFS
    def no_bfs(*args):
        raise AssertionError("BFS run before the edge-load limit")

    monkeypatch.setattr(graphs, "bfs_distance_counts", no_bfs)
    code, out = run_cli([command, "--d", "4", "--L", "20"], tmp_path, "loads")
    assert code == 2
    assert "exceed the edge-load limit 500000" in capsys.readouterr().err
    assert not out.exists()


def test_flow_above_the_old_vertex_limit(tmp_path):
    # Torus(2,60): 3,600 vertices, 14,400 directed edges
    code, out = run_cli(["flow", "--d", "2", "--L", "60"], tmp_path, "flow")
    assert code == 0
    loads = read_json(out / "flow.json")["edge_loads"]
    assert loads["all_edges_equal"]
    assert loads["max_undirected_load"]["num"] == 60 * 900


def test_overflow_exit_code(tmp_path, capsys):
    code, out = run_cli(
        ["tails", "--kind", "skellam", "--lam", "1", "--m", str(10**20)],
        tmp_path, "overflow",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "Traceback" not in err
    assert not out.exists()


def test_walker_limit_exit_code(tmp_path, capsys):
    code, out = run_cli(
        ["tails", "--kind", "rw", "--r-values", "1", "--replicas", "100000000000",
         "--seed", "1"],
        tmp_path, "walkers",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("capacity error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("limit", ["-5", "0"])
def test_max_states_must_be_positive(limit, tmp_path, capsys):
    code, out = run_cli(
        ["exact-gap", "--d", "1", "--L", "4", "--r", "2", "--max-states", limit],
        tmp_path, "limit",
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "--max-states: must be a positive integer" in err
    assert "capacity error" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        "flow --d 1 --L 4",
        "couple --n 4 --r 4 --replicas 300 --seed 1 --bootstrap 0",
        "reversal-w --n 4 --j 1 --replicas 10 --seed 1",
        "drift --n 4 --j 1 --replicas 10 --seed 1",
        "occupancy --n 4 --r 4 --horizon 10 --seed 1",
        "tails --kind skellam --lam 1",
        "zeta-balance --n 4 --j 1",
    ],
)
def test_max_states_rejected_where_no_handler_reads_it(args, tmp_path):
    code, out = run_cli(args.split() + ["--max-states", "5"], tmp_path, "nolimit")
    assert code == 1
    assert not out.exists()


def test_every_flag_is_read():
    """Each subcommand's flags reach its handler, the graph and particle
    resolvers or ``main`` (help, --out and --config are handled by argparse
    and ``main``'s output path)."""
    parser = cli.build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    shared = "".join(
        inspect.getsource(f)
        for f in (cli._resolve_graph, cli._resolve_particles, cli.main)
    )
    unread = []
    for name, sub in subparsers.choices.items():
        source = inspect.getsource(sub.get_default("func")) + shared
        for action in sub._actions:
            dest = action.dest
            if dest in ("help", "out", "config"):
                continue
            pattern = rf"args\.{dest}\b|getattr\(args, \"{dest}\""
            if not re.search(pattern, source):
                unread.append(f"{name} {dest}")
    assert unread == []


def test_no_flag_takes_a_bare_float():
    # float() accepts inf and nan, which no computation here can use
    parser = cli.build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    bare = [
        f"{name} {action.option_strings[0]}"
        for name, sub in subparsers.choices.items()
        for action in sub._actions
        if action.type is float
    ]
    assert bare == []


def readme_commands():
    """The arguments of every ``zrpgap`` line of the README's shell blocks."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [
        shlex.split(line, comments=True)[1:]
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.splitlines()
        if line.startswith("zrpgap ")
    ]


def test_readme_commands_parse():
    """Every ``zrpgap`` line of the README's shell blocks parses (nothing
    runs), so an example that drifts from the flags fails here."""
    commands = readme_commands()
    assert commands
    parser = cli.build_parser()
    rejected = []
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            rejected.append(" ".join(argv))
    assert rejected == []


# sha256 of every data file the README's examples write with the README's
# own seeds (manifest.json is left out: it records timings)
README_OUTPUTS = {
    "exact-gap --graph complete --n 2 --r 2": {
        "exact_gap.json": "5332c51aa1f7c8c994b38ba48ddda6b28217229370439962e53996f2d0b3f437",
    },
    "exact-gap --d 1 --L 6 --rho 2": {
        "exact_gap.json": "4b1fbb7324abe2b4ab552e7cf0ffb75d8db44915a8ffa436c80b6e786509d3a6",
    },
    "tv-curve --graph complete --n 3 --r 2 --t-max 10 --fit-window 5 10": {
        "tv_curve.csv": "a4287ac3f74ffff387dd89d38470a099f973ff89635f5bf51b830c3f648d2594",
        "tv_curve.json": "a17cc21b4aeb24f50c9a2006ccac58659b1c9edbad88ad269dc26d4e76933d99",
    },
    "wilson --d 1 --L 5 --r 5": {
        "wilson.json": "b442e8668483894b087e3d56a1986991e9beaab0d8893b4a2a15d9ef57141bd9",
    },
    "flow --d 1 --L 4": {
        "flow.csv": "29448b49d43389d9fc0624aa244654cca664b9f970e225bbdd3808bfdd24b046",
        "flow.json": "f64897dab175459b9e03cb4843a19c35e4d90c80a9b9c1bf23d00997c8da18e2",
    },
    "certificate --d 1 --L 4 --r 2": {
        "certificate.json": "b62b1dc146fdda84cf290b4d54dcd5fa1327b317cf27a36c6bcaba474a0cd708",
    },
    "couple --n 4 --r 4 --replicas 3000 --seed 7": {
        "couple.csv": "32e50c18ca67c69f96966accc9c63c6f8277d5b10e7672a8e55ad361b6d415e6",
        "couple.json": "417265f44708e0dd4d073eac0ff8047a344afd3fff368192e755cdc081302869",
    },
    "zeta-balance --n 4 --j 1 --dump-chain": {
        "zeta_balance.json": "6efe4ef62cbdf71c551ed8c095f0af01b79aee270b579e823fdf51ddfa44df2e",
        "zeta_chain.json": "7f1360ec56efb8688adc6ebd49e666b80b3a2aad16cbdf0b8c7d33f899fe03ae",
    },
    "reversal-w --n 4 --j 1 --replicas 2000 --seed 7": {
        "reversal_w.csv": "9f3ab2dc90fbd1035feba7f4a231b5f239f37c1c7d9d831df6de4babca3d570b",
        "reversal_w.json": "52da04a9b4de39e62e640700d3c9af6fc23f552ebbfee60be6050f568e02929e",
    },
    "drift --n 4 --j 1 --replicas 10000 --seed 7": {
        "drift.json": "21d1354eca8bd27ac892fe1d41b43ea39ff4da0fdcc9e6f152ce17087838d637",
    },
    "occupancy --n 8 --r 8 --horizon 10000 --seed 7": {
        "occupancy.csv": "5c08947102b73edb1f722e9da890f827166e3e4294dad8cb68995bfd885d8567",
        "occupancy.json": "5e2e17b116aab91d827095c9aaa5714aaccb1e348bb188eb5d4bd3c0917e1c4e",
    },
    "tails --kind skellam --lam 1 --m 0,1,2": {
        "tails.csv": "06521e7accecc2d4b3aeae68531b234a5e08d224ebb6eef624ce6f448ba50f01",
        "tails.json": "c74ec7df9e83cdeb0f744ff36bcb63492dbae36ad408869c7730422866ca8d00",
    },
    "tails --kind rw --r-values 1,2,4,8 --replicas 100000 --seed 7": {
        "tails.csv": "e08817e4c2e96b320c922efe2e8798bca7a7114d96367ebe320279f56a4aee5f",
        "tails.json": "5db746d5000899da5103ba952ef6d38e8627731e4a349602bc776edc19e21078",
    },
    "sweep --task exact-gap --L-values 3,4,5,6 --rho-values 1/3,1,2": {
        "sweep.csv": "841722ccc72216f5f13379356746046c40a6a11cb7c34a9b6145cae7fd715a89",
        "sweep.json": "afb3b657eb36591586c75c8bcae8a9382e808e6791c0a804905a0bbaac7c5014",
    },
}


def test_readme_outputs_are_pinned(tmp_path, capsys):
    assert list(README_OUTPUTS) == [" ".join(argv) for argv in readme_commands()]
    changed = []
    for k, (command, pins) in enumerate(README_OUTPUTS.items()):
        code, out = run_cli(command.split(), tmp_path, f"cmd{k:02d}")
        assert code == 0, command
        written = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.iterdir()
            if path.name != "manifest.json"
        }
        if written != pins:
            changed.append(command)
    assert changed == []


def test_sweep_success_and_partial(tmp_path):
    code, out = run_cli(
        ["sweep", "--task", "exact-gap", "--L-values", "3,4",
         "--rho-values", "1/3,1"],
        tmp_path, "sweep",
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("d,L,r,rho_requested,rho_actual,gap")
    assert len(lines) == 5

    code, out = run_cli(
        ["sweep", "--task", "exact-gap", "--L-values", "3,40",
         "--rho-values", "2", "--max-states", "500"],
        tmp_path, "partial",
    )
    assert code == 3
    manifest = read_json(out / "manifest.json")
    assert manifest["status"] == "partial"
    # the capacity error's text holds commas ("n=40, r=80"): its cell is quoted
    with open(out / "sweep.csv", newline="") as handle:
        header, *rows = csv.reader(handle)
    assert len(header) == 9 and len(rows) == 2
    assert [len(row) for row in rows] == [9, 9]
    assert rows[1][-1].startswith("CapacityError: ") and "n=40, r=80" in rows[1][-1]


def test_sweep_wilson_rows(tmp_path):
    code, out = run_cli(
        ["sweep", "--task", "wilson", "--L-values", "3", "--rho-values", "1"],
        tmp_path, "wilson",
    )
    assert code == 0
    with open(out / "sweep.csv", newline="") as handle:
        (row,) = csv.DictReader(handle)
    assert (row["d"], row["L"], row["r"]) == ("1", "3", "3")
    assert row["relaxation_time"] == "" and row["error"] == ""
    quotient = float(row["gap"])
    assert float(row["normalized"]) == pytest.approx(quotient * 4 * 9)


def test_exact_gap_reruns_are_byte_identical(tmp_path):
    args = ["exact-gap", "--d", "1", "--L", "6", "--rho", "2"]
    code1, out1 = run_cli(list(args), tmp_path, "g1")
    code2, out2 = run_cli(list(args), tmp_path, "g2")
    assert code1 == code2 == 0
    assert read_json(out1 / "exact_gap.json")["method"] == "iterative"
    assert (out1 / "exact_gap.json").read_bytes() == (out2 / "exact_gap.json").read_bytes()


def test_solver_failure_exit_code(tmp_path, monkeypatch, capsys):
    def fail(gen, method="auto"):
        raise SolverConvergenceError("no convergence")

    monkeypatch.setattr(cli, "exact_gap", fail)
    code, _ = run_cli(["exact-gap", "--d", "1", "--L", "4", "--r", "2"], tmp_path, "s1")
    assert code == 4
    assert "solver error" in capsys.readouterr().err

    code, out = run_cli(
        ["sweep", "--task", "exact-gap", "--L-values", "3", "--rho-values", "1"],
        tmp_path, "s2",
    )
    assert code == 3
    lines = (out / "sweep.csv").read_text().splitlines()
    assert "SolverConvergenceError" in lines[1]


def test_solver_matvec_cap_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(spectral, "LANCZOS_MAX_MATVECS", 100)
    code, _ = run_cli(["exact-gap", "--graph", "complete", "--n", "2", "--r", "300"],
                      tmp_path, "cap")
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("solver error") and "matrix-vector products" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_sweep_empty_grid(tmp_path):
    code, out = run_cli(
        ["sweep", "--task", "exact-gap", "--L-values", "", "--rho-values", "1"],
        tmp_path, "empty",
    )
    assert code == 0
    assert (out / "sweep.csv").read_text().splitlines()[0].startswith("d,L,r")


def test_wilson_both_variants(tmp_path, capsys):
    code, _ = run_cli(
        ["wilson", "--d", "1", "--L", "4", "--r", "1"], tmp_path, "w"
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["bounds"]) == {"half_wave", "full_wave"}
    assert payload["bounds"]["full_wave"]["gap_upper_bound"] == pytest.approx(1.0)


def test_zeta_balance_subcommand(tmp_path, capsys):
    code, out = run_cli(
        ["zeta-balance", "--n", "3", "--j", "1", "--dump-chain"], tmp_path, "zb"
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["balanced_exactly"] is True
    assert payload["states"] == 19
    chain = read_json(out / "zeta_chain.json")
    assert len(chain["states"]) == 19


def test_zeta_balance_chain_limit(tmp_path, capsys):
    # (25, 2): 195,001 tagged states, above the fixed 20,000-state limit
    code, out = run_cli(["zeta-balance", "--n", "25", "--j", "2"], tmp_path, "zb")
    assert code == 2
    assert "capacity error" in capsys.readouterr().err
    assert not out.exists()


def test_zeta_chain_dump_is_pinned(tmp_path):
    # the README's zeta-balance example; the digest pins every state, weight
    # and rate of the dumped chain, and the order they are written in
    code, out = run_cli(
        ["zeta-balance", "--n", "4", "--j", "1", "--dump-chain"], tmp_path, "zb"
    )
    assert code == 0
    data = (out / "zeta_chain.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "7f1360ec56efb8688adc6ebd49e666b80b3a2aad16cbdf0b8c7d33f899fe03ae"
    )


def test_certificate_with_exact_tau2(tmp_path, capsys):
    code, _ = run_cli(
        ["certificate", "--d", "1", "--L", "4", "--r", "1"], tmp_path, "cert"
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tau2"] == pytest.approx(0.75)
    assert payload["tau1_bound"] == pytest.approx(4.0)


def test_occupancy_subcommand(tmp_path, capsys):
    code, out = run_cli(
        ["occupancy", "--n", "3", "--r", "3", "--horizon", "200",
         "--seed", "4"],
        tmp_path, "occ",
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stationary_empty_probability"]["decimal"] == pytest.approx(0.4)
    assert (out / "occupancy.csv").read_text().startswith("vertex,empty_time")


def test_tails_subcommands(tmp_path, capsys):
    code, _ = run_cli(
        ["tails", "--kind", "skellam", "--lam", "1", "--m", "0,1"], tmp_path, "t1"
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tails"][0]["probability"] == pytest.approx(0.65425416, abs=1e-6)

    code, _ = run_cli(["tails", "--kind", "poisson", "--lam", "50"], tmp_path, "t2")
    assert code == 0
    capsys.readouterr()

    code, _ = run_cli(
        ["tails", "--kind", "rw", "--r-values", "1", "--replicas", "20000",
         "--seed", "3"],
        tmp_path, "t3",
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"][0]["estimate"]["value"] == pytest.approx(0.6915, abs=0.02)

    code, _ = run_cli(["tails", "--kind", "rw", "--r-values", "1"], tmp_path, "t4")
    assert code == 1  # stochastic without seed


def test_reversal_and_drift_subcommands(tmp_path, capsys):
    code, _ = run_cli(
        ["reversal-w", "--n", "3", "--j", "1", "--replicas", "300",
         "--seed", "5", "--c-param", "0.3"],
        tmp_path, "rw",
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["censored"] == 0
    assert payload["hit_fraction"] == 1.0

    code, _ = run_cli(
        ["drift", "--n", "3", "--j", "1", "--replicas", "500", "--seed", "6",
         "--c-param", "0.3", "--t-ref", "3.0"],
        tmp_path, "dr",
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["nonnegative_within_2se"] is True


def test_reversal_w_tail_fit(tmp_path, capsys):
    # 1,179 of the 1,500 runs hit after time 0: enough for the tail fit
    code, out = run_cli(
        ["reversal-w", "--n", "3", "--j", "1", "--replicas", "1500", "--seed", "5",
         "--c-param", "0.3", "--bootstrap", "20"],
        tmp_path, "fit",
    )
    assert code == 0
    fit = json.loads(capsys.readouterr().out)["tail_fit"]
    assert fit["n_uncensored"] == 1179
    assert fit["gamma_ci95"][0] < fit["gamma"] < fit["gamma_ci95"][1]
    with open(out / "reversal_w.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 1500
    assert sum(float(row["W"]) > 0 for row in rows) == 1179


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": "complete", "n": 3, "r": 1}))
    code, _ = run_cli(
        ["exact-gap", "--config", str(cfg)], tmp_path, "cfg_out"
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gap"] == pytest.approx(1.5)

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unknown_key": 1}))
    code, _ = run_cli(["exact-gap", "--config", str(bad)], tmp_path, "bad_out")
    assert code == 1


def test_config_file_must_be_a_readable_json_object(tmp_path, capsys):
    listed = tmp_path / "list.json"
    listed.write_text(json.dumps([1]))
    for path, message in ((tmp_path / "missing.json", "cannot read config file"),
                          (listed, "config file must hold a JSON object")):
        code, out = run_cli(["exact-gap", "--config", str(path)], tmp_path, "cfg")
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_config_values_go_through_flag_types(tmp_path, capsys):
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps({"L": "5", "rho": 1}))
    code, _ = run_cli(["exact-gap", "--config", str(cfg)], tmp_path, "typed")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["r"] == 5 and payload["dimension"] == 126

    for value in ("five", 5.5, True):
        bad = tmp_path / "bad_value.json"
        bad.write_text(json.dumps({"L": value, "rho": 1}))
        code, _ = run_cli(["exact-gap", "--config", str(bad)], tmp_path, "bad_value")
        assert code == 1
        err = capsys.readouterr().err
        assert "--L" in err and "Traceback" not in err


def test_config_supplies_required_flag(tmp_path):
    cfg = tmp_path / "flow.json"
    cfg.write_text(json.dumps({"L": 4}))
    code, out = run_cli(["flow", "--config", str(cfg)], tmp_path, "from_config")
    assert code == 0
    assert (out / "flow.csv").read_text().splitlines()[1] == "1,4,4/3,2,16/3,32"

    code, out = run_cli(["flow", "--config", str(cfg), "--L", "3"], tmp_path, "flag_wins")
    assert code == 0
    assert (out / "flow.csv").read_text().splitlines()[1].startswith("1,3,")


def test_config_lists_and_switches(tmp_path, capsys):
    # a list joins with commas, or spreads over an nargs flag; a switch set
    # to true is passed and one set to false is left out
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"L_values": [3, 4], "rho_values": ["1/3"]}))
    code, out = run_cli(["sweep", "--config", str(cfg)], tmp_path, "sweep")
    assert code == 0
    assert json.loads(capsys.readouterr().out)["points"] == 2
    assert read_json(out / "manifest.json")["config"]["L_values"] == [3, 4]

    cfg = tmp_path / "tv.json"
    cfg.write_text(json.dumps({"graph": "complete", "n": 3, "r": 2,
                               "fit_window": [5, 10]}))
    code, _ = run_cli(["tv-curve", "--config", str(cfg)], tmp_path, "tv")
    assert code == 0
    assert json.loads(capsys.readouterr().out)["fit_window"] == [5.0, 10.0]

    for switch, written in ((True, True), (False, False)):
        cfg = tmp_path / "zb.json"
        cfg.write_text(json.dumps({"n": 3, "j": 1, "dump_chain": switch}))
        code, out = run_cli(["zeta-balance", "--config", str(cfg)], tmp_path, f"zb{switch}")
        assert code == 0
        assert (out / "zeta_chain.json").exists() is written


def test_default_outdir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ZRPGAP_OUT", str(tmp_path / "envdir"))
    monkeypatch.chdir(tmp_path)
    code = main(["flow", "--d", "1", "--L", "3"])
    assert code == 0
    assert (tmp_path / "envdir" / "flow.csv").exists()


@pytest.mark.parametrize(
    "args",
    [
        "tv-curve --graph complete --n 3 --r 2 --points 1",
        "reversal-w --n 4 --j 1 --replicas 0 --seed 1 --c-param 0.3",
        "reversal-w --n 4 --j 1 --replicas 10 --seed 1 --c-param 0",
        "drift --n 4 --j 1 --replicas 0 --seed 1 --c-param 0.3",
        "drift --n 4 --j 1 --replicas 1 --seed 1 --c-param 0.3",
        "drift --n 4 --j 1 --replicas 10 --seed 1 --c-param 0.3 --t-ref 0",
        "couple --n 4 --r 4 --replicas 0 --seed 1",
        "exact-gap --d 0 --L 4 --r 2",
        "flow --d 0 --L 4",
        "exact-gap --d 1 --L 4 --rho 1/0",
        "sweep --L-values 3 --rho-values 1/0",
        "wilson --d 1 --L 4 --r 2 --mode monte_carlo --seed 1 --samples 1",
        "sweep --task wilson --L-values 3 --rho-values 1 --variant both",
        "tv-curve --graph complete --n 3 --rho inf",
        "wilson --d 1 --L 4 --rho inf",
        "sweep --L-values 3 --rho-values inf",
        "sweep --L-values 3 --rho-values 1,nan",
        "tv-curve --graph complete --n 3 --r 2 --t-max inf",
        "tv-curve --graph complete --n 3 --r 2 --t-max nan",
        "tails --kind skellam --lam inf",
        "tails --kind skellam --lam nan",
        "tails --kind poisson --lam inf",
        "occupancy --n 4 --r 4 --seed 1 --horizon inf",
        "occupancy --n 4 --r 4 --seed 1 --horizon nan",
        "occupancy --n 4 --r 4 --seed 1 --horizon 10 --m-param nan",
        "drift --n 4 --j 1 --replicas 10 --seed 1 --t-ref nan",
        "drift --n 4 --j 1 --replicas 10 --seed 1 --c-param nan",
        "reversal-w --n 4 --j 1 --replicas 10 --seed 1 --horizon -5",
        "certificate --d 1 --L 4 --tau2 -3",
        "certificate --d 1 --L 3 --r 2 --tau2 1",
        "occupancy --n 4 --r 4 --seed 1 --horizon 10 --m-param -1",
        "exact-gap --graph complete --r 2",
        "exact-gap --r 2",
        "exact-gap --d 1 --L 4 --r -1",
        "tv-curve --graph complete --n 3 --r 2 --t-max -1",
        "wilson --graph complete --n 4 --r 2",
    ],
)
def test_bad_values_exit_1_without_traceback(args, tmp_path, capsys):
    code, out = run_cli(args.split(), tmp_path, "bad")
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err and "math domain error" not in err
    assert not out.exists()


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats alone costs more start-up than the rest of the package
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import zrpgap.cli, sys; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_python_m_runs_a_command(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "flow"
    proc = subprocess.run(
        [sys.executable, "-m", "zrpgap.cli", "flow", "--d", "1", "--L", "4", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert {"flow.json", "flow.csv", "manifest.json"} <= {p.name for p in out.iterdir()}
    proc = subprocess.run(
        [sys.executable, "-m", "zrpgap.cli", "flow", "--d", "0", "--L", "4",
         "--out", str(tmp_path / "bad")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


# Loaded on first use only.  These tests run in a fresh interpreter:
# tests/test_stats.py imports scipy.stats, and with it all four, at collection.
SCIPY_SUBPACKAGES = ("scipy.sparse", "scipy.sparse.linalg", "scipy.special", "scipy.linalg")


def fresh_interpreter(code, *args, **env):
    """Run ``code`` with arguments ``args`` in a new interpreter; its last
    stdout line is JSON.  Keyword arguments set environment variables, and
    None removes one."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, **env}
    env = {name: value for name, value in env.items() if value is not None}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_leaves_scipy_subpackages_out():
    loaded = fresh_interpreter(
        "import json, sys, zrpgap.cli\n"
        f"print(json.dumps([m for m in {SCIPY_SUBPACKAGES!r} if m in sys.modules]))"
    )
    assert loaded == []


# the subpackages each CLI run loads; the iterative gap solve is the only
# user of scipy.linalg, and nothing loads scipy.sparse.linalg
SCIPY_LOADS = {
    "exact-gap --d 1 --L 6 --rho 2": ["scipy.sparse", "scipy.linalg"],
    "tv-curve --graph complete --n 3 --r 2": ["scipy.sparse", "scipy.special"],
    "tails --kind skellam": ["scipy.special"],
    "flow --d 1 --L 4": [],
    "zeta-balance --n 4 --j 1": [],
    "wilson --d 1 --L 5 --r 5": [],
}


@pytest.mark.parametrize("args", list(SCIPY_LOADS))
def test_scipy_subpackages_load_where_used(args, tmp_path):
    argv = args.split() + ["--out", str(tmp_path / "out")]
    code, loaded = fresh_interpreter(
        "import json, sys\n"
        "from zrpgap.cli import main\n"
        f"code = main({argv!r})\n"
        f"print(json.dumps([code, [m for m in {SCIPY_SUBPACKAGES!r} if m in sys.modules]]))"
    )
    assert code == 0
    assert loaded == SCIPY_LOADS[args]


# Runs the README's commands given as JSON in argv[1], writing under
# argv[2], and the Torus(1,7) r=7 transient law at 41 times; prints the
# digests of their data files and of the law's bytes
THREAD_CHECK = """
import hashlib, json, sys
from pathlib import Path
import numpy as np
from zrpgap import coupling, graphs, spectral
from zrpgap.cli import main

def sha(data):
    return hashlib.sha256(data).hexdigest()

digests = {}
for k, command in enumerate(json.loads(sys.argv[1])):
    out = Path(sys.argv[2]) / f"cmd{k}"
    assert main(command.split() + ["--out", str(out)]) == 0, command
    digests[command] = {path.name: sha(path.read_bytes())
                        for path in out.iterdir() if path.name != "manifest.json"}
gen = spectral.build_generator(graphs.Torus(1, 7), 7)
law = spectral.transient_distribution(gen, coupling.point_mass(7, 7), np.linspace(0.0, 80.0, 41))
print(json.dumps([digests, sha(law.tobytes())]))
"""


def test_pinned_outputs_do_not_depend_on_blas_threads(tmp_path):
    # the README's float outputs and the tv_curve law of the spectral
    # workload read the same bytes under one BLAS thread and the default
    commands = [command for command in README_OUTPUTS
                if command.startswith(("tv-curve", "sweep", "wilson"))]
    laws = []
    for threads in ("1", None):
        digests, law = fresh_interpreter(
            THREAD_CHECK, json.dumps(commands), str(tmp_path / str(threads)),
            OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
        )
        assert digests == {command: README_OUTPUTS[command] for command in commands}
        laws.append(law)
    assert laws[0] == laws[1]
