"""End-to-end tests for the command line: flags, files, exit codes."""

import copy
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcn_energy
from gcn_energy.cli import SWEEP_CSV_HEADER, build_parser, entry, main


def run_json(tmp_path, name="run.json", **overrides):
    doc = {"graph": "gen:path:3", "layers": 5, "channels": 4,
           "filter": [1.0, -1.0], "weights": {"target_singular": 0.9},
           "activation": "relu", "seed": 0}
    doc.update(overrides)
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def sweep_json(tmp_path, name="sweep.json", **overrides):
    doc = {"graph": "gen:ring:12", "drop_ratios": [0.5], "boost_counts": [1],
           "boost_factor": 100.0, "trials": 2, "base_seed": 3,
           "probe": {"kind": "fixed-field", "channels": 3, "seed": 1}}
    doc.update(overrides)
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def data_lines(text):
    return [l for l in text.splitlines() if l and not l.startswith("#")]


# ---------------------------------------------------------------------------
# parser plumbing


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--graph", "gen:ring:4", "--frobnicate"])
    assert exc.value.code == 2


def test_parser_lists_all_subcommands():
    text = build_parser().format_help()
    for name in ("spectrum", "energy", "run", "verify", "sweep"):
        assert name in text


def test_entry_exits_with_main_status(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["gcn-energy", "spectrum", "--graph", "gen:ring:4"])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_ring4_file_output(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--graph", "gen:ring:4", "--out", str(out)]) == 0
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == f"# gcn-energy {gcn_energy.__version__}"
    assert lines[1].startswith("# config-sha256: ")
    assert lines[2] == "# seed: -"
    assert lines[3] == "index,eigenvalue"
    values = [float(l.split(",")[1]) for l in data_lines(text)[1:]]
    assert values == pytest.approx([0.0, 2 / 3, 2 / 3, 4 / 3], abs=1e-12)
    assert lines[-1].startswith("# lambda_min_nonzero=")
    stdout = capsys.readouterr().out
    assert "graph: gen:ring:4 n=4 edges=4" in stdout
    assert "kernel_dim=1" in stdout


def test_spectrum_complete3_factors_are_zero(capsys):
    assert main(["spectrum", "--graph", "gen:complete:3"]) == 0
    stdout = capsys.readouterr().out
    # all nonzero eigenvalues sit at 1, so the contraction factors vanish
    # (the safe one only up to the squared rounding error of eigh)
    assert "lambda_min_nonzero=1 lambda_bar_paper=0 " in stdout
    safe = float(stdout.rsplit("lambda_bar_safe=", 1)[1].split()[0])
    assert safe <= 1e-30


def test_spectrum_stdout_when_no_out_flag(capsys):
    assert main(["spectrum", "--graph", "gen:path:3"]) == 0
    stdout = capsys.readouterr().out
    assert "index,eigenvalue" in stdout
    assert "# lambda_min_nonzero=0.5" in stdout
    assert "graph: gen:path:3 n=3 edges=2" in stdout


def test_spectrum_missing_graph_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "gone.txt")
    assert main(["spectrum", "--graph", missing]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "gone.txt" in err


def test_spectrum_has_no_kernel_tolerance_flag(capsys):
    # the component count is the one kernel rule; argparse rejects the old override
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--graph", "gen:ring:4", "--zero-tol", "1e-8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --zero-tol" in capsys.readouterr().err


def boosted_path40_edges(tmp_path):
    """Edge list of one component whose three boosted edges push two eigenvalues below 1e-8."""
    g = gcn_energy.perturb(gcn_energy.generate("path", 40),
                           gcn_energy.PerturbationPlan.boost(3, 1e8, seed=0))
    path = tmp_path / "boosted.txt"
    path.write_text("".join(f"{u} {v} {w!r}\n" for u, v, w in g.edges))
    return str(path)


def test_spectrum_kernel_is_the_component_count(tmp_path, capsys):
    assert main(["spectrum", "--graph", boosted_path40_edges(tmp_path)]) == 0
    stdout = capsys.readouterr().out
    assert "kernel_dim=1" in stdout
    assert "lambda_min_nonzero=9.809" in stdout and "e-10 " in stdout
    assert "warning" not in stdout


@pytest.mark.parametrize("graph", ["gen:er:1000000:0.5", "0 999999\n", "0 99999999999999999999\n"],
                         ids=["gen:er:1000000:0.5", "edges.txt", "edges-past-int64.txt"])
def test_spectrum_oversized_graph_exits_2(tmp_path, capsys, graph):
    # rejected before any n x n array or random draw: the unguarded case needs 8 TB;
    # an edge list's node count is checked before its ids become int64 arrays
    if not graph.startswith("gen:"):
        (tmp_path / "edges.txt").write_text(graph)
        graph = str(tmp_path / "edges.txt")
    assert main(["spectrum", "--graph", graph]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nodes, above the limit of 10000" in err


def test_spectrum_degree_overflow_exits_3(tmp_path, capsys):
    # each weight is finite, but node 1's degree overflows to inf
    path = tmp_path / "huge.txt"
    path.write_text("0 1 1e308\n1 2 1e308\n")
    assert main(["spectrum", "--graph", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numeric error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_spectrum_gen_er_seed_past_2_64_exits_2(capsys):
    # numpy would seed from the whole integer, but every other seed stops at 2**64
    assert main(["spectrum", "--graph", f"gen:er:10:0.5:{2**64}"]) == 2
    assert capsys.readouterr().err == (
        f"error: the seed of generator spec 'gen:er:10:0.5:{2**64}' is {2**64}, "
        "outside the seed range [0, 2**64)\n")
    assert main(["spectrum", "--graph", f"gen:er:10:0.5:{2**64 - 1}"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["spectrum", "run", "run-graph", "sweep", "sweep-graph"])
def test_non_utf8_file_exits_2_naming_it(tmp_path, capsys, command):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"0 1\n1 2 \xff\n")
    if command == "spectrum":
        argv, what = ["spectrum", "--graph", str(bad)], "graph"
    elif command.endswith("-graph"):  # a config that names a non-UTF-8 edge list
        cfg = (run_json if command == "run-graph" else sweep_json)(tmp_path, graph=str(bad))
        argv, what = [command.split("-")[0], "--config", cfg], "graph"
    else:
        argv, what = [command, "--config", str(bad)], "config"
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {what} file {bad}: byte 8 is not UTF-8\n"
    assert captured.out == ""


# ---------------------------------------------------------------------------
# energy


def test_energy_file_output_and_dual_forms_agree(tmp_path, capsys):
    out = tmp_path / "e.csv"
    assert main(["energy", "--graph", "gen:ring:8", "--channels", "3",
                 "--seed", "11", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith(f"# gcn-energy {gcn_energy.__version__}\n")
    header, row = data_lines(text)
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["n"] == "8" and cols["channels"] == "3" and cols["seed"] == "11"
    assert float(cols["energy_trace"]) == pytest.approx(
        float(cols["energy_edge_sum"]), rel=1e-10)
    assert "dirichlet energy of a seeded Gaussian probe" in capsys.readouterr().out


def test_energy_same_seed_identical_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["energy", "--graph", "gen:er:20:0.3:5", "--seed", "2",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "flags, fragment",
    [
        (["--channels", "-1"], "--channels"),
        (["--channels", "0"], "--channels"),
        (["--seed", "-1"], "--seed"),
        (["--graph", "gen:er:5:0.5:-1"], "gen:er:5:0.5:-1"),
        (["--channels", "4097"], "--channels is 4097, above the limit of 4096 channels"),
    ],
)
def test_energy_bad_flags_exit_2(capsys, flags, fragment):
    argv = ["energy", "--graph", "gen:ring:8"] + flags  # a repeated flag takes the last value
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# run


def test_run_trajectory_file_and_stdout(tmp_path, capsys):
    cfg = run_json(tmp_path)
    out = tmp_path / "traj.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text()
    lines = data_lines(text)
    assert lines[0] == "layer,energy,rayleigh,bound_paper,bound_safe,channels"
    assert len(lines) == 1 + 6  # header plus layers 0..5
    assert lines[1].startswith("0,")
    assert "nan" in lines[1]  # no bound applies before the first layer
    stdout = capsys.readouterr().out
    assert f"run: {cfg} layers=5 placement=paper" in stdout
    assert "contractive: s^2*lambda_bar_safe" in stdout
    assert "energy: E(X_0)=" in stdout


def test_run_energies_in_file_decrease_for_contractive_setup(tmp_path, capsys):
    cfg = run_json(tmp_path, layers=8, weights={"target_singular": 0.5})
    out = tmp_path / "traj.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    energies = [float(l.split(",")[1]) for l in data_lines(out.read_text())[1:]]
    assert energies[-1] <= energies[0]


def test_run_records_stay_within_their_safe_bound_at_gain_10(tmp_path, capsys):
    # identity layers of gain 10 on the 8-cycle: E_l / E_{l-1} reaches about 0.7
    # of s^2 * lambda_bar_safe, and up to 7 times s * lambda_bar_safe
    cfg = run_json(tmp_path, graph="gen:ring:8", layers=20, activation="identity",
                   weights={"target_singular": 10.0})
    out = tmp_path / "traj.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    rows = [[float(c) for c in l.split(",")] for l in data_lines(out.read_text())[1:]]
    for before, after in zip(rows, rows[1:]):
        assert after[1] <= after[4] * before[1] * (1.0 + 1e-9), after
    assert "contractive: s^2*lambda_bar_safe = " in capsys.readouterr().out


@pytest.mark.parametrize("overrides,layer", [
    (dict(graph="gen:ring:8", layers=400, activation="identity",
          weights={"target_singular": 10.0}), 207),
    (dict(graph="gen:ring:6", layers=40, weights={"target_singular": 1e100}), 2),
], ids=["ring8-identity-gain10", "ring6-relu-gain1e100"])
def test_run_that_overflows_exits_3_naming_the_layer(tmp_path, capsys, overrides, layer):
    # the energy or squared norm of a layer's embedding leaves the float range:
    # numerical trouble, not inf rows and not an input error
    cfg = run_json(tmp_path, **overrides)
    out = tmp_path / "traj.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("numeric error: ") == 1 and "Traceback" not in err
    assert f"numeric error: the run overflows at layer {layer}: " in err
    assert not out.exists()


def test_run_zero_layers_exits_2(tmp_path, capsys):
    cfg = run_json(tmp_path, layers=0)
    assert main(["run", "--config", cfg]) == 2
    assert "at least one layer" in capsys.readouterr().err


def test_run_bad_json_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["run", "--config", str(p)]) == 2
    assert "error: " in capsys.readouterr().err


def test_run_prop71_accepts_monotone_filter(tmp_path, capsys):
    cfg = run_json(tmp_path, layers=6, weights={"target_singular": 1.0}, epsilon=0.5)
    assert main(["run", "--config", cfg, "--mode", "prop71"]) == 0
    stdout = capsys.readouterr().out
    assert "prop71 verdict: preconditions ok (eps=0.5); decay bound holds" in stdout


def test_run_prop71_rejects_increasing_filter_with_witness(tmp_path, capsys):
    cfg = run_json(tmp_path, filter=[0.0, 1.0])
    assert main(["run", "--config", cfg, "--mode", "prop71"]) == 0
    stdout = capsys.readouterr().out
    assert "prop71 verdict: preconditions FAILED" in stdout
    assert "monotone" in stdout and "witness x=" in stdout


@pytest.mark.parametrize("doc,verdict", [
    ({"graph": "gen:ring:8", "layers": 1100, "channels": 2, "epsilon": 0.5,
      "weights": {"target_singular": 0.5}, "seed": 0}, "holds"),
    ({"graph": "gen:ring:8", "layers": 2000, "channels": 2, "epsilon": 0.9,
      "weights": {"target_singular": 0.05}, "seed": 0}, "holds"),
])
def test_run_prop71_decay_past_the_float_range(tmp_path, capsys, doc, verdict):
    # (1 - eps)^l underflows to 0 long before the last layer
    cfg = tmp_path / "deep.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfg), "--mode", "prop71",
                 "--out", str(tmp_path / "deep.csv")]) == 0
    stdout = capsys.readouterr().out
    assert "preconditions ok" in stdout and f"decay bound {verdict}\n" in stdout


def test_run_prop71_sigmoid_on_an_irregular_graph_fails_the_activation_precondition(
        tmp_path, capsys):
    # sigmoid keeps the energy of the path away from zero, so its run does not
    # decay; the proposition does not apply, and the verdict says so
    cfg = tmp_path / "deep.json"
    cfg.write_text(json.dumps({"graph": "gen:path:5", "layers": 1100, "channels": 2,
                               "epsilon": 0.5, "activation": "sigmoid",
                               "weights": {"target_singular": 0.5}, "seed": 0}))
    out = tmp_path / "deep.csv"
    assert main(["run", "--config", str(cfg), "--mode", "prop71", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "prop71 verdict: preconditions FAILED: layer 1: activation sigmoid" in stdout
    assert len(out.read_text().splitlines()) == 3 + 1 + 1101


def test_run_prop71_numbers_its_layers_from_1_as_the_trajectory_does(tmp_path, capsys):
    # layer 3 is the first whose safe bound reaches 1 - eps; the CSV row is 3 as well
    cfg = tmp_path / "p71.json"
    cfg.write_text(json.dumps({"graph": "gen:path:3", "layers": 3, "channels": 4,
                               "weights": {"target_singular": [0.5, 0.5, 3.2]},
                               "activation": "relu", "seed": 0}))
    out = tmp_path / "p71.csv"
    assert main(["run", "--config", str(cfg), "--mode", "prop71", "--out", str(out)]) == 0
    assert ("prop71 verdict: preconditions FAILED: layer 3: s^2 * P(lambda_i)^2 reaches 2.56"
            in capsys.readouterr().out)
    rows = data_lines(out.read_text())
    assert rows[4].startswith("3,") and float(rows[4].split(",")[4]) >= 0.5
    assert all(float(row.split(",")[4]) < 0.5 for row in rows[2:4])


def test_run_prop71_runs_each_layer_once(tmp_path, monkeypatch, capsys):
    # the verdict reads the trajectory the run has written; every module
    # global bound to layer_forward is wrapped, as the benchmark's tracer does
    original = gcn_energy.network.layer_forward
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("gcn_energy") and getattr(module, "layer_forward", None) is original:
            monkeypatch.setattr(module, "layer_forward", counted)
    cfg = run_json(tmp_path, layers=5, weights={"target_singular": 1.0})
    assert main(["run", "--config", cfg, "--mode", "prop71"]) == 0
    assert "decay bound holds" in capsys.readouterr().out
    assert len(calls) == 5


def outputs_at_thread_counts(tmp_path, command, doc):
    """Output bytes of ``command`` on ``doc``, run twice at 1 and twice at 2 BLAS threads."""
    cfg = tmp_path / f"{command}.json"
    cfg.write_text(json.dumps(doc))
    src = str(Path(gcn_energy.__file__).resolve().parents[1])
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for rep in range(2):
            out = tmp_path / f"{command}_{threads}_{rep}.csv"
            subprocess.run([sys.executable, "-m", "gcn_energy.cli", command, "--config", str(cfg),
                            "--out", str(out)], env=env, check=True, capture_output=True,
                           timeout=120)
            outputs[threads, rep] = out.read_bytes()
    for threads in ("1", "2"):
        assert outputs[threads, 0] == outputs[threads, 1], threads
    return {threads: data_lines(outputs[threads, 0].decode()) for threads in ("1", "2")}


# below and above the size at which the extremes come from Lanczos instead of eigvalsh
THREAD_TEST_GRAPHS = ("gen:er:600:0.02:3", "gen:er:800:0.02:3")


def test_run_bytes_repeat_at_a_fixed_blas_thread_count(tmp_path):
    # byte identity holds at a fixed thread count; across counts the forward
    # products may differ in the last digits, but the input row, taken in the
    # elementwise edge-sum form, may not
    for i, graph in enumerate(THREAD_TEST_GRAPHS):
        (tmp_path / str(i)).mkdir()
        rows = outputs_at_thread_counts(
            tmp_path / str(i), "run", {"graph": graph, "layers": 30, "channels": 16})
        assert len(rows["1"]) == 32 and rows["1"][1].startswith("0,")
        assert rows["1"][1] == rows["2"][1]


def test_sweep_energies_do_not_depend_on_the_blas_thread_count(tmp_path):
    # eigenvalues may differ across thread counts in the last digits; the
    # energy columns, taken in the edge-sum form, may not
    def energies(lines):
        return [line.split(",")[-2:] for line in lines[1:]]

    for i, graph in enumerate(THREAD_TEST_GRAPHS):
        (tmp_path / str(i)).mkdir()
        rows = outputs_at_thread_counts(
            tmp_path / str(i), "sweep", {"graph": graph, "drop_ratios": [0.1, 0.5],
                                         "boost_counts": [5], "trials": 2,
                                         "probe": {"channels": 16}})
        header = rows["1"][0].split(",")
        assert header[-2:] == ["energy_before", "energy_after"] and len(rows["1"]) == 1 + 6
        assert energies(rows["1"]) == energies(rows["2"])


# ---------------------------------------------------------------------------
# verify


def test_verify_single_suite_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "v"
    assert main(["verify", "--suite", "l32", "--trials", "10",
                 "--seed", "4", "--out", str(out)]) == 0
    csv_text = (out / "l32.csv").read_text()
    rows = data_lines(csv_text)
    assert rows[0].startswith("statement,context,lhs,rhs_paper,rhs_safe,margin")
    assert len(rows) == 1 + 10
    assert all(r.startswith("L3.2,") for r in rows[1:])
    summary = (out / "summary.txt").read_text()
    assert "suite: l32" in summary
    assert "trials: 10" in summary
    assert "seed: 4" in summary
    assert capsys.readouterr().out.startswith(f"# gcn-energy {gcn_energy.__version__}")


def test_verify_all_writes_seven_suites(tmp_path, capsys):
    out = tmp_path / "all"
    assert main(["verify", "--suite", "all", "--trials", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(
        ["l31.csv", "l32.csv", "l33.csv", "t34.csv", "c35.csv",
         "l72.csv", "p71.csv", "summary.txt"])


def test_verify_repeat_runs_are_byte_identical(tmp_path, capsys):
    dirs = (tmp_path / "r1", tmp_path / "r2")
    for d in dirs:
        assert main(["verify", "--suite", "l72", "--trials", "8",
                     "--seed", "7", "--out", str(d)]) == 0
    capsys.readouterr()
    for name in ("l72.csv", "summary.txt"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_verify_trials_above_limit_exits_2(tmp_path, capsys):
    out = tmp_path / "v"
    assert main(["verify", "--trials", "100001", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --trials is 100001, above the limit of 100000 trials")
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_verify_seed_outside_64_bits_exits_2(tmp_path, capsys, seed):
    # derive_seed reads the base modulo 2**64, so these would alias 2**64 - 1 and 0
    out = tmp_path / "v"
    assert main(["verify", "--seed", str(seed), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --seed is {seed}, outside the seed range [0, 2**64)")
    assert not out.exists()


def test_verify_failed_safe_bound_exits_3(monkeypatch, capsys):
    fake = SimpleNamespace(ok=False, reports=[],
                           summary_lines=lambda: ["statement: L3.2", "failures: 1"])
    monkeypatch.setattr("gcn_energy.cli.run_suite", lambda *a, **k: fake)
    assert main(["verify", "--suite", "l32", "--trials", "1"]) == 3
    captured = capsys.readouterr()
    assert "FAILED" in captured.err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_writes_rows_and_duality_table(tmp_path, capsys):
    cfg = sweep_json(tmp_path)
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text()
    assert "# probe: fixed-field channels=3 seed=1" in text
    assert "# edge-selection: uniform without replacement (seeded)" in text
    rows = data_lines(text)
    assert rows[0] == SWEEP_CSV_HEADER
    assert len(rows) == 1 + 2 * 2  # two trials times (one drop + one boost)
    dual = tmp_path / "rows.duality.csv"
    assert dual.exists()
    assert "drop_ratio,boost_count,mean_lambda_gap,mean_energy_gap,trials_used" \
        in dual.read_text()
    stdout = capsys.readouterr().out
    assert f"duality table written to {dual}" in stdout
    assert "fraction of drop rows with increased probe energy:" in stdout
    assert "fraction of boost rows with increased probe energy:" in stdout


def test_sweep_warns_when_drops_lower_probe_energy(tmp_path, capsys):
    # on a fixed Gaussian field, removing half of a ring lowers the energy
    # in every seeded trial, so the fraction is 0 and the warning fires
    cfg = sweep_json(tmp_path, drop_ratios=[0.5])
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0
    stdout = capsys.readouterr().out
    assert "fraction of drop rows with increased probe energy: 0" in stdout
    assert "warning: dropping edges increased the probe energy in at most half" in stdout


def test_sweep_degenerate_drops_report_na_fraction(tmp_path, capsys):
    # dropping 99.9% of a ring removes every edge, so the perturbed probe
    # energy is undefined and no row is usable for the fraction
    cfg = sweep_json(tmp_path, drop_ratios=[0.999], boost_counts=[])
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0
    stdout = capsys.readouterr().out
    assert "fraction of drop rows with increased probe energy: n/a" in stdout


def test_sweep_spectrum_only_probe_reports_na(tmp_path, capsys):
    cfg = sweep_json(tmp_path, probe={"kind": "spectrum-only"})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0
    stdout = capsys.readouterr().out
    assert "increased probe energy: n/a (no probe energies)" in stdout
    assert "warning:" not in stdout


def test_sweep_repeat_runs_are_byte_identical(tmp_path, capsys):
    cfg = sweep_json(tmp_path)
    outs = (tmp_path / "s1.csv", tmp_path / "s2.csv")
    for out in outs:
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert (tmp_path / "s1.duality.csv").read_text().splitlines()[3:] == \
        (tmp_path / "s2.duality.csv").read_text().splitlines()[3:]


@pytest.mark.parametrize("count", [10**400, 10**30], ids=["1e400", "1e30"])
def test_sweep_boost_count_past_the_float_range_exits_2(tmp_path, capsys, count):
    # a boost count stays an integer: no float overflow, no rounded count in the message
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"graph": "gen:ring:6", "boost_counts": [count]}))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: cannot boost {count} edges, graph has only 6\n"


@pytest.mark.parametrize("key, values, shown", [("drop_ratios", [0.5, 0.5], "drop ratio 0.5"),
                                                ("boost_counts", [2, 1, 2], "boost count 2")])
def test_sweep_repeated_operation_exits_2(tmp_path, capsys, key, values, shown):
    # the duality table keys rows by (trial, op, param), so a repeat used to lose rows
    cfg = sweep_json(tmp_path, trials=1, **{key: values})
    assert main(["sweep", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {shown} is listed more than once\n"
    assert captured.out == ""


def test_sweep_missing_config_exits_2(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "none.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_sweep_stdout_rows_when_no_out_flag(tmp_path, capsys):
    cfg = sweep_json(tmp_path, boost_counts=[], drop_ratios=[0.5])
    assert main(["sweep", "--config", cfg]) == 0
    stdout = capsys.readouterr().out
    assert SWEEP_CSV_HEADER in stdout


def nested_config(tmp_path, command, depth):
    """A run or sweep config whose list value nests ``depth`` levels deep."""
    key = "filter" if command == "run" else "drop_ratios"
    head = {"run": '{"graph": "gen:ring:6", "layers": 1, ',
            "sweep": '{"graph": "gen:ring:6", '}[command]
    path = tmp_path / f"{command}-{depth}.json"
    path.write_text(f'{head}"{key}": ' + "[" * depth + "]" * depth + "}")
    return str(path)


@pytest.mark.parametrize("depth", [5_000, 100_000])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_config_nested_past_the_decoder_limit_exits_2_naming_it(tmp_path, capsys, command, depth):
    path = nested_config(tmp_path, command, depth)
    assert main([command, "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: config {path}: nested too deeply to decode\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_config_nested_up_to_the_decoder_limit_exits_2(tmp_path, capsys, command):
    # the depths the decoder still takes leave little stack to show the bad value with
    limit = sys.getrecursionlimit()
    for depth in range(limit - 200, limit + 1):
        assert main([command, "--config", nested_config(tmp_path, command, depth)]) == 2, depth
        assert capsys.readouterr().err.startswith("error: config ")


@pytest.mark.parametrize("graph,mode", [("gen:path:3", "prop71"), ("gen:ring:700", "trajectory")])
def test_run_with_a_subnormal_leading_filter_coefficient_exits_0(tmp_path, capsys, graph, mode):
    # its derivative's roots overflow np.roots; the run takes the full spectrum
    cfg = run_json(tmp_path, graph=graph, layers=1, filter=[0.0, 0.0, 1.0, 5e-324])
    assert main(["run", "--config", cfg, "--mode", mode]) == 0
    out = capsys.readouterr().out
    assert mode == "trajectory" or "is not monotone decreasing" in out


def test_spectrum_and_sweep_print_one_lambda_min_per_graph(tmp_path, capsys):
    # above the Lanczos cutoff both commands take the factors by contraction_factors(g)
    graph = "gen:er:1000:0.02:1"
    assert main(["spectrum", "--graph", graph]) == 0
    shown = capsys.readouterr().out.rsplit("# lambda_min_nonzero=", 1)[1].split()[0]
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", sweep_json(tmp_path, graph=graph, trials=1,
                                                 boost_counts=[]), "--out", str(out)]) == 0
    rows = list(csv.DictReader(data_lines(out.read_text())))
    assert {row["lambda_min_before"] for row in rows} == {shown}


@pytest.mark.parametrize("graph", ["gen:er:600:0.02:3", "gen:path:40", "gen:ring:800",
                                   "gen:path:800", "gen:kregular:800:20"])
def test_spectrum_summary_is_the_dense_route_below_the_cutoff_and_on_fallback(graph, capsys):
    # every nonzero eigenvalue of the dense table, as the summary read them before
    # it took the route of run and sweep
    assert main(["spectrum", "--graph", graph]) == 0
    out = capsys.readouterr().out
    table = out.split("index,eigenvalue\n", 1)[1].split("# ", 1)[0]
    values = np.array([float(line.split(",")[1]) for line in table.splitlines()])
    g = gcn_energy.config.resolve_graph_source(graph)
    nonzero = values[g.kernel_dim:]
    lam = float(nonzero[0])
    want = (f"lambda_min_nonzero={lam:.17g} lambda_bar_paper={(1.0 - lam) ** 2:.17g} "
            f"lambda_bar_safe={float(((1.0 - nonzero) ** 2).max()):.17g} "
            f"kernel_dim={g.kernel_dim}")
    assert f"# {want}\n" in out


# ---------------------------------------------------------------------------
# every table

# header -> one kind per column: i integer, f float, F float or empty,
# b verdict, B verdict or empty, q quoted text, w word, p sweep param
TABLE_COLUMNS = {
    "index,eigenvalue": "if",
    "n,edges,channels,seed,energy_trace,energy_edge_sum,rayleigh": "iiiifff",
    "layer,energy,rayleigh,bound_paper,bound_safe,channels": "iffffi",
    "statement,context,lhs,rhs_paper,rhs_safe,margin,holds_paper,holds_safe,vacuous,asserted":
        "wqffFfbBbb",
    SWEEP_CSV_HEADER: "iiwpiiffffff",
    "drop_ratio,boost_count,mean_lambda_gap,mean_energy_gap,trials_used": "fiffi",
}


def check_cell(kind, cell, row):
    if kind in "FB" and cell == "":
        return True
    if kind == "p":  # a drop ratio is a float, a boost count an integer
        kind = "i" if row[2] == "boost" else "f"
    if kind == "i":
        return re.fullmatch(r"-?[0-9]+", cell) is not None
    if kind in "fF":
        return cell == f"{float(cell):.17g}"
    if kind in "bB":
        return cell in ("true", "false")
    if kind == "w":
        return re.fullmatch(r"[A-Za-z0-9.]+", cell) is not None
    return False


def check_table(text):
    """Check one CSV file against its header's column kinds; return its header."""
    lines = data_lines(text)
    header, kinds = lines[0], TABLE_COLUMNS[lines[0]]
    assert len(lines) > 1, header
    for line in lines[1:]:
        row = next(csv.reader([line]))
        assert len(row) == len(kinds), line
        for i, (kind, cell) in enumerate(zip(kinds, row)):
            if kind == "q":  # the context column keeps its quotes in the file
                assert line.startswith(",".join(row[:i]) + ',"'), line
            else:
                assert check_cell(kind, cell, row), (header.split(",")[i], cell)
    return header


def test_every_table_cell_follows_its_column_kind(tmp_path, capsys):
    cfg = sweep_json(tmp_path, drop_ratios=[0.25, 0.5], boost_counts=[1, 3])
    for argv in (["spectrum", "--graph", "gen:er:20:0.3:1", "--out", "spectrum.csv"],
                 ["energy", "--graph", "gen:ring:8", "--out", "energy.csv"],
                 ["run", "--config", run_json(tmp_path), "--out", "run.csv"],
                 ["verify", "--suite", "all", "--trials", "2", "--out", "verify"],
                 ["sweep", "--config", cfg, "--out", "sweep.csv"]):
        argv[-1] = str(tmp_path / argv[-1])
        assert main(argv) == 0, argv
    capsys.readouterr()
    files = [tmp_path / name for name in ("spectrum.csv", "energy.csv", "run.csv",
                                          "sweep.csv", "sweep.duality.csv")]
    files += sorted((tmp_path / "verify").glob("*.csv"))
    headers = [check_table(f.read_text()) for f in files]
    assert set(headers) == set(TABLE_COLUMNS) and len(files) == 5 + 7
    boosts = [line for line in data_lines((tmp_path / "sweep.csv").read_text())
              if ",boost," in line]
    assert [line.split(",")[3] for line in boosts] == ["1", "3"] * 2


def test_no_command_imports_scipy(tmp_path):
    # numpy is the only hard dependency; scipy may only ever back an optional route
    # the 800-node graphs take the Lanczos route, which must stay numpy-only too
    script = textwrap.dedent(f"""
        import sys
        from gcn_energy.cli import main
        run = {run_json(tmp_path, graph="gen:ring:6")!r}
        sweep = {sweep_json(tmp_path, graph="gen:ring:6")!r}
        run_large = {run_json(tmp_path, "run_large.json", graph="gen:er:800:0.02:3")!r}
        sweep_large = {sweep_json(tmp_path, "sweep_large.json", graph="gen:er:800:0.02:3")!r}
        for argv in (["spectrum", "--graph", "gen:ring:6"], ["energy", "--graph", "gen:ring:6"],
                     ["run", "--config", run, "--mode", "prop71"],
                     ["verify", "--trials", "2"], ["sweep", "--config", sweep],
                     ["run", "--config", run_large, "--mode", "prop71"],
                     ["sweep", "--config", sweep_large]):
            assert main(argv) == 0, argv
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        assert not loaded, loaded
    """)
    src = str(Path(gcn_energy.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# every command


def test_run_and_sweep_need_no_dense_eigensolve_above_the_lanczos_cutoff(tmp_path, monkeypatch,
                                                                         capsys):
    # the extremes come from Lanczos on the edge arrays: eigvalsh only ever sees
    # its small tridiagonal matrix, and the sweep builds no Laplacian at all
    original = np.linalg.eigvalsh

    def small_only(m, *args, **kwargs):
        if m.shape[0] > gcn_energy.spectral.LANCZOS_MAX_STEPS:
            raise AssertionError(f"dense eigvalsh of a {m.shape[0]} x {m.shape[0]} matrix")
        return original(m, *args, **kwargs)

    def no_laplacian(g):
        raise AssertionError("dense Laplacian built")

    monkeypatch.setattr(np.linalg, "eigvalsh", small_only)
    graph = "gen:er:1000:0.02:3"
    assert main(["run", "--config", run_json(tmp_path, graph=graph, layers=3),
                 "--mode", "prop71"]) == 0
    monkeypatch.setattr(gcn_energy.graphs, "augmented_normalized_laplacian", no_laplacian)
    assert main(["sweep", "--config", sweep_json(tmp_path, graph=graph, trials=1)]) == 0
    out = capsys.readouterr().out
    assert "prop71 verdict: preconditions ok" in out and "fraction of drop rows" in out


def test_no_command_needs_an_eigenbasis(tmp_path, monkeypatch, capsys):
    # factors need eigenvalues only, filters run by Horner's rule on the Laplacian
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for argv in (["verify", "--suite", "all", "--trials", "5", "--seed", "3"],
                 ["run", "--config", run_json(tmp_path)],
                 ["run", "--config", run_json(tmp_path), "--mode", "prop71"],
                 ["sweep", "--config", sweep_json(tmp_path)],
                 ["energy", "--graph", "gen:er:20:0.3:1"],
                 ["spectrum", "--graph", "gen:er:20:0.3:1"]):
        assert main(argv) == 0, argv
    capsys.readouterr()


# ---------------------------------------------------------------------------
# mutated config documents


FUZZ_BASES = (
    ("run", {"graph": "gen:ring:8", "layers": 2, "channels": 2, "seed": 1,
             "filter": [1.0, -0.5], "activation": {"kind": "leaky_relu", "slope": 0.2},
             "activation_placement": "paper", "epsilon": 0.5,
             "weights": {"shapes": [[[2, 3], [3, 2]], [[2, 2]]],
                         "target_singular": [[0.5, 1.0], 0.9]}}),
    ("run", {"graph": "gen:path:4", "layers": 2, "filters": [[1.0, -1.0], [0.5, 0.25]],
             "activation": "tanh", "weights": {"target_singular": 0.9}}),
    ("sweep", {"graph": "gen:ring:12", "drop_ratios": [0.25, 0.5], "boost_counts": [2],
               "boost_factor": 100.0, "trials": 1, "base_seed": 1,
               "probe": {"kind": "fixed-field", "channels": 2, "seed": 1}}),
)

FUZZ_VALUES = st.one_of(
    st.sampled_from(["x", "", "4", "-1", "0.25", "1e4", "true", "fixed-field"]),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-3, 64), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "slope", "channels", "shapes"]),
                    st.integers(-3, 64), max_size=2),
    st.floats(-10, 10).filter(lambda x: not x.is_integer()),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(-3, 64),
)


def key_paths(node, prefix=()):
    """Every key and list index below ``node``, as tuples of steps."""
    steps = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for step, child in steps:
        yield prefix + (step,)
        yield from key_paths(child, prefix + (step,))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_config_exits_0_2_or_3(data):
    # one key replaced or deleted, nested keys included; 10**400 only where a number goes
    command, base = data.draw(st.sampled_from(FUZZ_BASES))
    path = data.draw(st.sampled_from(list(key_paths(base))))
    doc = copy.deepcopy(base)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    values = FUZZ_VALUES | st.just(10**400) if isinstance(parent[path[-1]], float) else FUZZ_VALUES
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(values)
    mode = ["--mode", data.draw(st.sampled_from(["trajectory", "prop71"]))] if command == "run" else []
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))
        argv = [command, "--config", str(config), "--out", str(Path(tmp) / "out.csv")] + mode
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = main(argv)
    assert code in (0, 2, 3), (doc, err.getvalue())
