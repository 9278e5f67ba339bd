"""End-to-end tests for the command line: flags, files, exit codes."""

import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcn_energy
from gcn_energy.cli import build_parser, entry, main
from gcn_energy.sweeps import SWEEP_CSV_HEADER


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


@pytest.mark.parametrize("bad_tol", ["-1", "nan", "inf"])
def test_spectrum_negative_zero_tol_exits_2(capsys, bad_tol):
    assert main(["spectrum", "--graph", "gen:ring:4", "--zero-tol", bad_tol]) == 2
    assert "error: " in capsys.readouterr().err


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


def test_spectrum_zero_tol_override_warns_off_the_component_count(tmp_path, capsys):
    edges = boosted_path40_edges(tmp_path)
    assert main(["spectrum", "--graph", edges, "--zero-tol", "1e-8"]) == 0
    stdout = capsys.readouterr().out
    assert "kernel_dim=3" in stdout and "lambda_min_nonzero=0.00223757" in stdout
    assert ("warning: --zero-tol 1e-08 puts 3 eigenvalues in the kernel, "
            "but the graph has 1 connected component\n") in stdout
    # an override that agrees with the component count changes nothing
    assert main(["spectrum", "--graph", "gen:ring:4", "--zero-tol", "1e-8"]) == 0
    stdout = capsys.readouterr().out
    assert "kernel_dim=1" in stdout and "warning" not in stdout


@pytest.mark.parametrize("graph", ["gen:er:1000000:0.5", "edges.txt"])
def test_spectrum_oversized_graph_exits_2(tmp_path, capsys, graph):
    # rejected before any n x n array or random draw: the unguarded case needs 8 TB
    (tmp_path / "edges.txt").write_text("0 999999\n")
    if graph == "edges.txt":
        graph = str(tmp_path / graph)
    assert main(["spectrum", "--graph", graph]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "limit of 10000" in err


def test_spectrum_degree_overflow_exits_3(tmp_path, capsys):
    # each weight is finite, but node 1's degree overflows to inf
    path = tmp_path / "huge.txt"
    path.write_text("0 1 1e308\n1 2 1e308\n")
    assert main(["spectrum", "--graph", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numeric error: ")
    assert "Traceback" not in captured.err
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
    assert "contractive: s*lambda_bar_safe" in stdout
    assert "energy: E(X_0)=" in stdout


def test_run_energies_in_file_decrease_for_contractive_setup(tmp_path, capsys):
    cfg = run_json(tmp_path, layers=8, weights={"target_singular": 0.5})
    out = tmp_path / "traj.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    energies = [float(l.split(",")[1]) for l in data_lines(out.read_text())[1:]]
    assert energies[-1] <= energies[0]


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
    assert "prop71 verdict: preconditions FAILED: layer 0: activation sigmoid" in stdout
    assert len(out.read_text().splitlines()) == 3 + 1 + 1101


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


def test_run_bytes_repeat_at_a_fixed_blas_thread_count(tmp_path):
    # byte identity holds at a fixed thread count; across counts the forward
    # products may differ in the last digits, but the input row, taken in the
    # elementwise edge-sum form, may not
    rows = outputs_at_thread_counts(
        tmp_path, "run", {"graph": "gen:er:600:0.02:3", "layers": 30, "channels": 16})
    assert len(rows["1"]) == 32 and rows["1"][1].startswith("0,")
    assert rows["1"][1] == rows["2"][1]


def test_sweep_energies_do_not_depend_on_the_blas_thread_count(tmp_path):
    # eigenvalues may differ across thread counts in the last digits; the
    # energy columns, taken in the edge-sum form, may not
    rows = outputs_at_thread_counts(
        tmp_path, "sweep", {"graph": "gen:er:600:0.02:3", "drop_ratios": [0.1, 0.5],
                            "boost_counts": [5], "trials": 2, "probe": {"channels": 16}})
    header = rows["1"][0].split(",")
    assert header[-2:] == ["energy_before", "energy_after"] and len(rows["1"]) == 1 + 6

    def energies(lines):
        return [line.split(",")[-2:] for line in lines[1:]]

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


def test_sweep_missing_config_exits_2(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "none.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_sweep_stdout_rows_when_no_out_flag(tmp_path, capsys):
    cfg = sweep_json(tmp_path, boost_counts=[], drop_ratios=[0.5])
    assert main(["sweep", "--config", cfg]) == 0
    stdout = capsys.readouterr().out
    assert SWEEP_CSV_HEADER in stdout


# ---------------------------------------------------------------------------
# every command


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
