"""Tests of the benchmark itself: tracing completeness, exact span counts at
the default seed, the oracle's verdicts, and seeded inputs.

    python3 -m pytest perfbench -q

The span counts are those of the program as the benchmark was defined; a
change that removes work (ROADMAP items 3 to 5) is expected to change them,
and updates them here in the change that defines the new counts.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import tracing
import worker
import workloads

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def cli():
    return worker.import_cli()


def _traced_once(cli, name: str, workdir: Path):
    inv = workloads.prepare(name, workloads.DEFAULT_SEED, workdir)
    tracer = tracing.Tracer()
    tracer.begin(0)
    tracer.install()
    try:
        _, code, _, stdout, error = worker.invoke(cli, inv)
    finally:
        tracer.uninstall()
    assert code == 0, error
    files = {p.name: p.read_text() for p in inv.outputs}
    return tracer, files, stdout


@pytest.fixture(scope="module")
def traced(cli, tmp_path_factory):
    """One traced invocation of every workload at the default seed."""
    return {name: _traced_once(cli, name, tmp_path_factory.mktemp(name))
            for name in workloads.WORKLOADS}


def _modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "gcn_energy" or name.startswith("gcn_energy."))]


def test_install_rebinds_every_imported_name(cli):
    originals = {}
    for targets in tracing.LAYERS.values():
        for module_name, func_name in targets:
            fn = getattr(sys.modules[module_name], func_name)
            originals[id(fn)] = fn
    sites = [(m, attr) for m in _modules() for attr, v in vars(m).items() if id(v) in originals]
    # names imported into consumer modules are among the sites, not only definitions
    assert ("gcn_energy.sweeps", "perturb") in {(m.__name__, a) for m, a in sites}
    assert ("gcn_energy.bounds", "eval_filter_matrix") in {(m.__name__, a) for m, a in sites}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for m, attr in sites:
            bound = getattr(m, attr)
            assert id(bound) not in originals, (m.__name__, attr)
            assert id(bound.__wrapped__) in originals, (m.__name__, attr)
    finally:
        tracer.uninstall()
    for m, attr in sites:
        assert id(getattr(m, attr)) in originals, (m.__name__, attr)


def test_run_deep_span_counts(traced):
    tracer, _, _ = traced["run-deep"]
    totals = tracing.layer_totals(tracer.spans, 0)
    assert totals["spectral.filter_matrix"]["calls"] == 30
    assert totals["spectral.eigendecompose"]["calls"] == 1


def test_sweep_span_counts(traced):
    tracer, _, _ = traced["sweep-perturb"]
    totals = tracing.layer_totals(tracer.spans, 0)
    assert totals["spectral.eigendecompose"]["calls"] == 21
    assert totals["graphs.laplacian"]["calls"] == 42
    assert totals["graphs.perturb"]["calls"] == 20
    assert totals["spectral.filter_matrix"]["calls"] == 0
    assert len(totals["graphs.laplacian"]["graphs"]) == 21


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_spans_nest_inside_their_parents(traced, name):
    tracer, _, _ = traced[name]
    assert tracer.spans[0][0] == "cli" and tracer.spans[0][3] == -1
    for i, (_, start, end, parent, invocation, _) in enumerate(tracer.spans):
        assert invocation == 0 and start <= end
        if i:
            assert 0 <= parent < i
            assert tracer.spans[parent][1] <= start and end <= tracer.spans[parent][2]
    totals = tracing.layer_totals(tracer.spans, 0)
    assert all(t["self_s"] >= -1e-9 for t in totals.values())
    cli_span = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(cli_span, rel=1e-9)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_oracle_accepts_program_output(traced, name):
    _, files, stdout = traced[name]
    assert oracle.CHECKS[name](workloads.DEFAULT_SEED, files, stdout) == []


def _bump_field(line: str, index: int, factor: float) -> str:
    cells = line.split(",")
    cells[index] = repr(float(cells[index]) * factor)
    return ",".join(cells)


def test_oracle_rejects_a_wrong_energy(traced):
    _, files, stdout = traced["run-deep"]
    lines = files["trajectory.csv"].splitlines()
    lines[4 + 5] = _bump_field(lines[4 + 5], 1, 1 + 1e-6)
    bad = dict(files, **{"trajectory.csv": "\n".join(lines) + "\n"})
    assert any("layer 5: energy" in p for p in oracle.check_run_deep(workloads.DEFAULT_SEED,
                                                                       bad, stdout))


def test_oracle_rejects_a_wrong_eigenvalue(traced):
    _, files, stdout = traced["sweep-perturb"]
    lines = files["rows.csv"].splitlines()
    lines[6 + 3] = _bump_field(lines[6 + 3], 7, 1 + 1e-7)
    bad = dict(files, **{"rows.csv": "\n".join(lines) + "\n"})
    assert any("row 3: lambda_min_after" in p for p in oracle.check_sweep(workloads.DEFAULT_SEED,
                                                                          bad, stdout))


def test_oracle_rejects_a_flipped_verdict(traced):
    _, files, stdout = traced["verify-suites"]
    lines = files["l31.csv"].splitlines()
    cells = oracle._split_csv(lines[4])
    assert cells[7] == "true"
    lines[4] = lines[4].replace(",true,true,false,true", ",true,false,false,true")
    bad = dict(files, **{"l31.csv": "\n".join(lines) + "\n"})
    problems = oracle.check_verify(workloads.DEFAULT_SEED, bad, stdout)
    assert any("holds_safe=false" in p for p in problems)
    assert any("summary passes=200 but the CSV gives 199" in p for p in problems)


def test_oracle_recomputes_suite_energies(traced):
    _, files, stdout = traced["verify-suites"]
    lines = files["l32.csv"].splitlines()
    cells = oracle._split_csv(lines[4])
    # a wrong energy whose verdict still holds: only the recomputation sees it
    lines[4] = lines[4].replace(f",{cells[2]},", f",{float(cells[2]) * (1 + 1e-6)!r},", 1)
    bad = dict(files, **{"l32.csv": "\n".join(lines) + "\n"})
    problems = oracle.check_verify(workloads.DEFAULT_SEED, bad, stdout)
    assert [p for p in problems if p.startswith("l32.csv row 0: lhs")] == problems


@pytest.mark.parametrize("name,config", [("run-deep", "run.json"),
                                         ("sweep-perturb", "sweep.json")])
def test_inputs_follow_the_seed(tmp_path, name, config):
    for d, seed in (("a", 7), ("b", 7), ("c", 8)):
        workloads.prepare(name, seed, tmp_path / d)
    a, b, c = ((tmp_path / d / config).read_text() for d in "abc")
    assert a == b != c


def test_negative_seeds_map_to_valid_program_seeds(tmp_path):
    argv = workloads.prepare("verify-suites", -3, tmp_path).argv
    assert int(argv[argv.index("--seed") + 1]) >= 0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "run-deep",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
