import dataclasses
import json
import math

import numpy as np
import pytest

from gcn_energy import (
    Graph,
    ProbeSpec,
    SweepConfig,
    ValidationError,
    dirichlet_energy_edge_sum,
    duality_report,
    energy_increase_fraction,
    generate,
    probe_field,
    run_sweep,
)
from gcn_energy.cli import SWEEP_CSV_HEADER, main


def small_config(**overrides):
    base = dict(
        graph=generate("erdos_renyi", 24, seed=2, p=0.25),
        drop_ratios=(0.2, 0.5),
        boost_counts=(2,),
        boost_factor=100.0,
        trials=6,
        base_seed=9,
        probe=ProbeSpec(kind="fixed-field", channels=3, seed=1),
    )
    base.update(overrides)
    return SweepConfig(**base)


def sweep_tables(tmp_path, capsys):
    """Write small_config's sweep through the sweep command; return the data
    lines of the rows table and of the duality table."""
    doc = {"graph": "gen:er:24:0.25:2", "drop_ratios": [0.2, 0.5], "boost_counts": [2],
           "boost_factor": 100.0, "trials": 6, "base_seed": 9,
           "probe": {"kind": "fixed-field", "channels": 3, "seed": 1}}
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "sweep.csv")]) == 0
    capsys.readouterr()
    return [[l for l in (tmp_path / name).read_text().splitlines() if not l.startswith("#")]
            for name in ("sweep.csv", "sweep.duality.csv")]


def test_sweep_row_count_and_order():
    cfg = small_config()
    rows = run_sweep(cfg)
    assert len(rows) == 6 * 3
    # rows are grouped by trial, drops first in configured order
    first_trial = [r for r in rows if r.trial == 0]
    assert [(r.op, r.param) for r in first_trial] == [
        ("drop", 0.2), ("drop", 0.5), ("boost", 2.0)]


def test_sweep_is_deterministic():
    cfg = small_config()
    assert run_sweep(cfg) == run_sweep(cfg)


def test_sweep_before_fields_constant_within_trial():
    rows = run_sweep(small_config())
    by_trial = {}
    for r in rows:
        key = (r.energy_before, r.lambda_min_before, r.edges_before, r.seed)
        by_trial.setdefault(r.trial, set()).add(key)
    assert all(len(v) == 1 for v in by_trial.values())


def test_sweep_drop_counts_follow_ceil_rule():
    cfg = small_config()
    for r in run_sweep(cfg):
        if r.op == "drop":
            assert r.edges_after == r.edges_before - math.ceil(r.param * r.edges_before)
        else:
            assert r.edges_after == r.edges_before


def test_sweep_probe_matches_exposed_field():
    cfg = small_config()
    rows = run_sweep(cfg)
    for trial in range(cfg.trials):
        x = probe_field(cfg, trial)
        expected = dirichlet_energy_edge_sum(x, cfg.graph)  # the form sweeps record
        got = next(r.energy_before for r in rows if r.trial == trial)
        assert got == expected


def test_sweep_degenerate_drop_is_marked_not_fatal():
    # ratio close to 1 on a single-edge graph removes the only edge
    cfg = SweepConfig(
        graph=Graph(2, [0], [1], [1.0]),
        drop_ratios=(0.999,),
        trials=2,
        base_seed=0,
    )
    rows = run_sweep(cfg)
    assert all(r.degenerate for r in rows)
    assert all(math.isnan(r.lambda_min_after) for r in rows)
    assert all(r.edges_after == 0 for r in rows)


def test_sweep_boost_factor_one_changes_nothing():
    cfg = small_config(boost_factor=1.0, drop_ratios=(), boost_counts=(3,))
    for r in run_sweep(cfg):
        assert r.energy_after == r.energy_before
        assert r.lambda_min_after == r.lambda_min_before
        assert r.lambda_bar_safe_after == r.lambda_bar_safe_before


def test_sweep_spectrum_only_probe_skips_energy():
    cfg = small_config(probe=ProbeSpec(kind="spectrum-only"))
    rows = run_sweep(cfg)
    assert all(math.isnan(r.energy_before) and math.isnan(r.energy_after) for r in rows)
    assert probe_field(cfg, 0) is None
    assert math.isnan(energy_increase_fraction(rows, op="drop"))


def test_sweep_csv_schema_and_shape(tmp_path, capsys):
    rows = run_sweep(small_config())
    lines, _ = sweep_tables(tmp_path, capsys)
    assert lines[0] == SWEEP_CSV_HEADER
    assert lines[0] == ("trial,seed,op,param,edges_before,edges_after,"
                        "lambda_min_before,lambda_min_after,"
                        "lambda_bar_safe_before,lambda_bar_safe_after,"
                        "energy_before,energy_after")
    assert len(lines) == len(rows) + 1
    # boost params serialize as integers
    boost_line = next(l for l in lines if ",boost," in l)
    assert boost_line.split(",")[3] == "2"


def test_duality_report_pairs_every_ratio_with_every_count():
    cfg = small_config(boost_counts=(1, 2))
    rows = run_sweep(cfg)
    entries = duality_report(rows)
    assert [(e.drop_ratio, e.boost_count) for e in entries] == [
        (0.2, 1), (0.2, 2), (0.5, 1), (0.5, 2)]
    assert all(e.trials_used == cfg.trials for e in entries)
    assert all(math.isfinite(e.mean_lambda_gap) for e in entries)


def test_duality_gap_matches_hand_average():
    cfg = small_config(drop_ratios=(0.5,), boost_counts=(2,), trials=3)
    rows = run_sweep(cfg)
    entry = duality_report(rows)[0]
    gaps = []
    for t in range(3):
        d = next(r for r in rows if r.trial == t and r.op == "drop")
        b = next(r for r in rows if r.trial == t and r.op == "boost")
        gaps.append(abs((d.lambda_min_after - d.lambda_min_before)
                        - (b.lambda_min_after - b.lambda_min_before)))
    assert entry.mean_lambda_gap == pytest.approx(np.mean(gaps), rel=1e-15)


def test_duality_gap_against_identity_boost_equals_drop_shift():
    # boost by factor 1 is the identity perturbation, so the gap collapses
    # to the absolute shift the drop alone causes
    cfg = small_config(drop_ratios=(0.2,), boost_counts=(1,), boost_factor=1.0, trials=2)
    rows = run_sweep(cfg)
    entry = duality_report(rows)[0]
    shifts = [abs(r.lambda_min_after - r.lambda_min_before)
              for r in rows if r.op == "drop"]
    assert entry.mean_lambda_gap == pytest.approx(np.mean(shifts), rel=1e-15)


def test_duality_requires_both_operation_classes():
    rows = run_sweep(small_config(drop_ratios=(0.3,), boost_counts=()))
    with pytest.raises(ValidationError):
        duality_report(rows)


def test_duality_csv_round_trip(tmp_path, capsys):
    entries = duality_report(run_sweep(small_config()))
    _, lines = sweep_tables(tmp_path, capsys)
    assert lines[0] == "drop_ratio,boost_count,mean_lambda_gap,mean_energy_gap,trials_used"
    assert len(lines) == len(entries) + 1
    assert [tuple(l.split(",")[:2]) for l in lines[1:]] == [
        (f"{e.drop_ratio:.17g}", str(e.boost_count)) for e in entries]


def test_energy_increase_fraction_counts_strict_increases():
    cfg = small_config()
    rows = run_sweep(cfg)
    frac = energy_increase_fraction(rows, op="boost")
    manual = [r for r in rows if r.op == "boost"]
    expected = sum(1 for r in manual if r.energy_after > r.energy_before) / len(manual)
    assert frac == expected
    assert 0.0 <= frac <= 1.0


@pytest.mark.parametrize(
    "overrides",
    [
        dict(drop_ratios=(), boost_counts=()),
        dict(drop_ratios=(0.0,)),
        dict(drop_ratios=(1.0,)),
        dict(boost_counts=(0,)),
        dict(boost_factor=0.5),
        dict(trials=0),
        dict(boost_counts=(True,)),
    ],
)
def test_sweep_config_validation(overrides):
    with pytest.raises(ValidationError):
        small_config(**overrides)


def test_probe_spec_validation():
    with pytest.raises(ValidationError):
        ProbeSpec(kind="telepathy")
    with pytest.raises(ValidationError):
        ProbeSpec(kind="fixed-field", channels=0)
    for channels in (0, -5):  # either kind needs a channel
        with pytest.raises(ValidationError, match=f"'probe.channels' must be a positive integer, got {channels}"):
            ProbeSpec(kind="spectrum-only", channels=channels)


def test_sweep_row_degenerate_follows_edges_after():
    row = run_sweep(small_config(trials=1))[0]
    assert row.edges_after > 0 and not row.degenerate
    assert dataclasses.replace(row, edges_after=0).degenerate
    assert "degenerate" not in {f.name for f in dataclasses.fields(row)}
    with pytest.raises(AttributeError):
        row.degenerate = True


def test_a_sweep_config_holds_its_graph_not_its_source():
    # the sweep command hashes the document it read, so no field keeps the source
    assert "source" not in {f.name for f in dataclasses.fields(SweepConfig)}
    assert not hasattr(small_config(), "source")
