"""Acceptance gate.

One test per criterion, each printing a single ``[PASS]``/``[FAIL]`` line
(visible with ``pytest -s`` and in failure output) and asserting it.  The
stated runtime budgets are asserted together with the numeric conditions,
so this file is the go/no-go signal for the package.
"""

import json
import math
import time

import numpy as np

from gcn_energy.bounds import (
    SUITE_TOKENS,
    fit_log_energy_slope,
    run_suite,
    verify_lemma_3_2,
    verify_lemma_3_3,
    verify_prop_7_1,
)
from gcn_energy.cli import SWEEP_CSV_HEADER, main
from gcn_energy.config import load_run_config
from gcn_energy.energy import dirichlet_energy_edge_sum, dirichlet_energy_trace
from gcn_energy.graphs import augmented_normalized_laplacian, generate, perturb
from gcn_energy.network import Activation, LayerSpec, make_weights, run_network
from gcn_energy.seeding import derive_seed
from gcn_energy.spectral import PolynomialFilter

from conftest import search_components

T0 = time.perf_counter()

RANGE_LO = -1e-10
RANGE_HI = 2.0 - 1e-12


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion-{num:02d} {detail}")
    assert ok, f"criterion-{num:02d} {detail}"


def mixed_graph(i: int, n_max: int = 200, boost_every: int = 3):
    """Seeded graph number ``i`` from rotating generators, sometimes boosted."""
    rng = np.random.default_rng(derive_seed(20260815, i))
    kind = ("erdos_renyi", "ring", "k_regular", "complete", "path")[i % 5]
    if kind == "erdos_renyi":
        n = int(rng.integers(4, n_max + 1))
        g = generate(kind, n, int(rng.integers(0, 2**31)), p=float(rng.uniform(0.05, 0.5)))
    elif kind == "k_regular":
        n = int(rng.integers(5, 61))
        g = generate(kind, n, k=2 * int(rng.integers(1, (n - 1) // 2 + 1)))
    elif kind == "complete":
        g = generate(kind, int(rng.integers(3, 41)))
    else:
        g = generate(kind, int(rng.integers(3, n_max + 1)))
    if boost_every and i % boost_every == 0 and g.edge_count:
        g = perturb(
            g, "boost", int(rng.integers(1, g.edge_count + 1)),
            factor=float(rng.choice([10.0, 1000.0, 10000.0])),
            seed=int(rng.integers(0, 2**31)),
        )
    return g


def test_criterion_01_spectral_range():
    t0 = time.perf_counter()
    lo, hi = math.inf, -math.inf
    for i in range(300):
        g = mixed_graph(i)
        vals = g.spectrum
        if len(vals):
            lo = min(lo, float(vals[0]))
            hi = max(hi, float(vals[-1]))
    elapsed = time.perf_counter() - t0
    ok = lo >= RANGE_LO and hi <= RANGE_HI and elapsed < 30.0
    report(1, ok, "spectral range: 300 graphs (boosts to 10000), eigenvalues in "
                  f"[{lo:.3g}, {hi:.17g}] vs [-1e-10, 2-1e-12], {elapsed:.1f}s < 30s")


def test_criterion_02_kernel_dimension():
    t0 = time.perf_counter()
    mismatches = 0
    for i in range(200):
        rng = np.random.default_rng(derive_seed(2, i))
        if i % 2 == 0:
            # sparse instances disconnect often, exercising kernel_dim > 1
            n = int(rng.integers(10, 121))
            g = generate("erdos_renyi", n, int(rng.integers(0, 2**31)),
                         p=float(rng.uniform(0.005, 0.08)))
        else:
            g = mixed_graph(i, n_max=80, boost_every=0)
        # the kernel is taken from the component count; the spectrum must
        # agree: exactly that many eigenvalues within 1e-8 * max(1, |lam_max|)
        vals = g.spectrum
        near_zero = np.count_nonzero(np.abs(vals) <= 1e-8 * max(1.0, abs(float(vals[-1]))))
        if near_zero != len(search_components(g)) or g.kernel_dim != near_zero:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    report(2, ok, f"near-zero eigenvalue count equals component count on 200 graphs, "
                  f"{mismatches} mismatches, {elapsed:.1f}s < 10s")


def test_criterion_03_energy_form_equality():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(500):
        rng = np.random.default_rng(derive_seed(3, i))
        g = mixed_graph(i, n_max=60, boost_every=2)
        x = rng.standard_normal((g.n, int(rng.integers(1, 7))))
        a = dirichlet_energy_trace(x, augmented_normalized_laplacian(g))
        b = dirichlet_energy_edge_sum(x, g)
        worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 20.0
    report(3, ok, f"trace and edge-sum energies agree on 500 weighted pairs, "
                  f"worst relative gap {worst:.3g} <= 1e-10, {elapsed:.1f}s < 20s")


def test_criterion_04_lemma_3_2_suite():
    result = run_suite(SUITE_TOKENS["l32"], 500, seed=0)
    worst_eq = 0.0
    for j in range(100):
        rng = np.random.default_rng(derive_seed(4, j))
        g = mixed_graph(j, n_max=40, boost_every=0)
        x = rng.standard_normal((g.n, 1))
        c = float(rng.uniform(0.1, 3.0))
        rep = verify_lemma_3_2(g, x, np.array([[c]]))
        worst_eq = max(worst_eq, abs(rep.margin))
    ok = result.ok and result.n_fail == 0 and worst_eq <= 1e-12
    report(4, ok, f"weight-matrix bound: 500 rectangular instances, "
                  f"{result.n_fail} failures at 1e-9; scalar equality gap "
                  f"{worst_eq:.3g} <= 1e-12")


def test_criterion_05_lemma_3_3_suite():
    acts = [Activation("relu"), Activation("leaky_relu", 0.01),
            Activation("leaky_relu", 0.2), Activation("leaky_relu", 0.5)]
    failures = 0
    for i in range(500):
        rng = np.random.default_rng(derive_seed(5, i))
        g = mixed_graph(i, n_max=40, boost_every=0)
        x = rng.standard_normal((g.n, 3))
        for act in acts:
            rep = verify_lemma_3_3(g, x, act)
            failures += not (rep.asserted and rep.gate_holds)
    nonneg_bad = 0
    for j in range(100):
        rng = np.random.default_rng(derive_seed(55, j))
        g = mixed_graph(j, n_max=40, boost_every=0)
        rep = verify_lemma_3_3(g, np.abs(rng.standard_normal((g.n, 2))), Activation("relu"))
        nonneg_bad += rep.margin != 0.0
    regular_failures = 0
    for j in range(200):
        rng = np.random.default_rng(derive_seed(555, j))
        n = int(rng.integers(5, 41))
        g = generate("k_regular", n, k=2 * int(rng.integers(1, (n - 1) // 2 + 1)))
        x = rng.standard_normal((g.n, 3))
        for act in (Activation("tanh"), Activation("sigmoid")):
            rep = verify_lemma_3_3(g, x, act)
            regular_failures += not (rep.asserted and rep.gate_holds)
    ok = failures == 0 and nonneg_bad == 0 and regular_failures == 0
    report(5, ok, "activation bound: 500x{relu,leaky .01/.2/.5} failures="
                  f"{failures}, nonnegative equality misses={nonneg_bad}, "
                  f"200 regular x{{tanh,sigmoid}} failures={regular_failures}")


def test_criterion_06_safe_factor_suites(tmp_path, capsys):
    counts = {}
    fails = {}
    for token in ("l31", "t34", "l72"):
        result = run_suite(SUITE_TOKENS[token], 500, seed=0)
        fails[token] = result.n_fail
        counts[token] = len(result.paper_violations)
    # persistence: a seeded run known to expose paper-bound counterexamples
    out = tmp_path / "verify"
    code = main(["verify", "--suite", "l72", "--trials", "50", "--seed", "7",
                 "--out", str(out)])
    capsys.readouterr()
    summary = (out / "summary.txt").read_text()
    persisted = int(summary.split("paper_bound_violations: ")[1].split()[0])
    csv_has_paper_fail = ",false,true,false,true" in (out / "l72.csv").read_text()
    ok = (all(v == 0 for v in fails.values()) and code == 0 and persisted >= 1
          and "counterexample:" in summary and csv_has_paper_fail)
    report(6, ok, "safe-factor suites: 500 each, failures "
                  f"l31={fails['l31']} t34={fails['t34']} l72={fails['l72']}; "
                  f"paper violations counted {counts} and persisted "
                  f"({persisted} in seeded l72 run), suite still passes")


def test_criterion_07_corollary_3_5_decay(tmp_path):
    t0 = time.perf_counter()
    doc = {"graph": "gen:path:3", "layers": 30, "channels": 4,
           "filter": [1.0, -1.0], "weights": {"target_singular": 3.2},
           "activation": "relu", "activation_placement": "paper", "seed": 0}
    cfg = tmp_path / "decay.json"
    cfg.write_text(json.dumps(doc))
    setup = load_run_config(str(cfg))
    traj = run_network(setup.x0, setup.layers, setup.graph, placement=setup.placement)
    # path:3 has both filter factors 1/4: the nominal bound is s/4 = 0.8 and
    # the safe one s^2/4 = 2.56, so only the nominal rate predicts the decay
    rho = max(rec.bound_paper for rec in traj.records[1:])
    rho_safe = max(rec.bound_safe for rec in traj.records[1:])
    energies = traj.energies()
    ratio = energies[-1] / energies[0]
    slope = fit_log_energy_slope(energies)
    elapsed = time.perf_counter() - t0
    ok = (abs(rho - 0.8) <= 1e-9
          and abs(rho_safe - 2.56) <= 1e-9
          and ratio <= 0.8**30 * (1 + 1e-6)
          and slope <= math.log(0.8) + 1e-6
          and elapsed < 5.0)
    report(7, ok, f"30-layer decay at rho_paper={rho:.12g} (rho_safe={rho_safe:.12g}): "
                  f"ratio {ratio:.3g} <= {0.8**30 * (1 + 1e-6):.5g}, slope {slope:.4g} <= "
                  f"{math.log(0.8) + 1e-6:.4g}, {elapsed:.1f}s < 5s")


def test_criterion_08_proposition_7_1():
    g = generate("path", 3)
    x0 = np.random.default_rng(derive_seed(8, 999)).standard_normal((3, 4))
    flt = PolynomialFilter((1.0, -1.0))
    layers = tuple(
        LayerSpec(filter=flt, weights=(make_weights(4, 4, 1.0, seed=derive_seed(8, l)),),
                  activation=Activation("relu"))
        for l in range(20)
    )
    traj = run_network(x0, layers, g, placement="paper")
    verdict = verify_prop_7_1(traj, epsilon=0.5)
    energies = traj.energies()
    decay_ok = all(energies[l] <= 0.5**l * energies[0] * (1 + 1e-6) for l in range(21))
    bad_layers = tuple(
        LayerSpec(filter=PolynomialFilter((0.0, 1.0)), weights=s.weights,
                  activation=s.activation)
        for s in layers
    )
    rejected = verify_prop_7_1(run_network(x0, bad_layers, g, placement="paper"), epsilon=0.5)
    gate_ok = (not rejected.ok) and rejected.witness is not None \
        and "monotone" in rejected.reason
    ok = verdict.ok and verdict.holds and decay_ok and gate_ok
    report(8, ok, "monotone-filter decay: preconditions ok and E(X_l) <= 0.5^l E(X_0) "
                  f"for l<=20 ({decay_ok}); increasing filter rejected with witness "
                  f"x={rejected.witness}")


def test_criterion_09_perturbation_sweep(tmp_path, capsys):
    t0 = time.perf_counter()
    doc = {"graph": "gen:er:100:0.1:5", "drop_ratios": [0.1, 0.3, 0.5],
           "boost_counts": [], "trials": 20, "base_seed": 11,
           "probe": {"kind": "fixed-field", "channels": 4, "seed": 3}}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(doc))
    outs = (tmp_path / "a.csv", tmp_path / "b.csv")
    codes = [main(["sweep", "--config", str(cfg), "--out", str(o)]) for o in outs]
    stdout = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    rows = [l for l in outs[0].read_text().splitlines() if l and not l.startswith("#")]
    marker = "fraction of drop rows with increased probe energy: "
    fraction = float(stdout.split(marker)[1].split()[0])
    ok = (codes == [0, 0]
          and outs[0].read_bytes() == outs[1].read_bytes()
          and rows[0] == SWEEP_CSV_HEADER
          and len(rows) == 1 + 20 * 3
          and math.isfinite(fraction)
          and elapsed < 60.0)
    report(9, ok, "edge-drop sweep on er(100,0.1): deterministic, 60 schema rows, "
                  f"energy-increase fraction reported ({fraction:.3g}, not asserted), "
                  f"{elapsed:.1f}s < 60s")


def test_criterion_10_determinism(tmp_path, capsys):
    dirs = (tmp_path / "v1", tmp_path / "v2")
    codes = [main(["verify", "--suite", "all", "--trials", "50", "--seed", "7",
                   "--out", str(d)]) for d in dirs]
    capsys.readouterr()
    names = sorted(p.name for p in dirs[0].iterdir())
    same = all((dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes() for n in names)
    doc = {"graph": "gen:ring:16", "drop_ratios": [0.25], "boost_counts": [2],
           "boost_factor": 50.0, "trials": 4, "base_seed": 1,
           "probe": {"kind": "fixed-field", "channels": 2, "seed": 6}}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(doc))
    souts = (tmp_path / "s1.csv", tmp_path / "s2.csv")
    scodes = [main(["sweep", "--config", str(cfg), "--out", str(o)]) for o in souts]
    capsys.readouterr()
    sweep_same = souts[0].read_bytes() == souts[1].read_bytes()
    total = time.perf_counter() - T0
    ok = (codes == [0, 0] and len(names) == 8 and same
          and scodes == [0, 0] and sweep_same and total < 180.0)
    report(10, ok, f"byte-identical outputs: verify all/50/seed7 across {len(names)} "
                   f"files ({same}), sweep rerun ({sweep_same}); acceptance total "
                   f"{total:.1f}s < 180s")
