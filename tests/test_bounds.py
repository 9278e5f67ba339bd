import math

import numpy as np
import pytest

from gcn_energy import (
    Activation,
    BoundReport,
    LayerRecord,
    LayerSpec,
    PolynomialFilter,
    SuiteResult,
    Trajectory,
    ValidationError,
    apply_filter,
    augmented_normalized_laplacian,
    dirichlet_energy_trace,
    fit_log_energy_slope,
    generate,
    make_weights,
    run_network,
    run_suite,
    run_suites,
    verify_corollary_3_5,
    verify_lemma_3_1,
    verify_lemma_3_2,
    verify_lemma_3_3,
    verify_lemma_7_2,
    verify_prop_7_1,
    verify_theorem_3_4,
)
from gcn_energy import bounds
from gcn_energy.bounds import STATEMENTS, SUITE_TOKENS, VACUOUS_LHS_TOL, _decay_ratio, _holds


def propagation_layer(channels, target, seed=0, act=None):
    return LayerSpec(
        filter=PolynomialFilter.propagation(),
        weights=(make_weights(channels, channels, target, seed=seed),),
        activation=act or Activation("relu"),
    )


def test_statement_catalog_is_stable():
    assert STATEMENTS == ("L3.1", "L3.2", "L3.3", "T3.4", "C3.5", "L7.2", "P7.1")
    assert SUITE_TOKENS["l31"] == "L3.1"
    assert set(SUITE_TOKENS.values()) == set(STATEMENTS)


def test_holds_tolerance_edges():
    assert _holds(1.0, 1.0)
    assert _holds(1.0 + 1e-10, 1.0)          # inside relative slack
    assert not _holds(1.0 + 1e-8, 1.0)       # outside relative slack
    assert _holds(1e-13, 0.0)                # absolute floor
    assert not _holds(1e-11, 0.0)


def test_bound_report_rejects_unknown_statement():
    with pytest.raises(ValidationError):
        BoundReport("L9.9", 0.0, 1.0, None, holds_paper=True, holds_safe=None)


def test_lemma_3_1_path3_one_hot():
    # X = e0 on the three-node path: E(X) = 1/2, E(PX) = 5/72,
    # contraction factor (1 - 1/2)^2 = 1/4
    g = generate("path", 3)
    r = verify_lemma_3_1(g, [1.0, 0.0, 0.0])
    assert r.lhs == pytest.approx(5.0 / 72.0, abs=1e-14)
    assert r.rhs_paper == pytest.approx(1.0 / 8.0, abs=1e-14)
    assert r.rhs_safe == pytest.approx(1.0 / 8.0, abs=1e-14)
    assert r.holds_paper and r.holds_safe and r.gate_holds
    assert not r.vacuous


def test_lemma_3_1_zero_input_is_vacuous():
    # the zero embedding is the one input with an exact float-zero energy,
    # which is what the vacuous tag keys on
    g = generate("complete", 2)
    r = verify_lemma_3_1(g, [0.0, 0.0])
    assert r.vacuous
    assert r.gate_holds


def test_lemma_3_1_exact_kernel_input_is_vacuous():
    # x_i / sqrt(dtil_i) is exactly 1 on D~^(1/2) 1, so the edge-sum energy is
    # exactly 0; one propagation step leaves only round-off, which holds
    g = generate("erdos_renyi", 15, seed=1, p=0.3)
    r = verify_lemma_3_1(g, np.sqrt(g.augmented_degrees))
    assert r.rhs_paper == 0.0 and r.vacuous
    assert 0.0 < r.lhs <= 1e-12
    assert r.holds_paper and r.gate_holds


def test_lemma_3_1_near_kernel_input_passes_by_tolerance():
    # one step of P on the kernel vector leaves round-off off the kernel: the
    # input energy is tiny but nonzero, so the report is a regular
    # (non-vacuous) pass, and the absolute floor is what makes it hold
    g = generate("erdos_renyi", 15, seed=1, p=0.3)
    x = apply_filter(PolynomialFilter.propagation(), g, np.sqrt(g.augmented_degrees))
    r = verify_lemma_3_1(g, x)
    assert not r.vacuous
    assert 0.0 < r.rhs_paper <= 1e-20
    assert r.lhs <= 1e-12
    assert r.gate_holds


def test_lemma_3_2_scalar_weight_equality_is_exact():
    # W = [[2]] rescales every edge term by exactly 4
    g = generate("erdos_renyi", 10, seed=3, p=0.4)
    x = np.random.default_rng(2).standard_normal(10)
    r = verify_lemma_3_2(g, x, [[2.0]])
    assert r.margin == 0.0
    assert r.holds_paper
    assert r.rhs_safe is None


def test_lemma_3_2_rectangular_shapes_and_mismatch():
    g = generate("ring", 8)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((8, 3))
    r = verify_lemma_3_2(g, x, rng.standard_normal((3, 5)))
    assert r.gate_holds
    with pytest.raises(ValidationError, match="channels"):
        verify_lemma_3_2(g, x, rng.standard_normal((4, 2)))


def test_lemma_3_3_relu_on_nonnegative_input_is_equality():
    g = generate("path", 5)
    x = np.abs(np.random.default_rng(0).standard_normal((5, 2)))
    r = verify_lemma_3_3(g, x, Activation("relu"))
    assert r.margin == 0.0
    assert r.asserted and r.gate_holds


@pytest.mark.parametrize("slope", [0.01, 0.2, 0.5, 0.99])
def test_lemma_3_3_leaky_relu_any_graph(slope):
    g = generate("erdos_renyi", 25, seed=6, p=0.25)
    x = np.random.default_rng(6).standard_normal((25, 3))
    r = verify_lemma_3_3(g, x, Activation("leaky_relu", slope))
    assert r.asserted and r.gate_holds


@pytest.mark.parametrize("act", [Activation("tanh"), Activation("sigmoid")])
def test_lemma_3_3_saturating_on_regular_graph_is_asserted(act):
    # the ring is 2-regular, so the bound applies
    g = generate("ring", 6)
    x = np.random.default_rng(7).standard_normal((6, 4))
    r = verify_lemma_3_3(g, x, act)
    assert r.asserted and r.gate_holds


def test_lemma_3_3_saturating_on_irregular_graph_is_informational():
    g = generate("path", 6)  # endpoint degrees differ from interior ones
    x = np.random.default_rng(8).standard_normal((6, 2))
    r = verify_lemma_3_3(g, x, Activation("sigmoid"))
    assert not r.asserted
    assert r.gate_holds  # informational reports never gate


def test_theorem_3_4_identity_on_complete3():
    # all nonzero eigenvalues of K3 equal 1, so the bound collapses to zero
    g = generate("complete", 3)
    layer = LayerSpec(PolynomialFilter.propagation(), (np.eye(2),), Activation("identity"))
    x = np.random.default_rng(9).standard_normal((3, 2))
    r = verify_theorem_3_4(g, x, layer)
    assert r.rhs_paper == pytest.approx(0.0, abs=1e-24)
    assert r.lhs <= 1e-12
    assert r.gate_holds


def test_theorem_3_4_zero_weights():
    g = generate("path", 4)
    layer = LayerSpec(PolynomialFilter.propagation(), (np.zeros((2, 2)),), Activation("relu"))
    x = np.random.default_rng(10).standard_normal((4, 2))
    r = verify_theorem_3_4(g, x, layer)
    assert r.lhs == 0.0
    assert r.rhs_paper == 0.0
    assert r.gate_holds


def test_theorem_3_4_two_weight_chain_on_path3():
    # targets 1.5 and 0.5 multiply to s = 0.75
    g = generate("path", 3)
    layer = LayerSpec(
        PolynomialFilter.propagation(),
        (make_weights(2, 2, 1.5, seed=0), make_weights(2, 2, 0.5, seed=1)),
        Activation("relu"),
    )
    x = np.random.default_rng(11).standard_normal((3, 2))
    r = verify_theorem_3_4(g, x, layer)
    ex = dirichlet_energy_trace(x, augmented_normalized_laplacian(g))
    assert r.rhs_paper == pytest.approx(0.75 * 0.25 * ex, rel=1e-9)
    assert r.gate_holds


@pytest.mark.parametrize("target", [0.5, 1.0, 3.2])
def test_theorem_3_4_safe_bound_is_attained_at_every_gain(target):
    # X = v a^T, with v the eigenvector at the largest (1 - lam_i)^2 and a the
    # top left singular vector of W, makes the filter step and the weight step
    # equalities: E(f(X)) = s^2 * max (1 - lam_i)^2 * E(X), so the safe bound
    # needs the squared gain
    g = generate("ring", 12)
    eigenvalues, eigenvectors = np.linalg.eigh(augmented_normalized_laplacian(g))
    v = eigenvectors[:, 1 + int(np.argmax((1.0 - eigenvalues[1:]) ** 2))]
    w = make_weights(4, 4, target, seed=3)
    a = np.linalg.svd(w)[0][:, 0]
    layer = LayerSpec(PolynomialFilter.propagation(), (w,), Activation("identity"))
    r = verify_theorem_3_4(g, np.outer(v, a), layer)
    assert r.lhs / r.rhs_safe == pytest.approx(1.0, rel=1e-12)
    assert r.holds_safe and r.gate_holds


def test_theorem_3_4_rejects_other_filters_and_activations():
    g = generate("path", 3)
    x = np.ones((3, 1))
    bad_filter = LayerSpec(PolynomialFilter((0.5,)), (np.eye(1),), Activation("relu"))
    with pytest.raises(ValidationError, match="filter"):
        verify_theorem_3_4(g, x, bad_filter)
    bad_act = LayerSpec(PolynomialFilter.propagation(), (np.eye(1),), Activation("tanh"))
    with pytest.raises(ValidationError, match="ReLU"):
        verify_theorem_3_4(g, x, bad_act)


def test_lemma_7_2_quadratic_filter_holds():
    g = generate("erdos_renyi", 20, seed=12, p=0.3)
    x = np.random.default_rng(12).standard_normal((20, 3))
    r = verify_lemma_7_2(g, x, PolynomialFilter((0.7, -0.3, 0.05)))
    assert r.gate_holds


def test_lemma_7_2_can_violate_paper_bound_but_not_safe():
    # P(x) = x is tiny at the smallest nonzero eigenvalue yet large at the
    # top of the spectrum, so the nominal bound loses while the safe one holds
    g = generate("path", 10)
    # the eigenvector of the largest eigenvalue
    top = np.linalg.eigh(augmented_normalized_laplacian(g))[1][:, -1]
    r = verify_lemma_7_2(g, top, PolynomialFilter((0.0, 1.0)))
    assert r.holds_safe
    assert not r.holds_paper
    assert r.paper_violation


def test_fit_log_energy_slope_exact_geometric():
    energies = [100.0 * 0.5**l for l in range(12)]
    assert fit_log_energy_slope(energies) == pytest.approx(math.log(0.5), rel=1e-12)


def test_fit_log_energy_slope_ignores_dead_layers():
    assert math.isnan(fit_log_energy_slope([0.0, 0.0, 0.0]))
    assert math.isnan(fit_log_energy_slope([5.0, 0.0]))


def run_path3_trajectory(depth=20, target=1.0, seed=0):
    g = generate("path", 3)
    layers = [propagation_layer(4, target, seed=seed + i) for i in range(depth)]
    x0 = np.random.default_rng(seed).standard_normal((3, 4))
    return run_network(x0, layers, g)


def test_corollary_3_5_path3_unit_gain():
    # s = 1 and contraction factor 1/4: twenty layers shrink the energy
    # below (1/4)^20 E(X_0)
    traj = run_path3_trajectory()
    r = verify_corollary_3_5(traj)
    e = traj.energies()
    assert r.lhs == e[-1]
    assert r.rhs_safe == pytest.approx(0.25**20 * e[0], rel=1e-9)
    assert r.gate_holds
    # the realized per-layer product is an even tighter envelope
    product = np.prod([rec.bound_safe for rec in traj.records[1:]])
    assert e[-1] <= product * e[0] * (1.0 + 1e-6)


def test_corollary_3_5_rho_matches_realized_bounds_and_reports_slope():
    # seed 1 keeps the energy alive for ten layers, enough for the fit
    traj = run_path3_trajectory(seed=1)
    r = verify_corollary_3_5(traj)
    fields = dict(
        part.split("=", 1) for part in r.context.split() if "=" in part
    )
    rho_safe = float(fields["rho_safe"])
    assert rho_safe == pytest.approx(max(rec.bound_safe for rec in traj.records[1:]),
                                     rel=1e-6)
    assert float(fields["slope_limit"]) == pytest.approx(math.log(rho_safe) + 1e-6,
                                                         rel=1e-9)
    assert fields["slope_ok"] == "true"
    assert float(fields["slope"]) <= math.log(rho_safe) + 1e-6


def test_corollary_3_5_requires_contractive_bounds():
    traj = run_path3_trajectory(depth=3, target=5.0)  # rho = 5 * 0.25 > 1
    with pytest.raises(ValidationError, match="below 1"):
        verify_corollary_3_5(traj)


def test_corollary_3_5_zero_input_is_vacuous():
    g = generate("path", 3)
    layers = [propagation_layer(2, 0.9, seed=i) for i in range(4)]
    traj = run_network(np.zeros((3, 2)), layers, g)
    r = verify_corollary_3_5(traj)
    assert r.vacuous and r.gate_holds


def test_prop_7_1_path3_half_margin():
    # filter 1 - x with s = 1 gives max s P(lam_i)^2 = 1/4 < 1 - eps for
    # eps = 1/2, so energy decays at least as fast as 2^-l
    g = generate("path", 3)
    layers = [propagation_layer(3, 1.0, seed=i) for i in range(6)]
    x0 = np.random.default_rng(1).standard_normal((3, 3))
    verdict = verify_prop_7_1(run_network(x0, layers, g), epsilon=0.5)
    assert verdict.ok
    assert verdict.holds
    assert len(verdict.per_layer) == 6
    assert all(r.statement == "P7.1" for r in verdict.per_layer)
    assert verdict.decay.gate_holds


def test_prop_7_1_rejects_increasing_filter_with_witness():
    g = generate("path", 3)
    layer = LayerSpec(PolynomialFilter((0.0, 1.0)), (np.eye(2),), Activation("relu"))
    verdict = verify_prop_7_1(run_network(np.ones((3, 2)), [layer], g), epsilon=0.5)
    assert not verdict.ok
    assert "monotone" in verdict.reason
    assert verdict.witness is not None
    assert not verdict.holds


def test_prop_7_1_margin_precondition_is_a_verdict():
    # constant filter 0.9 has s P^2 = 0.81, which misses 1 - eps for eps = 0.5
    g = generate("path", 3)
    layer = LayerSpec(PolynomialFilter((0.9,)), (np.eye(2),), Activation("relu"))
    verdict = verify_prop_7_1(run_network(np.ones((3, 2)), [layer], g), epsilon=0.5)
    assert not verdict.ok
    assert "1 - eps" in verdict.reason
    assert verdict.witness is None


def test_prop_7_1_constant_filter_with_wide_margin():
    g = generate("path", 3)
    layer = LayerSpec(PolynomialFilter((0.9,)), (np.eye(2),), Activation("relu"))
    x0 = np.random.default_rng(3).standard_normal((3, 2))
    verdict = verify_prop_7_1(run_network(x0, [layer] * 5, g), epsilon=0.1)
    assert verdict.ok and verdict.holds


@pytest.mark.parametrize("later, holds", [(1e-13, True), (2e-12, False)])
def test_prop_7_1_zero_input_holds_iff_every_later_energy_is_at_most_1e_12(later, holds):
    # E_0 = 0: the decay report is vacuous, and it reads the later energies
    # themselves, not E_l / (1 - eps)^l, which exceeds 1e-12 here
    g = generate("path", 3)
    layer = propagation_layer(2, 1.0)
    first = LayerRecord(0.0, float("nan"), float("nan"), float("nan"), 2)
    rest = LayerRecord(later, 0.5, 0.05, 0.05, 2)
    traj = Trajectory(g, (layer,) * 3, (first, rest, rest, rest))
    assert _decay_ratio(1e-13, 0.1, 3) > VACUOUS_LHS_TOL
    verdict = verify_prop_7_1(traj, epsilon=0.9)
    assert verdict.ok
    assert verdict.decay.vacuous
    assert verdict.decay.gate_holds is holds


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.2, 1.5])
def test_prop_7_1_epsilon_validation(eps):
    g = generate("path", 3)
    layer = LayerSpec(PolynomialFilter.propagation(), (np.eye(1),), Activation("relu"))
    with pytest.raises(ValidationError):
        verify_prop_7_1(run_network(np.ones(3), [layer], g), epsilon=eps)


def test_prop_7_1_tanh_on_a_regular_graph_is_ok():
    g = generate("ring", 8)
    layers = [propagation_layer(2, 0.5, seed=i, act=Activation("tanh")) for i in range(4)]
    x0 = np.random.default_rng(0).standard_normal((8, 2))
    verdict = verify_prop_7_1(run_network(x0, layers, g), epsilon=0.3)
    assert verdict.ok and verdict.holds
    assert len(verdict.per_layer) == 4


@pytest.mark.parametrize("act", [Activation("tanh"), Activation("sigmoid")])
def test_prop_7_1_saturating_activation_on_an_irregular_graph_is_a_failed_precondition(act):
    g = generate("path", 5)
    layers = [propagation_layer(2, 0.5, seed=i, act=act) for i in range(3)]
    verdict = verify_prop_7_1(run_network(np.ones((5, 2)), layers, g), epsilon=0.3)
    assert not verdict.ok and not verdict.holds
    assert verdict.reason.startswith(f"layer 1: activation {act.kind}")
    assert verdict.witness is None
    assert verdict.per_layer == () and verdict.decay is None


def test_theorem_3_4_tanh_holds_on_a_ring_and_is_refused_on_a_path():
    layer = propagation_layer(2, 0.5, act=Activation("tanh"))
    g = generate("ring", 8)
    x = np.random.default_rng(0).standard_normal((8, 2))
    r = verify_theorem_3_4(g, x, layer)
    assert r.asserted and r.gate_holds and not r.vacuous
    with pytest.raises(ValidationError, match="ReLU/LeakyReLU"):
        verify_theorem_3_4(generate("path", 5), np.ones((5, 2)), layer)


def test_decay_ratio_past_the_float_range():
    # 0.5**1100 underflows to 0, so the ratio is taken in log space
    assert _decay_ratio(0.0188, 0.5, 1100) == math.inf
    assert _decay_ratio(0.0, 0.5, 1100) == 0.0
    assert _decay_ratio(2.0**-100, 0.5, 1100) == pytest.approx(2.0**1000, rel=1e-12)


@pytest.mark.parametrize("statement", STATEMENTS)
def test_suites_pass_at_smoke_scale(statement):
    res = run_suite(statement, trials=25, seed=0)
    assert res.ok
    assert res.n_fail == 0
    assert res.trials == 25
    assert all(r.context.startswith("seed=0 ") for r in res.reports)


def test_suites_are_deterministic():
    a = run_suite("L3.1", trials=10, seed=5)
    b = run_suite("L3.1", trials=10, seed=5)
    assert a == b


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_suites_run_together_match_each_suite_alone(seed):
    # the statements of a trial share its graph, which changes no report
    shared = run_suites(STATEMENTS, 25, seed)
    assert [result.statement for result in shared] == list(STATEMENTS)
    for result in shared:
        alone = run_suite(result.statement, 25, seed)
        assert (result.trials, result.seed) == (alone.trials, alone.seed)
        assert len(result.reports) == len(alone.reports)
        for a, b in zip(result.reports, alone.reports):
            assert repr(a) == repr(b)  # every field, floats to the last bit


def test_suites_run_together_build_each_trial_graph_once(monkeypatch):
    # L3.1, L3.2, L3.3, T3.4 and L7.2 draw one graph per trial, C3.5 and P7.1 another
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return generate(*args, **kwargs)

    monkeypatch.setattr(bounds, "generate", counting)
    run_suites(STATEMENTS, 10, 3)
    all_seven = len(calls)
    calls.clear()
    run_suites(("L3.1", "C3.5"), 10, 3)
    assert all_seven == len(calls) >= 10


def test_suite_l72_records_paper_violations_without_failing():
    # seed 7 draws a few arbitrary filters whose nominal bound loses while
    # the safe one holds; they must be counted, not asserted
    res = run_suite("L7.2", trials=15, seed=7)
    assert res.ok
    assert len(res.paper_violations) >= 1
    lines = "\n".join(res.summary_lines())
    assert "counterexample:" in lines
    assert "paper_bound_violations:" in lines


def test_suite_l33_mixes_asserted_and_informational():
    res = run_suite("L3.3", trials=10, seed=0)
    kinds = {r.asserted for r in res.reports}
    assert kinds == {True, False}
    # informational rows never count as failures
    assert res.n_fail == 0


def test_suite_validation():
    with pytest.raises(ValidationError):
        run_suite("L9.9", trials=5, seed=0)
    with pytest.raises(ValidationError):
        run_suite("L3.1", trials=0, seed=0)
    with pytest.raises(ValidationError, match="unknown statement 'L9.9'"):
        run_suites(("L3.1", "L9.9"), trials=5, seed=0)


def test_suite_result_excludes_vacuous_from_margin():
    vac = BoundReport("L3.1", 0.0, 0.0, 0.0, holds_paper=True, holds_safe=True, vacuous=True)
    ok = BoundReport("L3.1", 1.0, 2.0, 2.0, holds_paper=True, holds_safe=True)
    res = SuiteResult("L3.1", trials=2, seed=0, reports=(vac, ok))
    assert res.worst_margin == 1.0
    assert res.n_vacuous == 1
    assert res.ok
