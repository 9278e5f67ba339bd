import math

import numpy as np
import pytest

import gcn_energy.network as network
from gcn_energy import (
    Activation,
    LayerSpec,
    PolynomialFilter,
    Trajectory,
    ValidationError,
    apply_activation,
    dirichlet_energy_trace,
    generate,
    layer_forward,
    make_weights,
    run_network,
    top_singular_value,
)
from gcn_energy.network import LayerRecord
from gcn_energy.spectral import eval_filter_matrix


def identity_layer(n_channels=1, filt=(1.0, -1.0), act=None):
    return LayerSpec(
        filter=PolynomialFilter(filt),
        weights=(np.eye(n_channels),),
        activation=act or Activation.relu(),
    )


@pytest.mark.parametrize(
    "kind, x, expected",
    [
        ("relu", [-2.0, 0.0, 3.0], [0.0, 0.0, 3.0]),
        ("identity", [-2.0, 0.5], [-2.0, 0.5]),
        ("tanh", [0.0], [0.0]),
        ("sigmoid", [0.0], [0.5]),
    ],
)
def test_activation_pointwise_values(kind, x, expected):
    out = apply_activation(np.array(x), Activation(kind))
    assert np.allclose(out, expected, atol=1e-15)


def test_leaky_relu_slope_applies_to_negatives_only():
    act = Activation.leaky_relu(0.2)
    out = apply_activation(np.array([-5.0, 5.0]), act)
    assert out.tolist() == [-1.0, 5.0]


@pytest.mark.parametrize("kind", ["tanh", "sigmoid"])
def test_saturating_activations_do_not_overflow(kind):
    out = apply_activation(np.array([-1000.0, 1000.0]), Activation(kind))
    assert np.all(np.isfinite(out))
    lo = -1.0 if kind == "tanh" else 0.0
    assert out[0] == pytest.approx(lo, abs=1e-12)
    assert out[1] == pytest.approx(1.0, abs=1e-12)


def test_sigmoid_matches_naive_formula_on_moderate_inputs():
    x = np.linspace(-30.0, 30.0, 101)
    out = apply_activation(x, Activation.sigmoid())
    assert np.allclose(out, 1.0 / (1.0 + np.exp(-x)), rtol=1e-14)


@pytest.mark.parametrize("slope", [None, 0.0, 1.0, -0.5, 2.0])
def test_leaky_relu_slope_must_be_strictly_inside_unit_interval(slope):
    with pytest.raises(ValidationError):
        Activation("leaky_relu", slope)


def test_non_leaky_activations_take_no_slope():
    with pytest.raises(ValidationError):
        Activation("relu", 0.5)
    with pytest.raises(ValidationError):
        Activation("bogus")


@pytest.mark.parametrize("rows, cols", [(1, 1), (3, 3), (2, 7), (9, 4)])
def test_make_weights_hits_the_target_singular_value(rows, cols):
    target = 1.7
    w = make_weights(rows, cols, target, seed=11)
    assert w.shape == (rows, cols)
    top = float(np.linalg.svd(w, compute_uv=False)[0])
    assert top == pytest.approx(target, rel=1e-12)


def test_make_weights_is_deterministic_per_seed():
    a = make_weights(4, 4, 1.0, seed=3)
    b = make_weights(4, 4, 1.0, seed=3)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("bad", [dict(rows=0, cols=2), dict(rows=2, cols=2, target=0.0),
                                 dict(rows=2, cols=2, target=math.inf)])
def test_make_weights_validation(bad):
    rows = bad.get("rows", 2)
    cols = bad.get("cols", 2)
    target = bad.get("target", 1.0)
    with pytest.raises(ValidationError):
        make_weights(rows, cols, target)


def test_top_singular_value_matches_svd_oracle():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((5, 3))
    assert top_singular_value(w) == pytest.approx(np.linalg.svd(w, compute_uv=False)[0])


def test_layer_spec_gain_is_product_of_top_singular_values():
    rng = np.random.default_rng(1)
    ws = (rng.standard_normal((4, 6)), rng.standard_normal((6, 2)))
    spec = LayerSpec(PolynomialFilter.propagation(), ws, Activation.relu())
    expected = np.prod([np.linalg.svd(w, compute_uv=False)[0] for w in ws])
    assert spec.gain() == pytest.approx(expected, rel=1e-12)
    assert spec.input_channels == 4
    assert spec.output_channels == 2


def test_layer_spec_rejects_broken_chain():
    ws = (np.zeros((3, 4)), np.zeros((5, 2)))
    with pytest.raises(ValidationError, match="matrices 0 and 1"):
        LayerSpec(PolynomialFilter.propagation(), ws, Activation.relu())


def test_layer_spec_rejects_empty_or_bad_weights():
    with pytest.raises(ValidationError):
        LayerSpec(PolynomialFilter.propagation(), (), Activation.relu())
    with pytest.raises(ValidationError):
        LayerSpec(PolynomialFilter.propagation(), (np.array([1.0, 2.0]),), Activation.relu())
    with pytest.raises(ValidationError):
        LayerSpec(PolynomialFilter.propagation(), (np.full((2, 2), np.inf),), Activation.relu())


def test_layer_forward_k2_hand_value():
    # P of K2 averages the two nodes: P(1,0) = (1/2, 1/2); identity weight
    # and ReLU leave it unchanged
    g = generate("complete", 2)
    out = layer_forward([1.0, 0.0], identity_layer(), g)
    assert np.allclose(out, [[0.5], [0.5]], atol=1e-12)


def test_layer_forward_checks_channel_count():
    g = generate("path", 3)
    with pytest.raises(ValidationError, match="channels"):
        layer_forward(np.ones((3, 2)), identity_layer(1), g)


def test_layer_forward_rejects_unknown_placement():
    g = generate("path", 3)
    with pytest.raises(ValidationError):
        layer_forward(np.ones(3), identity_layer(), g, placement="middle")


def test_placements_differ_for_sigmoid():
    # paper placement squashes the filtered input once more than the
    # conventional one, so outputs must differ
    g = generate("path", 4)
    spec = identity_layer(act=Activation.sigmoid())
    x = np.array([1.0, -2.0, 3.0, -4.0])
    a = layer_forward(x, spec, g, placement="paper")
    b = layer_forward(x, spec, g, placement="conventional")
    assert not np.allclose(a, b)


def test_placements_agree_for_identity_activation():
    g = generate("path", 4)
    spec = identity_layer(act=Activation.identity())
    x = np.array([1.0, -2.0, 3.0, -4.0])
    a = layer_forward(x, spec, g, placement="paper")
    b = layer_forward(x, spec, g, placement="conventional")
    assert np.allclose(a, b)


def test_run_network_record_shape_and_layer_zero():
    g = generate("erdos_renyi", 12, seed=2, p=0.4)
    rng = np.random.default_rng(5)
    layers = [
        LayerSpec(PolynomialFilter.propagation(),
                  (make_weights(3, 3, 0.9, seed=i),),
                  Activation.relu())
        for i in range(4)
    ]
    traj = run_network(rng.standard_normal((12, 3)), layers, g)
    assert traj.depth == 4
    assert len(traj.records) == 5
    assert math.isnan(traj.records[0].bound_paper)
    assert math.isnan(traj.records[0].bound_safe)
    assert all(rec.energy >= 0.0 for rec in traj.records)
    assert [layer.gain() for layer in traj.layers] == pytest.approx((0.9,) * 4, rel=1e-12)


def test_run_network_returns_the_run_with_its_graph_and_layers():
    g = generate("ring", 6)
    layers = [identity_layer(2), identity_layer(2, filt=(0.5, -0.25))]
    traj = run_network(np.ones((6, 2)), layers, g)
    assert traj.graph is g
    assert len(traj.layers) == traj.depth == 2
    assert all(a is b for a, b in zip(traj.layers, layers))


@pytest.mark.parametrize("placement", ["paper", "conventional"])
def test_run_network_matches_eigenbasis_reference_loop(placement):
    # the Horner forward pass and edge-sum energies against a loop that filters
    # with V diag(p(lam)) V^T and takes energies in the trace form
    g = generate("erdos_renyi", 40, seed=4, p=0.15)
    act = Activation.leaky_relu(0.3)
    filters = [(1.0, -1.0), (0.6, -0.5, 0.1), (0.2, 0.9, -1.1, 0.3), (0.9,), (1.0, -1.0)]
    layers = [LayerSpec(PolynomialFilter(f), (make_weights(3, 5, 1.3, seed=i),
                                              make_weights(5, 3, 0.8, seed=50 + i)), act)
              for i, f in enumerate(filters)]
    x = np.random.default_rng(9).standard_normal((g.n, 3))
    traj = run_network(x, layers, g, placement=placement)
    for l, rec in enumerate(traj.records):
        if l:
            spec = layers[l - 1]
            x = eval_filter_matrix(spec.filter, g.laplacian) @ x
            if placement == "paper":
                x = apply_activation(x, act)
            for w in spec.weights:
                x = apply_activation(x @ w, act)
        norm_sq = float(np.sum(x * x))
        energy = dirichlet_energy_trace(x, g.laplacian)
        assert abs(rec.energy - energy) <= 1e-10 * norm_sq, l
        assert rec.rayleigh == pytest.approx(energy / norm_sq, rel=1e-9, abs=1e-12)
        assert rec.channels == x.shape[1]


def test_run_network_tracks_changing_channel_widths():
    g = generate("ring", 10)
    layers = [
        LayerSpec(PolynomialFilter.propagation(),
                  (make_weights(8, 16, 1.0, seed=0), make_weights(16, 4, 1.0, seed=1)),
                  Activation.relu()),
        LayerSpec(PolynomialFilter.propagation(),
                  (make_weights(4, 2, 1.0, seed=2),),
                  Activation.relu()),
    ]
    traj = run_network(np.random.default_rng(0).standard_normal((10, 8)), layers, g)
    assert [rec.channels for rec in traj.records] == [8, 4, 2]


def test_run_network_names_offending_layer_on_channel_mismatch():
    g = generate("ring", 6)
    layers = [identity_layer(2), identity_layer(3)]
    with pytest.raises(ValidationError, match="layer 1"):
        run_network(np.ones((6, 2)), layers, g)


def test_run_network_requires_a_layer():
    g = generate("ring", 6)
    with pytest.raises(ValidationError, match="at least one layer"):
        run_network(np.ones(6), [], g)


@pytest.mark.parametrize("seed", range(5))
def test_per_layer_energy_respects_safe_bound_when_gain_at_most_one(seed):
    # with ReLU and gains <= 1 every step contracts by at most
    # gain^2 * max P(lam_i)^2, checked layer by layer
    rng = np.random.default_rng(seed)
    g = generate("erdos_renyi", 20, seed=seed, p=0.3)
    layers = [
        LayerSpec(PolynomialFilter.propagation(),
                  (make_weights(3, 3, float(rng.uniform(0.2, 1.0)), seed=10 * seed + i),),
                  Activation.relu())
        for i in range(6)
    ]
    traj = run_network(rng.standard_normal((20, 3)), layers, g)
    energies = traj.energies()
    for i in range(1, len(energies)):
        bound = traj.records[i].bound_safe * energies[i - 1]
        assert energies[i] <= bound * (1.0 + 1e-9) + 1e-12


def test_trajectory_validates_record_indices_and_energies():
    # one record per stage: the input and one per layer
    g = generate("ring", 6)
    layer = identity_layer(2)
    rec0 = LayerRecord(1.0, 0.5, float("nan"), float("nan"), 2)
    rec1 = LayerRecord(1.0, 0.5, 1.0, 1.0, 2)
    assert Trajectory(g, (layer,), (rec0, rec1)).depth == 1
    with pytest.raises(ValidationError, match="needs 2 records, got 1"):
        Trajectory(g, (layer,), (rec0,))
    with pytest.raises(ValidationError, match="needs 2 records, got 3"):
        Trajectory(g, (layer,), (rec0, rec1, rec1))
    negative = LayerRecord(-0.5, 0.5, 1.0, 1.0, 2)
    with pytest.raises(ValidationError, match="negative energy"):
        Trajectory(g, (layer,), (rec0, negative))


def test_deep_contractive_run_decays_exponentially():
    # the nominal rho = 3.2 / 4 = 0.8 on the three-node path: after 30 layers
    # the energy ratio sits far below 0.8^30
    g = generate("path", 3)
    layers = [
        LayerSpec(PolynomialFilter.propagation(),
                  (make_weights(4, 4, 3.2, seed=100 + i),),
                  Activation.relu())
        for i in range(30)
    ]
    x0 = np.random.default_rng(0).standard_normal((3, 4))
    traj = run_network(x0, layers, g)
    e = traj.energies()
    assert e[30] <= (0.8**30) * e[0] * (1.0 + 1e-6)


def test_run_reads_the_factors_once_per_distinct_filter(monkeypatch):
    calls = []
    original = network.filter_contraction

    def counting(f, g):
        calls.append(f.coefficients)
        return original(f, g)

    monkeypatch.setattr(network, "filter_contraction", counting)
    filters = [(1.0, -1.0)] * 4 + [(0.5, -0.25)] * 2 + [(1.0, -1.0)]
    layers = [identity_layer(2, filt) for filt in filters]
    g = generate("ring", 9)
    x0 = np.random.default_rng(3).standard_normal((9, 2))
    traj = run_network(x0, layers, g)
    assert calls == [(1.0, -1.0), (0.5, -0.25)]
    for spec, rec in zip(layers, traj.records[1:]):
        fc = original(spec.filter, g)
        assert (rec.bound_paper, rec.bound_safe) == (fc.paper, fc.safe)
