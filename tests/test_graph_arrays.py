"""Array-backed graphs against per-edge loop references, and the cached
per-graph context (degrees, Laplacian, spectrum)."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gcn_energy.graphs as graphs
import gcn_energy.network as network
from gcn_energy import (
    Graph,
    PerturbationPlan,
    SweepConfig,
    apply_filter,
    augmented_normalized_laplacian,
    dirichlet_energy_edge_sum,
    generate,
    perturb,
    run_suite,
    run_sweep,
    verify_prop_7_1,
)
from gcn_energy.cli import main
from gcn_energy.config import load_run_config
from gcn_energy.network import Activation, LayerSpec, make_weights, run_network
from gcn_energy.spectral import PolynomialFilter, eval_filter_matrix

# ---------------------------------------------------------------------------
# loop references: the per-edge implementations the arrays replaced


def ref_weighted_degrees(n, edges):
    deg = np.zeros(n)
    for u, v, w in edges:
        deg[u] += w
        deg[v] += w
    return deg


def ref_laplacian(n, edges):
    dtil = 1.0 + ref_weighted_degrees(n, edges)
    inv_sqrt = 1.0 / np.sqrt(dtil)
    lap = np.zeros((n, n))
    np.fill_diagonal(lap, 1.0 - 1.0 / dtil)
    for u, v, w in edges:
        lap[u, v] = lap[v, u] = -w * inv_sqrt[u] * inv_sqrt[v]
    return lap


def ref_merge_edges(raw):
    merged = {}
    for u, v, w in raw:
        key = (u, v) if u < v else (v, u)
        merged[key] = merged.get(key, 0.0) + w
    return tuple((u, v, float(w)) for (u, v), w in sorted(merged.items()))


def ref_perturb(edges, plan):
    rng = np.random.default_rng(plan.seed)
    if plan.kind == "drop":
        m = math.ceil(plan.ratio * len(edges))
        if m == 0:
            return edges
        dropped = set(rng.choice(len(edges), size=m, replace=False).tolist())
        return tuple(e for i, e in enumerate(edges) if i not in dropped)
    chosen = set(rng.choice(len(edges), size=plan.count, replace=False).tolist())
    return tuple((u, v, w * plan.boost_factor) if i in chosen else (u, v, w)
                 for i, (u, v, w) in enumerate(edges))


def ref_edge_sum(x, n, edges):
    y = x / np.sqrt(1.0 + ref_weighted_degrees(n, edges))[:, None]
    us = np.fromiter((e[0] for e in edges), dtype=int, count=len(edges))
    vs = np.fromiter((e[1] for e in edges), dtype=int, count=len(edges))
    ws = np.fromiter((e[2] for e in edges), dtype=float, count=len(edges))
    diffs = y[us] - y[vs]
    return float(np.sum(ws * np.sum(diffs * diffs, axis=1)))


def raw_weighted_edges(seed, n=30, m=150):
    """Random weighted pairs in both orientations, with one pair repeated
    twelve times (reversed and forward) so its merged weight is a long sum."""
    rng = np.random.default_rng(seed)
    raw = []
    for _ in range(m):
        u, v = (int(a) for a in rng.choice(n, size=2, replace=False))
        raw.append((u, v, float(rng.uniform(0.01, 10.0))))
    raw += [((7, 3) if i % 2 else (3, 7)) + (float(rng.uniform(0.01, 10.0)),)
            for i in range(12)]
    return raw


@pytest.mark.parametrize("seed", range(4))
def test_arrays_match_loop_references_exactly(seed):
    raw = raw_weighted_edges(seed)
    n = 30
    u, v, w = (np.array(col) for col in zip(*raw))
    g = graphs._merge_edges(n, u, v, w)
    edges = ref_merge_edges(raw)
    assert g.edges == edges
    assert np.array_equal(g.weighted_degrees(), ref_weighted_degrees(n, edges))
    assert np.array_equal(augmented_normalized_laplacian(g), ref_laplacian(n, edges))
    x = np.random.default_rng(seed).standard_normal((n, 3))
    assert dirichlet_energy_edge_sum(x, g) == ref_edge_sum(x, n, edges)
    for plan in (PerturbationPlan.drop(0.3, seed=seed), PerturbationPlan.boost(9, 37.5, seed)):
        assert perturb(g, plan).edges == ref_perturb(edges, plan)


@st.composite
def weighted_graphs(draw):
    """Graphs of up to 60 nodes with weights far from 1; few edges leave
    isolated nodes and several components, none leaves the graph edgeless."""
    n = draw(st.integers(1, 60))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.floats(1e-3, 1e3)), max_size=3 * n))
    merged = {(min(a, b), max(a, b)): w for a, b, w in pairs if a != b}
    return Graph.from_edges(n, ((a, b, w) for (a, b), w in sorted(merged.items())))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(g=weighted_graphs(), channels=st.integers(0, 4), seed=st.integers(0, 2**32 - 1),
       coeffs=st.lists(st.floats(-3, 3), min_size=1, max_size=5))
@example(g=Graph.from_edges(6, ((0, 1, 0.5), (2, 3, 40.0))), channels=0, seed=0,
         coeffs=[1.0, -1.0])  # two components and two isolated nodes, 1-D input
@example(g=Graph.from_edges(3, ()), channels=2, seed=0, coeffs=[0.5, 2.0])  # edgeless
def test_laplacian_times_matches_the_dense_laplacian(g, channels, seed, coeffs):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(g.n if channels == 0 else (g.n, channels))
    lap = augmented_normalized_laplacian(g)
    got = g.laplacian_times(x)
    assert got.shape == x.shape
    # formed as x - P x with ||P|| <= 1, the product rounds relative to ||x||: on
    # weights near 1e-3, ||Ltil|| ||x|| is far smaller than that cancellation
    assert np.linalg.norm(got - lap @ x) <= 1e-14 * max(1.0, np.linalg.norm(lap, 2)) * np.linalg.norm(x)
    f = PolynomialFilter.from_coefficients(coeffs)
    want = eval_filter_matrix(f, lap) @ x
    # Horner and the eigenbasis both round at about eps * sum |a_k| ||Ltil||^k ||x||
    bound = sum(abs(c) * 2.0**k for k, c in enumerate(coeffs)) * np.linalg.norm(x)
    assert np.linalg.norm(apply_filter(f, g, x) - want) <= 1e-12 * bound


def test_run_above_the_lanczos_cutoff_builds_no_dense_matrix(tmp_path):
    # the forward pass multiplies on the edge arrays and the factors read the
    # Lanczos pair, so neither the Laplacian nor the spectrum is ever built
    doc = {"graph": "gen:er:750:0.02:4", "layers": 3, "channels": 4, "filter": [1.0, -1.0],
           "weights": {"target_singular": 0.9}, "activation": "relu", "seed": 2}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    setup = load_run_config(str(cfg))
    traj = run_network(setup.x0, setup.layers, setup.graph, placement=setup.placement)
    g = traj.graph
    assert g.n >= 700 and traj.depth == 3
    assert "laplacian" not in vars(g) and "spectrum" not in vars(g)
    assert "extremes" in vars(g)


# ---------------------------------------------------------------------------
# the graph as the prepared per-graph context


def test_context_properties_are_cached_and_read_only():
    g = generate("erdos_renyi", 15, seed=3, p=0.3)
    assert g.laplacian is g.laplacian
    assert g.spectrum is g.spectrum
    assert np.array_equal(g.laplacian, augmented_normalized_laplacian(g))
    with pytest.raises(ValueError):
        g.laplacian[0, 0] = 1.0
    with pytest.raises(ValueError):
        g.u[0] = 1
    with pytest.raises(ValueError):
        g.w[0] = 2.0


@pytest.fixture
def counted(monkeypatch):
    """Count the Laplacian builds and eigensolves, wherever a module calls them."""
    calls = {"laplacian": 0, "eigendecompose": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for attr, name in (("augmented_normalized_laplacian", "laplacian"),
                       ("eigendecompose", "eigendecompose")):
        original = getattr(graphs, attr)
        wrapper = counting(name, original)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("gcn_energy") and getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, wrapper)
    return calls


def test_weight_and_activation_suites_build_no_laplacian(counted):
    # L3.2 and L3.3 need no factors and no filter, and their edge-sum
    # energies read only the edge arrays
    run_suite("L3.2", trials=5, seed=2)
    run_suite("L3.3", trials=5, seed=2)
    assert counted == {"laplacian": 0, "eigendecompose": 0}


def test_prop_7_1_suite_runs_one_eigensolve_per_trial(counted):
    run_suite("P7.1", trials=5, seed=2)
    assert counted["eigendecompose"] == 5


def test_run_prop71_runs_one_eigensolve(counted, tmp_path, capsys):
    doc = {"graph": "gen:ring:8", "layers": 4, "channels": 2, "filter": [0.6, -0.3],
           "weights": {"target_singular": 0.9}, "activation": "relu", "seed": 1}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfg), "--mode", "prop71"]) == 0
    assert "preconditions ok" in capsys.readouterr().out
    assert counted["eigendecompose"] == 1


def test_sweep_builds_one_laplacian_and_one_eigensolve_per_graph(counted):
    # 5 trials x 4 operations: the base graph and 20 perturbed graphs
    cfg = SweepConfig(graph=generate("erdos_renyi", 30, seed=1, p=0.2),
                      drop_ratios=(0.1, 0.3, 0.5), boost_counts=(5,), trials=5)
    rows = run_sweep(cfg)
    assert len(rows) == 20
    assert counted == {"laplacian": 21, "eigendecompose": 21}


def test_layer_gain_is_computed_once_at_construction(monkeypatch):
    layers = [LayerSpec(PolynomialFilter((0.6, -0.3)), (make_weights(2, 2, 0.9, seed=i),),
                        Activation.relu()) for i in range(3)]

    def refuse(w):
        raise AssertionError("gain recomputed an SVD")

    monkeypatch.setattr(network, "top_singular_value", refuse)
    x0 = np.random.default_rng(0).standard_normal((8, 2))
    g = generate("ring", 8)
    verdict = verify_prop_7_1(run_network(x0, layers, g), epsilon=0.2)
    assert verdict.ok and verdict.holds
    assert layers[0].gain() == pytest.approx(0.9, rel=1e-12)
