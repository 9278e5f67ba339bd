"""Array-backed graphs against per-edge loop references, and the cached
per-graph context (degrees, edge layout, spectrum)."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gcn_energy.graphs as graphs
import gcn_energy.network as network
from gcn_energy import (
    Graph,
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
from gcn_energy.spectral import PolynomialFilter, eval_filter_matrix, filter_contraction

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


def ref_perturb(edges, op, param, seed, factor=1.0):
    rng = np.random.default_rng(seed)
    if op == "drop":
        m = math.ceil(param * len(edges))
        if m == 0:
            return edges
        dropped = set(rng.choice(len(edges), size=m, replace=False).tolist())
        return tuple(e for i, e in enumerate(edges) if i not in dropped)
    chosen = set(rng.choice(len(edges), size=param, replace=False).tolist())
    return tuple((u, v, w * factor) if i in chosen else (u, v, w)
                 for i, (u, v, w) in enumerate(edges))


def ref_edge_sum(x, n, edges):
    """Per edge, the squared differences added channel by channel in order."""
    y = x / np.sqrt(1.0 + ref_weighted_degrees(n, edges))[:, None]
    us = np.fromiter((e[0] for e in edges), dtype=int, count=len(edges))
    vs = np.fromiter((e[1] for e in edges), dtype=int, count=len(edges))
    ws = np.fromiter((e[2] for e in edges), dtype=float, count=len(edges))
    squares = np.zeros(len(edges))
    for c in range(x.shape[1]):
        diffs = y[us, c] - y[vs, c]
        squares += diffs * diffs
    return float(np.sum(ws * squares))


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
    for channels in (1, 3, 8, 16):
        x = np.random.default_rng(seed).standard_normal((n, channels))
        assert dirichlet_energy_edge_sum(x, g) == ref_edge_sum(x, n, edges)
    for args in (("drop", 0.3, seed), ("boost", 9, seed, 37.5)):
        assert perturb(g, *args).edges == ref_perturb(edges, *args)


@st.composite
def weighted_graphs(draw):
    """Graphs of up to 60 nodes with weights far from 1; few edges leave
    isolated nodes and several components, none leaves the graph edgeless."""
    n = draw(st.integers(1, 60))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.floats(1e-3, 1e3)), max_size=3 * n))
    merged = {(min(a, b), max(a, b)): w for a, b, w in pairs if a != b}
    ends = sorted(merged)
    u, v = np.array(ends, dtype=np.int64).reshape(-1, 2).T
    return Graph(n, u, v, np.array([merged[e] for e in ends]))


@settings(max_examples=200)
@given(g=weighted_graphs(), channels=st.integers(0, 4), seed=st.integers(0, 2**32 - 1),
       coeffs=st.lists(st.floats(-3, 3), min_size=1, max_size=5))
@example(g=Graph(6, [0, 2], [1, 3], [0.5, 40.0]), channels=0, seed=0,
         coeffs=[1.0, -1.0])  # two components and two isolated nodes, 1-D input
@example(g=Graph(3, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)), channels=2, seed=0,
         coeffs=[0.5, 2.0])  # edgeless
def test_laplacian_times_matches_the_dense_laplacian(g, channels, seed, coeffs):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(g.n if channels == 0 else (g.n, channels))
    lap = augmented_normalized_laplacian(g)
    got = g.laplacian_times(x)
    assert got.shape == x.shape
    # formed as x - P x with ||P|| <= 1, the product rounds relative to ||x||: on
    # weights near 1e-3, ||Ltil|| ||x|| is far smaller than that cancellation
    assert np.linalg.norm(got - lap @ x) <= 1e-14 * max(1.0, np.linalg.norm(lap, 2)) * np.linalg.norm(x)
    f = PolynomialFilter(coeffs)
    want = eval_filter_matrix(f, lap) @ x
    # Horner and the eigenbasis both round at about eps * sum |a_k| ||Ltil||^k ||x||
    bound = sum(abs(c) * 2.0**k for k, c in enumerate(coeffs)) * np.linalg.norm(x)
    assert np.linalg.norm(apply_filter(f, g, x) - want) <= 1e-12 * bound


def test_run_above_the_lanczos_cutoff_builds_no_dense_matrix(counted, tmp_path):
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
    assert counted["laplacian"] == 0 and "spectrum" not in vars(g)
    assert "extremes" in vars(g)


# ---------------------------------------------------------------------------
# the graph as the prepared per-graph context


def test_context_properties_are_cached_and_read_only():
    g = generate("erdos_renyi", 15, seed=3, p=0.3)
    assert g.spectrum is g.spectrum
    with pytest.raises(ValueError):
        g.u[0] = 1
    with pytest.raises(ValueError):
        g.w[0] = 2.0


def test_the_graph_holds_no_dense_matrix():
    # every context member is built here; the n x n Laplacian of the
    # eigensolve is not one of them
    g = generate("erdos_renyi", 15, seed=3, p=0.3)
    assert g.spectrum.size == g.n and g.extremes.size == 2
    f = PolynomialFilter((0.2, 0.9, -1.1, 0.3))
    filter_contraction(f, g)
    layer = LayerSpec(f, (make_weights(2, 2, 0.9, seed=1),), Activation("relu"))
    run_network(np.random.default_rng(3).standard_normal((g.n, 2)), [layer], g)
    assert "spectrum" in vars(g) and "extremes" in vars(g) and "neighbours" in vars(g)
    for name, value in vars(g).items():
        assert not (isinstance(value, np.ndarray) and value.ndim == 2), name


def test_the_energy_command_builds_one_laplacian(counted, capsys):
    assert main(["energy", "--graph", "gen:er:20:0.3:5"]) == 0
    capsys.readouterr()
    assert counted == {"laplacian": 1, "eigendecompose": 0, "products": 0}


def test_weight_and_activation_suites_build_no_laplacian(counted):
    # L3.2 and L3.3 need no factors and no filter, and their edge-sum
    # energies read only the edge arrays
    run_suite("L3.2", trials=5, seed=2)
    run_suite("L3.3", trials=5, seed=2)
    assert counted == {"laplacian": 0, "eigendecompose": 0, "products": 0}


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
    assert counted == {"laplacian": 21, "eigendecompose": 21, "products": 0}


def test_layer_gain_is_computed_once_at_construction(monkeypatch):
    layers = [LayerSpec(PolynomialFilter((0.6, -0.3)), (make_weights(2, 2, 0.9, seed=i),),
                        Activation("relu")) for i in range(3)]

    def refuse(w):
        raise AssertionError("gain recomputed an SVD")

    monkeypatch.setattr(network, "top_singular_value", refuse)
    x0 = np.random.default_rng(0).standard_normal((8, 2))
    g = generate("ring", 8)
    verdict = verify_prop_7_1(run_network(x0, layers, g), epsilon=0.2)
    assert verdict.ok and verdict.holds
    assert layers[0].gain() == pytest.approx(0.9, rel=1e-12)
