import numpy as np
import pytest

from gcn_energy import (
    Graph,
    ValidationError,
    as_embedding,
    augmented_normalized_laplacian,
    dirichlet_energy_edge_sum,
    dirichlet_energy_trace,
    generate,
    perturb,
)


def random_instance(seed, weighted=False):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 50))
    g = generate("erdos_renyi", n, seed=seed, p=float(rng.uniform(0.1, 0.5)))
    if weighted and g.edge_count:
        g = perturb(g, "boost", 1, seed=seed, factor=float(rng.choice([10.0, 10000.0])))
    x = rng.standard_normal((n, int(rng.integers(1, 8))))
    return g, x


def test_energy_k2_single_spike():
    # X = (1, 0) on K2: edge term (1/sqrt(2) - 0)^2 = 1/2
    g = generate("complete", 2)
    lap = augmented_normalized_laplacian(g)
    assert dirichlet_energy_trace([1.0, 0.0], lap) == pytest.approx(0.5, abs=1e-15)
    assert dirichlet_energy_edge_sum([1.0, 0.0], g) == pytest.approx(0.5, abs=1e-15)


def test_energy_k2_antisymmetric():
    # X = (1, -1) on K2: (1/sqrt(2) + 1/sqrt(2))^2 = 2
    g = generate("complete", 2)
    lap = augmented_normalized_laplacian(g)
    assert dirichlet_energy_trace([1.0, -1.0], lap) == pytest.approx(2.0, abs=1e-14)


def test_energy_weighted_edge_hand_value():
    # single edge of weight 3: degrees (3, 3), augmented (4, 4),
    # E((1, 0)) = 3 * (1/2 - 0)^2 = 3/4
    g = Graph(2, [0], [1], [3.0])
    assert dirichlet_energy_edge_sum([1.0, 0.0], g) == pytest.approx(0.75, abs=1e-15)
    lap = augmented_normalized_laplacian(g)
    assert dirichlet_energy_trace([1.0, 0.0], lap) == pytest.approx(0.75, abs=1e-15)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("weighted", [False, True])
def test_trace_and_edge_sum_forms_agree(seed, weighted):
    g, x = random_instance(seed, weighted=weighted)
    lap = augmented_normalized_laplacian(g)
    a = dirichlet_energy_trace(x, lap)
    b = dirichlet_energy_edge_sum(x, g)
    assert a == pytest.approx(b, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_energy_is_nonnegative(seed):
    g, x = random_instance(seed)
    assert dirichlet_energy_trace(x, augmented_normalized_laplacian(g)) >= 0.0


def test_energy_vanishes_on_kernel_vector():
    g = generate("erdos_renyi", 30, seed=4, p=0.2)
    lap = augmented_normalized_laplacian(g)
    kernel = np.sqrt(g.augmented_degrees)
    assert dirichlet_energy_trace(kernel, lap) <= 1e-12
    assert dirichlet_energy_edge_sum(kernel, g) <= 1e-12


def test_edge_sum_energies_derive_the_degrees_once(monkeypatch):
    g, x = random_instance(5)
    calls = []
    original = Graph.weighted_degrees

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Graph, "weighted_degrees", counting)
    energies = {dirichlet_energy_edge_sum(x, g) for _ in range(5)}
    assert len(energies) == 1
    assert len(calls) == 1
    assert not g.augmented_degrees.flags.writeable


def test_energy_additive_over_channels():
    g, x = random_instance(3)
    lap = augmented_normalized_laplacian(g)
    total = dirichlet_energy_trace(x, lap)
    per_channel = sum(dirichlet_energy_trace(x[:, j], lap) for j in range(x.shape[1]))
    assert total == pytest.approx(per_channel, rel=1e-12)


def test_energy_scales_quadratically():
    g, x = random_instance(5)
    lap = augmented_normalized_laplacian(g)
    base = dirichlet_energy_trace(x, lap)
    assert dirichlet_energy_trace(2.5 * x, lap) == pytest.approx(6.25 * base, rel=1e-12)


def test_energy_of_zero_embedding_is_zero():
    g = generate("ring", 5)
    assert dirichlet_energy_trace(np.zeros((5, 3)), augmented_normalized_laplacian(g)) == 0.0
    assert dirichlet_energy_edge_sum(np.zeros((5, 3)), g) == 0.0


def test_energy_on_edgeless_graph_is_zero():
    g = Graph(4, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))
    x = np.arange(8.0).reshape(4, 2)
    assert dirichlet_energy_edge_sum(x, g) == 0.0
    assert dirichlet_energy_trace(x, augmented_normalized_laplacian(g)) == 0.0


def test_as_embedding_promotes_vectors():
    assert as_embedding([1.0, 2.0], 2).shape == (2, 1)


@pytest.mark.parametrize("bad", [np.zeros((3, 2)), np.full((2, 2), np.nan), np.zeros((2, 2, 2))])
def test_as_embedding_rejects_bad_shapes_and_values(bad):
    with pytest.raises(ValidationError):
        as_embedding(bad, 2)
