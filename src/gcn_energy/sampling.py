"""Seeded random instances (graphs, embeddings, weight chains) for suites and tests."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .graphs import Graph, generate
from .network import make_weights

KINDS = ("erdos_renyi", "ring", "k_regular", "path")


def random_graph(rng: np.random.Generator, *, n_lo: int = 5,
                 n_hi: int = 60) -> tuple[Graph, str]:
    """Draw one graph with at least one edge plus a short description of how it was built."""
    kind = KINDS[int(rng.integers(len(KINDS)))]
    n = int(rng.integers(n_lo, n_hi + 1))
    if kind in ("ring", "k_regular"):
        n = max(n, 3)
    if kind == "erdos_renyi":
        p = float(rng.uniform(0.05, 0.5))
        for _ in range(200):
            seed = int(rng.integers(2**63))
            g = generate("erdos_renyi", n, seed, p=p)
            if g.edge_count > 0:
                return g, f"er(n={n},p={p:.3f},seed={seed})"
        raise ValidationError(f"no edges after 200 draws for erdos_renyi({n}, {p})")
    if kind == "ring":
        return generate("ring", n), f"ring(n={n})"
    if kind == "k_regular":
        k_max = max(1, min(4, (n - 1) // 2))
        k = 2 * int(rng.integers(1, k_max + 1))
        return generate("k_regular", n, k=k), f"kregular(n={n},k={k})"
    return generate("path", n), f"path(n={n})"


def random_embedding(rng: np.random.Generator, n: int) -> np.ndarray:
    channels = int(rng.integers(1, 9))  # 1 to 8
    return rng.standard_normal((n, channels))


def random_weight_chain(rng: np.random.Generator,
                        c_in: int) -> tuple[tuple[np.ndarray, ...], str]:
    """Rectangular chain of 1 to 3 weight matrices, widths 1 to 8, with
    per-matrix top singular values drawn from [0.2, 1.0].

    Targets stay at most 1.0 so the chained energy bound with the unsquared
    gain product stays valid.
    """
    depth = int(rng.integers(1, 4))
    dims = [c_in] + [int(rng.integers(1, 9)) for _ in range(depth)]
    weights = []
    targets = []
    for h in range(depth):
        target = float(rng.uniform(0.2, 1.0))
        targets.append(target)
        weights.append(make_weights(dims[h], dims[h + 1], target, seed=int(rng.integers(2**63))))
    desc = "x".join(str(d) for d in dims) + " targets=" + ",".join(f"{t:.3f}" for t in targets)
    return tuple(weights), desc
