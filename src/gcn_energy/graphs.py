"""Undirected weighted graphs and their augmented normalized Laplacians.

The central object is an immutable :class:`Graph`: a node count plus three
read-only edge arrays, endpoints ``u``, ``v`` and weights ``w``, sorted by
``(u, v)`` with ``u < v``, no duplicate pair and ``w > 0``; ``Graph.edges``
derives ``(u, v, w)`` tuples from them.  Explicit self-loops are rejected;
augmentation adds the implicit unit self-loop to every node instead.  With
``A`` the weighted adjacency matrix, ``Atil = A + I`` and ``Dtil = D + I``
(``D`` the diagonal of weighted degrees), the augmented normalized Laplacian is

    Ltil = I - Dtil^{-1/2} Atil Dtil^{-1/2}

and the propagation matrix is its complement ``P = I - Ltil``.  ``Ltil`` is
symmetric positive semidefinite with eigenvalues in ``[0, 2)``, and
``P`` fixes the vector ``Dtil^{1/2} 1``.  Restricted to each connected
component that vector spans the kernel of ``Ltil`` exactly, so the kernel
dimension is the number of components and needs no zero tolerance.

A graph is also the one spectral context every statement, run, suite and
sweep on it shares: its ``augmented_degrees``, ``inv_sqrt_degrees``,
``component_labels``, ``kernel_dim`` (the component count), ``laplacian``,
``spectrum`` (the ascending eigenvalues, the first ``kernel_dim`` of which
span the kernel) and ``extremes`` are built on first use and then cached,
read-only, on the graph, so each graph gets at most one Laplacian and one
dense eigensolve.  Every product with ``Ltil`` outside the dense eigensolve
and the ``energy`` command's trace form is ``Graph.laplacian_times``, two
``np.bincount`` calls over the edge arrays per channel.
``extremes`` is always the pair ``[lam_min_nonzero, lam_max]``, all that the
contraction factors of a monotone filter need.  Once the graph has
``LANCZOS_MIN_NODES`` nodes it comes from Lanczos on the edge arrays, with no
Laplacian and no dense solve; a smaller graph, or one Lanczos cannot settle,
takes the pair from ``spectrum``.  The dense eigensolve takes the Laplacian
as built, unchecked: the edge checks of :class:`Graph` (finite positive
weights, one entry per pair) and the finite-degree check of
``augmented_degrees`` make it finite, and both triangles are written from one
array, so it is exactly symmetric.  The component labels come from
vectorized label propagation over the edge arrays.

Graphs stay at desk scale: at most ``MAX_NODES`` nodes, the size at which
the dense Laplacian and spectrum still fit in memory.  The ``spectrum``
command, small graphs, graphs Lanczos cannot settle and filters that are not
monotone need them; a run on the edge arrays alone needs neither.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericError, ParseError, ValidationError
from .spectral import LANCZOS_MIN_NODES, eigendecompose, lanczos_extremes, nonzero_spectrum

Edge = tuple[int, int, float]

# at this n one dense float64 n x n matrix takes 0.8 GB, and the dense eigensolve holds two:
# the Laplacian and the copy eigvalsh works on
MAX_NODES = 10_000
# work sizes of one command, checked before any weight is drawn or array allocated
MAX_LAYERS = 10_000          # run "layers"
MAX_CHANNELS = 4_096         # every channel width, in configs and energy --channels
MAX_WEIGHT_ENTRIES = 10**7   # all weight matrices of one run together, 80 MB
MAX_TRIALS = 100_000         # sweep "trials" and verify --trials


def check_work_size(name: str, value: int, limit: int, unit: str) -> None:
    """Reject ``value`` of ``name`` above ``limit`` (exit 2)."""
    if value > limit:
        raise ValidationError(f"{name} is {value}, above the limit of {limit} {unit}")


def _check_node_count(n: int) -> None:
    if n > MAX_NODES:
        raise ValidationError(f"graph has {n} nodes, above the limit of {MAX_NODES} "
                              "for dense n x n matrices")


@dataclass(frozen=True, eq=False)  # value equality is defined below, over the arrays
class Graph:
    """Undirected weighted graph with normalized, validated, read-only edge arrays."""

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        # private read-only copies: the cached context relies on edges never changing
        n, u, v, w = self.n, np.array(self.u), np.array(self.v), np.array(self.w)
        if not isinstance(n, int) or n < 1:
            raise ValidationError(f"node count must be a positive integer, got {n!r}")
        _check_node_count(n)
        if not (u.ndim == v.ndim == w.ndim == 1 and u.size == v.size == w.size):
            raise ValidationError("edge arrays u, v, w must be 1-D and of one length")
        if u.dtype.kind != "i" or v.dtype.kind != "i" or w.dtype != np.float64:
            raise ValidationError("edge endpoints must be integers and weights float64")
        unsorted = np.zeros(u.size, dtype=bool)
        unsorted[1:] = (u[1:] < u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] <= v[:-1]))
        for bad, message in (
            (u == v, "explicit self-loop on node {u}; loops are implicit"),
            ((u < 0) | (u > v) | (v >= n),
             "edge ({u}, {v}) out of range for n={n} or not ordered u < v"),
            (~(np.isfinite(w) & (w > 0.0)),
             "edge ({u}, {v}) needs a finite positive weight, got {w!r}"),
            (unsorted, "edges not sorted/unique at ({u}, {v})"),
        ):
            if bad.any():
                i = int(np.argmax(bad))
                raise ValidationError(message.format(u=int(u[i]), v=int(v[i]),
                                                     w=float(w[i]), n=n))
        for name, arr in (("u", u), ("v", v), ("w", w)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Edge]) -> Graph:
        """Build from normalized ``(u, v, w)`` triples of ints and floats."""
        edges = tuple(edges)
        try:
            u, v, w = zip(*edges, strict=True) if edges else ((), (), ())
            if not (all(isinstance(x, int) for x in u + v) and all(isinstance(x, float) for x in w)):
                raise TypeError
            u, v = np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError("edges must be (u, v, w) triples of int ids and float weights") from None
        return cls(n, u, v, np.array(w, dtype=np.float64))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as ``(u, v, w)`` tuples of Python ints and floats."""
        return tuple(zip(self.u.tolist(), self.v.tolist(), self.w.tolist()))

    @property
    def edge_count(self) -> int:
        return self.u.size

    def weighted_degrees(self) -> np.ndarray:
        """Per-node sum of incident edge weights (no augmentation), added in edge order."""
        ends = np.column_stack((self.u, self.v)).ravel()
        return np.bincount(ends, weights=np.repeat(self.w, 2), minlength=self.n)

    @cached_property
    def augmented_degrees(self) -> np.ndarray:
        """Read-only ``1 + weighted degree`` per node; raises :class:`NumericError` on overflow."""
        dtil = 1.0 + self.weighted_degrees()
        if not np.all(np.isfinite(dtil)):
            raise NumericError("a weighted degree overflows to infinity; rescale the edge weights")
        dtil.flags.writeable = False
        return dtil

    @cached_property
    def inv_sqrt_degrees(self) -> np.ndarray:
        """Read-only ``Dtil^{-1/2}``: ``1 / sqrt(augmented degree)`` per node."""
        s = 1.0 / np.sqrt(self.augmented_degrees)
        s.flags.writeable = False
        return s

    def laplacian_times(self, x: np.ndarray) -> np.ndarray:
        """``Ltil @ x`` for a vector or an ``n x C`` matrix, on the edge arrays.

        ``Ltil x = x - Dtil^{-1/2} (A + I) Dtil^{-1/2} x`` takes two
        ``np.bincount`` calls over the edges per channel; no ``n x n`` matrix is
        built.  A matrix is taken one contiguous channel at a time: one
        ``bincount`` over every channel at once needs ``2E x C`` temporaries.
        """
        if x.ndim == 2:
            out = np.empty(x.shape)
            for c, channel in enumerate(np.ascontiguousarray(x.T)):
                out[:, c] = self.laplacian_times(channel)
            return out
        n, u, v, w, s = self.n, self.u, self.v, self.w, self.inv_sqrt_degrees
        y = x * s
        return x - (np.bincount(u, w * y[v], n) + np.bincount(v, w * y[u], n) + y) * s

    @cached_property
    def laplacian(self) -> np.ndarray:
        """Read-only :func:`augmented_normalized_laplacian`, built on first use
        by ``spectrum`` and the ``energy`` command's trace form; every other
        product with ``Ltil`` is :meth:`laplacian_times`."""
        lap = augmented_normalized_laplacian(self)
        lap.flags.writeable = False
        return lap

    @cached_property
    def component_labels(self) -> np.ndarray:
        """Read-only: per node, the smallest node of its connected component.

        Every round hooks the larger root of each edge whose ends disagree onto
        the smaller one (``np.minimum.at``), then jumps pointers until each node
        points at a root.  A label never exceeds its node, so the pointers form
        a forest, and each round removes at least one root, so the loop ends.
        """
        labels = np.arange(self.n)
        while True:
            lu, lv = labels[self.u], labels[self.v]
            split = lu != lv
            if not split.any():
                labels.flags.writeable = False
                return labels
            np.minimum.at(labels, np.maximum(lu, lv)[split], np.minimum(lu, lv)[split])
            while True:
                jumped = labels[labels]
                if np.array_equal(jumped, labels):
                    break
                labels = jumped

    @cached_property
    def kernel_dim(self) -> int:
        """The number of connected components, which is the kernel dimension of
        the Laplacian."""
        return int(np.count_nonzero(self.component_labels == np.arange(self.n)))

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Read-only ascending eigenvalues of ``self.laplacian``, built on first
        use; the first ``self.kernel_dim`` of them span the kernel."""
        return eigendecompose(self.laplacian)

    @cached_property
    def extremes(self) -> np.ndarray:
        """Read-only pair ``[lam_min_nonzero, lam_max]``, built on first use.

        On a graph of at least ``LANCZOS_MIN_NODES`` nodes it is the pair
        Lanczos finds on the edge arrays, with no Laplacian.  On a smaller
        graph, or when Lanczos does not converge, it is the two ends of the
        nonzero part of ``self.spectrum``.  Raises
        :class:`DegenerateSpectrumError` on an edgeless graph.
        """
        if self.n >= LANCZOS_MIN_NODES and self.kernel_dim < self.n:
            ends = lanczos_extremes(self)
            if ends is not None:
                return ends
        ends = nonzero_spectrum(self)[[0, -1]]
        ends.flags.writeable = False
        return ends


def _merge_edges(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> Graph:
    """Normalize endpoint order and merge duplicate pairs by summing weights.

    The weights of one pair are added in input order, as a running sum.
    """
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((hi, lo))  # stable: duplicates keep their input order
    lo, hi, w = lo[order], hi[order], w[order]
    first = np.ones(lo.size, dtype=bool)
    first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    merged = np.zeros(np.count_nonzero(first))
    # np.add.at adds one element at a time; np.add.reduceat sums pairwise
    np.add.at(merged, np.cumsum(first) - 1, w)
    return Graph(n, lo[first], hi[first], merged)


def from_edge_list(text: str) -> Graph:
    """Parse a plain-text edge list into a :class:`Graph`.

    Each non-empty line holds ``u v`` or ``u v w`` (weight defaults to 1.0);
    ``#`` starts a comment that runs to the end of the line.  Duplicate pairs,
    including reversed ones, are merged by summing their weights.  The node
    count is ``max id + 1``; it is checked against ``MAX_NODES`` before any
    id becomes an int64.
    """
    raw: list[tuple[int, int, float]] = []
    max_id = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.partition("#")[0].strip()
        if not body:
            continue
        tokens = body.split()
        if len(tokens) not in (2, 3):
            raise ParseError(
                f"line {lineno}: expected 'u v' or 'u v w', got {len(tokens)} tokens"
            )
        try:
            u = int(tokens[0])
            v = int(tokens[1])
        except ValueError:
            raise ParseError(f"line {lineno}: node ids must be integers") from None
        if u < 0 or v < 0:
            raise ValidationError(f"line {lineno}: node ids must be nonnegative")
        if u == v:
            raise ValidationError(f"line {lineno}: self-loop on node {u} not allowed")
        w = 1.0
        if len(tokens) == 3:
            try:
                w = float(tokens[2])
            except ValueError:
                raise ParseError(f"line {lineno}: weight must be a real number") from None
            if not math.isfinite(w) or w <= 0.0:
                raise ValidationError(f"line {lineno}: weight must be finite and positive")
        raw.append((u, v, w))
        max_id = max(max_id, u, v)
    if not raw:
        raise ValidationError("empty edge list")
    n = max_id + 1
    _check_node_count(n)
    u, v, w = zip(*raw)
    return _merge_edges(n, np.array(u, dtype=np.int64), np.array(v, dtype=np.int64), np.array(w))


def augmented_normalized_laplacian(g: Graph) -> np.ndarray:
    """Dense symmetric ``I - Dtil^{-1/2} (A + I) Dtil^{-1/2}``.

    Diagonal entries are ``1 - 1/dtil_i``; the off-diagonal entry for edge
    (i, j) is ``-w_ij / sqrt(dtil_i * dtil_j)``, with ``dtil = g.augmented_degrees``.
    """
    dtil, inv_sqrt = g.augmented_degrees, g.inv_sqrt_degrees
    lap = np.zeros((g.n, g.n))
    np.fill_diagonal(lap, 1.0 - 1.0 / dtil)
    off = -g.w * inv_sqrt[g.u] * inv_sqrt[g.v]
    lap[g.u, g.v] = off
    lap[g.v, g.u] = off
    return lap


def connected_components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Connected components as sorted node tuples, ordered by smallest member."""
    labels = g.component_labels
    order = np.argsort(labels, kind="stable")
    nodes = order.tolist()
    cuts = [0, *(np.flatnonzero(np.diff(labels[order])) + 1).tolist(), g.n]
    return tuple(tuple(nodes[a:b]) for a, b in zip(cuts, cuts[1:]))


def generate(kind: str, n: int, seed: int = 0, *, p: float | None = None,
             k: int | None = None) -> Graph:
    """Build a unit-weight graph from a named family, deterministically per seed.

    Kinds: ``erdos_renyi`` (edge probability ``p``), ``ring`` (cycle, n >= 3),
    ``k_regular`` (circulant; ``k`` even, ``k < n``), ``complete``, ``path``.
    Only ``erdos_renyi`` consumes the seed, which must be nonnegative.
    """
    if n < 1:
        raise ValidationError(f"generator needs n >= 1, got {n}")
    _check_node_count(n)
    if seed < 0:
        raise ValidationError(f"generator seed must be nonnegative, got {seed}")
    if kind == "erdos_renyi":
        if p is None or not (0.0 <= p <= 1.0):
            raise ValidationError(f"erdos_renyi needs edge probability p in [0, 1], got {p!r}")
        rng = np.random.default_rng(seed)
        # one draw per pair, row by row: the seeded stream of every ER graph
        rows = [np.flatnonzero(rng.random(n - u - 1) < p) + (u + 1) for u in range(n)]
        lo = np.repeat(np.arange(n), [row.size for row in rows])
        hi = np.concatenate(rows)
    elif kind == "ring":
        if n < 3:
            raise ValidationError(f"ring needs n >= 3, got {n}")
        lo, hi = np.arange(n), (np.arange(n) + 1) % n
    elif kind == "k_regular":
        if k is None or k < 0 or k % 2 != 0 or k >= n:
            raise ValidationError(
                f"k_regular needs even k with 0 <= k < n, got k={k!r}, n={n}"
            )
        lo = np.tile(np.arange(n), k // 2)
        hi = (lo + np.repeat(np.arange(1, k // 2 + 1), n)) % n
    elif kind == "complete":
        lo, hi = np.triu_indices(n, 1)
    elif kind == "path":
        lo, hi = np.arange(n - 1), np.arange(1, n)
    else:
        raise ValidationError(f"unknown generator kind {kind!r}")
    # no family repeats a pair, so the edges need orienting and sorting, not merging
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    order = np.lexsort((hi, lo))
    return Graph(n, lo[order], hi[order], np.ones(lo.size))


@dataclass(frozen=True)
class PerturbationPlan:
    """Seeded edge perturbation: drop a fraction of edges or boost some weights.

    ``drop`` removes exactly ``ceil(ratio * edge_count)`` edges chosen
    uniformly at random; ``boost`` multiplies the weights of ``count``
    uniformly chosen edges by ``boost_factor``.  Node count never changes.
    """

    kind: str
    ratio: float = 0.0
    count: int = 0
    boost_factor: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("drop", "boost"):
            raise ValidationError(f"perturbation kind must be 'drop' or 'boost', got {self.kind!r}")
        if self.kind == "drop" and not (0.0 <= self.ratio <= 1.0):
            raise ValidationError(f"drop ratio must lie in [0, 1], got {self.ratio}")
        if self.kind == "boost":
            if self.count < 1:
                raise ValidationError(f"boost count must be a positive integer, got {self.count}")
            if not (math.isfinite(self.boost_factor) and self.boost_factor >= 1.0):
                raise ValidationError(f"boost factor must be >= 1, got {self.boost_factor}")

    @classmethod
    def drop(cls, ratio: float, seed: int = 0) -> "PerturbationPlan":
        return cls(kind="drop", ratio=float(ratio), seed=seed)

    @classmethod
    def boost(cls, count: int, factor: float, seed: int = 0) -> "PerturbationPlan":
        return cls(kind="boost", count=int(count), boost_factor=float(factor), seed=seed)


def perturb(g: Graph, plan: PerturbationPlan) -> Graph:
    """Apply a :class:`PerturbationPlan`; bit-identical per (graph, plan)."""
    rng = np.random.default_rng(plan.seed)
    if plan.kind == "drop":
        m = math.ceil(plan.ratio * g.edge_count)
        if m == 0:
            return g
        kept = np.ones(g.edge_count, dtype=bool)
        kept[rng.choice(g.edge_count, size=m, replace=False)] = False
        return Graph(g.n, g.u[kept], g.v[kept], g.w[kept])
    if plan.count > g.edge_count:
        raise ValidationError(
            f"cannot boost {plan.count} edges, graph has only {g.edge_count}"
        )
    w = g.w.copy()
    w[rng.choice(g.edge_count, size=plan.count, replace=False)] *= plan.boost_factor
    return Graph(g.n, g.u, g.v, w)
