"""Undirected weighted graphs and their augmented normalized Laplacians.

The central object is an immutable :class:`Graph`: a node count plus three
read-only edge arrays, int64 endpoints ``u``, ``v`` and float64 weights
``w``, sorted by ``(u, v)`` with ``u < v``, no duplicate pair and ``w > 0``;
``Graph.edges`` derives ``(u, v, w)`` tuples from them.  Explicit self-loops
are rejected; augmentation adds the implicit unit self-loop to every node
instead.  With ``A`` the weighted adjacency matrix, ``Atil = A + I`` and
``Dtil = D + I`` (``D`` the diagonal of weighted degrees), the augmented
normalized Laplacian is

    Ltil = I - Dtil^{-1/2} Atil Dtil^{-1/2}

and the propagation matrix is its complement ``P = I - Ltil``.  ``Ltil`` is
symmetric positive semidefinite with eigenvalues in ``[0, 2)``, and
``P`` fixes the vector ``Dtil^{1/2} 1``.  Restricted to each connected
component that vector spans the kernel of ``Ltil`` exactly, so the kernel
dimension is the number of components and needs no zero tolerance.

A graph is also the one spectral context every statement, run, suite and
sweep on it shares: its ``augmented_degrees``, ``inv_sqrt_degrees``,
``neighbours`` (both directions of every edge, sorted by row),
``component_labels``, ``kernel_dim`` (the component count), ``spectrum``
(the ascending eigenvalues, the first ``kernel_dim`` of which span the
kernel) and ``extremes`` are built on first use and then cached, read-only,
on the graph, so each graph gets at most one dense eigensolve.  The graph
holds no ``n x n`` matrix: :func:`augmented_normalized_laplacian` builds one
for the eigensolve alone, and the ``energy`` command builds its own for its
trace form.  Every other product with ``Ltil`` is ``Graph.laplacian_times``:
per channel, one gather and one segmented sum over ``neighbours``.
``extremes`` is always the pair ``[lam_min_nonzero, lam_max]``, all that the
contraction factors of a monotone filter need.  Once the graph has
``LANCZOS_MIN_NODES`` nodes it comes from Lanczos on the edge arrays, with no
Laplacian and no dense solve; a smaller graph, or one Lanczos does not settle
within a dense solve's worth of work (``lanczos_step_cap``), takes the pair
from ``spectrum``.  The dense eigensolve takes the Laplacian
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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericError, ParseError, ValidationError, check_real
from .seeding import check_seed
from .spectral import LANCZOS_MIN_NODES, eigendecompose, lanczos_extremes, nonzero_spectrum

# at this n one dense float64 n x n matrix takes 0.8 GB, and the dense eigensolve holds two:
# the Laplacian and the copy eigvalsh works on
MAX_NODES = 10_000
# work sizes of one command, checked before any weight is drawn or array allocated
MAX_LAYERS = 10_000          # run "layers"
MAX_CHANNELS = 4_096         # every channel width, in configs and energy --channels
MAX_WEIGHT_ENTRIES = 10**7   # all weight matrices of one run together, 80 MB
MAX_TRIALS = 100_000         # sweep "trials" and verify --trials


def check_work_size(name: str, value: int, limit: int, unit: str) -> None:
    """The one rule of every count a user gives: ``value`` of ``name`` is a
    Python ``int``, not a bool, from 1 to ``limit``; anything else exits 2.
    Boost counts, which have no limit, keep their own rule."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")
    if value > limit:
        raise ValidationError(f"{name} is {value}, above the limit of {limit} {unit}")


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
        check_work_size("node count", n, MAX_NODES, "nodes")
        if not (u.ndim == v.ndim == w.ndim == 1 and u.size == v.size == w.size):
            raise ValidationError("edge arrays u, v, w must be 1-D and of one length")
        if u.dtype.kind != "i" or v.dtype.kind != "i" or w.dtype != np.float64:
            raise ValidationError("edge endpoints must be integers and weights float64")
        u, v = u.astype(np.int64, copy=False), v.astype(np.int64, copy=False)
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

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Graph) and self.n == other.n
                and all(np.array_equal(a, b) for a, b in
                        ((self.u, other.u), (self.v, other.v), (self.w, other.w))))

    def __hash__(self) -> int:
        # equal int64 ids and positive finite weights have equal bytes
        return hash((self.n, self.u.tobytes(), self.v.tobytes(), self.w.tobytes()))

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
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

    @cached_property
    def neighbours(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(rows, first, cols, weights)``: both directions of every
        edge, sorted by row and, within a row, by neighbour.  ``cols`` and
        ``weights`` hold each entry's neighbour and weight; ``rows`` are the
        non-empty rows and ``first`` the index of each one's first entry."""
        ends = np.concatenate((self.v, self.u))
        order = np.argsort(ends, kind="stable")  # lower neighbours first, each part ascending
        ends = ends[order]
        rows = np.flatnonzero(np.bincount(ends, minlength=self.n))
        layout = (rows, np.searchsorted(ends, rows), np.concatenate((self.u, self.v))[order],
                  np.concatenate((self.w, self.w))[order])
        for arr in layout:
            arr.flags.writeable = False
        return layout

    def laplacian_times(self, x: np.ndarray) -> np.ndarray:
        """``Ltil @ x`` for a vector or an ``n x C`` matrix, on the edge arrays.

        ``Ltil x = x - Dtil^{-1/2} (A + I) Dtil^{-1/2} x`` takes one gather and
        one segmented sum (``np.add.reduceat``) over :attr:`neighbours` per
        channel; no ``n x n`` matrix is built.  A matrix is taken one
        contiguous channel at a time: every channel at once needs ``2E x C``
        temporaries.
        """
        rows, first, cols, w = self.neighbours
        s = self.inv_sqrt_degrees
        if x.ndim == 2:
            out = np.empty(x.shape)
            for c, channel in enumerate(np.ascontiguousarray(x.T)):
                acc = channel * s
                acc[rows] += np.add.reduceat(w * acc[cols], first)
                out[:, c] = channel - acc * s
            return out
        acc = x * s
        acc[rows] += np.add.reduceat(w * acc[cols], first)
        return x - acc * s

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
        """Read-only ascending eigenvalues of the Laplacian, built on first use;
        the first ``self.kernel_dim`` of them span the kernel.  The dense
        Laplacian lives only for the eigensolve."""
        return eigendecompose(augmented_normalized_laplacian(self))

    @cached_property
    def extremes(self) -> np.ndarray:
        """Read-only pair ``[lam_min_nonzero, lam_max]``, built on first use.

        On a graph of at least ``LANCZOS_MIN_NODES`` nodes it is the pair
        Lanczos finds on the edge arrays, with no Laplacian.  On a smaller
        graph, or when Lanczos does not converge within ``lanczos_step_cap``
        steps, it is the two ends of the nonzero part of ``self.spectrum``.  Raises
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
    check_work_size("node count", n, MAX_NODES, "nodes")
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


def _erdos_renyi_pairs(n: int, p: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The pairs ``u < v`` kept with probability ``p``, sorted, from one draw
    per pair in row order: the seeded stream of every ER graph.

    Whole rows are drawn together, at most 2^18 doubles at a time, to bound
    the memory; ``random()`` takes one output per double, so the stream is
    the one a draw per row gives.
    """
    # ends[u]: the pairs before row u, which holds the n - u - 1 pairs (u, v > u)
    ends = np.arange(n + 1) * (2 * n - 1 - np.arange(n + 1)) // 2
    kept = []
    r0 = 0
    while r0 < n:
        # rows r0 to r1 - 1, and at least one row however long
        r1 = max(r0 + 1, int(np.searchsorted(ends, ends[r0] + 2**18, side="right")) - 1)
        kept.append(np.flatnonzero(rng.random(ends[r1] - ends[r0]) < p) + ends[r0])
        r0 = r1
    pairs = np.concatenate(kept)
    lo = np.searchsorted(ends, pairs, side="right") - 1
    return lo, pairs - ends[lo] + lo + 1


def _circulant_pairs(n: int, half_k: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs ``(i, i + s mod n)`` for ``s`` in ``1..half_k``, oriented
    ``u < v`` and sorted, as every other family yields its pairs.  With
    ``half_k < n / 2`` no pair repeats, so none needs merging."""
    lo = np.tile(np.arange(n), half_k)
    hi = (lo + np.repeat(np.arange(1, half_k + 1), n)) % n
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    order = np.lexsort((hi, lo))
    return lo[order], hi[order]


def generate(kind: str, n: int, seed: int = 0, *, p: float | None = None,
             k: int | None = None) -> Graph:
    """Build a unit-weight graph from a named family, deterministically per seed.

    Kinds: ``erdos_renyi`` (edge probability ``p``), ``ring`` (cycle, n >= 3),
    ``k_regular`` (circulant; ``k`` even, ``k < n``), ``complete``, ``path``.
    Only ``erdos_renyi`` consumes the seed, which must lie in ``[0, 2**64)``.
    """
    check_work_size("node count", n, MAX_NODES, "nodes")
    check_seed("generator seed", seed)
    if kind == "erdos_renyi":
        p = check_real("erdos_renyi edge probability p", p, 0, 1)
        lo, hi = _erdos_renyi_pairs(n, p, np.random.default_rng(seed))
    elif kind == "ring":
        if n < 3:
            raise ValidationError(f"ring needs n >= 3, got {n}")
        lo, hi = _circulant_pairs(n, 1)
    elif kind == "k_regular":
        if (isinstance(k, bool) or not isinstance(k, (int, np.integer))
                or k < 0 or k % 2 != 0 or k >= n):
            raise ValidationError(
                f"k_regular needs even k with 0 <= k < n, got k={k!r}, n={n}"
            )
        lo, hi = _circulant_pairs(n, k // 2)
    elif kind == "complete":
        lo, hi = np.triu_indices(n, 1)
    elif kind == "path":
        lo, hi = np.arange(n - 1), np.arange(1, n)
    else:
        raise ValidationError(f"unknown generator kind {kind!r}")
    return Graph(n, lo, hi, np.ones(lo.size))


def perturb(g: Graph, op: str, param: float | int, seed: int = 0,
            factor: float = 1.0) -> Graph:
    """Seeded edge perturbation of ``g``; bit-identical per arguments.

    ``perturb(g, "drop", ratio, seed)`` removes exactly ``ceil(ratio *
    edge_count)`` edges chosen uniformly at random, ``ratio`` in [0, 1];
    ``perturb(g, "boost", count, seed, factor)`` multiplies the weights of
    ``count`` uniformly chosen edges, an integer from 1 to the edge count, by
    a finite ``factor >= 1``.  The node count never changes.
    """
    if op not in ("drop", "boost"):
        raise ValidationError(f"perturbation kind must be 'drop' or 'boost', got {op!r}")
    check_seed("perturbation seed", seed)
    rng = np.random.default_rng(seed)
    if op == "drop":
        m = math.ceil(check_real("drop ratio", param, 0, 1) * g.edge_count)
        if m == 0:
            return g
        kept = np.ones(g.edge_count, dtype=bool)
        kept[rng.choice(g.edge_count, size=m, replace=False)] = False
        return Graph(g.n, g.u[kept], g.v[kept], g.w[kept])
    if isinstance(param, bool) or not isinstance(param, (int, np.integer)) or param < 1:
        raise ValidationError(f"boost count must be a positive integer, got {param}")
    factor = check_real("boost factor", factor, 1)
    if param > g.edge_count:
        raise ValidationError(f"cannot boost {param} edges, graph has only {g.edge_count}")
    w = g.w.copy()
    w[rng.choice(g.edge_count, size=param, replace=False)] *= factor
    return Graph(g.n, g.u, g.v, w)
