"""Dirichlet energy of node embeddings on weighted graphs.

Two equivalent routes compute the same quantity for an embedding matrix
``X`` (one row per node, one column per channel):

* edge-sum form   ``E(X) = sum_{(i,j) in E} w_ij ||x_i/sqrt(1+d_i) - x_j/sqrt(1+d_j)||^2``
* trace form      ``E(X) = tr(X^T Ltil X)``

where ``d_i`` is the weighted degree, so the denominators are the augmented
degrees.  The energy vanishes exactly on multiples of ``Dtil^{1/2} 1`` per
channel and scales quadratically: ``E(cX) = c^2 E(X)``.

Verdicts, runs and sweeps take the edge-sum form, a sum of squares; the trace
form serves the ``energy`` command's cross-check.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import ValidationError
from .graphs import Graph

log = logging.getLogger(__name__)


def as_embedding(x, n: int) -> np.ndarray:
    """Coerce to a finite N x C float matrix; 1-D input becomes one column."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] != n:
        raise ValidationError(f"embedding must have {n} rows, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValidationError("embedding has non-finite entries")
    return x


def dirichlet_energy_trace(x, lap: np.ndarray) -> float:
    """``tr(X^T Ltil X)``, clamped at zero when round-off dips negative."""
    lap = np.asarray(lap, dtype=float)
    x = as_embedding(x, lap.shape[0])
    value = float(np.sum(x * (lap @ x)))
    if value < 0.0:
        log.debug("clamping negative round-off energy %.3e to zero", value)
        return 0.0
    return value


def dirichlet_energy_edge_sum(x, g: Graph) -> float:
    """Edge-wise Dirichlet energy on the graph's cached degrees; equals the trace form.

    The squared differences are added into one per-edge sum a channel at a
    time, in channel order, so no ``E x C`` array is built.
    """
    x = as_embedding(x, g.n)
    u, v = g.u, g.v
    squares = np.zeros(g.edge_count)
    for y in np.ascontiguousarray(x.T) / np.sqrt(g.augmented_degrees):
        diffs = y[u]
        diffs -= y[v]
        diffs *= diffs
        squares += diffs
    return float((g.w * squares).sum())
