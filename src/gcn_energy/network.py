"""Forward simulation of deep graph convolutional networks.

One layer filters the embedding with a polynomial of the augmented
normalized Laplacian and pushes it through a small MLP:

    f(X) = sigma(... sigma(sigma(P(Ltil) X) W_1) W_2 ... W_H)

``P(Ltil) X`` is formed by Horner's rule on the edge arrays (``deg P``
products :meth:`Graph.laplacian_times` with an N x C matrix), never with an
N x N matrix.  With the default ``paper`` placement the activation wraps the
filtered input first and then follows every weight multiplication, matching
the parenthesization above; ``conventional`` placement skips the innermost
activation, i.e. ``sigma(P(Ltil) X W_1)`` for a single weight.  A run
(``Trajectory``) holds its graph, its layers and per stage the Dirichlet
energy (edge-sum form), Rayleigh quotient and two per-layer energy bounds.
With ``s_l`` the layer's ``gain()``, the product of the realized top singular
values of its weights, the safe bound is ``s_l^2`` times the safe filter
factor, since each weight scales the energy by at most its squared top
singular value (L3.2); the nominal bound is ``s_l`` times the paper's filter
factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import as_embedding, dirichlet_energy_edge_sum
from .errors import NumericError, ValidationError, check_real
from .graphs import MAX_CHANNELS, Graph, check_work_size
from .spectral import FilterContraction, PolynomialFilter, apply_filter, filter_contraction

ACTIVATION_KINDS = ("relu", "leaky_relu", "tanh", "sigmoid", "identity")
PLACEMENTS = ("paper", "conventional")


@dataclass(frozen=True)
class Activation:
    """Entrywise nonlinearity, one of ``ACTIVATION_KINDS``: ``Activation("relu")``,
    or ``Activation("leaky_relu", slope)`` with a real slope in (0, 1) under
    :func:`~gcn_energy.errors.check_real`, stored as the float it returns."""

    kind: str
    slope: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ACTIVATION_KINDS:
            raise ValidationError(f"unknown activation {self.kind!r}")
        if self.kind == "leaky_relu":
            slope = check_real("leaky_relu slope", self.slope, 0, 1, open_lo=True, open_hi=True)
            object.__setattr__(self, "slope", slope)
        elif self.slope is not None:
            raise ValidationError(f"activation {self.kind!r} takes no slope")


def apply_activation(x: np.ndarray, act: Activation) -> np.ndarray:
    """Apply the nonlinearity entrywise, returning a new array."""
    x = np.asarray(x, dtype=float)
    if act.kind == "relu":
        return np.maximum(x, 0.0)
    if act.kind == "leaky_relu":
        return np.where(x > 0.0, x, act.slope * x)
    if act.kind == "tanh":
        return np.tanh(x)
    if act.kind == "sigmoid":
        # split by sign for overflow-free evaluation
        out = np.empty_like(x)
        pos = x >= 0.0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out
    return x.copy()


def make_weights(rows: int, cols: int, target_top_singular: float, seed: int = 0) -> np.ndarray:
    """Seeded Gaussian matrix rescaled so its top singular value hits the target.

    Each seed takes one standard-normal draw.  Its top singular value is at
    least its largest ``|entry|``, so it falls to 1e-12 only if every entry
    does, with probability below 1e-12.  The realized top singular value
    matches ``target_top_singular`` to within 1e-9 relative; rectangular
    shapes are fine.
    """
    check_work_size("weight rows", rows, MAX_CHANNELS, "channels")
    check_work_size("weight cols", cols, MAX_CHANNELS, "channels")
    target_top_singular = check_real("target top singular value", target_top_singular, 0,
                                     open_lo=True)
    m = np.random.default_rng(seed).standard_normal((rows, cols))
    return m * (target_top_singular / top_singular_value(m))


def top_singular_value(w: np.ndarray) -> float:
    try:
        return float(np.linalg.svd(np.asarray(w, dtype=float), compute_uv=False)[0])
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular value computation failed: {exc}") from exc


@dataclass(frozen=True)
class LayerSpec:
    """One layer: a polynomial filter, a chain of weights, an activation."""

    filter: PolynomialFilter
    weights: tuple[np.ndarray, ...]
    activation: Activation
    _gain: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.weights) == 0:
            raise ValidationError("layer needs at least one weight matrix")
        for h, w in enumerate(self.weights):
            if not isinstance(w, np.ndarray) or w.ndim != 2:
                raise ValidationError(f"weight {h} must be a 2-D array")
            if not np.all(np.isfinite(w)):
                raise ValidationError(f"weight {h} has non-finite entries")
        # private read-only copies: the cached gain relies on the weights never changing
        weights = tuple(np.array(w) for w in self.weights)
        for w in weights:
            w.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        for h in range(len(self.weights) - 1):
            if self.weights[h].shape[1] != self.weights[h + 1].shape[0]:
                raise ValidationError(
                    f"weight chain breaks between matrices {h} and {h + 1}: "
                    f"{self.weights[h].shape} -> {self.weights[h + 1].shape}"
                )
        object.__setattr__(self, "_gain", math.prod(top_singular_value(w) for w in self.weights))

    @property
    def input_channels(self) -> int:
        return self.weights[0].shape[0]

    @property
    def output_channels(self) -> int:
        return self.weights[-1].shape[1]

    def gain(self) -> float:
        """Product of the top singular values of the weight chain."""
        return self._gain


def layer_forward(x, spec: LayerSpec, g: Graph, placement: str = "paper") -> np.ndarray:
    """Run one layer on an embedding matrix; the filter acts on the edge arrays of ``g``."""
    if placement not in PLACEMENTS:
        raise ValidationError(f"placement must be one of {PLACEMENTS}, got {placement!r}")
    x = as_embedding(x, g.n)
    if x.shape[1] != spec.input_channels:
        raise ValidationError(
            f"layer expects {spec.input_channels} input channels, got {x.shape[1]}"
        )
    h = apply_filter(spec.filter, g, x)
    if placement == "paper":
        h = apply_activation(h, spec.activation)
    for w in spec.weights:
        h = apply_activation(h @ w, spec.activation)
    return h


@dataclass(frozen=True)
class LayerRecord:
    """Energy snapshot after a layer; a run's record 0 is the input embedding."""

    energy: float
    rayleigh: float
    bound_paper: float
    bound_safe: float
    channels: int


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One run: its graph, its ``L >= 1`` layers and ``L + 1`` records.

    ``records[l]`` follows ``layers[l - 1]``; equality is identity (layers hold arrays).
    """

    graph: Graph
    layers: tuple[LayerSpec, ...]
    records: tuple[LayerRecord, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValidationError("run needs at least one layer")
        if len(self.records) != len(self.layers) + 1:
            raise ValidationError(f"a run of {len(self.layers)} layers needs "
                                  f"{len(self.layers) + 1} records, got {len(self.records)}")
        for i, rec in enumerate(self.records):
            if rec.energy < 0.0:
                raise ValidationError(f"record {i} has negative energy {rec.energy}")

    @property
    def depth(self) -> int:
        return len(self.layers)

    def energies(self) -> np.ndarray:
        return np.array([rec.energy for rec in self.records])


def _record(x: np.ndarray, g: Graph, layer: int, bound_paper: float,
            bound_safe: float) -> LayerRecord:
    norm_sq = float(np.sum(x * x))
    # a finite norm means finite entries, which the energy requires of its input
    energy = dirichlet_energy_edge_sum(x, g) if math.isfinite(norm_sq) else math.nan
    if not (math.isfinite(energy) and math.isfinite(norm_sq)):
        raise NumericError(f"the run overflows at layer {layer}: energy {energy!r}, "
                           f"squared norm {norm_sq!r}")
    return LayerRecord(energy=energy,
                       rayleigh=energy / norm_sq if norm_sq > 0.0 else float("nan"),
                       bound_paper=bound_paper, bound_safe=bound_safe, channels=x.shape[1])


def run_network(x0, layers, g: Graph, placement: str = "paper") -> Trajectory:
    """Simulate ``L >= 1`` layers on graph ``g`` and return the run.

    Layers filter by :meth:`Graph.laplacian_times`, with no ``n x n``
    matrix; the bounds come from :func:`filter_contraction` on ``g``, once
    per distinct filter, which reads ``g.extremes`` for a monotone filter and
    ``g.spectrum`` for any other.
    Energies take the elementwise edge-sum form, so record 0 does not depend
    on the BLAS thread count; it describes the input and carries NaN bounds
    since no layer produced it.  Raises :class:`NumericError` at the first
    record whose energy or squared norm is not finite.
    """
    layers = tuple(layers)
    x = as_embedding(x0, g.n)
    channels = x.shape[1]
    for i, spec in enumerate(layers):
        if spec.input_channels != channels:
            raise ValidationError(
                f"layer {i} expects {spec.input_channels} input channels, "
                f"previous stage emits {channels}"
            )
        channels = spec.output_channels
    with np.errstate(over="ignore", invalid="ignore"):  # _record reports it, with the layer
        records = [_record(x, g, 0, float("nan"), float("nan"))]
        factors: dict[PolynomialFilter, FilterContraction] = {}
        for l, spec in enumerate(layers, start=1):
            if spec.filter not in factors:
                factors[spec.filter] = filter_contraction(spec.filter, g)
            contraction = factors[spec.filter]
            gain = spec.gain()
            x = layer_forward(x, spec, g, placement=placement)
            records.append(_record(x, g, l, gain * contraction.paper,
                                   gain * gain * contraction.safe))
    return Trajectory(g, layers, tuple(records))
