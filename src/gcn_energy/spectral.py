"""Eigenvalues, polynomial filters, and contraction factors.

For a symmetric matrix ``M = V diag(lam) V^T`` a polynomial filter with
coefficients ``[a_0, ..., a_k]`` acts as ``P(M) = V diag(P(lam_i)) V^T``.
:func:`apply_filter` forms ``P(M) X`` by Horner's rule on ``M``, with no eigenvectors.
:func:`eigendecompose` computes eigenvalues only, since every contraction factor
depends on them alone.  It serves ``Graph.spectrum`` and takes the Laplacian
the graph built, which is exactly symmetric and finite by construction, so it
runs ``eigvalsh`` on it with no check and no symmetrised copy.
:func:`eval_filter_matrix`, the tests' oracle of :func:`apply_filter`, runs its
own full ``eigh``.  No command calls it.
A :class:`Spectrum` takes its kernel dimension from the caller, so no float
tolerance decides what is zero: for a Laplacian it is the component count.
The factors read the eigenvalues above the kernel; the smallest of them,
``lam``, drives the paper's factor ``P(lam)^2`` (``(1 - lam)^2`` for one
propagation step), while the "safe" variant takes the maximum of
``P(lam_i)^2`` over all of them and is an upper bound for the energy
contraction of one step regardless of where the spectrum sits inside
``[0, 2)``.

When ``P`` is monotone on ``[0, 2]`` (:func:`is_monotone_on_spectrum`, decided
from the coefficients alone) that maximum is attained at ``lam`` or at
``lam_max``, so on a graph the factors read ``Graph.extremes``.  On large
graphs those two values come from :func:`lanczos_extremes`, a numpy-only
Lanczos iteration on the edge arrays; every other filter, and every graph
below ``LANCZOS_MIN_NODES`` nodes or on which Lanczos does not converge, reads
the full :attr:`Spectrum.nonzero`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateSpectrumError, NumericError, ValidationError

if TYPE_CHECKING:
    from .graphs import Graph


# A filter derivative's root this close to [0, 2] counts as inside it.
ROOT_SLACK = 1e-6
# Graphs of at least LANCZOS_MIN_NODES nodes take the Lanczos route to their
# two extreme nonzero eigenvalues.  On ER graphs of mean degree 10 to 20 at 2
# BLAS threads it breaks even with the dense solve between 450 and 600 nodes,
# but a graph that falls back pays 12 to 20 ms on top of the dense solve,
# which at 700 nodes takes about 32 ms and at 500 about 16 ms.
# Every LANCZOS_CHECK_EVERY steps the extreme Ritz residuals are checked
# against LANCZOS_RESIDUAL times their Ritz values.  At LANCZOS_TREND_STEPS
# a run whose residual trend would not converge within LANCZOS_MAX_STEPS
# stops, leaving the graph to the dense solve; rings, paths and circulants
# converge that slowly.
LANCZOS_MIN_NODES = 700
LANCZOS_MAX_STEPS = 300
LANCZOS_CHECK_EVERY = 10
LANCZOS_TREND_STEPS = 100
LANCZOS_RESIDUAL = 1e-13
LANCZOS_SEED = 0


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues, of which the smallest ``kernel_dim`` span the kernel."""

    eigenvalues: np.ndarray
    kernel_dim: int

    def __post_init__(self) -> None:
        if not (isinstance(self.kernel_dim, int) and 0 <= self.kernel_dim <= self.n):
            raise ValidationError(
                f"kernel_dim must be an integer in [0, {self.n}], got {self.kernel_dim!r}")
        self.eigenvalues.flags.writeable = False

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def nonzero(self) -> np.ndarray:
        """The eigenvalues above the kernel, ascending; raises when there are none."""
        if self.kernel_dim == self.n:
            raise DegenerateSpectrumError(
                f"all {self.n} eigenvalues lie in the kernel; no nonzero eigenvalue")
        return self.eigenvalues[self.kernel_dim:]


def eigendecompose(m: np.ndarray, kernel_dim: int) -> Spectrum:
    """Eigenvalues (``eigvalsh``, no eigenvectors) of ``Graph.laplacian``; the
    smallest ``kernel_dim`` of them are the kernel.

    ``m`` is taken as built by :class:`~gcn_energy.graphs.Graph`: exactly
    symmetric with finite entries, so it is neither checked nor symmetrised.
    ``g.spectrum`` is the public route.
    """
    try:
        eigenvalues = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    return Spectrum(eigenvalues, kernel_dim)


@dataclass(frozen=True)
class ContractionFactors:
    """Spectral contraction summary of an augmented normalized Laplacian."""

    lambda_min_nonzero: float
    lambda_bar_paper: float
    lambda_bar_safe: float
    kernel_dim: int


def contraction_factors(source: Spectrum | Graph) -> ContractionFactors:
    """The factors of one propagation step: :func:`filter_contraction` of ``1 - x``.

    ``lambda_bar_paper = (1 - lam)^2`` for the smallest nonzero eigenvalue
    ``lam``; ``lambda_bar_safe = max (1 - lam_i)^2`` over nonzero eigenvalues.
    ``source`` is a :class:`Spectrum` or a graph, as for
    :func:`filter_contraction`; ``1 - x`` is monotone, so a graph reads
    ``g.extremes``.  Raises :class:`DegenerateSpectrumError` if every
    eigenvalue lies in the kernel (for a Laplacian: an edgeless graph).
    """
    f = PolynomialFilter.propagation()
    nonzero = _factor_eigenvalues(f, source)
    fc = _contraction(f, nonzero)
    return ContractionFactors(
        lambda_min_nonzero=float(nonzero[0]),
        lambda_bar_paper=fc.paper,
        lambda_bar_safe=fc.safe,
        kernel_dim=source.kernel_dim,
    )


@dataclass(frozen=True)
class PolynomialFilter:
    """Polynomial ``P(x) = a_0 + a_1 x + ... + a_k x^k`` of a symmetric matrix."""

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.coefficients) == 0:
            raise ValidationError("filter needs at least one coefficient")
        if not all(isinstance(c, float) and np.isfinite(c) for c in self.coefficients):
            raise ValidationError(f"filter coefficients must be finite reals: {self.coefficients}")

    @classmethod
    def from_coefficients(cls, coeffs) -> "PolynomialFilter":
        return cls(tuple(float(c) for c in coeffs))

    @classmethod
    def propagation(cls) -> "PolynomialFilter":
        """The filter ``1 - x`` that turns a Laplacian into its propagation matrix."""
        return cls((1.0, -1.0))


def eval_filter_scalar(f: PolynomialFilter, x):
    """Horner evaluation of the filter polynomial at a scalar or array."""
    acc = np.zeros_like(np.asarray(x, dtype=float))
    for c in reversed(f.coefficients):
        acc = acc * x + c
    return float(acc) if np.ndim(x) == 0 else acc


def apply_filter(f: PolynomialFilter, lap: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``P(lap) @ x`` by Horner's rule: ``deg P`` products of ``lap`` with ``x``."""
    coeffs = f.coefficients[::-1]
    acc = coeffs[0] * x
    for c in coeffs[1:]:
        acc = lap @ acc + c * x
    return acc


def eval_filter_matrix(f: PolynomialFilter, lap: np.ndarray) -> np.ndarray:
    """Symmetric ``V diag(P(lam_i)) V^T`` from the eigenbasis of ``lap``; commutes with it."""
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(lap)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    m = (eigenvectors * eval_filter_scalar(f, eigenvalues)) @ eigenvectors.T
    return (m + m.T) / 2.0


def _poly_derivative(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    return tuple(j * coeffs[j] for j in range(1, len(coeffs)))


@dataclass(frozen=True)
class MonotonicityCheck:
    decreasing: bool
    witness: float | None


def check_monotone_decreasing(f: PolynomialFilter, lo: float, hi: float) -> MonotonicityCheck:
    """Decide whether ``P' <= 0`` throughout ``[lo, hi]``.

    The derivative is sampled on a uniform grid of 10001 points plus every
    real root of the second derivative inside the interval, which covers all
    interior extrema of ``P'`` exactly.  On failure the returned witness is a
    point with ``P'(x) > 0``.
    """
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValidationError(f"monotonicity interval must satisfy lo < hi, got [{lo}, {hi}]")
    d1 = _poly_derivative(f.coefficients)
    if not d1 or all(c == 0.0 for c in d1):
        return MonotonicityCheck(decreasing=True, witness=None)
    points = np.linspace(lo, hi, 10001)
    d2 = _poly_derivative(d1)
    # strip leading zeros before np.roots (it wants highest-degree first)
    trimmed = list(d2)
    while trimmed and trimmed[-1] == 0.0:
        trimmed.pop()
    if trimmed and len(trimmed) > 1:
        roots = np.roots(trimmed[::-1])
        real = roots[np.abs(roots.imag) < 1e-12].real
        inside = real[(real >= lo) & (real <= hi)]
        if inside.size:
            points = np.concatenate([points, inside])
    dfilter = PolynomialFilter(d1)
    values = eval_filter_scalar(dfilter, points)
    worst = int(np.argmax(values))
    if values[worst] > 0.0:
        return MonotonicityCheck(decreasing=False, witness=float(points[worst]))
    return MonotonicityCheck(decreasing=True, witness=None)


@dataclass(frozen=True)
class FilterContraction:
    """Energy contraction factors of one filtered propagation step."""

    paper: float
    safe: float


def filter_contraction(f: PolynomialFilter, source: Spectrum | Graph) -> FilterContraction:
    """``paper = P(lam)^2`` at the smallest nonzero eigenvalue; ``safe`` is the
    maximum of ``P(lam_i)^2`` over all nonzero eigenvalues.

    ``source`` is a :class:`Spectrum`, whose every eigenvalue is read, or a
    graph, which picks the route: ``g.extremes`` for a filter monotone on
    ``[0, 2]`` (the maximum of ``P^2`` is then attained at an end of the
    spectrum), ``g.spectrum`` for any other.
    """
    return _contraction(f, _factor_eigenvalues(f, source))


def _factor_eigenvalues(f: PolynomialFilter, source: Spectrum | Graph) -> np.ndarray:
    if isinstance(source, Spectrum):
        return source.nonzero
    # below the cutoff g.extremes is g.spectrum.nonzero: skip the root test
    if source.n < LANCZOS_MIN_NODES or not is_monotone_on_spectrum(f):
        return source.spectrum.nonzero
    return source.extremes


def _contraction(f: PolynomialFilter, nonzero: np.ndarray) -> FilterContraction:
    return FilterContraction(
        paper=float(eval_filter_scalar(f, float(nonzero[0]))) ** 2,
        safe=float((eval_filter_scalar(f, nonzero) ** 2).max()),
    )


def is_monotone_on_spectrum(f: PolynomialFilter) -> bool:
    """Whether ``P'`` has no real root in ``[0, 2]``, which holds every
    eigenvalue of an augmented normalized Laplacian, so ``P`` is monotone there.

    A filter of degree at most 1 always is.  A root of ``np.roots`` within
    ``ROOT_SLACK`` of the real interval counts as inside it, so a doubtful
    filter takes the full spectrum.
    """
    d1 = list(_poly_derivative(f.coefficients))
    while d1 and d1[-1] == 0.0:
        d1.pop()
    if len(d1) <= 1:
        return True
    roots = np.roots(d1[::-1])
    slack = ROOT_SLACK * (1.0 + np.abs(roots))
    inside = (np.abs(roots.imag) <= slack) & (roots.real >= -slack) & (roots.real <= 2.0 + slack)
    return not inside.any()


def lanczos_extremes(g: Graph) -> np.ndarray | None:
    """Read-only ``[lam_min_nonzero, lam_max]`` of the Laplacian of graph ``g``
    by Lanczos on its edge arrays, or None when the extreme Ritz residuals do
    not reach ``LANCZOS_RESIDUAL`` times their Ritz values.

    ``Ltil x = x - Dtil^{-1/2} (A + I) Dtil^{-1/2} x`` is formed with
    ``np.bincount`` over the edges, never as a matrix.  The kernel,
    ``Dtil^{1/2} 1`` on each component, is projected out of the seeded start
    vector and after each of the two orthogonalization passes against the
    whole basis, so the smallest Ritz value approximates ``lam_min_nonzero``.
    An invariant subspace or an exhausted Krylov space ends the run with exact
    values.  ``g`` needs at least one edge.
    """
    n, u, v, w, labels = g.n, g.u, g.v, g.w, g.component_labels
    root = np.sqrt(g.augmented_degrees)
    inv_root = 1.0 / root
    mass = np.bincount(labels, g.augmented_degrees, n)[labels]  # dtil summed over the component

    def deflate(x: np.ndarray) -> None:
        x -= root * (np.bincount(labels, root * x, n)[labels] / mass)

    def apply(x: np.ndarray) -> np.ndarray:
        y = x * inv_root
        return x - (np.bincount(u, w * y[v], n) + np.bincount(v, w * y[u], n) + y) * inv_root

    dim = n - g.kernel_dim
    steps = min(LANCZOS_MAX_STEPS, dim)
    basis = np.empty((steps, n))
    alpha, beta = np.empty(steps), np.empty(steps)
    q = np.random.default_rng(LANCZOS_SEED).standard_normal(n)
    deflate(q)
    q /= np.linalg.norm(q)
    trend = []
    for j in range(steps):
        basis[j] = q
        x = apply(q)
        alpha[j] = q @ x
        # one pass loses orthogonality as beta shrinks, and the Ritz values with it
        for _ in range(2):
            x -= (basis[:j + 1] @ x) @ basis[:j + 1]
            deflate(x)
        beta[j] = np.linalg.norm(x)
        m = j + 1
        if m % LANCZOS_CHECK_EVERY == 0 or m == steps or beta[j] <= LANCZOS_RESIDUAL:
            ends, residuals = _extreme_ritz(alpha[:m], beta[:m])
            worst = float(np.max(residuals / np.abs(ends)))
            # a beta this small leaves span(basis) invariant: its Ritz values are eigenvalues
            if worst <= LANCZOS_RESIDUAL or beta[j] <= LANCZOS_RESIDUAL or m == dim:
                ends.flags.writeable = False
                return ends
            trend.append(worst)
            if m == LANCZOS_TREND_STEPS and _projected_steps(m, trend) > LANCZOS_MAX_STEPS:
                return None
        q = x / beta[j]
    return None


def _projected_steps(m: int, trend: list[float]) -> float:
    """Steps to bring the worst relative residual to ``LANCZOS_RESIDUAL``,
    extrapolated log-linearly from its last three checks, ``m`` steps in.

    Lanczos converges faster than linearly, so the projection errs long.
    """
    r0, r1 = trend[-3], trend[-1]
    if r1 >= r0:
        return math.inf
    span = 2 * LANCZOS_CHECK_EVERY
    return m + span * math.log(r1 / LANCZOS_RESIDUAL) / math.log(r0 / r1)


def _extreme_ritz(alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The extreme Ritz values of the Lanczos tridiagonal ``T`` (diagonal
    ``alpha``, off-diagonal ``beta[:-1]``) and their residual norms
    ``beta[-1] |s_last|``, with ``s`` the unit Ritz vector.

    ``s`` solves the eigenvector equations of rows ``k-1`` down to ``1`` of
    ``T`` upwards from ``s_last = 1``.  A converged Ritz vector grows in that
    direction, so the recurrence is stable; one that grows past 1e150 has a
    last component below 1e-150, taken as zero.
    """
    k = alpha.size
    off = beta[:-1]
    ritz = np.linalg.eigvalsh(np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1))
    ends = np.array([ritz[0], ritz[-1]])
    a, b = alpha.tolist(), off.tolist() + [0.0]
    last = []
    for theta in ends.tolist():
        below, here, norm_sq = 0.0, 1.0, 1.0
        for i in range(k - 1, 0, -1):
            below, here = here, ((theta - a[i]) * here - b[i] * below) / b[i - 1]
            norm_sq += here * here
            if norm_sq > 1e300:
                break
        last.append(0.0 if norm_sq > 1e300 else 1.0 / math.sqrt(norm_sq))
    return ends, beta[-1] * np.array(last)
