"""Eigenvalues, polynomial filters, and contraction factors.

For a symmetric matrix ``M = V diag(lam) V^T`` a polynomial filter with
coefficients ``[a_0, ..., a_k]`` acts as ``P(M) = V diag(P(lam_i)) V^T``.
:func:`apply_filter` forms ``P(Ltil) X`` by Horner's rule on a graph's
edge-array product ``Graph.laplacian_times``, with no eigenvectors and no
``n x n`` matrix.
:func:`eigendecompose` computes eigenvalues only, since every contraction factor
depends on them alone.  It serves ``Graph.spectrum`` and takes the Laplacian
the graph built, which is exactly symmetric and finite by construction, so it
runs ``eigvalsh`` on it with no check and no symmetrised copy.
:func:`eval_filter_matrix`, the tests' oracle of :func:`apply_filter`, runs its
own full ``eigh``.  No command calls it.

The graph is the one spectral context: its kernel dimension is its component
count, so no float tolerance decides what is zero.  The factors read the
eigenvalues above the kernel; the smallest of them, ``lam``, drives the
paper's factor ``P(lam)^2`` (``(1 - lam)^2`` for one propagation step), while
the "safe" variant takes the maximum of ``P(lam_i)^2`` over all of them and
is an upper bound for the energy contraction of one step regardless of where
the spectrum sits inside ``[0, 2)``.

When ``P`` is monotone on ``[0, 2]`` (decided from the coefficients alone, by
the critical-point rule of :func:`check_monotone_decreasing` applied to ``P``
and to ``-P``) that maximum is attained at ``lam`` or at ``lam_max``, so the
factors read the pair ``Graph.extremes``; every other filter reads the full
``Graph.spectrum`` above the kernel.  On graphs of at least
``LANCZOS_MIN_NODES`` nodes the pair comes from :func:`lanczos_extremes`, a
numpy-only Lanczos iteration on the edge arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateSpectrumError, NumericError, ValidationError

if TYPE_CHECKING:
    from .graphs import Graph


# A root of P'' whose imaginary part is within ROOT_SLACK * (1 + |root|) of
# zero counts as real.
ROOT_SLACK = 1e-6
# The relative rounding of a float; a leading term of P' below it on an
# interval takes no part in finding the roots of P'' there.
EPS = float(np.finfo(float).eps)
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


def eigendecompose(m: np.ndarray) -> np.ndarray:
    """Read-only ascending eigenvalues (``eigvalsh``, no eigenvectors) of
    ``Graph.laplacian``.

    ``m`` is taken as built by :class:`~gcn_energy.graphs.Graph`: exactly
    symmetric with finite entries, so it is neither checked nor symmetrised.
    ``g.spectrum`` is the public route.
    """
    try:
        eigenvalues = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    eigenvalues.flags.writeable = False
    return eigenvalues


def nonzero_spectrum(g: Graph) -> np.ndarray:
    """``g.spectrum`` above its kernel of ``g.kernel_dim`` eigenvalues; raises
    :class:`DegenerateSpectrumError` when there is none (an edgeless graph)."""
    if g.kernel_dim == g.n:
        raise DegenerateSpectrumError(
            f"all {g.n} eigenvalues lie in the kernel; no nonzero eigenvalue")
    return g.spectrum[g.kernel_dim:]


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


def apply_filter(f: PolynomialFilter, g: Graph, x: np.ndarray) -> np.ndarray:
    """``P(Ltil) @ x`` on graph ``g`` by Horner's rule: ``deg P`` products
    :meth:`~gcn_energy.graphs.Graph.laplacian_times`, on the edge arrays."""
    coeffs = f.coefficients[::-1]
    acc = coeffs[0] * x
    for c in coeffs[1:]:
        acc = g.laplacian_times(acc) + c * x
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


def check_monotone_decreasing(f: PolynomialFilter, lo: float, hi: float) -> float | None:
    """A point of ``[lo, hi]`` at which ``P' > 0``, or None when ``P' <= 0``
    throughout, so that ``P`` decreases there; the witness is the point of
    :func:`_critical_slopes` with the largest ``P'``.
    """
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValidationError(f"monotonicity interval must satisfy lo < hi, got [{lo}, {hi}]")
    points, slopes = _critical_slopes(f, lo, hi)
    worst = int(np.argmax(slopes))
    if math.isnan(slopes[worst]):  # argmax stops at the first nan
        raise NumericError(f"the derivative of filter {f.coefficients} leaves the float range")
    return float(points[worst]) if slopes[worst] > 0.0 else None


def _critical_slopes(f: PolynomialFilter, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """``P'`` at the ends of ``[lo, hi]`` and at the real roots of ``P''``
    inside it, the points at which ``P'`` attains its extremes there.

    Leading terms of ``P'`` below rounding on the interval take no part in
    finding the roots: they would scale ``np.roots``' companion matrix so far
    that the roots near the interval come out as zeros.  A linear ``P''``
    (every cubic filter) has its one root in closed form, the value
    ``np.roots`` returns, without a LAPACK call.  Raises
    :class:`NumericError` when a root cannot be found.
    """
    d1 = _poly_derivative(f.coefficients) or (0.0,)
    terms = np.abs(d1) * np.float_power(max(1.0, abs(lo), abs(hi)), np.arange(len(d1)))
    top = len(d1)
    while top > 1 and terms[top - 1] <= EPS * terms[:top - 1].sum():
        top -= 1
    points = np.array([lo, hi])
    # a kept leading term is nonzero, so np.roots gets a nonzero leading coefficient
    d2 = _poly_derivative(d1[:top])
    if len(d2) > 1:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                if len(d2) > 2:
                    roots = np.roots(d2[::-1])
                else:
                    roots = np.array([-d2[0]]) / d2[1] + 0.0  # np.roots' zero is +0.0
                    if not np.isfinite(roots[0]):  # where np.roots' eigvals would fail
                        raise np.linalg.LinAlgError(f"root {roots[0]}")
        except np.linalg.LinAlgError as exc:  # a coefficient ratio past the float range
            raise NumericError(f"roots of the second derivative of {f.coefficients} "
                               f"not found: {exc}") from None
        real = roots.real[np.abs(roots.imag) <= ROOT_SLACK * (1.0 + np.abs(roots))]
        points = np.concatenate((points, real[(real >= lo) & (real <= hi)]))
    with np.errstate(over="ignore", invalid="ignore"):  # huge coefficients give inf or nan
        return points, np.polyval(d1[::-1], points)


@functools.lru_cache(maxsize=32)  # a run asks once per layer, mostly of one filter
def _is_monotone(f: PolynomialFilter) -> bool:
    """Whether ``P`` is monotone on ``[0, 2]``, which holds every eigenvalue of
    an augmented normalized Laplacian: ``P'`` keeps one sign at its critical
    points there.  A filter of degree at most 1 always is; one with a nan
    slope, or whose roots cannot be found, is not.
    """
    if len(f.coefficients) <= 2:
        return True
    try:
        _, slopes = _critical_slopes(f, 0.0, 2.0)
    except NumericError:
        return False
    return bool(slopes.max() <= 0.0 or slopes.min() >= 0.0)


@dataclass(frozen=True)
class FilterContraction:
    """Energy contraction factors of one filtered propagation step, and the
    smallest nonzero eigenvalue ``lambda_min_nonzero`` they were read at."""

    paper: float
    safe: float
    lambda_min_nonzero: float


def filter_contraction(f: PolynomialFilter, g: Graph) -> FilterContraction:
    """``paper = P(lam)^2`` at the smallest nonzero eigenvalue of graph ``g``;
    ``safe`` is the maximum of ``P(lam_i)^2`` over all nonzero eigenvalues.

    A filter monotone on ``[0, 2]`` reads the pair ``g.extremes`` (the
    maximum of ``P^2`` is then attained at an end of the spectrum); any other
    reads every nonzero eigenvalue of ``g.spectrum``.  Raises
    :class:`DegenerateSpectrumError` on an edgeless graph and
    :class:`NumericError` when a square leaves the float range.
    """
    return _contraction(f, _factor_eigenvalues(f, g))


def contraction_factors(g: Graph) -> FilterContraction:
    """The factors of one propagation step: :func:`filter_contraction` of
    ``1 - x``, so ``paper = (1 - lam)^2`` and ``safe = max (1 - lam_i)^2``.
    ``1 - x`` is monotone, so they read ``g.extremes``.
    """
    f = PolynomialFilter.propagation()
    # not through filter_contraction: the benchmark's tracer times both functions
    # as one layer, and a nested call would count that layer twice
    return _contraction(f, _factor_eigenvalues(f, g))


def _factor_eigenvalues(f: PolynomialFilter, g: Graph) -> np.ndarray:
    return g.extremes if _is_monotone(f) else nonzero_spectrum(g)


def _contraction(f: PolynomialFilter, eigenvalues: np.ndarray) -> FilterContraction:
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        squares = eval_filter_scalar(f, eigenvalues) ** 2
    safe = float(squares.max())
    if not math.isfinite(safe):
        raise NumericError(f"filter {f.coefficients} overflows: its largest square on "
                           f"the spectrum is {safe!r}")
    lam = float(eigenvalues[0])
    return FilterContraction(paper=float(eval_filter_scalar(f, lam)) ** 2, safe=safe,
                             lambda_min_nonzero=lam)


def lanczos_extremes(g: Graph) -> np.ndarray | None:
    """Read-only ``[lam_min_nonzero, lam_max]`` of the Laplacian of graph ``g``
    by Lanczos on its edge arrays, or None when the extreme Ritz residuals do
    not reach ``LANCZOS_RESIDUAL`` times their Ritz values.

    Each step takes one ``g.laplacian_times``, on the edge arrays, never a
    matrix.  The kernel, ``Dtil^{1/2} 1`` on each component, is projected
    out of the seeded start vector and after each of the two
    orthogonalization passes against the whole basis, so the smallest Ritz
    value approximates ``lam_min_nonzero``.
    An invariant subspace or an exhausted Krylov space ends the run with exact
    values.  ``g`` needs at least one edge.
    """
    n, labels = g.n, g.component_labels
    root = np.sqrt(g.augmented_degrees)
    mass = np.bincount(labels, g.augmented_degrees, n)[labels]  # dtil summed over the component

    def deflate(x: np.ndarray) -> None:
        x -= root * (np.bincount(labels, root * x, n)[labels] / mass)

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
        x = g.laplacian_times(q)
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
