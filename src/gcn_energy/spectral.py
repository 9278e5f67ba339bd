"""Eigenvalues, polynomial filters, and contraction factors.

For a symmetric matrix ``M = V diag(lam) V^T`` a polynomial filter with
coefficients ``[a_0, ..., a_k]`` acts as ``P(M) = V diag(P(lam_i)) V^T``.
:func:`apply_filter` forms ``P(M) X`` by Horner's rule on ``M``, with no eigenvectors.
:func:`eigendecompose` computes eigenvalues only, since every contraction factor
depends on them alone; :func:`eval_filter_matrix`, the tests' oracle of
:func:`apply_filter`, runs its own full ``eigh``.  No command calls it.
Eigenvalues with ``|lam| <= zero_tol`` are classified as zero; the smallest
nonzero eigenvalue ``lam`` drives the contraction factor ``(1 - lam)^2``,
while the "safe" variant takes the maximum of ``(1 - lam_i)^2`` (or
``P(lam_i)^2``) over all nonzero eigenvalues and is an upper bound for the
energy contraction of one propagation step regardless of where the spectrum
sits inside ``[0, 2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, NumericError, ValidationError

SYMMETRY_ATOL = 1e-12


def require_symmetric(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate a dense symmetric matrix (within 1e-12) with finite entries."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} has non-finite entries")
    if m.size and np.max(np.abs(m - m.T)) > SYMMETRY_ATOL:
        raise ValidationError(f"{name} is not symmetric within {SYMMETRY_ATOL}")
    return m


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues and the tolerance below which one counts as zero."""

    eigenvalues: np.ndarray
    zero_tol: float

    def __post_init__(self) -> None:
        self.eigenvalues.flags.writeable = False

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def zero_mask(self) -> np.ndarray:
        return np.abs(self.eigenvalues) <= self.zero_tol

    @property
    def kernel_dim(self) -> int:
        return int(np.count_nonzero(self.zero_mask))

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


def eigendecompose(m: np.ndarray, zero_tol: float | None = None) -> Spectrum:
    """Symmetric eigenvalues (``eigvalsh``, no eigenvectors) with zero classification.

    ``zero_tol`` defaults to ``1e-8 * max(1, |lam_max|)``, large enough to
    absorb round-off on kernel eigenvalues and far below any genuine spectral
    gap at desk scale.
    """
    if zero_tol is not None and not (math.isfinite(zero_tol) and zero_tol >= 0):
        raise ValidationError(f"zero_tol must be finite and nonnegative, got {zero_tol}")
    m = require_symmetric(m)
    try:
        eigenvalues = np.linalg.eigvalsh((m + m.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    if zero_tol is None:
        scale = float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 0.0
        zero_tol = 1e-8 * max(1.0, scale)
    return Spectrum(eigenvalues=eigenvalues, zero_tol=float(zero_tol))


@dataclass(frozen=True)
class ContractionFactors:
    """Spectral contraction summary of an augmented normalized Laplacian."""

    lambda_min_nonzero: float
    lambda_bar_paper: float
    lambda_bar_safe: float
    kernel_dim: int


def contraction_factors(s: Spectrum) -> ContractionFactors:
    """Derive contraction factors from a spectrum.

    ``lambda_bar_paper = (1 - lam)^2`` for the smallest nonzero eigenvalue
    ``lam``; ``lambda_bar_safe = max (1 - lam_i)^2`` over nonzero
    eigenvalues.  Raises :class:`DegenerateSpectrumError` if every eigenvalue
    is classified as zero (for a Laplacian: an edgeless graph).
    """
    nonzero = s.eigenvalues[~s.zero_mask]
    if nonzero.size == 0:
        raise DegenerateSpectrumError(
            "all eigenvalues are zero within tolerance; no nonzero eigenvalue"
        )
    lam = float(nonzero.min())
    factors = (1.0 - nonzero) ** 2
    return ContractionFactors(
        lambda_min_nonzero=lam,
        lambda_bar_paper=(1.0 - lam) ** 2,
        lambda_bar_safe=float(factors.max()),
        kernel_dim=s.kernel_dim,
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

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


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


def filter_contraction(f: PolynomialFilter, s: Spectrum) -> FilterContraction:
    """``paper = P(lam)^2`` at the smallest nonzero eigenvalue; ``safe`` is the
    maximum of ``P(lam_i)^2`` over all nonzero eigenvalues."""
    nonzero = s.eigenvalues[~s.zero_mask]
    if nonzero.size == 0:
        raise DegenerateSpectrumError(
            "all eigenvalues are zero within tolerance; no nonzero eigenvalue"
        )
    vals = eval_filter_scalar(f, nonzero) ** 2
    lam = float(nonzero.min())
    return FilterContraction(
        paper=float(eval_filter_scalar(f, lam)) ** 2,
        safe=float(vals.max()),
    )
