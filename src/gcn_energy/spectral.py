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
Every factor reads the eigenvalues above the kernel through
:attr:`Spectrum.nonzero`; the smallest of them, ``lam``, drives the paper's
factor ``P(lam)^2`` (``(1 - lam)^2`` for one propagation step), while the
"safe" variant takes the maximum of ``P(lam_i)^2`` over all of them and is an
upper bound for the energy contraction of one step regardless of where the
spectrum sits inside ``[0, 2)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, NumericError, ValidationError


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

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


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


def contraction_factors(s: Spectrum) -> ContractionFactors:
    """The factors of one propagation step: :func:`filter_contraction` of ``1 - x``.

    ``lambda_bar_paper = (1 - lam)^2`` for the smallest nonzero eigenvalue
    ``lam``; ``lambda_bar_safe = max (1 - lam_i)^2`` over nonzero eigenvalues.
    Raises :class:`DegenerateSpectrumError` if every eigenvalue lies in the
    kernel (for a Laplacian: an edgeless graph).
    """
    fc = filter_contraction(PolynomialFilter.propagation(), s)
    return ContractionFactors(
        lambda_min_nonzero=float(s.nonzero[0]),
        lambda_bar_paper=fc.paper,
        lambda_bar_safe=fc.safe,
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
    nonzero = s.nonzero
    return FilterContraction(
        paper=float(eval_filter_scalar(f, float(nonzero[0]))) ** 2,
        safe=float((eval_filter_scalar(f, nonzero) ** 2).max()),
    )
