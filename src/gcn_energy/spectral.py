"""Eigenvalues, polynomial filters, and contraction factors.

For a symmetric matrix ``M = V diag(lam) V^T`` a polynomial filter with
coefficients ``[a_0, ..., a_k]`` acts as ``P(M) = V diag(P(lam_i)) V^T``.
:func:`apply_filter` forms ``P(Ltil) X`` by Horner's rule on a graph's
edge-array product ``Graph.laplacian_times``, with no eigenvectors and no
``n x n`` matrix.
:func:`eigendecompose` computes eigenvalues only, since every contraction factor
depends on them alone.  It serves ``Graph.spectrum`` and takes the Laplacian
that ``augmented_normalized_laplacian`` builds for it, which is exactly
symmetric and finite by construction, so it runs ``eigvalsh`` on it with no
check and no symmetrised copy.
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
numpy-only Lanczos iteration on the edge arrays that may do as much work as
the dense solve it would fall back to, and no more (:func:`lanczos_step_cap`).
It stops once both ends have settled: each end's Ritz residual ``r`` is
within ``LANCZOS_RESIDUAL`` of its Ritz value, or its error bound
``r^2 / gap`` to the neighbouring Ritz value is within rounding of it
(:func:`_extreme_ritz`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateSpectrumError, NumericError, ValidationError, check_real

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
# BLAS threads it breaks even with the dense solve near 300 nodes, and at 500
# it takes about 7 ms against 12; the dense solve takes about 27 ms at 700
# nodes.  The cutoff sits higher because a graph that does not settle pays its
# attempt, up to one dense solve, on top of that solve.
# Every LANCZOS_CHECK_EVERY steps the two extreme Ritz values are checked: an
# end settles when its residual is within LANCZOS_RESIDUAL of its Ritz value,
# or when its error bound r^2 / gap is within EPS of it (_extreme_ritz).  A
# run that has done the work of the dense solve it would fall back to stops,
# leaving the graph to that solve (lanczos_step_cap).  LANCZOS_WORK_RATIO
# weighs the products and reorthogonalization, m (E + m n) through step m,
# against eigvalsh's n^3.  The checks' eigvalsh of the j x j tridiagonal costs
# j^3 in the units of the dense solve's n^3, and counts at that weight.  The
# ratio is fitted from graphs that do not settle in time, rings, paths and
# 4-regular circulants of 800 to 5,000 nodes at 2 BLAS threads: at 12 their
# attempt takes 0.75 to 1.04 times the dense solve that follows.  The r^2 / gap
# rule needs no term of its own: a run that never settles takes the cap's
# steps whatever the rule, and the rule adds only two O(m) recurrences, for
# the neighbours, to a check's O(m^3) eigvalsh.
LANCZOS_MIN_NODES = 700
LANCZOS_CHECK_EVERY = 10
LANCZOS_RESIDUAL = 1e-13
LANCZOS_WORK_RATIO = 12
LANCZOS_SEED = 0


def eigendecompose(m: np.ndarray) -> np.ndarray:
    """Read-only ascending eigenvalues (``eigvalsh``, no eigenvectors) of a
    graph's Laplacian.

    ``m`` is taken as :func:`~gcn_energy.graphs.augmented_normalized_laplacian`
    builds it: exactly symmetric with finite entries, so it is neither checked
    nor symmetrised.  ``g.spectrum`` is the public route.
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
    """Polynomial ``P(x) = a_0 + a_1 x + ... + a_k x^k`` of a symmetric matrix.

    ``PolynomialFilter(coeffs)`` takes ``a_0, ..., a_k`` as any nonempty
    iterable; each coefficient is a real number under
    :func:`~gcn_energy.errors.check_real`, with no bounds, and they are stored
    as a tuple of floats.
    """

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        raw = tuple(self.coefficients) if np.iterable(self.coefficients) else ()
        if not raw:
            raise ValidationError(f"filter needs a nonempty sequence of coefficients, "
                                  f"got {self.coefficients!r}")
        coeffs = tuple(check_real(f"filter coefficient a_{j}", c) for j, c in enumerate(raw))
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def propagation(cls) -> "PolynomialFilter":
        """The filter ``1 - x`` that turns a Laplacian into its propagation matrix."""
        return cls((1.0, -1.0))


def _horner(coeffs, x):
    """``coeffs[0] + coeffs[1] x + ...`` at a float or array ``x`` by Horner's
    rule, bit for bit the value of ``np.polyval(coeffs[::-1], x)``: it starts
    from ``0.0 * x + a_k``, as ``np.polyval`` starts from ``zeros_like(x) * x
    + a_k``, so signed zeros and broadcasting match."""
    acc = 0.0 * x + coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


def eval_filter_scalar(f: PolynomialFilter, x):
    """The filter polynomial at a float or array ``x`` by Horner's rule:
    bit for bit ``np.polyval(f.coefficients[::-1], x)``, with none of its
    per-call array set-up, so a float gives a float."""
    return _horner(f.coefficients, x)


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
    lo, hi = check_real("monotonicity interval lo", lo), check_real("monotonicity interval hi", hi)
    if not lo < hi:
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
    that the roots near the interval come out as zeros.  Raises
    :class:`NumericError` when ``np.roots`` cannot find the roots.
    """
    d1 = _poly_derivative(f.coefficients) or (0.0,)
    terms = np.abs(d1) * np.float_power(max(1.0, abs(lo), abs(hi)), np.arange(len(d1)))
    top = len(d1)
    while top > 1 and terms[top - 1] <= EPS * terms[:top - 1].sum():
        top -= 1
    points = np.array([lo, hi])
    # a kept leading term is nonzero, so np.roots gets a nonzero leading coefficient
    d2 = _poly_derivative(d1[:top])
    with np.errstate(over="ignore", invalid="ignore"):  # huge coefficients give inf or nan
        if len(d2) > 1:
            try:
                roots = np.roots(d2[::-1])
            except np.linalg.LinAlgError as exc:  # a coefficient ratio past the float range
                raise NumericError(f"roots of the second derivative of {f.coefficients} "
                                   f"not found: {exc}") from None
            real = roots.real[np.abs(roots.imag) <= ROOT_SLACK * (1.0 + np.abs(roots))]
            points = np.concatenate((points, real[(real >= lo) & (real <= hi)]))
        return points, _horner(d1, points)


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


def lanczos_step_cap(g: Graph) -> int:
    """The most Lanczos steps graph ``g`` may take: the largest ``m`` with
    ``LANCZOS_WORK_RATIO m (E + m n) + m^4 / (4 LANCZOS_CHECK_EVERY) <= n^3``,
    and at most the dimension above the kernel.  Through step ``m`` a run
    does ``m`` edge products over ``E`` edges, reorthogonalizes against ``m``
    basis rows of length ``n``, and checks its Ritz values every
    ``LANCZOS_CHECK_EVERY`` steps with an ``eigvalsh`` of the ``j x j``
    tridiagonal, about ``j^3`` at step ``j``; the dense ``eigvalsh`` of the
    fallback does about ``n^3``.  The cap never exceeds
    ``n / sqrt(LANCZOS_WORK_RATIO)``, so the basis stays smaller than the
    fallback's ``n x n`` Laplacian.
    """
    k, n, e = LANCZOS_WORK_RATIO, g.n, g.edge_count

    def work(m: int) -> int:
        return k * m * (e + m * n) + m ** 4 // (4 * LANCZOS_CHECK_EVERY)

    # the work grows with m: bisect for the last m within budget, in integers
    lo, hi = 0, n - g.kernel_dim
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if work(mid) <= n ** 3:
            lo = mid
        else:
            hi = mid - 1
    return lo


def lanczos_extremes(g: Graph) -> np.ndarray | None:
    """Read-only ``[lam_min_nonzero, lam_max]`` of the Laplacian of graph ``g``
    by Lanczos on its edge arrays, or None when the extreme Ritz values have
    not settled within :func:`lanczos_step_cap` steps.

    Every ``LANCZOS_CHECK_EVERY`` steps :func:`_extreme_ritz` tells whether
    both ends have settled, on their residuals or on their error bounds
    ``r^2 / gap`` to the neighbouring Ritz values.  Those neighbours can be
    trusted only because every step fully reorthogonalizes, as below.

    Each step takes one ``g.laplacian_times``, on the edge arrays, never a
    matrix, subtracts the three-term recurrence and then makes one full
    reorthogonalization pass against the basis.  The kernel,
    ``Dtil^{1/2} 1`` on each component, is projected out of the seeded start
    vector and after that pass, so the smallest Ritz value approximates
    ``lam_min_nonzero``.
    An invariant subspace or an exhausted Krylov space ends the run with exact
    values.  ``g`` needs at least one edge.
    """
    n, labels = g.n, g.component_labels
    root = np.sqrt(g.augmented_degrees)
    mass = np.bincount(labels, g.augmented_degrees, n)[labels]  # dtil summed over the component

    def deflate(x: np.ndarray) -> None:
        x -= root * (np.bincount(labels, root * x, n)[labels] / mass)

    dim = n - g.kernel_dim
    steps = lanczos_step_cap(g)
    basis = np.empty((steps, n))
    alpha, beta = np.empty(steps), np.empty(steps)
    q = np.random.default_rng(LANCZOS_SEED).standard_normal(n)
    deflate(q)
    q /= np.linalg.norm(q)
    for j in range(steps):
        basis[j] = q
        x = g.laplacian_times(q)
        alpha[j] = q @ x
        # the three-term recurrence, then one full pass against the basis: the
        # recurrence leaves only rounding for that pass to remove
        x -= alpha[j] * q
        if j:
            x -= beta[j - 1] * basis[j - 1]
        x -= (basis[:j + 1] @ x) @ basis[:j + 1]
        deflate(x)
        beta[j] = np.linalg.norm(x)
        m = j + 1
        if m % LANCZOS_CHECK_EVERY == 0 or m == steps or beta[j] <= LANCZOS_RESIDUAL:
            ends, settled = _extreme_ritz(alpha[:m], beta[:m])
            # a beta this small leaves span(basis) invariant: its Ritz values are eigenvalues
            if settled or beta[j] <= LANCZOS_RESIDUAL or m == dim:
                ends.flags.writeable = False
                return ends
        q = x / beta[j]
    return None


def _extreme_ritz(alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, bool]:
    """The extreme Ritz values ``[theta_1, theta_k]`` of the Lanczos
    tridiagonal ``T`` (diagonal ``alpha``, off-diagonal ``beta[:-1]``), and
    whether both have settled.

    A Ritz value ``theta`` has the residual norm ``r = beta[-1] |s_last|``,
    with ``s`` its unit Ritz vector.  An end settles when
    ``r <= LANCZOS_RESIDUAL |theta|``, or when ``gap > 0`` and
    ``r^2 <= EPS |theta| gap``.  ``gap = |theta_nb - theta| - r_nb`` is the
    distance from ``theta`` to the interval of radius ``r_nb`` around its
    neighbouring Ritz value ``theta_nb`` (``theta_2`` at the bottom,
    ``theta_{k-1}`` at the top), which holds an eigenvalue.  ``r^2 / gap``
    bounds the error of ``theta`` when ``gap`` separates it from the rest of
    the spectrum (Parlett, *The Symmetric Eigenvalue Problem*, 11.7), so the
    second rule stops once that bound reaches rounding; the first still
    settles an end whose neighbour is too close for a positive ``gap``.  A
    ``1 x 1`` ``T`` has no neighbour and settles by the first rule alone.

    ``theta_nb`` and ``r_nb`` can be trusted only because every Lanczos step
    fully reorthogonalizes: with an orthonormal basis each residual bounds
    the distance from its Ritz value to an eigenvalue, and no ghost copy of a
    converged end can appear beside it as its neighbour.

    ``s`` solves the eigenvector equations of rows ``k-1`` down to ``1`` of
    ``T`` upwards from ``s_last = 1``.  A converged Ritz vector grows in that
    direction, so the recurrence is stable; one that grows past 1e150 has a
    last component below 1e-150, taken as zero.  A neighbour's residual only
    narrows its ``gap``, so it needs a few correct digits, not all of them.
    """
    k = alpha.size
    off = beta[:-1]
    t = np.zeros((k, k))
    t.flat[::k + 1] = alpha
    t.flat[1::k + 1] = off
    t.flat[k::k + 1] = off
    ritz = np.linalg.eigvalsh(t)
    # the two ends, then their neighbours
    thetas = ritz[[0, -1, min(1, k - 1), max(k - 2, 0)]]
    a, b = alpha.tolist(), off.tolist() + [0.0]
    last = []
    for theta in thetas.tolist():
        below, here, norm_sq = 0.0, 1.0, 1.0
        for i in range(k - 1, 0, -1):
            below, here = here, ((theta - a[i]) * here - b[i] * below) / b[i - 1]
            norm_sq += here * here
            if norm_sq > 1e300:
                break
        last.append(0.0 if norm_sq > 1e300 else 1.0 / math.sqrt(norm_sq))
    residuals = beta[-1] * np.array(last)
    ends, r, size = thetas[:2], residuals[:2], np.abs(thetas[:2])
    gap = np.abs(thetas[2:] - ends) - residuals[2:]
    settled = (r <= LANCZOS_RESIDUAL * size) | ((gap > 0.0) & (r * r <= EPS * size * gap))
    return ends, bool(settled.all())
