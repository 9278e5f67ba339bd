import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcn_energy import (
    ContractionFactors,
    DegenerateSpectrumError,
    Graph,
    NumericError,
    PerturbationPlan,
    PolynomialFilter,
    Spectrum,
    ValidationError,
    apply_filter,
    augmented_normalized_laplacian,
    check_monotone_decreasing,
    connected_components,
    contraction_factors,
    dirichlet_energy_edge_sum,
    eval_filter_scalar,
    filter_contraction,
    generate,
    perturb,
)
from gcn_energy.spectral import eigendecompose, eval_filter_matrix


def test_k2_spectrum_is_zero_one():
    s = generate("complete", 2).spectrum
    assert np.allclose(s.eigenvalues, [0.0, 1.0], atol=1e-14)
    assert s.kernel_dim == 1


def test_path3_spectrum_exact():
    # eigenvalues 0, 1/2, 7/6 for the three-node path
    s = generate("path", 3).spectrum
    assert np.allclose(s.eigenvalues, [0.0, 0.5, 7.0 / 6.0], atol=1e-12)


def test_ring4_spectrum_exact():
    s = generate("ring", 4).spectrum
    assert np.allclose(s.eigenvalues, [0.0, 2.0 / 3.0, 2.0 / 3.0, 4.0 / 3.0], atol=1e-12)


def test_complete3_contraction_factors():
    # K3: every nonzero eigenvalue is exactly 1, so both factors vanish
    cf = contraction_factors(generate("complete", 3).spectrum)
    assert cf.lambda_min_nonzero == pytest.approx(1.0, abs=1e-12)
    assert cf.lambda_bar_paper == pytest.approx(0.0, abs=1e-24)
    assert cf.lambda_bar_safe == pytest.approx(0.0, abs=1e-24)
    assert cf.kernel_dim == 1


def test_path3_contraction_factors():
    cf = contraction_factors(generate("path", 3).spectrum)
    assert cf == ContractionFactors(
        lambda_min_nonzero=pytest.approx(0.5, abs=1e-12),
        lambda_bar_paper=pytest.approx(0.25, abs=1e-12),
        lambda_bar_safe=pytest.approx(0.25, abs=1e-12),
        kernel_dim=1,
    )


@pytest.mark.parametrize("seed", range(8))
def test_spectrum_stays_inside_zero_two(seed):
    rng = np.random.default_rng(seed)
    kind = ["erdos_renyi", "ring", "k_regular", "path", "complete"][seed % 5]
    n = int(rng.integers(5, 80))
    if kind == "erdos_renyi":
        g = generate(kind, n, seed=seed, p=float(rng.uniform(0.05, 0.5)))
    elif kind == "k_regular":
        g = generate(kind, n, k=2 * int(rng.integers(1, max(2, (n - 1) // 2))))
    else:
        g = generate(kind, n)
    if seed % 2 and g.edge_count:
        g = perturb(g, PerturbationPlan.boost(1, 10000.0, seed=seed))
    s = g.spectrum
    assert s.eigenvalues[0] >= -1e-10
    assert s.eigenvalues[-1] <= 2.0 - 1e-12


def test_kernel_dim_matches_component_count():
    g = Graph.from_edges(7, ((0, 1, 1.0), (1, 2, 1.0), (3, 4, 5.0)))
    s = g.spectrum
    assert s.kernel_dim == len(connected_components(g)) == 4
    assert np.max(np.abs(s.eigenvalues[:4])) <= 1e-12
    assert s.nonzero[0] == pytest.approx(0.5, abs=1e-12)


def boosted_path40():
    """One component whose three boosted edges push two eigenvalues below 1e-8."""
    return perturb(generate("path", 40), PerturbationPlan.boost(3, 1e8, seed=0))


def test_boosted_path_kernel_is_the_component_count():
    # a tolerance of 1e-8 * max(1, |lam_max|) would take 3 eigenvalues as kernel
    # and report lam_min = 2.24e-3
    g = boosted_path40()
    reference = np.linalg.eigh(g.laplacian)[0]
    assert g.spectrum.kernel_dim == len(connected_components(g)) == 1
    assert g.spectrum.nonzero[0] == pytest.approx(reference[1], rel=1e-5)
    assert g.spectrum.nonzero[0] == pytest.approx(9.81e-10, rel=1e-3)


# backward error of a dense symmetric eigensolver, n * eps * ||Ltil|| with room
EIGENVALUE_SLACK = 1e-12


def kernel_distance_sq(g, x):
    """``||X - Pi_M X||_F^2``, Pi_M projecting onto ``Dtil^{1/2} 1`` per component."""
    root = np.sqrt(g.augmented_degrees)
    rest = x.copy()
    for nodes in connected_components(g):
        idx = list(nodes)
        unit = root[idx] / np.linalg.norm(root[idx])
        rest[idx] -= np.outer(unit, unit @ x[idx])
    return float(np.sum(rest**2))


def assert_energy_sandwich(g, x):
    """``lam_min * d_M^2 <= E(X) <= lam_max * d_M^2``, within the eigenvalue slack."""
    energy = dirichlet_energy_edge_sum(x, g)
    d2 = kernel_distance_sq(g, x)
    assert (g.spectrum.nonzero[0] - EIGENVALUE_SLACK) * d2 <= energy
    assert energy <= (g.spectrum.eigenvalues[-1] + EIGENVALUE_SLACK) * d2


@pytest.mark.parametrize("seed", range(12))
def test_energy_sandwich_on_seeded_graphs(seed):
    rng = np.random.default_rng(seed)
    kind = ["erdos_renyi", "ring", "k_regular", "path", "complete", "erdos_renyi"][seed % 6]
    n = int(rng.integers(5, 60))
    if kind == "erdos_renyi":
        # sparse draws leave several components
        g = generate(kind, n, seed=seed, p=float(rng.uniform(0.02, 0.3)))
    elif kind == "k_regular":
        g = generate(kind, n, k=2 * int(rng.integers(1, (n - 1) // 2 + 1)))
    else:
        g = generate(kind, n)
    if seed % 2:
        factor = (10.0, 1e4, 1e8)[seed % 3]
        g = perturb(g, PerturbationPlan.boost(min(3, g.edge_count), factor, seed=seed))
    x = rng.standard_normal((g.n, 3))
    assert_energy_sandwich(g, x)
    # a large kernel component moves neither side
    kernel = np.sqrt(g.augmented_degrees)[:, None] * rng.uniform(-100.0, 100.0, 3)
    assert_energy_sandwich(g, x + kernel)


def test_energy_sandwich_is_tight_at_the_smallest_nonzero_eigenvector():
    g = boosted_path40()
    vector = np.linalg.eigh(g.laplacian)[1][:, 1:2]
    assert_energy_sandwich(g, vector)
    energy = dirichlet_energy_edge_sum(vector, g)
    assert energy == pytest.approx(g.spectrum.nonzero[0] * kernel_distance_sq(g, vector),
                                   rel=1e-3)


def test_spectrum_arrays_are_read_only():
    s = generate("ring", 5).spectrum
    with pytest.raises(ValueError):
        s.eigenvalues[0] = 9.0


@pytest.mark.parametrize("n,seed,p", [(30, 1, 0.2), (40, 2, 0.15)])
def test_identity_filter_matrix_rebuilds_the_laplacian(n, seed, p):
    # V diag(lam) V^T from eval_filter_matrix's own eigh round-trips the source
    lap = augmented_normalized_laplacian(generate("erdos_renyi", n, seed=seed, p=p))
    assert np.allclose(eval_filter_matrix(PolynomialFilter((0.0, 1.0)), lap), lap, atol=1e-12)


def test_contraction_factors_need_a_nonzero_eigenvalue():
    # edgeless graph: the Laplacian is the zero matrix
    s = Graph.from_edges(4, ()).spectrum
    with pytest.raises(DegenerateSpectrumError):
        contraction_factors(s)


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_spectrum_kernel_dim_must_be_an_integer_in_range(bad):
    # a library caller may pass any kernel_dim; only an integer in [0, n] is taken
    s = eigendecompose(np.diag([0.0, 1e-6, 1.0]), kernel_dim=2)
    assert s.kernel_dim == 2
    assert s.nonzero.tolist() == [1.0]
    for kernel_dim in (bad, -1, 4):
        with pytest.raises(ValidationError):
            Spectrum(np.array([0.0, 1e-6, 1.0]), kernel_dim)


def test_eigendecompose_failure_is_a_numeric_error(monkeypatch):
    # a LAPACK failure exits 3 as numerical trouble, not as a traceback
    def fail(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NumericError, match="eigendecomposition failed: Eigenvalues did not"):
        generate("path", 3).spectrum


@given(
    coeffs=st.lists(st.floats(-3, 3), min_size=1, max_size=5),
    x=st.floats(-2, 2),
)
@settings(max_examples=60, deadline=None)
def test_filter_scalar_matches_polyval(coeffs, x):
    f = PolynomialFilter.from_coefficients(coeffs)
    expected = np.polyval(list(reversed(coeffs)), x)
    assert eval_filter_scalar(f, x) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_filter_scalar_on_arrays():
    f = PolynomialFilter.from_coefficients([1.0, -1.0])
    out = eval_filter_scalar(f, np.array([0.0, 0.5, 2.0]))
    assert out.tolist() == [1.0, 0.5, -1.0]


def test_filter_matrix_matches_direct_powers():
    lap = augmented_normalized_laplacian(generate("erdos_renyi", 20, seed=5, p=0.3))
    f = PolynomialFilter.from_coefficients([0.3, -1.2, 0.5])
    direct = 0.3 * np.eye(20) - 1.2 * lap + 0.5 * (lap @ lap)
    assert np.allclose(eval_filter_matrix(f, lap), direct, atol=1e-10)


def test_propagation_filter_reproduces_propagation_matrix():
    g = generate("ring", 6)
    lap = augmented_normalized_laplacian(g)
    p = eval_filter_matrix(PolynomialFilter.propagation(), lap)
    assert np.allclose(p, np.eye(6) - lap, atol=1e-12)


def oracle_graph(kind, seed):
    if kind == "ring":
        return generate("ring", 17)
    if kind == "path":
        return generate("path", 23)
    g = generate("erdos_renyi", 40, seed=seed, p=0.15)
    if kind == "weighted":
        w = np.random.default_rng(seed).uniform(0.05, 20.0, g.edge_count)
        g = Graph(g.n, g.u, g.v, w)
    return g


def seeded_filter(rng, degree, monotone):
    """Decreasing on [0, 2] if ``monotone``; otherwise increasing somewhere there."""
    if monotone:
        return PolynomialFilter((float(rng.uniform(-1, 1)),)
                                + tuple(-float(c) for c in rng.uniform(0, 1, degree)))
    if degree == 1:
        return PolynomialFilter((float(rng.uniform(-1, 1)), float(rng.uniform(0.1, 1))))
    # two or more roots inside (0, 2) put a turning point between them
    coeffs = np.polynomial.polynomial.polyfromroots(rng.uniform(0.1, 1.9, degree))
    return PolynomialFilter.from_coefficients(float(rng.uniform(0.5, 2)) * coeffs)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["er", "ring", "path", "weighted"])
def test_apply_filter_matches_eigenbasis_oracle(kind, seed):
    # Horner on the Laplacian against V diag(p(lam)) V^T X, both monotone and not
    g = oracle_graph(kind, seed)
    rng = np.random.default_rng(100 + seed)
    cases = [(d, True) for d in range(5)] + [(d, False) for d in range(1, 5)]
    for degree, monotone in cases:
        f = seeded_filter(rng, degree, monotone)
        assert len(f.coefficients) - 1 == degree
        assert check_monotone_decreasing(f, 0.0, 2.0).decreasing == monotone
        x = rng.standard_normal((g.n, 3))
        got = apply_filter(f, g.laplacian, x)
        want = eval_filter_matrix(f, g.laplacian) @ x
        scale = np.max(np.abs(eval_filter_scalar(f, g.spectrum.eigenvalues)))
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(x) * scale, (degree, monotone)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["er", "ring", "path", "weighted"])
def test_eigendecompose_values_match_full_eigh(kind, seed):
    # eigvalsh behind every factor against the eigenvalues of a full eigh
    g = oracle_graph(kind, seed)
    s = g.spectrum
    full = np.linalg.eigh(g.laplacian)[0]
    scale = max(1.0, abs(full[-1]))
    assert np.max(np.abs(s.eigenvalues - full)) <= 1e-12 * scale
    ref = Spectrum(full, len(connected_components(g)))
    # the zero tolerance of old, 1e-8 * max(1, |lam_max|), agrees with the component count here
    assert np.count_nonzero(np.abs(full) <= 1e-8 * scale) == s.kernel_dim
    got, want = contraction_factors(s), contraction_factors(ref)
    for name in ("lambda_min_nonzero", "lambda_bar_paper", "lambda_bar_safe"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "coeffs",
    [
        (),
        (1.0, float("nan")),
        (1.0, float("inf")),
    ],
)
def test_filter_coefficient_validation(coeffs):
    with pytest.raises(ValidationError):
        PolynomialFilter(coeffs)


def test_monotone_gate_accepts_decreasing_and_constant():
    assert check_monotone_decreasing(PolynomialFilter((1.0, -1.0)), 0.0, 2.0).decreasing
    assert check_monotone_decreasing(PolynomialFilter((0.9,)), 0.0, 2.0).decreasing


def test_monotone_gate_rejects_increasing_with_witness():
    chk = check_monotone_decreasing(PolynomialFilter((0.0, 1.0)), 0.0, 2.0)
    assert not chk.decreasing
    assert chk.witness is not None and 0.0 <= chk.witness <= 2.0


def test_monotone_gate_catches_interior_bump():
    # P(x) = x^2 - x decreases near 0 but rises past x = 1/2
    chk = check_monotone_decreasing(PolynomialFilter((0.0, -1.0, 1.0)), 0.0, 2.0)
    assert not chk.decreasing
    assert chk.witness > 0.5


def test_monotone_gate_uses_second_derivative_roots():
    # P'(x) = 1e-12 - (x - c)^2 pokes above zero only within 1e-6 of c,
    # and c sits between grid points (spacing 2e-4), so the root of P''
    # at x = c is the only sample that can expose it.
    eps, c = 1e-12, 1.0000731
    f = PolynomialFilter((c**3 / 3.0, eps - c**2, c, -1.0 / 3.0))
    chk = check_monotone_decreasing(f, 0.0, 2.0)
    assert not chk.decreasing
    assert chk.witness == pytest.approx(c, abs=1e-9)


def test_monotone_gate_interval_validation():
    with pytest.raises(ValidationError):
        check_monotone_decreasing(PolynomialFilter((1.0, -1.0)), 1.0, 1.0)


def test_filter_contraction_path3():
    # nonzero eigenvalues 1/2 and 7/6 under P(x) = 1 - x:
    # paper (1 - 1/2)^2 = 1/4, safe max((1/2)^2, (1/6)^2) = 1/4
    fc = filter_contraction(PolynomialFilter.propagation(), generate("path", 3).spectrum)
    assert fc.paper == pytest.approx(0.25, abs=1e-12)
    assert fc.safe == pytest.approx(0.25, abs=1e-12)


def test_filter_contraction_constant_filter():
    fc = filter_contraction(PolynomialFilter((0.9,)), generate("path", 3).spectrum)
    assert fc.paper == pytest.approx(0.81, abs=1e-12)
    assert fc.safe == pytest.approx(0.81, abs=1e-12)


def test_filter_contraction_needs_nonzero_spectrum():
    with pytest.raises(DegenerateSpectrumError):
        filter_contraction(PolynomialFilter.propagation(), Graph.from_edges(3, ()).spectrum)
