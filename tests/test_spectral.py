import functools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gcn_energy import (
    DegenerateSpectrumError,
    FilterContraction,
    Graph,
    NumericError,
    PerturbationPlan,
    PolynomialFilter,
    ValidationError,
    apply_filter,
    augmented_normalized_laplacian,
    check_monotone_decreasing,
    connected_components,
    contraction_factors,
    dirichlet_energy_edge_sum,
    eval_filter_scalar,
    filter_contraction,
    from_edge_list,
    generate,
    perturb,
)
from gcn_energy.spectral import (
    LANCZOS_MIN_NODES,
    _critical_slopes,
    _is_monotone,
    eval_filter_matrix,
    lanczos_extremes,
)


def dense_factors(f, eigenvalues, kernel_dim):
    """The factors of ``f`` read from every eigenvalue above the kernel: the
    dense route, the oracle of every shortcut to the extremes."""
    nonzero = eigenvalues[kernel_dim:]
    lam = float(nonzero[0])
    return FilterContraction(paper=float(eval_filter_scalar(f, lam)) ** 2,
                             safe=float((eval_filter_scalar(f, nonzero) ** 2).max()),
                             lambda_min_nonzero=lam)


def test_k2_spectrum_is_zero_one():
    g = generate("complete", 2)
    assert np.allclose(g.spectrum, [0.0, 1.0], atol=1e-14)
    assert g.kernel_dim == 1


def test_path3_spectrum_exact():
    # eigenvalues 0, 1/2, 7/6 for the three-node path
    s = generate("path", 3).spectrum
    assert np.allclose(s, [0.0, 0.5, 7.0 / 6.0], atol=1e-12)


def test_ring4_spectrum_exact():
    s = generate("ring", 4).spectrum
    assert np.allclose(s, [0.0, 2.0 / 3.0, 2.0 / 3.0, 4.0 / 3.0], atol=1e-12)


def test_complete3_contraction_factors():
    # K3: every nonzero eigenvalue is exactly 1, so both factors vanish
    g = generate("complete", 3)
    cf = contraction_factors(g)
    assert cf.lambda_min_nonzero == pytest.approx(1.0, abs=1e-12)
    assert cf.paper == pytest.approx(0.0, abs=1e-24)
    assert cf.safe == pytest.approx(0.0, abs=1e-24)
    assert g.kernel_dim == 1


def test_path3_contraction_factors():
    g = generate("path", 3)
    assert contraction_factors(g) == FilterContraction(
        paper=pytest.approx(0.25, abs=1e-12),
        safe=pytest.approx(0.25, abs=1e-12),
        lambda_min_nonzero=pytest.approx(0.5, abs=1e-12),
    )
    assert g.kernel_dim == 1


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
    assert s[0] >= -1e-10
    assert s[-1] <= 2.0 - 1e-12


def test_kernel_dim_matches_component_count():
    g = Graph.from_edges(7, ((0, 1, 1.0), (1, 2, 1.0), (3, 4, 5.0)))
    s = g.spectrum
    assert g.kernel_dim == len(connected_components(g)) == 4
    assert np.max(np.abs(s[:4])) <= 1e-12
    assert s[g.kernel_dim] == pytest.approx(0.5, abs=1e-12)


def boosted_path40():
    """One component whose three boosted edges push two eigenvalues below 1e-8."""
    return perturb(generate("path", 40), PerturbationPlan.boost(3, 1e8, seed=0))


def test_boosted_path_kernel_is_the_component_count():
    # a tolerance of 1e-8 * max(1, |lam_max|) would take 3 eigenvalues as kernel
    # and report lam_min = 2.24e-3
    g = boosted_path40()
    reference = np.linalg.eigh(g.laplacian)[0]
    assert g.kernel_dim == len(connected_components(g)) == 1
    assert g.spectrum[g.kernel_dim] == pytest.approx(reference[1], rel=1e-5)
    assert g.spectrum[g.kernel_dim] == pytest.approx(9.81e-10, rel=1e-3)


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
    assert (g.spectrum[g.kernel_dim] - EIGENVALUE_SLACK) * d2 <= energy
    assert energy <= (g.spectrum[-1] + EIGENVALUE_SLACK) * d2


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
    assert energy == pytest.approx(g.spectrum[g.kernel_dim] * kernel_distance_sq(g, vector),
                                   rel=1e-3)


def test_spectrum_arrays_are_read_only():
    s = generate("ring", 5).spectrum
    with pytest.raises(ValueError):
        s[0] = 9.0


@pytest.mark.parametrize("n,seed,p", [(30, 1, 0.2), (40, 2, 0.15)])
def test_identity_filter_matrix_rebuilds_the_laplacian(n, seed, p):
    # V diag(lam) V^T from eval_filter_matrix's own eigh round-trips the source
    lap = augmented_normalized_laplacian(generate("erdos_renyi", n, seed=seed, p=p))
    assert np.allclose(eval_filter_matrix(PolynomialFilter((0.0, 1.0)), lap), lap, atol=1e-12)


def test_contraction_factors_need_a_nonzero_eigenvalue():
    # edgeless graph: the Laplacian is the zero matrix
    with pytest.raises(DegenerateSpectrumError, match="all 4 eigenvalues lie in the kernel"):
        contraction_factors(Graph.from_edges(4, ()))


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
        assert (check_monotone_decreasing(f, 0.0, 2.0) is None) == monotone
        x = rng.standard_normal((g.n, 3))
        got = apply_filter(f, g, x)
        want = eval_filter_matrix(f, g.laplacian) @ x
        scale = np.max(np.abs(eval_filter_scalar(f, g.spectrum)))
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(x) * scale, (degree, monotone)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["er", "ring", "path", "weighted"])
def test_eigendecompose_values_match_full_eigh(kind, seed):
    # eigvalsh behind every factor against the eigenvalues of a full eigh
    g = oracle_graph(kind, seed)
    s = g.spectrum
    full = np.linalg.eigh(g.laplacian)[0]
    scale = max(1.0, abs(full[-1]))
    assert np.max(np.abs(s - full)) <= 1e-12 * scale
    # the zero tolerance of old, 1e-8 * max(1, |lam_max|), agrees with the component count here
    assert np.count_nonzero(np.abs(full) <= 1e-8 * scale) == g.kernel_dim
    got = contraction_factors(g)
    want = dense_factors(PolynomialFilter.propagation(), full, len(connected_components(g)))
    for name in ("lambda_min_nonzero", "paper", "safe"):
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
    assert check_monotone_decreasing(PolynomialFilter((1.0, -1.0)), 0.0, 2.0) is None
    assert check_monotone_decreasing(PolynomialFilter((0.9,)), 0.0, 2.0) is None


def test_monotone_gate_rejects_increasing_with_witness():
    witness = check_monotone_decreasing(PolynomialFilter((0.0, 1.0)), 0.0, 2.0)
    assert witness is not None and 0.0 <= witness <= 2.0


def test_monotone_gate_catches_interior_bump():
    # P(x) = x^2 - x decreases near 0 but rises past x = 1/2
    witness = check_monotone_decreasing(PolynomialFilter((0.0, -1.0, 1.0)), 0.0, 2.0)
    assert witness is not None
    assert witness > 0.5


def test_monotone_gate_uses_second_derivative_roots():
    # P'(x) = 1e-12 - (x - c)^2 pokes above zero only within 1e-6 of c,
    # and c sits between grid points (spacing 2e-4), so the root of P''
    # at x = c is the only sample that can expose it.
    eps, c = 1e-12, 1.0000731
    f = PolynomialFilter((c**3 / 3.0, eps - c**2, c, -1.0 / 3.0))
    witness = check_monotone_decreasing(f, 0.0, 2.0)
    assert witness is not None
    assert witness == pytest.approx(c, abs=1e-9)


def test_monotone_gate_interval_validation():
    with pytest.raises(ValidationError):
        check_monotone_decreasing(PolynomialFilter((1.0, -1.0)), 1.0, 1.0)


def grid_monotone_oracle(f, lo, hi):
    """The largest sampled ``P'`` on ``[lo, hi]`` and where it is: a uniform
    grid of 10001 points plus every real root of ``P''`` inside the interval."""
    d1 = np.polynomial.polynomial.polyder(f.coefficients) if len(f.coefficients) > 1 else [0.0]
    d2 = list(np.polynomial.polynomial.polyder(d1)) if len(d1) > 1 else []
    while d2 and d2[-1] == 0.0:
        d2.pop()
    points = np.linspace(lo, hi, 10001)
    if len(d2) > 1:
        try:
            with np.errstate(over="ignore"):
                roots = np.roots(d2[::-1])
        except np.linalg.LinAlgError:  # a subnormal leading coefficient: the grid alone
            roots = np.empty(0)
        real = roots[np.abs(roots.imag) < 1e-12].real
        points = np.concatenate([points, real[(real >= lo) & (real <= hi)]])
    values = np.polynomial.polynomial.polyval(points, d1)
    worst = int(np.argmax(values))
    return float(values[worst]), float(points[worst])


@given(coeffs=st.lists(st.floats(-3, 3), min_size=1, max_size=6),
       ends=st.tuples(st.floats(0, 2), st.floats(0, 2)))
@settings(max_examples=400, deadline=None, derandomize=True)
# a leading coefficient far below the others: np.roots on all of P'' returns zeros
@example(coeffs=[0.0, 0.0, 1.0, 0.0, -1.0, 2.0688093602795245e-151], ends=(0.0, 1.0))
def test_monotone_gate_agrees_with_the_grid_oracle(coeffs, ends):
    # filters of degree 0 to 5 on intervals inside [0, 2]; the ends of the
    # interval and the roots of P'' are the only points that can hold max P'
    lo, hi = sorted(ends)
    assume(lo < hi)
    f = PolynomialFilter.from_coefficients(coeffs)
    worst, _ = grid_monotone_oracle(f, lo, hi)
    witness = check_monotone_decreasing(f, lo, hi)
    if witness is not None:
        assert lo <= witness <= hi
        d1 = np.polynomial.polynomial.polyder(f.coefficients)
        assert np.polynomial.polynomial.polyval(witness, d1) > 0.0
    if abs(worst) > 1e-12:
        assert (witness is None) == (worst <= 0.0), (worst, witness)


nonzero = st.floats(-3, 3).filter(lambda c: abs(c) >= 1e-6)


@given(coeffs=st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3), nonzero),
       ends=st.tuples(st.floats(0, 2), st.floats(0, 2)))
@settings(max_examples=300, deadline=None, derandomize=True)
@example(coeffs=(0.0, 0.0, 0.0, 1.0), ends=(0.0, 2.0))  # P'' = 6x: its root is zero
def test_cubic_root_in_closed_form_matches_np_roots(coeffs, ends):
    # a cubic has a linear P'' = 2 a_2 + 6 a_3 x, whose root needs no companion matrix
    f = PolynomialFilter.from_coefficients(coeffs)
    d1 = np.polynomial.polynomial.polyder(f.coefficients)
    want = float(np.roots(np.polynomial.polynomial.polyder(d1)[::-1]).real[0])
    points, _ = _critical_slopes(f, -1e7, 1e7)  # wide enough to hold every root here
    assert points.size == 3
    assert abs(points[2] - want) <= 1e-15 * abs(want)
    # the decisions read the same points as they would with np.roots
    lo, hi = sorted(ends)
    assume(lo < hi)
    pts = np.array([lo, hi] + ([want] if lo <= want <= hi else []))
    slopes = np.polyval(d1[::-1], pts)
    worst = int(np.argmax(slopes))
    assert check_monotone_decreasing(f, lo, hi) == (pts[worst] if slopes[worst] > 0.0 else None)
    pts = np.array([0.0, 2.0] + ([want] if 0.0 <= want <= 2.0 else []))
    slopes = np.polyval(d1[::-1], pts)
    assert _is_monotone(f) == bool(slopes.max() <= 0.0 or slopes.min() >= 0.0)


def test_filter_contraction_path3():
    # nonzero eigenvalues 1/2 and 7/6 under P(x) = 1 - x:
    # paper (1 - 1/2)^2 = 1/4, safe max((1/2)^2, (1/6)^2) = 1/4
    fc = filter_contraction(PolynomialFilter.propagation(), generate("path", 3))
    assert fc.paper == pytest.approx(0.25, abs=1e-12)
    assert fc.safe == pytest.approx(0.25, abs=1e-12)


def test_filter_contraction_constant_filter():
    fc = filter_contraction(PolynomialFilter((0.9,)), generate("path", 3))
    assert fc.paper == pytest.approx(0.81, abs=1e-12)
    assert fc.safe == pytest.approx(0.81, abs=1e-12)


def test_filter_contraction_needs_nonzero_spectrum():
    with pytest.raises(DegenerateSpectrumError):
        filter_contraction(PolynomialFilter.propagation(), Graph.from_edges(3, ()))


def test_filter_contraction_overflow_is_a_numeric_error():
    g = generate("ring", 8)
    for f in (PolynomialFilter((1e200, -1e200)),        # monotone: the pair
              PolynomialFilter((0.0, 1e200, -1e200)),   # a bump: every eigenvalue
              PolynomialFilter((0.0, 0.0, 1e308))):     # P' = 2e308 x overflows too
        with pytest.raises(NumericError, match="overflows"):
            filter_contraction(f, g)
    with pytest.raises(NumericError, match="derivative"):
        check_monotone_decreasing(PolynomialFilter((0.0, 0.0, 1e308)), 0.0, 2.0)


# ---------------------------------------------------------------------------
# the Lanczos route to the extremes, against the dense eigvalsh oracle


def _two_er_components_and_isolated_nodes():
    a = generate("erdos_renyi", 500, 1, p=0.03)
    b = generate("erdos_renyi", 250, 2, p=0.05)
    return Graph(800, np.concatenate((a.u, b.u + 500)), np.concatenate((a.v, b.v + 500)),
                 np.concatenate((a.w, b.w)))


def _weighted_edge_list():
    g = generate("erdos_renyi", 800, 4, p=0.015)
    w = np.random.default_rng(5).uniform(0.1, 10.0, g.edge_count)
    return from_edge_list("\n".join(f"{u} {v} {x!r}" for u, v, x in
                                    zip(g.u.tolist(), g.v.tolist(), w.tolist())))


LANCZOS_GRAPHS = {
    "er-dense": lambda: generate("erdos_renyi", 800, 7, p=0.02),
    "er-sparse": lambda: generate("erdos_renyi", 800, 8, p=0.008),
    "er-drop": lambda: perturb(generate("erdos_renyi", 800, 7, p=0.02),
                               PerturbationPlan.drop(0.3, seed=0)),
    "er-boost": lambda: perturb(generate("erdos_renyi", 800, 7, p=0.02),
                                PerturbationPlan.boost(5, 1e4, seed=0)),
    "disconnected": _two_er_components_and_isolated_nodes,
    "complete": lambda: generate("complete", 800),
    "weighted": _weighted_edge_list,
}
MONOTONE = (PolynomialFilter.propagation(), PolynomialFilter((1.0, -0.9, 0.2)))


@pytest.mark.parametrize("name", list(LANCZOS_GRAPHS))
def test_lanczos_extremes_match_eigvalsh_above_the_cutoff(name):
    g = LANCZOS_GRAPHS[name]()
    assert g.n >= LANCZOS_MIN_NODES
    oracle = np.linalg.eigvalsh(augmented_normalized_laplacian(g))[len(connected_components(g)):]
    ends = g.extremes
    assert ends.shape == (2,) and not ends.flags.writeable
    assert np.array_equal(ends, lanczos_extremes(g))  # the Lanczos route, not the fallback
    assert ends[0] == pytest.approx(oracle[0], rel=1e-12)
    assert ends[-1] == pytest.approx(oracle[-1], rel=1e-12)
    for f in MONOTONE:
        got, want = filter_contraction(f, g), dense_factors(f, oracle, 0)
        # on the complete graph 1 - x vanishes at the one nonzero eigenvalue, so its
        # factors are squares of round-off and compare absolutely
        assert got.paper == pytest.approx(want.paper, rel=1e-12, abs=1e-24)
        assert got.safe == pytest.approx(want.safe, rel=1e-12, abs=1e-24)
    cf = contraction_factors(g)
    assert cf == filter_contraction(PolynomialFilter.propagation(), g)
    assert cf.lambda_min_nonzero == ends[0]


@pytest.mark.parametrize("kind,k", [("ring", None), ("path", None), ("k_regular", 20)])
def test_slow_lanczos_graphs_fall_back_to_the_dense_route_bit_for_bit(kind, k):
    g = generate(kind, 800, k=k)
    assert g.n >= LANCZOS_MIN_NODES and lanczos_extremes(g) is None
    assert np.array_equal(g.extremes, g.spectrum[[g.kernel_dim, -1]])
    for f in MONOTONE:
        assert filter_contraction(f, g) == dense_factors(f, g.spectrum, g.kernel_dim)
    assert contraction_factors(g) == dense_factors(PolynomialFilter.propagation(), g.spectrum,
                                                   g.kernel_dim)


def test_a_non_monotone_filter_reads_the_full_spectrum_above_the_cutoff():
    g = generate("erdos_renyi", 800, 7, p=0.02)
    bump = PolynomialFilter((0.0, 1.0, -1.0))  # x - x^2 peaks at 1/2
    assert filter_contraction(bump, g) == dense_factors(bump, g.spectrum, g.kernel_dim)
    assert "extremes" not in vars(g)


def test_a_subnormal_leading_coefficient_is_not_a_crash():
    # np.roots divides by the leading coefficient, and 1 / 5e-324 overflows;
    # below rounding on [0, 2], that term takes no part in finding the roots
    f = PolynomialFilter((0.0, 0.0, 1.0, 5e-324))
    witness = check_monotone_decreasing(f, 0.0, 2.0)  # P'(x) = 2x + 1.5e-323 x^2
    assert witness == 2.0
    g = generate("ring", LANCZOS_MIN_NODES)
    assert filter_contraction(f, g) == dense_factors(f, g.spectrum, g.kernel_dim)
    assert "extremes" in vars(g)  # increasing on [0, 2]: the pair


@functools.cache
def _er800_eigenvalues():
    g = generate("erdos_renyi", 800, 7, p=0.02)
    return np.linalg.eigvalsh(augmented_normalized_laplacian(g)), g.kernel_dim


@pytest.mark.parametrize("coefficients,monotone", [
    ((0.7,), True), ((1.0, -1.0), True), ((0.2, 0.0), True), ((1.0, -0.9, 0.2), True),
    ((0.0, 1.0, -1.0), False), ((1.0, -3.0, 1.0), False), ((0.0, 0.0, 0.0, 1.0), True),
    ((1.0, -1.5, 0.75, -0.125), True),
])
def test_monotone_on_spectrum_reads_only_the_coefficients(coefficients, monotone):
    # the route reads the Lanczos pair for a filter monotone on [0, 2] and the
    # full spectrum for any other: x^3 (P'(0) = 0 at the edge) and
    # (1 - x/2)^3 (P'(2) = 0) are monotone, the bumps are not
    f = PolynomialFilter(coefficients)
    g = generate("erdos_renyi", 800, 7, p=0.02)
    got = filter_contraction(f, g)
    if monotone:
        assert "spectrum" not in vars(g) and np.array_equal(g.extremes, lanczos_extremes(g))
        want = dense_factors(f, *_er800_eigenvalues())
        for name in ("lambda_min_nonzero", "paper", "safe"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=0.0)
    else:
        assert "extremes" not in vars(g)
        assert got == dense_factors(f, g.spectrum, g.kernel_dim)


def test_small_graphs_read_every_nonzero_eigenvalue():
    g = generate("erdos_renyi", 60, 3, p=0.1)
    assert g.n < LANCZOS_MIN_NODES
    assert np.array_equal(g.extremes, g.spectrum[[g.kernel_dim, -1]])
    # always the pair, even where only one eigenvalue is nonzero
    ends = generate("complete", 2).extremes
    assert ends.shape == (2,) and ends[0] == ends[1] == pytest.approx(1.0, abs=1e-14)
    for f in MONOTONE:
        assert filter_contraction(f, g) == dense_factors(f, g.spectrum, g.kernel_dim)
