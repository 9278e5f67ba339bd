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
    PolynomialFilter,
    ValidationError,
    apply_filter,
    augmented_normalized_laplacian,
    check_monotone_decreasing,
    contraction_factors,
    dirichlet_energy_edge_sum,
    eval_filter_scalar,
    filter_contraction,
    from_edge_list,
    generate,
    perturb,
)
from gcn_energy.spectral import (
    EPS,
    LANCZOS_MIN_NODES,
    LANCZOS_RESIDUAL,
    _critical_slopes,
    _extreme_ritz,
    _is_monotone,
    eval_filter_matrix,
    lanczos_extremes,
    lanczos_step_cap,
)

from conftest import search_components


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
        g = perturb(g, "boost", 1, seed=seed, factor=10000.0)
    s = g.spectrum
    assert s[0] >= -1e-10
    assert s[-1] <= 2.0 - 1e-12


def test_kernel_dim_matches_component_count():
    g = Graph(7, [0, 1, 3], [1, 2, 4], [1.0, 1.0, 5.0])
    s = g.spectrum
    assert g.kernel_dim == len(search_components(g)) == 4
    assert np.max(np.abs(s[:4])) <= 1e-12
    assert s[g.kernel_dim] == pytest.approx(0.5, abs=1e-12)


def boosted_path40():
    """One component whose three boosted edges push two eigenvalues below 1e-8."""
    return perturb(generate("path", 40), "boost", 3, seed=0, factor=1e8)


def test_boosted_path_kernel_is_the_component_count():
    # a tolerance of 1e-8 * max(1, |lam_max|) would take 3 eigenvalues as kernel
    # and report lam_min = 2.24e-3
    g = boosted_path40()
    reference = np.linalg.eigh(augmented_normalized_laplacian(g))[0]
    assert g.kernel_dim == len(search_components(g)) == 1
    assert g.spectrum[g.kernel_dim] == pytest.approx(reference[1], rel=1e-5)
    assert g.spectrum[g.kernel_dim] == pytest.approx(9.81e-10, rel=1e-3)


# backward error of a dense symmetric eigensolver, n * eps * ||Ltil|| with room
EIGENVALUE_SLACK = 1e-12


def kernel_distance_sq(g, x):
    """``||X - Pi_M X||_F^2``, Pi_M projecting onto ``Dtil^{1/2} 1`` per component."""
    root = np.sqrt(g.augmented_degrees)
    rest = x.copy()
    for nodes in search_components(g):
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
        g = perturb(g, "boost", min(3, g.edge_count), seed=seed, factor=factor)
    x = rng.standard_normal((g.n, 3))
    assert_energy_sandwich(g, x)
    # a large kernel component moves neither side
    kernel = np.sqrt(g.augmented_degrees)[:, None] * rng.uniform(-100.0, 100.0, 3)
    assert_energy_sandwich(g, x + kernel)


def test_energy_sandwich_is_tight_at_the_smallest_nonzero_eigenvector():
    g = boosted_path40()
    vector = np.linalg.eigh(augmented_normalized_laplacian(g))[1][:, 1:2]
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
        contraction_factors(Graph(4, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)))


def test_eigendecompose_failure_is_a_numeric_error(monkeypatch):
    # a LAPACK failure exits 3 as numerical trouble, not as a traceback
    def fail(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NumericError, match="eigendecomposition failed: Eigenvalues did not"):
        generate("path", 3).spectrum


@given(
    coeffs=st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3, 3)),
                    min_size=1, max_size=7),
    x=st.one_of(st.floats(-2, 2),
                st.lists(st.floats(-2, 2), min_size=1, max_size=6).map(np.array)),
)
@settings(max_examples=80)
def test_filter_scalar_matches_polyval(coeffs, x):
    # bit for bit: degrees 0 to 6, signed zeros among the coefficients,
    # scalar and array points
    f = PolynomialFilter(coeffs)
    got, expected = eval_filter_scalar(f, x), np.polyval(f.coefficients[::-1], x)
    assert np.shape(got) == np.shape(expected)
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


def test_filter_scalar_on_arrays():
    f = PolynomialFilter([1.0, -1.0])
    out = eval_filter_scalar(f, np.array([0.0, 0.5, 2.0]))
    assert out.tolist() == [1.0, 0.5, -1.0]


def test_filter_matrix_matches_direct_powers():
    lap = augmented_normalized_laplacian(generate("erdos_renyi", 20, seed=5, p=0.3))
    f = PolynomialFilter([0.3, -1.2, 0.5])
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
    return PolynomialFilter(float(rng.uniform(0.5, 2)) * coeffs)


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
        want = eval_filter_matrix(f, augmented_normalized_laplacian(g)) @ x
        scale = np.max(np.abs(eval_filter_scalar(f, g.spectrum)))
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(x) * scale, (degree, monotone)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["er", "ring", "path", "weighted"])
def test_eigendecompose_values_match_full_eigh(kind, seed):
    # eigvalsh behind every factor against the eigenvalues of a full eigh
    g = oracle_graph(kind, seed)
    s = g.spectrum
    full = np.linalg.eigh(augmented_normalized_laplacian(g))[0]
    scale = max(1.0, abs(full[-1]))
    assert np.max(np.abs(s - full)) <= 1e-12 * scale
    # the zero tolerance of old, 1e-8 * max(1, |lam_max|), agrees with the component count here
    assert np.count_nonzero(np.abs(full) <= 1e-8 * scale) == g.kernel_dim
    got = contraction_factors(g)
    want = dense_factors(PolynomialFilter.propagation(), full, len(search_components(g)))
    for name in ("lambda_min_nonzero", "paper", "safe"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "coeffs",
    [
        (),
        (1.0, float("nan")),
        (1.0, float("inf")),
        # a string or a bool is not a coefficient, nor is an int past the float range
        ("1.5", True),
        (True, -1.0),
        (1.0, False),
        ("1",),
        "12",
        (np.bool_(True),),
        (10**400,),
        1.0,
        None,
    ],
)
def test_filter_coefficient_validation(coeffs):
    with pytest.raises(ValidationError):
        PolynomialFilter(coeffs)


def test_filter_takes_any_finite_reals_as_floats():
    # one constructor: ints, numpy scalars and arrays become the same float bits
    drawn = np.random.default_rng(3).uniform(-1.0, 1.0, size=4)
    f = PolynomialFilter(drawn)
    assert f.coefficients == tuple(drawn.tolist())
    assert all(type(c) is float for c in f.coefficients)
    assert PolynomialFilter([1, -1]) == PolynomialFilter((1.0, -1.0)) == PolynomialFilter.propagation()
    assert PolynomialFilter(np.array([2, 0], dtype=np.int32)).coefficients == (2.0, 0.0)
    assert hash(PolynomialFilter([1, np.float64(-1.0)])) == hash(PolynomialFilter.propagation())


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
@settings(max_examples=400)
# a leading coefficient far below the others: np.roots on all of P'' returns zeros
@example(coeffs=[0.0, 0.0, 1.0, 0.0, -1.0, 2.0688093602795245e-151], ends=(0.0, 1.0))
def test_monotone_gate_agrees_with_the_grid_oracle(coeffs, ends):
    # filters of degree 0 to 5 on intervals inside [0, 2]; the ends of the
    # interval and the roots of P'' are the only points that can hold max P'
    lo, hi = sorted(ends)
    assume(lo < hi)
    f = PolynomialFilter(coeffs)
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
@settings(max_examples=300)
@example(coeffs=(0.0, 0.0, 0.0, 1.0), ends=(0.0, 2.0))  # P'' = 6x: its root is zero
def test_cubic_root_matches_np_roots(coeffs, ends):
    # a cubic has a linear P'' = 2 a_2 + 6 a_3 x, with one root
    f = PolynomialFilter(coeffs)
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
        filter_contraction(PolynomialFilter.propagation(), Graph(3, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)))


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
# the Lanczos route to the extremes, against dense oracles


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
    "er-drop": lambda: perturb(generate("erdos_renyi", 800, 7, p=0.02), "drop", 0.3),
    "er-boost": lambda: perturb(generate("erdos_renyi", 800, 7, p=0.02), "boost", 5,
                                factor=1e4),
    "disconnected": _two_er_components_and_isolated_nodes,
    "complete": lambda: generate("complete", 800),
    "weighted": _weighted_edge_list,
    "k-regular": lambda: generate("k_regular", 800, k=20),
}
# eigvalsh is accurate to a few rounding units of ||Ltil|| <= 2, not relative to
# each eigenvalue: on circulants of 700 to 900 nodes it puts lam_min_nonzero ~ 1e-3
# up to 5e-12 relative (3e-15 absolute) off the closed form, and the error moves
# with the BLAS thread count.  Only comparisons with eigvalsh on circulants take
# this floor; every other one is relative alone (pytest.approx's implicit 1e-12
# absolute tolerance is set to 0).
DENSE_ABS = 1e-14
MONOTONE = (PolynomialFilter.propagation(), PolynomialFilter((1.0, -0.9, 0.2)))


@pytest.mark.parametrize("name", list(LANCZOS_GRAPHS))
def test_lanczos_extremes_match_eigvalsh_above_the_cutoff(name):
    # eigvalsh can be off by more than 1e-12 relative on a small eigenvalue, so the
    # oracle is the extended-precision Rayleigh quotient of eigh's eigenvectors
    g = LANCZOS_GRAPHS[name]()
    assert g.n >= LANCZOS_MIN_NODES
    vectors = np.linalg.eigh(augmented_normalized_laplacian(g))[1]
    oracle = np.array([float(_rayleigh_quotient(g, vectors[:, i]))
                       for i in (len(search_components(g)), -1)])
    ends = g.extremes
    assert ends.shape == (2,) and not ends.flags.writeable
    assert np.array_equal(ends, lanczos_extremes(g))  # the Lanczos route, not the fallback
    assert ends[0] == pytest.approx(oracle[0], rel=1e-12, abs=0.0)
    assert ends[-1] == pytest.approx(oracle[-1], rel=1e-12, abs=0.0)
    for f in MONOTONE:  # monotone on [0, 2]: the factors of the two ends
        got, want = filter_contraction(f, g), dense_factors(f, oracle, 0)
        # on the complete graph 1 - x vanishes at the one nonzero eigenvalue, so its
        # factors are squares of round-off and compare absolutely
        assert got.paper == pytest.approx(want.paper, rel=1e-12, abs=1e-24)
        assert got.safe == pytest.approx(want.safe, rel=1e-12, abs=1e-24)
    cf = contraction_factors(g)
    assert cf == filter_contraction(PolynomialFilter.propagation(), g)
    assert cf.lambda_min_nonzero == ends[0]


@pytest.mark.parametrize("kind,k", [("ring", None), ("path", None), ("k_regular", 4)])
def test_slow_lanczos_graphs_fall_back_to_the_dense_route_bit_for_bit(kind, k):
    g = generate(kind, 800, k=k)
    assert g.n >= LANCZOS_MIN_NODES and lanczos_extremes(g) is None
    assert np.array_equal(g.extremes, g.spectrum[[g.kernel_dim, -1]])
    for f in MONOTONE:
        assert filter_contraction(f, g) == dense_factors(f, g.spectrum, g.kernel_dim)
    assert contraction_factors(g) == dense_factors(PolynomialFilter.propagation(), g.spectrum,
                                                   g.kernel_dim)


@pytest.mark.parametrize("k", [16, 20])
def test_lanczos_matches_the_closed_form_of_a_dense_circulant(k):
    # the circulant with offsets 1..k/2 is k-regular, so Ltil = I - (A + I) / (k + 1)
    # and lam_min_nonzero is 4 sum_j sin^2(pi j / n) / (k + 1), a sum with no cancellation
    n = 800
    g = generate("k_regular", n, k=k)
    j = np.arange(1, k // 2 + 1)
    exact = 4.0 * float(np.sum(np.sin(np.pi * j / n) ** 2)) / (k + 1)
    assert "spectrum" not in vars(g) and g.extremes[0] == pytest.approx(exact, rel=1e-12, abs=0.0)
    assert g.spectrum[1] == pytest.approx(exact, rel=0.0, abs=DENSE_ABS)


def test_a_slow_graph_spends_at_most_its_step_cap_before_the_dense_route(counted):
    # a ring cannot settle: its Lanczos run stops at a dense solve's worth of work
    g = generate("ring", 800)
    ends = g.extremes
    assert 0 < counted["products"] <= lanczos_step_cap(g) < g.n
    assert np.array_equal(ends, g.spectrum[[g.kernel_dim, -1]])


@pytest.mark.parametrize("n,p,steps", [(1000, 0.02, 130), (2000, 0.01, 150)])
def test_lanczos_step_counts_on_the_benchmark_graphs(counted, n, p, steps):
    # the sweep's and run-deep's graphs at seed 1: a cheaper step that needs
    # more of them to settle shows here
    g = generate("erdos_renyi", n, 1, p=p)
    assert lanczos_extremes(g) is not None
    assert counted["products"] == steps


def _ritz_pairs(alpha, beta):
    """Ritz values and residual norms ``beta[-1] |s_last|`` of the tridiagonal,
    from the eigenvectors of a dense ``eigh``."""
    t = np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1)
    theta, s = np.linalg.eigh(t)
    return theta, beta[-1] * np.abs(s[-1])


def test_ends_settle_on_their_error_bound_before_their_residuals_do():
    # 0.5 and 1.5 sit 0.5 from their neighbour 1.0, whose residual is 4e-15, so
    # r^2 / gap is far below rounding while r / theta is 2e-12 and 7e-10
    alpha, beta = np.array([1.0, 0.5, 1.5]), np.array([1e-3, 1e-3, 1e-9])
    theta, r = _ritz_pairs(alpha, beta)
    assert np.all(r[[0, -1]] > LANCZOS_RESIDUAL * theta[[0, -1]])
    ends, settled = _extreme_ritz(alpha, beta)
    assert settled and ends == pytest.approx(theta[[0, -1]], rel=1e-15, abs=0.0)


def test_an_end_within_its_neighbours_residual_does_not_settle():
    # theta_2 sits 1e-6 above theta_1 with a residual of 2e-6: the interval
    # around theta_2 reaches past theta_1, so gap <= 0.  Measured from theta_2
    # itself, r_1^2 / (theta_2 - theta_1) would be below rounding.
    alpha, beta = np.array([0.5, 2.0, 0.5 + 1e-6]), np.array([1e-6, 1e-6, 2e-6])
    theta, r = _ritz_pairs(alpha, beta)
    assert r[1] >= theta[1] - theta[0] and r[0] > LANCZOS_RESIDUAL * theta[0]
    assert r[0] ** 2 <= EPS * theta[0] * (theta[1] - theta[0])
    assert not _extreme_ritz(alpha, beta)[1]


def test_a_ritz_vector_that_vanishes_at_the_last_row_settles_with_residual_0():
    # both ends live on the leading 2 x 2 block, cut off by an off-diagonal of
    # 1e-200: their Ritz vectors end below 1e-150, so the upward recurrence
    # stops and takes them as 0.  Their neighbour 1.0 has residual 1, so no gap
    # is positive, and only residuals of 0 settle the ends.
    alpha, beta = np.array([0.5, 1.5, 1.0]), np.array([0.3, 1e-200, 1.0])
    theta, r = _ritz_pairs(alpha, beta)
    assert np.all(r[[0, -1]] < 1e-150) and r[1] == 1.0
    ends, settled = _extreme_ritz(alpha, beta)
    t = np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1)
    assert settled and ends.tolist() == np.linalg.eigvalsh(t)[[0, -1]].tolist()


@pytest.mark.parametrize("residual,settled", [(1e-14, True), (1e-9, False)])
def test_a_one_by_one_tridiagonal_settles_on_its_residual_alone(residual, settled):
    # no neighbour, so no gap: 1e-9 is far inside any r^2 / gap rule but not
    # within LANCZOS_RESIDUAL of 0.7
    ends, got = _extreme_ritz(np.array([0.7]), np.array([residual]))
    assert ends.tolist() == [0.7, 0.7] and got is settled


def _rayleigh_quotient(g, x):
    """``x^T Ltil x / x^T x`` in ``np.longdouble``, as ``sum w (y_u - y_v)^2``
    over the edges with ``y = Dtil^{-1/2} x``: no cancellation, so it holds
    a small eigenvalue to more digits than a double eigensolver."""
    x = x.astype(np.longdouble)
    w = g.w.astype(np.longdouble)
    degrees = 1 + np.bincount(g.u, g.w, g.n).astype(np.longdouble) \
        + np.bincount(g.v, g.w, g.n).astype(np.longdouble)
    y = x / np.sqrt(degrees)
    diff = y[g.u] - y[g.v]
    return (w * diff * diff).sum() / (x * x).sum()


@pytest.mark.parametrize("seed", range(6))
def test_lanczos_extremes_match_an_extended_precision_oracle(seed):
    # five edges boosted 1e4 push lam_min_nonzero to about 1.5e-3, where eigvalsh
    # is itself off by up to 1.6e-12 relative; the Rayleigh quotient of eigh's
    # eigenvector is not, since its error is quadratic in the vector's
    g = perturb(generate("erdos_renyi", 1000, 1, p=0.02), "boost", 5, seed=seed, factor=1e4)
    vectors = np.linalg.eigh(augmented_normalized_laplacian(g))[1]
    oracle = [float(_rayleigh_quotient(g, vectors[:, i])) for i in (g.kernel_dim, -1)]
    assert lanczos_extremes(g) == pytest.approx(oracle, rel=1e-12, abs=0.0)


def test_a_graph_that_settles_within_its_cap_takes_the_lanczos_route(counted):
    # the run-deep graph at seed 4242 settles in 200 steps, under its cap of 508
    g = generate("erdos_renyi", 2000, 4242, p=0.01)
    ends = g.extremes
    assert "spectrum" not in vars(g) and counted["laplacian"] == 0
    oracle = np.linalg.eigvalsh(augmented_normalized_laplacian(g))[[g.kernel_dim, -1]]
    assert ends == pytest.approx(oracle, rel=1e-12, abs=0.0)


def _generated(kind, n, half_k, degree, seed):
    if kind == "erdos_renyi":
        return generate(kind, n, seed, p=degree / (n - 1))
    return generate(kind, n, k=2 * half_k if kind == "k_regular" else None)


@given(kind=st.sampled_from(["erdos_renyi", "erdos_renyi", "ring", "path", "k_regular"]),
       n=st.integers(LANCZOS_MIN_NODES, 900), half_k=st.integers(1, 10),
       degree=st.floats(3.0, 20.0), seed=st.integers(0, 2 ** 16))
@settings(max_examples=12)
@example(kind="erdos_renyi", n=900, half_k=1, degree=3.0, seed=3)  # 46 components, settles
@example(kind="k_regular", n=800, half_k=10, degree=3.0, seed=0)  # settles
def test_either_route_near_the_cutoff_gives_the_dense_pair(kind, n, half_k, degree, seed):
    # sparse ER graphs have dozens of components; rings, paths and sparse
    # circulants fall back, and a fallback pair is the dense one bit for bit
    g = _generated(kind, n, half_k, degree, seed)
    ends = g.extremes
    fell_back = "spectrum" in vars(g)
    dense = g.spectrum[[g.kernel_dim, -1]]
    if fell_back:
        assert np.array_equal(ends, dense)
    floor = DENSE_ABS if kind == "k_regular" else 0.0
    assert ends == pytest.approx(dense, rel=1e-12, abs=floor)


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
