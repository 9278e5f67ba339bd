import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcn_energy import (
    Graph,
    ParseError,
    ValidationError,
    augmented_normalized_laplacian,
    from_edge_list,
    generate,
    perturb,
)
from gcn_energy.graphs import MAX_NODES
from gcn_energy.spectral import PolynomialFilter, apply_filter

from conftest import search_components


def test_graph_basic_fields():
    g = Graph(3, [0, 1], [1, 2], [1.0, 2.0])
    assert g.n == 3
    assert g.edge_count == 2
    assert g.weighted_degrees().tolist() == [1.0, 3.0, 2.0]


def test_graph_edges_are_immutable():
    g = Graph(2, [0], [1], [1.0])
    with pytest.raises(AttributeError):
        g.n = 5


@pytest.mark.parametrize(
    "n, edges",
    [
        (0, (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))),
        (2, ([0], [0], [1.0])),           # self-loop
        (2, ([1], [0], [1.0])),           # not ordered u < v
        (2, ([0], [2], [1.0])),           # out of range
        (2, ([0], [1], [0.0])),           # zero weight
        (2, ([0], [1], [-3.0])),          # negative weight
        (2, ([0], [1], [math.inf])),      # non-finite weight
        (2, ([0], [1], [1])),             # int weight, must be float
        (3, ([0, 0], [1, 1], [1.0, 2.0])),  # duplicate pair
        (3, ([0, 0], [2, 1], [1.0, 2.0])),  # unsorted
        (10**6, ([0], [999999], [1.0])),    # above MAX_NODES; rejected before any n x n array
    ],
)
def test_graph_rejects_malformed_edges(n, edges):
    with pytest.raises(ValidationError):
        Graph(n, *edges)


@pytest.mark.parametrize(
    "u, v, w",
    [
        ([0], [1, 2], [1.0]),             # lengths differ
        ([[0]], [[1]], [[1.0]]),          # not 1-D
        ([0.0], [1.0], [1.0]),            # float endpoints
        ([0], [1], np.float32([1.0])),    # weights not float64
    ],
)
def test_graph_rejects_malformed_edge_arrays(u, v, w):
    with pytest.raises(ValidationError):
        Graph(3, np.array(u), np.array(v), np.array(w))


def test_graphs_compare_and_hash_by_value():
    a, b = generate("ring", 4), generate("ring", 4)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a == Graph(4, a.u, a.v, a.w)
    assert a != generate("path", 4)
    assert a != perturb(a, "boost", 1, factor=2.0)
    assert len({a, b, generate("path", 4)}) == 2


def test_graphs_compare_and_hash_without_edge_tuples(monkeypatch):
    a, b = generate("erdos_renyi", 30, 1, p=0.2), generate("erdos_renyi", 30, 1, p=0.2)

    def no_tuples(self):
        raise AssertionError("edge tuples built")

    monkeypatch.setattr(Graph, "edges", property(no_tuples))
    assert a == b and hash(a) == hash(b) and b in {a}
    assert a != perturb(a, "boost", 1, factor=2.0) and a != generate("erdos_renyi", 31, 1, p=0.2)


def test_an_int32_built_graph_equals_and_hashes_as_its_int64_twin():
    a = generate("ring", 6)
    b = Graph(6, a.u.astype(np.int32), a.v.astype(np.int32), a.w)
    assert b.u.dtype == b.v.dtype == np.int64
    assert a == b and hash(a) == hash(b)


def test_parse_merges_duplicate_and_reversed_pairs():
    g = from_edge_list("0 1 1.0\n1 0 2.0\n")
    assert g.edges == ((0, 1, 3.0),)


def test_parse_comments_blank_lines_and_default_weight():
    text = """
    # a triangle with one weighted edge
    0 1
    1 2 2.5   # trailing comment

    0 2
    """
    g = from_edge_list(text)
    assert g.n == 3
    assert g.edges == ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 2.5))


@pytest.mark.parametrize(
    "text, exc, fragment",
    [
        ("0\n", ParseError, "line 1"),
        ("0 1 2 3\n", ParseError, "line 1"),
        ("a b\n", ParseError, "integers"),
        ("0 1 x\n", ParseError, "weight"),
        ("0 1\n-1 2\n", ValidationError, "line 2"),
        ("0 1\n2 2\n", ValidationError, "self-loop"),
        ("0 1 -1.0\n", ValidationError, "positive"),
        ("0 1 inf\n", ValidationError, "finite"),
        ("", ValidationError, "empty"),
        ("0 999999\n", ValidationError, "limit of 10000"),
    ],
)
def test_parse_errors_carry_line_numbers(text, exc, fragment):
    with pytest.raises(exc, match=fragment):
        from_edge_list(text)


def test_augmented_degrees_path3():
    g = generate("path", 3)
    assert g.augmented_degrees.tolist() == [2.0, 3.0, 2.0]


def test_laplacian_k2_exact():
    g = generate("complete", 2)
    lap = augmented_normalized_laplacian(g)
    assert np.allclose(lap, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)


def test_laplacian_path3_entries():
    # dtil = (2, 3, 2); diagonal 1 - 1/dtil; off-diagonal -w/sqrt(dtil_u dtil_v)
    lap = augmented_normalized_laplacian(generate("path", 3))
    assert lap[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert lap[1, 1] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert lap[0, 1] == pytest.approx(-1.0 / math.sqrt(6.0), abs=1e-15)
    assert lap[0, 2] == 0.0


def test_laplacian_weighted_triangle_entries():
    g = Graph(3, [0, 0, 1], [1, 2, 2], [2.0, 1.0, 4.0])
    lap = augmented_normalized_laplacian(g)
    # weighted degrees (3, 6, 5), augmented (4, 7, 6)
    assert np.allclose(np.diag(lap), [0.75, 6.0 / 7.0, 5.0 / 6.0], atol=1e-15)
    assert lap[0, 1] == pytest.approx(-2.0 / math.sqrt(28.0), abs=1e-15)
    assert lap[1, 2] == pytest.approx(-4.0 / math.sqrt(42.0), abs=1e-15)


def test_propagation_matrix_fixes_sqrt_degree_vector():
    g = generate("erdos_renyi", 25, seed=3, p=0.2)
    fixed = np.sqrt(g.augmented_degrees)
    step = apply_filter(PolynomialFilter.propagation(), g, fixed)
    assert np.allclose(step, fixed, atol=1e-12)


def _laplacian_cases():
    er = generate("erdos_renyi", 60, seed=4, p=0.1)
    yield "erdos_renyi", er
    yield "ring", generate("ring", 9)
    yield "k_regular", generate("k_regular", 12, k=4)
    yield "complete", generate("complete", 7)
    yield "path", generate("path", 11)
    yield "merged", from_edge_list("0 1 0.1\n1 0 0.2\n1 2 0.3\n2 1 1e-3\n0 1 7\n3 2\n")
    yield "drop", perturb(er, "drop", 0.4, seed=1)
    yield "boost", perturb(er, "boost", 20, seed=2, factor=1e4)
    yield "tiny", Graph(er.n, er.u, er.v, np.full(er.edge_count, 1e-300))
    yield "huge", Graph(er.n, er.u, er.v, np.full(er.edge_count, 1e300))
    rng = np.random.default_rng(5)
    yield "mixed", Graph(er.n, er.u, er.v, 10.0 ** rng.uniform(-300, 300, er.edge_count))


def test_laplacian_is_exactly_symmetric_and_finite():
    # the eigensolve runs eigvalsh on this Laplacian unchecked, so it must be built so
    for name, g in _laplacian_cases():
        lap = augmented_normalized_laplacian(g)
        assert (lap == lap.T).all(), name
        assert np.isfinite(lap).all(), name


def labels_from_search(g):
    """Per node, the smallest node of its depth-first-search component."""
    labels = np.empty(g.n, dtype=np.int64)
    for nodes in search_components(g):
        labels[list(nodes)] = nodes[0]
    return labels


def test_component_labels_name_the_smallest_member():
    g = Graph(6, [0, 1, 2], [3, 4, 5], [1.0, 1.0, 1.0])
    assert search_components(g) == ((0, 3), (1, 4), (2, 5))
    assert g.component_labels.tolist() == [0, 1, 2, 0, 1, 2]
    # a long path needs many pointer jumps; every node ends in one component
    path = generate("path", 10_000)
    assert search_components(path) == (tuple(range(10_000)),)
    assert np.array_equal(path.component_labels, labels_from_search(path))


@st.composite
def edge_sets(draw):
    n = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(["random", "path", "star", "forest"]))
    perm = draw(st.permutations(range(n)))  # relabel, so shapes do not follow node order
    if shape == "random":
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3 * n))
    elif shape == "path":
        k = draw(st.integers(1, n))
        pairs = [(perm[i], perm[i + 1]) for i in range(k - 1)]
    elif shape == "star":
        k = draw(st.integers(1, n))
        pairs = [(perm[0], perm[i]) for i in range(1, k)]
    else:  # each node joins an earlier one or starts a new tree: a forest
        pairs = [(perm[draw(st.integers(0, i - 1))], perm[i]) for i in range(1, n)
                 if draw(st.booleans())]
    pairs = [(a, b) for a, b in pairs if a != b]
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=5)) if pairs else []  # duplicates
    pairs = [(b, a) if draw(st.booleans()) else (a, b) for a, b in pairs]  # reversed input
    return n, pairs


@settings(max_examples=300)
@given(edge_sets())
def test_component_labels_match_the_search_oracle(case):
    n, pairs = case
    g = Graph(n, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))
    if pairs:  # the parser merges duplicate and reversed pairs
        parsed = from_edge_list("".join(f"{a} {b}\n" for a, b in pairs))
        g = Graph(n, parsed.u, parsed.v, parsed.w)  # keeps isolated nodes past the largest id
    assert np.array_equal(g.component_labels, labels_from_search(g))
    assert g.kernel_dim == len(search_components(g))


def test_generate_ring_and_path_shapes():
    ring = generate("ring", 5)
    path = generate("path", 5)
    assert ring.edge_count == 5
    assert path.edge_count == 4
    assert set(ring.edges) - set(path.edges) == {(0, 4, 1.0)}


def test_generate_k_regular_degrees():
    g = generate("k_regular", 9, k=4)
    assert np.all(g.weighted_degrees() == 4.0)


def test_generate_complete_edge_count():
    assert generate("complete", 7).edge_count == 21


@pytest.mark.parametrize("n", [1, 2, 40, 2000])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_generate_erdos_renyi_matches_the_row_by_row_stream(n, p):
    # one draw per pair, row by row, is the seeded stream; the generator may
    # draw several rows at once, but must keep every graph
    for seed in (0, 1, 4242):
        rng = np.random.default_rng(seed)
        rows = [np.flatnonzero(rng.random(n - u - 1) < p) + (u + 1) for u in range(n)]
        g = generate("erdos_renyi", n, seed, p=p)
        assert np.array_equal(g.u, np.repeat(np.arange(n), [row.size for row in rows]))
        assert np.array_equal(g.v, np.concatenate(rows))


def test_generate_erdos_renyi_deterministic_per_seed():
    a = generate("erdos_renyi", 40, seed=9, p=0.15)
    b = generate("erdos_renyi", 40, seed=9, p=0.15)
    c = generate("erdos_renyi", 40, seed=10, p=0.15)
    assert a.edges == b.edges
    assert a.edges != c.edges


@pytest.mark.parametrize(
    "kind, kwargs",
    [
        ("ring", dict(n=2)),
        ("k_regular", dict(n=6, k=3)),   # odd k
        ("k_regular", dict(n=4, k=4)),   # k >= n
        ("erdos_renyi", dict(n=5)),      # missing p
        ("erdos_renyi", dict(n=5, p=1.5)),
        ("nosuch", dict(n=5)),
        ("erdos_renyi", dict(n=5, p=0.5, seed=-1)),
        ("erdos_renyi", dict(n=10**6, p=0.5)),  # above MAX_NODES; rejected before any draw
        ("path", dict(n=MAX_NODES + 1)),
        ("erdos_renyi", dict(n=10, p=0.5, seed=2**70)),  # the seed rule of every entry point
    ],
)
def test_generate_rejects_bad_parameters(kind, kwargs):
    with pytest.raises(ValidationError):
        generate(kind, **kwargs)


def test_drop_count_is_ceil_of_ratio():
    g = generate("complete", 6)  # 15 edges
    for ratio, removed in [(0.1, 2), (1.0 / 3.0, 5), (0.5, 8), (1.0, 15)]:
        out = perturb(g, "drop", ratio, seed=4)
        assert g.edge_count - out.edge_count == removed


def test_drop_ratio_zero_is_identity():
    g = generate("ring", 8)
    assert perturb(g, "drop", 0.0, seed=1) is g


def test_drop_is_deterministic_per_seed():
    g = generate("erdos_renyi", 30, seed=0, p=0.3)
    a = perturb(g, "drop", 0.4, seed=7)
    b = perturb(g, "drop", 0.4, seed=7)
    assert a.edges == b.edges


def test_boost_multiplies_chosen_weights_only():
    g = generate("ring", 6)
    out = perturb(g, "boost", 2, seed=5, factor=100.0)
    weights = sorted(w for _, _, w in out.edges)
    assert weights == [1.0, 1.0, 1.0, 1.0, 100.0, 100.0]
    assert out.edge_count == g.edge_count


def test_boost_factor_one_is_identity():
    g = generate("ring", 6)
    out = perturb(g, "boost", 3, seed=5, factor=1.0)
    assert out.edges == g.edges


def test_boost_count_exceeding_edges_is_an_error():
    g = generate("path", 3)
    with pytest.raises(ValidationError):
        perturb(g, "boost", 5, seed=0, factor=10.0)


@pytest.mark.parametrize(
    "args, message",
    [
        (("twist", 0.5), "perturbation kind must be 'drop' or 'boost'"),
        (("drop", -0.1), "drop ratio must lie in [0, 1]"),
        (("drop", 1.5), "drop ratio must lie in [0, 1]"),
        (("drop", 0.5, -1), "perturbation seed is -1, outside the seed range"),
        (("drop", 0.5, 2**64), "perturbation seed is 18446744073709551616"),
        (("boost", 0), "boost count must be a positive integer"),
        (("boost", 1.5, 0, 10.0), "boost count must be a positive integer, got 1.5"),
        (("boost", True, 0, 10.0), "boost count must be a positive integer"),
        (("boost", 1, 0, 0.5), "boost factor must lie in [1, inf), got 0.5"),
        (("boost", 1, 0, math.nan), "boost factor must lie in [1, inf), got nan"),
        (("boost", 1, -3, 10.0), "perturbation seed is -3"),
        (("drop", True), "drop ratio must lie in [0, 1], got True"),
    ],
    ids=["unknown-kind", "negative-ratio", "ratio-above-1", "negative-seed", "seed-past-2-64",
         "zero-count", "float-count", "bool-count", "factor-below-1", "nan-factor",
         "boost-negative-seed", "bool-ratio"],
)
def test_perturb_rejects_invalid_arguments(args, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        perturb(generate("ring", 6), *args)


def test_perturb_takes_numpy_integer_counts():
    g = generate("ring", 6)
    assert perturb(g, "boost", np.int64(2), 5, 100.0) == perturb(g, "boost", 2, 5, 100.0)
