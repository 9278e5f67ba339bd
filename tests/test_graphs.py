import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcn_energy import (
    Graph,
    ParseError,
    PerturbationPlan,
    ValidationError,
    augmented_normalized_laplacian,
    connected_components,
    from_edge_list,
    generate,
    perturb,
)
from gcn_energy.graphs import MAX_NODES
from gcn_energy.spectral import PolynomialFilter, apply_filter


def test_graph_basic_fields():
    g = Graph.from_edges(3, ((0, 1, 1.0), (1, 2, 2.0)))
    assert g.n == 3
    assert g.edge_count == 2
    assert g.weighted_degrees().tolist() == [1.0, 3.0, 2.0]


def test_graph_edges_are_immutable():
    g = Graph.from_edges(2, ((0, 1, 1.0),))
    with pytest.raises(AttributeError):
        g.n = 5


@pytest.mark.parametrize(
    "n, edges",
    [
        (0, ()),
        (2, ((0, 0, 1.0),)),          # self-loop
        (2, ((1, 0, 1.0),)),          # not ordered u < v
        (2, ((0, 2, 1.0),)),          # out of range
        (2, ((0, 1, 0.0),)),          # zero weight
        (2, ((0, 1, -3.0),)),         # negative weight
        (2, ((0, 1, math.inf),)),     # non-finite weight
        (2, ((0, 1, 1),)),            # int weight, must be float
        (3, ((0, 1, 1.0), (0, 1, 2.0))),  # duplicate pair
        (3, ((0, 2, 1.0), (0, 1, 2.0))),  # unsorted
        (3, ((0, 1, 1.0), (1, 2))),       # not a triple
        (3, ((0, 1, 1.0), (1, 2, 2))),    # int weight mixed with floats
        (10**6, ((0, 999999, 1.0),)),     # above MAX_NODES; rejected before any n x n array
    ],
)
def test_graph_rejects_malformed_edges(n, edges):
    with pytest.raises(ValidationError):
        Graph.from_edges(n, edges)


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
    assert a == Graph.from_edges(4, a.edges)
    assert a != generate("path", 4)
    assert a != perturb(a, PerturbationPlan.boost(1, 2.0))
    assert len({a, b, generate("path", 4)}) == 2


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
    g = Graph.from_edges(3, ((0, 1, 2.0), (0, 2, 1.0), (1, 2, 4.0)))
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
    yield "drop", perturb(er, PerturbationPlan.drop(0.4, seed=1))
    yield "boost", perturb(er, PerturbationPlan.boost(20, 1e4, seed=2))
    yield "tiny", Graph(er.n, er.u, er.v, np.full(er.edge_count, 1e-300))
    yield "huge", Graph(er.n, er.u, er.v, np.full(er.edge_count, 1e300))
    rng = np.random.default_rng(5)
    yield "mixed", Graph(er.n, er.u, er.v, 10.0 ** rng.uniform(-300, 300, er.edge_count))


def test_laplacian_is_exactly_symmetric_and_finite():
    # the eigensolve runs eigvalsh on g.laplacian unchecked, so the graph must build it so
    for name, g in _laplacian_cases():
        lap = g.laplacian
        assert (lap == lap.T).all(), name
        assert np.isfinite(lap).all(), name


def search_components(g):
    """Components by depth-first search over Python adjacency lists: the oracle."""
    neighbors = [[] for _ in range(g.n)]
    for u, v in zip(g.u.tolist(), g.v.tolist()):
        neighbors[u].append(v)
        neighbors[v].append(u)
    seen = [False] * g.n
    components = []
    for start in range(g.n):
        if seen[start]:
            continue
        stack, nodes = [start], []
        seen[start] = True
        while stack:
            node = stack.pop()
            nodes.append(node)
            for nxt in neighbors[node]:
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append(nxt)
        components.append(tuple(sorted(nodes)))
    return tuple(components)


def test_connected_components_orders_by_smallest_member():
    g = Graph.from_edges(6, ((0, 3, 1.0), (1, 4, 1.0), (2, 5, 1.0)))
    assert connected_components(g) == ((0, 3), (1, 4), (2, 5))
    # a long path needs many pointer jumps; every node ends in one component
    assert connected_components(generate("path", 10_000)) == (tuple(range(10_000)),)


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


@settings(max_examples=300, derandomize=True, deadline=None)
@given(edge_sets())
def test_connected_components_match_the_search_oracle(case):
    n, pairs = case
    g = Graph.from_edges(n, ())
    if pairs:  # the parser merges duplicate and reversed pairs
        parsed = from_edge_list("".join(f"{a} {b}\n" for a, b in pairs))
        g = Graph(n, parsed.u, parsed.v, parsed.w)  # keeps isolated nodes past the largest id
    assert connected_components(g) == search_components(g)


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
    ],
)
def test_generate_rejects_bad_parameters(kind, kwargs):
    with pytest.raises(ValidationError):
        generate(kind, **kwargs)


def test_drop_count_is_ceil_of_ratio():
    g = generate("complete", 6)  # 15 edges
    for ratio, removed in [(0.1, 2), (1.0 / 3.0, 5), (0.5, 8), (1.0, 15)]:
        out = perturb(g, PerturbationPlan.drop(ratio, seed=4))
        assert g.edge_count - out.edge_count == removed


def test_drop_ratio_zero_is_identity():
    g = generate("ring", 8)
    assert perturb(g, PerturbationPlan.drop(0.0, seed=1)) is g


def test_drop_is_deterministic_per_seed():
    g = generate("erdos_renyi", 30, seed=0, p=0.3)
    a = perturb(g, PerturbationPlan.drop(0.4, seed=7))
    b = perturb(g, PerturbationPlan.drop(0.4, seed=7))
    assert a.edges == b.edges


def test_boost_multiplies_chosen_weights_only():
    g = generate("ring", 6)
    out = perturb(g, PerturbationPlan.boost(2, 100.0, seed=5))
    weights = sorted(w for _, _, w in out.edges)
    assert weights == [1.0, 1.0, 1.0, 1.0, 100.0, 100.0]
    assert out.edge_count == g.edge_count


def test_boost_factor_one_is_identity():
    g = generate("ring", 6)
    out = perturb(g, PerturbationPlan.boost(3, 1.0, seed=5))
    assert out.edges == g.edges


def test_boost_count_exceeding_edges_is_an_error():
    g = generate("path", 3)
    with pytest.raises(ValidationError):
        perturb(g, PerturbationPlan.boost(5, 10.0, seed=0))


@pytest.mark.parametrize(
    "plan_kwargs",
    [
        dict(kind="twist"),
        dict(kind="drop", ratio=-0.1),
        dict(kind="drop", ratio=1.5),
        dict(kind="boost", count=0),
        dict(kind="boost", count=1, boost_factor=0.5),
        dict(kind="boost", count=1, boost_factor=math.nan),
    ],
)
def test_perturbation_plan_validation(plan_kwargs):
    with pytest.raises(ValidationError):
        PerturbationPlan(**plan_kwargs)
