"""Generator specs, graph-source resolution, and the JSON config loaders."""

import functools
import importlib.util
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcn_energy import config
from gcn_energy.bounds import run_suite, verify_prop_7_1
from gcn_energy.cli import main
from gcn_energy.config import (
    RunSetup,
    config_hash,
    load_run_config,
    load_sweep_config,
    parse_generator_spec,
    resolve_graph_source,
)
from gcn_energy.errors import ParseError, ValidationError, check_real
from gcn_energy.graphs import MAX_LAYERS, Graph, check_work_size, generate, perturb
from gcn_energy.network import Activation, LayerSpec, make_weights, run_network, top_singular_value
from gcn_energy.spectral import PolynomialFilter, check_monotone_decreasing
from gcn_energy.sweeps import ProbeSpec, check_sweep_values


# ---------------------------------------------------------------------------
# generator mini-spec


@pytest.mark.parametrize("alias", ["er", "erdos", "erdos_renyi"])
def test_er_aliases_agree(alias):
    g = parse_generator_spec(f"gen:{alias}:30:0.2:7")
    assert g.edges == generate("erdos_renyi", 30, 7, p=0.2).edges


def test_er_seed_defaults_to_zero():
    assert parse_generator_spec("gen:er:30:0.2").edges == generate("erdos_renyi", 30, 0, p=0.2).edges


def test_er_seeds_differ():
    a = parse_generator_spec("gen:er:40:0.15:1")
    b = parse_generator_spec("gen:er:40:0.15:2")
    assert a.edges != b.edges


@pytest.mark.parametrize("alias", ["kregular", "k_regular", "kreg"])
def test_kregular_aliases(alias):
    g = parse_generator_spec(f"gen:{alias}:10:4")
    degrees = np.zeros(10)
    for u, v, _ in g.edges:
        degrees[u] += 1
        degrees[v] += 1
    assert np.all(degrees == 4)


def test_ring_path_complete():
    assert len(parse_generator_spec("gen:ring:8").edges) == 8
    assert len(parse_generator_spec("gen:path:3").edges) == 2
    assert len(parse_generator_spec("gen:complete:5").edges) == 10


@pytest.mark.parametrize(
    "spec",
    [
        "ring:8",  # missing gen: prefix
        "gen:ring",  # no node count
        "gen:torus:8",  # unknown kind
        "gen:ring:eight",  # non-integer n
        "gen:ring:8:3",  # ring takes no extra args
        "gen:er:30",  # er needs p
        "gen:er:30:0.1:5:9",  # too many args
        "gen:er:30:p",  # bad numeric
        "gen:kregular:10",  # missing k
        "gen:kregular:10:4:1",  # too many args
        "gen:kregular:10:four",
    ],
)
def test_bad_generator_specs_rejected(spec):
    with pytest.raises(ValidationError):
        parse_generator_spec(spec)


# ---------------------------------------------------------------------------
# graph source resolution


def test_resolve_gen_spec_matches_direct_parse():
    assert resolve_graph_source("gen:ring:6").edges == parse_generator_spec("gen:ring:6").edges


def test_resolve_reads_edge_list_file(tmp_path):
    p = tmp_path / "tri.txt"
    p.write_text("0 1\n1 2\n0 2\n")
    g = resolve_graph_source(str(p))
    assert g.n == 3 and len(g.edges) == 3


def test_resolve_missing_file_names_the_path(tmp_path):
    missing = str(tmp_path / "nope.txt")
    with pytest.raises(ValidationError, match="nope.txt"):
        resolve_graph_source(missing)


# ---------------------------------------------------------------------------
# config hashing


def test_config_hash_ignores_key_order():
    assert config_hash({"a": 1, "b": [2, 3]}) == config_hash({"b": [2, 3], "a": 1})


def test_config_hash_distinguishes_values():
    assert config_hash({"a": 1}) != config_hash({"a": 2})


def test_config_hash_is_hex_sha256():
    digest = config_hash({"x": 0})
    assert len(digest) == 64
    int(digest, 16)


# ---------------------------------------------------------------------------
# run configs


def write_run_config(tmp_path, name="run.json", **overrides):
    doc = {"graph": "gen:path:3", "layers": 2}
    doc.update(overrides)
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_run_config_defaults(tmp_path):
    setup = load_run_config(write_run_config(tmp_path))
    assert isinstance(setup, RunSetup)
    assert setup.x0.shape == (3, 4)  # channels default to 4
    assert setup.placement == "paper"
    assert setup.epsilon == 0.5
    assert setup.seed == 0
    assert len(setup.layers) == 2
    for layer in setup.layers:
        assert layer.filter.coefficients == (1.0, -1.0)
        assert layer.activation.kind == "relu"
        assert len(layer.weights) == 1
        assert layer.weights[0].shape == (4, 4)


def test_run_config_same_seed_same_x0_and_weights(tmp_path):
    a = load_run_config(write_run_config(tmp_path, seed=5))
    b = load_run_config(write_run_config(tmp_path, name="again.json", seed=5))
    np.testing.assert_array_equal(a.x0, b.x0)
    np.testing.assert_array_equal(a.layers[0].weights[0], b.layers[0].weights[0])


def test_run_config_seed_changes_x0(tmp_path):
    a = load_run_config(write_run_config(tmp_path, seed=5))
    b = load_run_config(write_run_config(tmp_path, name="other.json", seed=6))
    assert not np.array_equal(a.x0, b.x0)


def test_run_config_broadcast_filter(tmp_path):
    setup = load_run_config(write_run_config(tmp_path, filter=[0.5, 0.25]))
    assert all(l.filter.coefficients == (0.5, 0.25) for l in setup.layers)


def test_run_config_per_layer_filters(tmp_path):
    setup = load_run_config(write_run_config(tmp_path, filters=[[1.0, -1.0], [0.5]]))
    assert setup.layers[0].filter.coefficients == (1.0, -1.0)
    assert setup.layers[1].filter.coefficients == (0.5,)


def test_run_config_null_filter_beside_filters_is_absent(tmp_path):
    setup = load_run_config(write_run_config(tmp_path, filter=None, filters=[[0.5], [0.25]]))
    assert [l.filter.coefficients for l in setup.layers] == [(0.5,), (0.25,)]


def test_run_config_filters_length_must_match_depth(tmp_path):
    path = write_run_config(tmp_path, filters=[[1.0, -1.0]])
    with pytest.raises(ValidationError, match="2 filters"):
        load_run_config(path)


def test_run_config_weight_shapes_and_scalar_target(tmp_path):
    path = write_run_config(
        tmp_path,
        channels=8,
        weights={"shapes": [[[8, 16], [16, 4]], [[4, 2]]], "target_singular": 0.9},
    )
    setup = load_run_config(path)
    shapes = [[w.shape for w in layer.weights] for layer in setup.layers]
    assert shapes == [[(8, 16), (16, 4)], [(4, 2)]]
    for layer in setup.layers:
        for w in layer.weights:
            assert top_singular_value(w) == pytest.approx(0.9, rel=1e-12)


def test_run_config_per_layer_targets(tmp_path):
    path = write_run_config(tmp_path, weights={"target_singular": [0.5, 2.0]})
    setup = load_run_config(path)
    assert top_singular_value(setup.layers[0].weights[0]) == pytest.approx(0.5, rel=1e-12)
    assert top_singular_value(setup.layers[1].weights[0]) == pytest.approx(2.0, rel=1e-12)


def test_run_config_per_matrix_targets(tmp_path):
    path = write_run_config(
        tmp_path,
        weights={"shapes": [[[4, 4], [4, 4]], [[4, 4]]],
                 "target_singular": [[0.5, 0.25], [3.0]]},
    )
    setup = load_run_config(path)
    got = [top_singular_value(w) for layer in setup.layers for w in layer.weights]
    assert got == pytest.approx([0.5, 0.25, 3.0], rel=1e-12)


def test_run_config_chain_start_must_match_channels(tmp_path):
    path = write_run_config(tmp_path, channels=4, weights={"shapes": [[[8, 4]], [[4, 4]]]})
    with pytest.raises(ValidationError, match="4 channels"):
        load_run_config(path)


def test_run_config_chain_break_is_located(tmp_path):
    path = write_run_config(tmp_path, channels=4, weights={"shapes": [[[4, 8], [16, 4]], [[4, 4]]]})
    with pytest.raises(ValidationError, match="matrices 0 and 1"):
        load_run_config(path)


def test_run_config_activation_object_with_slope(tmp_path):
    path = write_run_config(tmp_path, activation={"kind": "leaky_relu", "slope": 0.2})
    setup = load_run_config(path)
    assert setup.layers[0].activation.kind == "leaky_relu"
    assert setup.layers[0].activation.slope == 0.2


def test_run_config_bare_leaky_relu_gets_a_hint(tmp_path):
    path = write_run_config(tmp_path, activation="leaky_relu")
    with pytest.raises(ValidationError, match="slope"):
        load_run_config(path)


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        ({"layers": 0}, "config key 'layers' must be a positive integer, got 0"),
        ({"channels": 0}, "channels"),
        ({"channels": 2.5}, "channels"),
        ({"seed": "zero"}, "seed"),
        ({"activation_placement": "middle"}, "activation_placement"),
        ({"epsilon": 0.0}, "epsilon"),
        ({"epsilon": 1.0}, "epsilon"),
        ({"epsilon": "half"}, "epsilon"),
        ({"filter": "1,-1"}, "filter"),
        ({"weights": [1.0]}, "weights"),
        ({"weights": {"shapes": [[[4, 4]]]}}, "shapes"),  # one chain for two layers
        ({"weights": {"target_singular": "big"}}, "target_singular"),
        # one type rule for every value: no booleans as numbers, no numeric
        # strings, no 2.5 or 2.0 for an integer, no number beyond the float range
        ({"channels": True}, "'channels'"),
        ({"filter": ["a"]}, "'filter"),
        ({"filters": [3.0, 4.0]}, "'filters"),
        ({"filters": [[1, -1], "ab"]}, "'filters"),
        ({"activation": {"kind": "leaky_relu", "slope": "x"}}, "'activation.slope'"),
        ({"weights": {"shapes": [[["x", 2]], [[2, 2]]]}}, "'weights.shapes"),
        ({"epsilon": 10**400}, "'epsilon'"),
        ({"weights": {"target_singular": 10**400}}, "'weights.target_singular'"),
        ({"layers": True}, "'layers'"),
        ({"seed": True}, "'seed'"),
        ({"filter": [True, -1]}, "'filter"),
        ({"filter": ["1", "-1"]}, "'filter"),
        ({"activation": {"kind": "leaky_relu", "slope": "0.2"}}, "'activation.slope'"),
        ({"weights": {"shapes": [[[4, 2.7]], [[2, 4]]]}}, "'weights.shapes"),
        ({"weights": {"shapes": [[[4, "2"]], [[2, 4]]]}}, "'weights.shapes"),
        ({"weights": {"target_singular": True}}, "'weights.target_singular'"),
        ({"layers": 2.0}, "'layers'"),
        ({"weights": {"target_singular": [[1.0, 2.0], 0.5]}}, "target_singular"),  # layer 0 has one matrix
        # work-size caps
        ({"graph": "gen:ring:8", "layers": 10000000, "channels": 1},
         "'layers' is 10000000, above the limit of 10000 layers"),
        ({"layers": 10001}, "'layers' is 10001, above the limit of 10000"),
        ({"channels": 4097}, "'channels' is 4097, above the limit of 4096 channels"),
        ({"weights": {"shapes": [[[4, 4097]], [[4097, 4]]]}},
         r"'weights.shapes\[0\]\[0\]\[1\]' is 4097, above the limit of 4096 channels"),
        ({"channels": 4096, "layers": 1},
         "weight matrices is 16777216, above the limit of 10000000 entries in all"),
        # unknown keys, top-level and nested, are rejected by their dotted name
        ({"layer": 30}, "unknown key 'layer'"),
        ({"chanels": None}, "unknown key 'chanels'"),
        ({"probe": {"channels": 4}}, "unknown key 'probe'"),
        ({"weights": {"target_singluar": 1}}, "unknown key 'weights.target_singluar'"),
        ({"activation": {"kind": "leaky_relu", "slop": 0.2}}, "unknown key 'activation.slop'"),
        # seeds outside [0, 2**64) would alias one inside it
        ({"seed": -1}, r"'seed' is -1, outside the seed range \[0, 2\*\*64\)"),
        ({"seed": 2**64}, r"'seed' is 18446744073709551616, outside the seed range"),
        ({"seed": -2**64}, "'seed' is -18446744073709551616, outside"),
    ],
)
def test_run_config_field_validation(tmp_path, overrides, fragment):
    path = write_run_config(tmp_path, **overrides)
    with pytest.raises(ValidationError, match=fragment):
        load_run_config(path)


@pytest.mark.parametrize("overrides", [
    {"layers": 10000000, "channels": 1},
    {"channels": 4097},
    {"layers": 3, "channels": 4096},
])
def test_run_config_caps_reject_before_any_graph_or_weight(tmp_path, monkeypatch, overrides):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the size check")

    monkeypatch.setattr(config, "resolve_graph_source", forbidden)
    monkeypatch.setattr(config, "make_weights", forbidden)
    with pytest.raises(ValidationError, match="above the limit"):
        load_run_config(write_run_config(tmp_path, **overrides))


def test_work_size_limit_is_inclusive():
    check_work_size("x", MAX_LAYERS, MAX_LAYERS, "layers")
    with pytest.raises(ValidationError, match="above the limit"):
        check_work_size("x", MAX_LAYERS + 1, MAX_LAYERS, "layers")


def test_work_size_starts_at_one_and_takes_python_ints_only():
    check_work_size("x", 1, MAX_LAYERS, "layers")
    for bad in (0, -1, -10**12, True, False, 2.0, "3", None):
        with pytest.raises(ValidationError, match=re.escape(f"x must be a positive integer, got {bad!r}")):
            check_work_size("x", bad, MAX_LAYERS, "layers")


@pytest.mark.parametrize("overrides,draws_weights", [
    pytest.param({"weights": {"shapes": [[[4, 0]], [[0, 4]]]}}, False, id="width-0"),
    pytest.param({"weights": {"shapes": [[[4, -1]], [[-1, 4]]]}}, False, id="width-minus-1"),
    # a negative width would cancel the entry sum against the cap
    pytest.param({"graph": "gen:ring:8", "layers": 1,
                  "weights": {"shapes": [[[4, 64], [64, 64], [64, -1000]]]}}, False,
                 id="negative-chain-sum"),
    pytest.param({"weights": {"target_singular": 0}}, True, id="target-0"),
    pytest.param({"weights": {"target_singular": -1}}, True, id="target-minus-1"),
    pytest.param({"layers": 1, "weights": {"shapes": [[[4, 4], [4, 4]]],
                                           "target_singular": [[1.0, 0.0]]}}, True,
                 id="per-matrix-target-0"),
    pytest.param({"layers": 0}, False, id="layers-0"),
    pytest.param({"channels": 0}, False, id="channels-0"),
])
def test_run_config_values_reject_before_any_graph(tmp_path, monkeypatch, overrides, draws_weights):
    # every value, the weights' own included, is checked before the graph,
    # with the message it gets when the graph can be built
    path = write_run_config(tmp_path, **overrides)
    with pytest.raises(ValidationError) as after_graph:
        load_run_config(path)

    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the values were checked")

    monkeypatch.setattr(config, "resolve_graph_source", forbidden)
    if not draws_weights:
        monkeypatch.setattr(config, "make_weights", forbidden)
    with pytest.raises(ValidationError, match=re.escape(str(after_graph.value))):
        load_run_config(path)


def test_library_counts_reject_bools():
    # a bool is not a count, wherever a count is given
    cases = [
        lambda: Graph(True, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)),
        lambda: make_weights(True, 2, 1.0),
        lambda: make_weights(2, True, 1.0),
        lambda: run_suite("L3.1", True, 0),
        lambda: ProbeSpec(channels=True),
        lambda: generate("path", True),
    ]
    for case in cases:
        with pytest.raises(ValidationError, match="must be a positive integer, got True"):
            case()


@functools.cache
def decaying_run():
    """A two-layer ReLU run on a path, for the epsilon of ``verify_prop_7_1``."""
    g = generate("path", 3)
    layer = LayerSpec(PolynomialFilter.propagation(), (make_weights(2, 2, 0.5),), Activation("relu"))
    return run_network(np.ones((3, 2)), [layer, layer], g)


def _config_epsilon(x, directory):
    path = directory / "epsilon.json"
    doc = {"graph": "gen:path:3", "layers": 1, "epsilon": x}
    path.write_text(json.dumps(doc, default=lambda o: o.item()))  # numpy scalars as Python
    return load_run_config(str(path)).epsilon


# every site of the real rule: (fragment its error names, interval, call); a call
# returns the site's result, which is the value as a float where the site keeps it
_REAL_SITES = [
    ("edge probability p", (0, 1, False, False),
     lambda x, d: generate("erdos_renyi", 6, 1, p=x)),
    ("drop ratio", (0, 1, False, False), lambda x, d: perturb(generate("ring", 6), "drop", x)),
    ("boost factor", (1, math.inf, False, False),
     lambda x, d: perturb(generate("ring", 6), "boost", 2, factor=x)),
    ("drop ratios", (0, 1, True, True), lambda x, d: check_sweep_values([x], [], 2.0, 1, 0)),
    ("boost factor", (1, math.inf, False, False),
     lambda x, d: check_sweep_values([0.1], [], x, 1, 0)),
    ("leaky_relu slope", (0, 1, True, True), lambda x, d: Activation("leaky_relu", x).slope),
    ("target top singular value", (0, math.inf, True, False), lambda x, d: make_weights(2, 2, x)),
    ("epsilon", (0, 1, True, True), lambda x, d: verify_prop_7_1(decaying_run(), x)),
    ("'epsilon'", (0, 1, True, True), _config_epsilon),
    ("filter coefficient a_1", (-math.inf, math.inf, False, False),
     lambda x, d: PolynomialFilter((1.0, x)).coefficients[1]),
    ("monotonicity interval", (-math.inf, 2.0, False, True),
     lambda x, d: check_monotone_decreasing(PolynomialFilter.propagation(), x, 2.0)),
    ("monotonicity interval", (0.0, math.inf, True, False),
     lambda x, d: check_monotone_decreasing(PolynomialFilter.propagation(), 0.0, x)),
]
_NOT_REALS = [True, False, np.bool_(True), np.bool_(False), "0.5", "", None, math.nan, math.inf,
              -math.inf, np.float64(math.nan), np.float64(-math.inf), 10**400, -10**400]


@st.composite
def real_site_inputs(draw):
    """A site, a value and whether the rule admits it: something that is not a
    finite real, an interval end or the float just past one, or a numpy scalar
    inside the interval (a float32 may round onto an open end)."""
    site = draw(st.integers(0, len(_REAL_SITES) - 1))
    lo, hi, open_lo, open_hi = _REAL_SITES[site][1]
    # JSON null means "take the default", so the config site takes no None
    not_reals = [v for v in _NOT_REALS if v is not None or _REAL_SITES[site][2] is not _config_epsilon]
    a, b = max(lo, -10.0), min(hi, 10.0)
    ends = [v for v in (lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf))
            if math.isfinite(v)] or [a, b]
    inside = st.floats(a, b, exclude_min=open_lo, exclude_max=open_hi)
    value = draw(st.one_of(st.sampled_from(ends), inside.map(np.float64), inside.map(np.float32),
                           st.integers(math.ceil(a), math.floor(b)).map(np.int64)))
    ok = (lo < value if open_lo else lo <= value) and (value < hi if open_hi else value <= hi)
    if draw(st.booleans()):
        value, ok = draw(st.sampled_from(not_reals)), False
    return site, value, ok


@settings(max_examples=300)
@given(real_site_inputs())
def test_library_reals_take_one_rule(tmp_path_factory, case):
    # ROADMAP item 5, library channel: every real a user gives is admitted as a
    # Python float or refused with ValidationError naming it, never a
    # TypeError, an OverflowError or a numpy scalar stored
    site, value, ok = case
    fragment, _, call = _REAL_SITES[site]
    try:
        stored = call(value, tmp_path_factory.getbasetemp())
    except ValidationError as exc:
        assert not ok, f"{fragment}: {value!r} refused: {exc}"
        assert fragment in str(exc)
    else:
        assert ok, f"{fragment}: {value!r} admitted"
        if isinstance(stored, (float, np.generic)):
            assert type(stored) is float and stored == float(value)


def test_library_reals_that_slipped_through_exit_2():
    # each of these built a graph, scaled a matrix, raised TypeError or took a
    # bool as a number before every real went through one rule
    g, traj, f = generate("ring", 6), decaying_run(), PolynomialFilter.propagation()
    cases = [
        (lambda: generate("erdos_renyi", 6, 1, p=True), "edge probability p"),
        (lambda: generate("erdos_renyi", 6, 1, p="0.5"), "edge probability p"),
        (lambda: make_weights(2, 2, True), "target top singular value"),
        (lambda: perturb(g, "drop", "0.5"), "drop ratio"),
        (lambda: perturb(g, "boost", 2, factor=True), "boost factor"),
        (lambda: check_sweep_values([0.1], [], True, 1, 0), "boost factor"),
        (lambda: Activation("leaky_relu", "0.2"), "leaky_relu slope"),
        (lambda: verify_prop_7_1(traj, "0.5"), "epsilon"),
        (lambda: check_monotone_decreasing(f, False, True), "monotonicity interval lo"),
        (lambda: generate("k_regular", 6, k=False), "got k=False"),
        (lambda: generate("k_regular", 6, k=2.0), "got k=2.0"),
    ]
    for case, fragment in cases:
        with pytest.raises(ValidationError, match=re.escape(fragment)):
            case()
    assert type(Activation("leaky_relu", np.float64(0.2)).slope) is float
    # numpy ints and the spec still take the circulant route
    assert generate("k_regular", 6, k=np.int64(2)) == parse_generator_spec("gen:kregular:6:2")


def test_real_rule_message():
    for args, kwargs, message in [
        (("drop ratio", True, 0, 1), {}, "drop ratio must lie in [0, 1], got True"),
        (("boost factor", 0.5, 1), {}, "boost factor must lie in [1, inf), got 0.5"),
        (("x", 0, 0, 1), {"open_lo": True, "open_hi": True}, "x must lie in (0, 1), got 0"),
        (("x", None), {}, "x must lie in (-inf, inf), got None"),
        (("x", 10**400, -1), {}, "x must lie in [-1, inf), got " + "1" + "0" * 36 + "..."),
        (("x", 10**5000), {}, "x must lie in (-inf, inf), got an int of 16610 bits"),
    ]:
        with pytest.raises(ValidationError) as exc:
            check_real(*args, **kwargs)
        assert str(exc.value) == message
    assert check_real("x", np.int64(3), 3, 3) == 3.0


def test_run_config_missing_graph_key(tmp_path):
    p = tmp_path / "r.json"
    p.write_text(json.dumps({"layers": 1}))
    with pytest.raises(ValidationError, match="graph"):
        load_run_config(str(p))


def test_run_config_missing_file(tmp_path):
    with pytest.raises(ValidationError, match="not found"):
        load_run_config(str(tmp_path / "absent.json"))


def test_run_config_bad_json_reports_line(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"graph": "gen:path:3",\n "layers": }\n')
    with pytest.raises(ParseError, match="line 2"):
        load_run_config(str(p))


def test_run_config_top_level_must_be_object(tmp_path):
    p = tmp_path / "list.json"
    p.write_text("[1, 2, 3]")
    with pytest.raises(ValidationError, match="object"):
        load_run_config(str(p))


def test_run_config_document_is_kept(tmp_path):
    path = write_run_config(tmp_path, seed=3)
    setup = load_run_config(path)
    assert setup.document["seed"] == 3
    assert setup.document["graph"] == "gen:path:3"


# ---------------------------------------------------------------------------
# sweep configs


def write_sweep_config(tmp_path, name="sweep.json", **overrides):
    doc = {"graph": "gen:ring:12", "drop_ratios": [0.2], "boost_counts": [1]}
    doc.update(overrides)
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_sweep_config_defaults(tmp_path):
    cfg, _ = load_sweep_config(write_sweep_config(tmp_path))
    assert cfg.drop_ratios == (0.2,)
    assert cfg.boost_counts == (1,)
    assert cfg.boost_factor == 10000.0
    assert cfg.trials == 1
    assert cfg.base_seed == 0
    assert cfg.probe.kind == "fixed-field"
    assert cfg.probe.channels == 4
    assert cfg.probe.seed == 0
    assert cfg.graph.n == 12


def test_sweep_config_full_document(tmp_path):
    path = write_sweep_config(
        tmp_path,
        drop_ratios=[0.1, 0.5],
        boost_counts=[2, 3],
        boost_factor=100.0,
        trials=6,
        base_seed=9,
        probe={"kind": "spectrum-only", "channels": 2, "seed": 4},
    )
    cfg, _ = load_sweep_config(path)
    assert cfg.drop_ratios == (0.1, 0.5)
    assert cfg.boost_counts == (2, 3)
    assert cfg.boost_factor == 100.0
    assert cfg.trials == 6
    assert cfg.base_seed == 9
    assert cfg.probe.kind == "spectrum-only"
    assert cfg.probe.channels == 2
    assert cfg.probe.seed == 4


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        ({"drop_ratios": "0.2"}, "lists"),
        ({"boost_counts": 1}, "lists"),
        ({"trials": 1.5}, "trials"),
        ({"base_seed": "nine"}, "base_seed"),
        ({"probe": "fixed-field"}, "probe"),
        ({"drop_ratios": [1.0], "boost_counts": []}, "drop ratio"),  # SweepConfig bound
        ({"probe": {"channels": "x"}}, "'probe.channels'"),
        ({"probe": {"seed": "x"}}, "'probe.seed'"),
        ({"drop_ratios": ["a"]}, "'drop_ratios"),
        ({"drop_ratios": [10**400]}, "'drop_ratios"),
        ({"boost_counts": ["x"]}, "'boost_counts"),
        ({"boost_factor": "x"}, "'boost_factor'"),
        ({"boost_factor": 10**400}, "'boost_factor'"),
        ({"probe": {"channels": 4.7}}, "'probe.channels'"),
        ({"probe": {"channels": "4"}}, "'probe.channels'"),
        ({"drop_ratios": ["0.25"]}, "'drop_ratios"),
        ({"boost_counts": [2.5]}, "'boost_counts"),
        ({"boost_counts": [True]}, "'boost_counts"),
        ({"boost_factor": "1e4"}, "'boost_factor'"),
        ({"boost_factor": True}, "'boost_factor'"),
        ({"trials": True}, "'trials'"),
        ({"base_seed": True}, "'base_seed'"),
        ({"drop_ratios": [float("nan")]}, "'drop_ratios"),
        # work-size caps
        ({"trials": 100001}, "'trials' is 100001, above the limit of 100000 trials"),
        ({"probe": {"channels": 4097}}, "'probe.channels' is 4097, above the limit of 4096 channels"),
        # unknown keys, top-level and nested, are rejected by their dotted name
        ({"probe": {"chanels": 4}}, "unknown key 'probe.chanels'"),
        ({"trial": 3}, "unknown key 'trial'"),
        ({"boost_count": [2]}, "unknown key 'boost_count'"),
        ({"layers": 2}, "unknown key 'layers'"),
        # seeds outside [0, 2**64) would alias one inside it
        ({"base_seed": 2**64}, "'base_seed' is 18446744073709551616, outside the seed range"),
        ({"base_seed": -1}, "'base_seed' is -1, outside"),
        ({"probe": {"seed": 2**64}}, "'probe.seed' is 18446744073709551616, outside"),
        ({"probe": {"seed": -1}}, "'probe.seed' is -1, outside"),
    ],
)
def test_sweep_config_validation(tmp_path, overrides, fragment):
    path = write_sweep_config(tmp_path, **overrides)
    with pytest.raises(ValidationError, match=fragment):
        load_sweep_config(path)


@pytest.mark.parametrize("overrides", [
    {"trials": 100001}, {"probe": {"channels": 4097}},
    {"base_seed": -1}, {"drop_ratios": [1.5]}, {"drop_ratios": [0.2, 0.2]},
    {"boost_counts": [0]}, {"boost_factor": 0.5}, {"trials": 0},
])
def test_sweep_config_caps_reject_before_any_graph(tmp_path, monkeypatch, overrides):
    # every value is checked before the graph, with the message it gets after one
    path = write_sweep_config(tmp_path, **overrides)
    with pytest.raises(ValidationError) as after_graph:
        load_sweep_config(path)

    def forbidden(*args, **kwargs):
        raise AssertionError("graph built before the values were checked")

    monkeypatch.setattr(config, "resolve_graph_source", forbidden)
    with pytest.raises(ValidationError, match=re.escape(str(after_graph.value))):
        load_sweep_config(path)


def test_sweep_hashes_its_config_document_as_read(tmp_path, capsys):
    # the rule of run: the document as read, not the config it resolves to
    path = write_sweep_config(tmp_path, trials=2)
    doc = json.loads(Path(path).read_text())
    assert load_sweep_config(path)[1] == doc
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    for table in (out, tmp_path / "rows.duality.csv"):
        assert table.read_text().splitlines()[1] == f"# config-sha256: {config_hash(doc)}"


def test_documented_and_benchmark_configs_hold_only_known_keys(tmp_path, monkeypatch):
    # the README examples and the documents perfbench/workloads.py writes still load
    root = Path(__file__).resolve().parents[1]
    docs = [json.loads(block) for block in
            re.findall(r"```json\n(.*?)```", (root / "README.md").read_text(), re.S)]
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    docs += [workloads.run_deep_document(1), workloads.sweep_document(1)]
    assert sum("layers" in doc for doc in docs) == 2 and len(docs) == 4
    for i, doc in enumerate(docs):
        path = tmp_path / f"doc{i}.json"
        path.write_text(json.dumps(doc))
        (load_run_config if "layers" in doc else load_sweep_config)(str(path))
