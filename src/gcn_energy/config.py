"""Config documents and graph-source resolution for the command line.

Graphs can come from an edge-list file or from a compact generator spec:

    gen:ring:8            gen:path:3            gen:complete:5
    gen:kregular:10:4     gen:er:100:0.1        gen:er:100:0.1:42

Run and sweep configs are JSON documents; the exact schemas are documented
in the README and validated here with field-level error messages.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError, check_real
from .graphs import MAX_CHANNELS, MAX_LAYERS, MAX_WEIGHT_ENTRIES, Graph
from .graphs import check_work_size, from_edge_list, generate
from .network import PLACEMENTS, Activation, LayerSpec, make_weights
from .seeding import check_seed, derive_seed
from .spectral import PolynomialFilter
from .sweeps import ProbeSpec, SweepConfig, check_sweep_values

_GEN_ALIASES = {
    "er": "erdos_renyi",
    "erdos": "erdos_renyi",
    "erdos_renyi": "erdos_renyi",
    "ring": "ring",
    "kregular": "k_regular",
    "k_regular": "k_regular",
    "kreg": "k_regular",
    "complete": "complete",
    "path": "path",
}

# substream indices for the master run seed
_X0_STREAM = 0
_WEIGHT_STREAM_BASE = 1000


def parse_generator_spec(spec: str) -> Graph:
    """Build a graph from a ``gen:<kind>:<args>`` mini-spec."""
    parts = spec.split(":")
    if len(parts) < 3 or parts[0] != "gen":
        raise ValidationError(f"generator spec must look like gen:<kind>:<args>, got {spec!r}")
    kind = _GEN_ALIASES.get(parts[1].lower())
    if kind is None:
        raise ValidationError(f"unknown generator kind {parts[1]!r} in {spec!r}")
    try:
        n = int(parts[2])
    except ValueError:
        raise ValidationError(f"generator spec {spec!r}: node count must be an integer") from None
    args, params = parts[3:], {}
    if kind == "erdos_renyi":
        if len(args) not in (1, 2):
            raise ValidationError(f"gen:er needs gen:er:<n>:<p>[:<seed>], got {spec!r}")
        try:
            params = {"p": float(args[0]), "seed": int(args[1]) if len(args) == 2 else 0}
        except ValueError:
            raise ValidationError(f"generator spec {spec!r}: bad numeric argument") from None
        check_seed(f"the seed of generator spec {spec!r}", params["seed"])
    elif kind == "k_regular":
        if len(args) != 1:
            raise ValidationError(f"gen:kregular needs gen:kregular:<n>:<k>, got {spec!r}")
        try:
            params = {"k": int(args[0])}
        except ValueError:
            raise ValidationError(f"generator spec {spec!r}: k must be an integer") from None
    elif args:
        raise ValidationError(f"generator {parts[1]!r} takes no extra arguments, got {spec!r}")
    try:
        return generate(kind, n, **params)
    except ValidationError as exc:
        raise ValidationError(f"generator spec {spec!r}: {exc}") from None


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of the ``what`` file at ``path``; exit 2 if it is missing or not UTF-8."""
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"{what} file not found: {path}")
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} file {path}: byte {exc.start} is not UTF-8") from None


def resolve_graph_source(source: str) -> Graph:
    """A graph path or a ``gen:`` spec, wherever a graph is accepted."""
    if source.startswith("gen:"):
        return parse_generator_spec(source)
    return from_edge_list(_read_text(source, "graph"))


def config_hash(document: dict) -> str:
    """Stable sha256 over a config document: compact JSON with sorted keys."""
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _load_json(path: str) -> dict:
    text = _read_text(path, "config")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config {path}: line {exc.lineno}: {exc.msg}") from None
    except ValueError as exc:  # an integer past Python's digit limit for int(str)
        raise ParseError(f"config {path}: {exc}") from None
    except RecursionError:
        raise ParseError(f"config {path}: nested too deeply to decode") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"config {path}: top level must be an object")
    return doc


_KINDS = {int: "integers", float: "finite numbers", str: "strings", list: "lists", dict: "objects"}
_REQUIRED = object()


def _typed(value, kind, name: str):
    """The one type rule of every config value; errors name the dotted key.

    ``kind`` is ``int``, ``float``, ``str``, ``list``, ``dict``, ``[k]`` (a list
    of ``k``) or a tuple (the first kind that fits).  A boolean is never a
    number; an ``int`` is a JSON integer only, never ``2.0`` or ``"2"``; a
    ``float`` is a JSON integer or float that is finite as a float.
    """
    if isinstance(kind, list):
        items = _typed(value, list, name)
        return [_typed(item, kind[0], f"{name}[{i}]") for i, item in enumerate(items)]
    kinds = kind if isinstance(kind, tuple) else (kind,)
    for k in kinds:
        if k is float and type(value) in (int, float):
            try:
                if math.isfinite(value):
                    return float(value)
            except OverflowError:  # an integer beyond the float range
                pass
        elif type(value) is k:
            return value
    try:
        shown = json.dumps(value)
    except RecursionError:  # nested nearly as deep as the decoder allows
        shown = "a value nested too deeply to show"
    raise ValidationError(f"config key {name!r} takes {' or '.join(_KINDS[k] for k in kinds)} "
                          f"only, got {shown if len(shown) <= 40 else shown[:37] + '...'}")


def _field(doc: dict, key: str, kind, default=_REQUIRED):
    """``doc[key]`` under :func:`_typed`; ``"a.b"`` reads key ``b`` of object ``a``.

    A key that is absent or null takes ``default``; without one it is required.
    """
    parent, _, last = key.rpartition(".")
    if parent:
        doc = _field(doc, parent, dict, {})
    value = doc.get(last)
    if value is None:
        if default is _REQUIRED:
            raise ValidationError(f"config is missing required key {key!r}")
        return default
    return _typed(value, kind, key)


# every key a run or sweep document may hold; "a.b" is key b of object a
_RUN_KEYS = frozenset({
    "graph", "layers", "channels", "seed", "activation_placement", "epsilon", "filter",
    "filters", "activation", "activation.kind", "activation.slope", "weights",
    "weights.shapes", "weights.target_singular"})
_SWEEP_KEYS = frozenset({
    "graph", "drop_ratios", "boost_counts", "boost_factor", "trials", "base_seed",
    "probe", "probe.kind", "probe.channels", "probe.seed"})


def _check_keys(doc: dict, known: frozenset, prefix: str = "") -> None:
    """Reject any key of ``doc`` or of a nested object that is not in ``known``.

    A misspelt key would otherwise be ignored and its field take the default;
    the error names the dotted key.
    """
    for key, value in doc.items():
        name = prefix + key
        if name not in known:
            raise ValidationError(f"config has unknown key {name!r}")
        if isinstance(value, dict) and any(k.startswith(name + ".") for k in known):
            _check_keys(value, known, name + ".")


def _parse_activation(doc: dict) -> Activation:
    raw = _field(doc, "activation", (str, dict), "relu")
    if isinstance(raw, dict):
        return Activation(_field(doc, "activation.kind", str),
                          _field(doc, "activation.slope", float, None))
    if raw == "leaky_relu":
        raise ValidationError("activation 'leaky_relu' needs a slope: "
                              '{"kind": "leaky_relu", "slope": 0.2}')
    return Activation(raw)


def _parse_filters(doc: dict, depth: int) -> list[PolynomialFilter]:
    filters = _field(doc, "filters", [[float]], None)
    if filters is None:
        return [PolynomialFilter(_field(doc, "filter", [float], [1.0, -1.0]))] * depth
    if doc.get("filter") is not None:
        raise ValidationError("config gives both 'filter' and 'filters'; "
                              "give 'filters' (one per layer) instead of 'filter'")
    if len(filters) != depth:
        raise ValidationError(f"'filters' must list {depth} filters, got {len(filters)}")
    return [PolynomialFilter(c) for c in filters]


def _parse_weight_plan(doc: dict, depth: int, channels: int):
    """Yield per-layer lists of (rows, cols, target) triples."""
    shapes = _field(doc, "weights.shapes", [[[int]]], None)
    target = _field(doc, "weights.target_singular", (float, list), 1.0)
    if shapes is not None:
        if len(shapes) != depth:
            raise ValidationError(f"'weights.shapes' must list {depth} layer chains")
        for l, chain in enumerate(shapes):
            if not chain or any(len(pair) != 2 for pair in chain):
                raise ValidationError(f"'weights.shapes[{l}]' must be a nonempty list "
                                      "of [rows, cols] pairs")
            for h, pair in enumerate(chain):
                for k, width in enumerate(pair):
                    check_work_size(f"config key 'weights.shapes[{l}][{h}][{k}]'", width,
                                    MAX_CHANNELS, "channels")

    def target_for(l: int, h: int, chain_len: int) -> float:
        key, value = "weights.target_singular", target
        for index, size in ((l, depth), (h, chain_len)):
            if isinstance(value, list):  # a per-layer, then a per-matrix list
                if len(value) != size:
                    raise ValidationError(f"{key!r} must list {size} targets, got {len(value)}")
                key, value = f"{key}[{index}]", value[index]
        return _typed(value, float, key)

    plan = []
    current = channels
    for l in range(depth):
        chain = shapes[l] if shapes is not None else [(current, current)]
        if chain[0][0] != current:
            raise ValidationError(
                f"layer {l} weight chain starts at {chain[0][0]} rows "
                f"but the incoming embedding has {current} channels"
            )
        for h in range(len(chain) - 1):
            if chain[h][1] != chain[h + 1][0]:
                raise ValidationError(f"layer {l} weight chain breaks between matrices {h} and {h + 1}")
        plan.append([(r, c, target_for(l, h, len(chain))) for h, (r, c) in enumerate(chain)])
        current = chain[-1][1]
    check_work_size("the run's weight matrices", sum(r * c for chain in plan for r, c, _ in chain),
                    MAX_WEIGHT_ENTRIES, "entries in all")
    return plan


@dataclass(frozen=True)
class RunSetup:
    """Everything a simulation run needs, resolved from a config document."""

    graph: Graph
    x0: np.ndarray
    layers: tuple[LayerSpec, ...]
    placement: str
    epsilon: float
    seed: int
    document: dict


def load_run_config(path: str) -> RunSetup:
    """The run of the config document at ``path``.  Every value is checked,
    and the weights drawn and the layers built, before the graph is resolved,
    so a bad document exits 2 without building a graph; each weight draws
    from its own seed stream, so the order moves no value."""
    doc = _load_json(path)
    _check_keys(doc, _RUN_KEYS)
    source = _field(doc, "graph", str)
    depth = _field(doc, "layers", int)
    check_work_size("config key 'layers'", depth, MAX_LAYERS, "layers")
    channels = _field(doc, "channels", int, 4)
    check_work_size("config key 'channels'", channels, MAX_CHANNELS, "channels")
    seed = _field(doc, "seed", int, 0)
    check_seed("config key 'seed'", seed)
    placement = _field(doc, "activation_placement", str, "paper")
    if placement not in PLACEMENTS:
        raise ValidationError(f"'activation_placement' must be 'paper' or 'conventional', "
                              f"got {placement!r}")
    epsilon = check_real("'epsilon'", _field(doc, "epsilon", float, 0.5), 0, 1,
                         open_lo=True, open_hi=True)
    act = _parse_activation(doc)
    filters = _parse_filters(doc, depth)
    plan = _parse_weight_plan(doc, depth, channels)
    layers = []
    for l in range(depth):
        mats = tuple(
            make_weights(rows, cols, target, seed=derive_seed(seed, _WEIGHT_STREAM_BASE + l * 100 + h))
            for h, (rows, cols, target) in enumerate(plan[l])
        )
        layers.append(LayerSpec(filter=filters[l], weights=mats, activation=act))
    graph = resolve_graph_source(source)
    rng = np.random.default_rng(derive_seed(seed, _X0_STREAM))
    x0 = rng.standard_normal((graph.n, channels))
    return RunSetup(graph=graph, x0=x0, layers=tuple(layers), placement=placement,
                    epsilon=epsilon, seed=seed, document=doc)


def load_sweep_config(path: str) -> tuple[SweepConfig, dict]:
    """The sweep of the config document at ``path``, and the document as read.

    Every value is checked before the graph is built, so a bad document
    exits 2 without building a large graph first.
    """
    doc = _load_json(path)
    _check_keys(doc, _SWEEP_KEYS)
    graph_source = _field(doc, "graph", str)
    values = dict(
        drop_ratios=tuple(_field(doc, "drop_ratios", [float], [])),
        boost_counts=tuple(_field(doc, "boost_counts", [int], [])),
        boost_factor=_field(doc, "boost_factor", float, 10000.0),
        trials=_field(doc, "trials", int, 1),
        base_seed=_field(doc, "base_seed", int, 0),
    )
    check_sweep_values(**values)
    probe = ProbeSpec(
        kind=_field(doc, "probe.kind", str, "fixed-field"),
        channels=_field(doc, "probe.channels", int, 4),
        seed=_field(doc, "probe.seed", int, 0),
    )
    return SweepConfig(graph=resolve_graph_source(graph_source), probe=probe, **values), doc
