"""Spans around the calls into each module's public functions.

The tracer wraps functions from the benchmark's side; nothing in ``src/``
changes.  The consumer modules (``cli``, ``sweeps``, ``bounds``, ``network``,
``config``, ``sampling``) import functions by name, so a wrapper only sees
every call when it replaces the function in the defining module *and* under
every other name that refers to it.  :meth:`Tracer.install` therefore scans
every loaded ``gcn_energy`` module and rebinds each global that is one of the
traced functions; :meth:`Tracer.uninstall` puts the originals back.

Each span records its layer name, start, end, parent span and the invocation
it belongs to.  Spans stay in memory until :meth:`Tracer.write` writes them
out at the end of a run.  Self time is a span's duration minus that of its
direct children; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# layer -> functions timed under that name, as (module, function)
LAYERS = {
    "cli": [("gcn_energy.cli", "main")],
    "config.load": [("gcn_energy.config", "load_run_config"),
                    ("gcn_energy.config", "load_sweep_config")],
    "graphs.generate": [("gcn_energy.graphs", "generate")],
    "graphs.laplacian": [("gcn_energy.graphs", "augmented_normalized_laplacian")],
    "graphs.perturb": [("gcn_energy.graphs", "perturb")],
    "spectral.eigendecompose": [("gcn_energy.spectral", "eigendecompose")],
    "spectral.filter_matrix": [("gcn_energy.spectral", "eval_filter_matrix")],
    "spectral.factors": [("gcn_energy.spectral", "contraction_factors"),
                         ("gcn_energy.spectral", "filter_contraction"),
                         ("gcn_energy.spectral", "check_monotone_decreasing")],
    "energy.trace": [("gcn_energy.energy", "dirichlet_energy_trace")],
    "energy.edge_sum": [("gcn_energy.energy", "dirichlet_energy_edge_sum")],
    "network.layer_forward": [("gcn_energy.network", "layer_forward")],
    "network.run_network": [("gcn_energy.network", "run_network")],
    "network.make_weights": [("gcn_energy.network", "make_weights")],
    "bounds.run_suite": [("gcn_energy.bounds", "run_suite")],
    "sweeps.run_sweep": [("gcn_energy.sweeps", "run_sweep")],
}
# layers whose first argument is a Graph; distinct graphs are counted per invocation
GRAPH_ARG_LAYERS = ("graphs.laplacian",)
# reported metrics: calls and inclusive seconds, calls per distinct graph, self seconds
COUNTED = ("graphs.generate", "graphs.laplacian", "graphs.perturb", "spectral.eigendecompose",
           "spectral.filter_matrix", "spectral.factors", "energy.trace", "energy.edge_sum",
           "network.make_weights")
PER_GRAPH = ("graphs.laplacian", "spectral.eigendecompose")
SELF_TIMED = ("network.layer_forward", "network.run_network", "config.load",
              "bounds.run_suite", "sweeps.run_sweep", "cli")


def _program_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gcn_energy" or name.startswith("gcn_energy."))]


class Tracer:
    """Collects spans while installed; a no-op on the program otherwise."""

    def __init__(self) -> None:
        # (layer, start, end, parent index or -1, invocation, graph id or -1)
        self.spans: list[tuple] = []
        self.invocation = -1
        self._stack: list[int] = []
        self._graphs: list[object] = []   # keeps graph ids unique within an invocation
        self._originals: dict[int, object] = {}
        self._wrappers: dict[int, object] = {}

    def _wrap(self, layer: str, fn):
        takes_graph = layer in GRAPH_ARG_LAYERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            graph = -1
            if takes_graph:
                self._graphs.append(args[0])
                graph = id(args[0])
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (layer, start, end, parent, self.invocation, graph)

        return wrapper

    def install(self) -> None:
        """Rebind every traced function under every name a program module uses."""
        if self._wrappers:
            return
        modules = {m.__name__: m for m in _program_modules()}
        for layer, targets in LAYERS.items():
            for module_name, func_name in targets:
                original = getattr(modules[module_name], func_name)
                self._originals[id(original)] = original
                self._wrappers[id(original)] = self._wrap(layer, original)
        self._rebind(self._wrappers)

    def uninstall(self) -> None:
        """Put the original functions back wherever a wrapper was bound."""
        restore = {id(w): self._originals[key] for key, w in self._wrappers.items()}
        self._rebind(restore)
        self._wrappers.clear()
        self._originals.clear()

    @staticmethod
    def _rebind(mapping: dict[int, object]) -> None:
        for module in _program_modules():
            for attr, value in list(vars(module).items()):
                replacement = mapping.get(id(value))
                if replacement is not None:
                    setattr(module, attr, replacement)

    def begin(self, invocation: int) -> None:
        self.invocation = invocation
        self._graphs.clear()

    def write(self, path: Path) -> None:
        """Write all spans as JSON lines, one object per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "invocation", "graph")
        with path.open("w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **dict(zip(keys, span))}) + "\n")


def layer_totals(spans: list[tuple], invocation: int) -> dict[str, dict]:
    """Per-layer calls, inclusive seconds, self seconds and distinct graphs."""
    mine = [(i, s) for i, s in enumerate(spans) if s is not None and s[4] == invocation]
    child_time: dict[int, float] = {}
    for _, (_, start, end, parent, _, _) in mine:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals = {layer: {"calls": 0, "s": 0.0, "self_s": 0.0, "graphs": set()} for layer in LAYERS}
    for i, (layer, start, end, parent, _, graph) in mine:
        t = totals[layer]
        t["calls"] += 1
        t["self_s"] += (end - start) - child_time.get(i, 0.0)
        if not _inside_same_layer(spans, parent, layer):
            t["s"] += end - start
        if graph != -1:
            t["graphs"].add(graph)
    return totals


def _inside_same_layer(spans: list[tuple], parent: int, layer: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == layer:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans: list[tuple], invocations: list[int]) -> dict[str, float]:
    """Per-layer metrics of one run: the smallest value over its traced
    invocations (counts are the same in every invocation)."""
    per_inv = [layer_totals(spans, i) for i in invocations]
    out: dict[str, float] = {}
    for layer in COUNTED:
        out[f"{layer}.calls"] = min(t[layer]["calls"] for t in per_inv)
        out[f"{layer}.s"] = min(t[layer]["s"] for t in per_inv)
    for layer in PER_GRAPH:
        out[f"{layer}.per_graph"] = min(
            t[layer]["calls"] / len(t["graphs.laplacian"]["graphs"])
            if t["graphs.laplacian"]["graphs"] else 0.0 for t in per_inv)
    for layer in SELF_TIMED:
        out[f"{layer}.self_s"] = min(t[layer]["self_s"] for t in per_inv)
    return out
