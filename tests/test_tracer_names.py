"""The benchmark's tracer finds every function it times in the program.

``perfbench/tracing.py`` wraps functions by ``(module, function)`` name and
rebinds every module global that refers to one of them.  An API change that
renames or drops such a function, or stops a consumer module from binding it
by name, would break ``perfbench/run.py --trace 1``; these tests catch it
without running the benchmark.  The tracer module is only loaded, never edited.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(tracing):
    for layer, targets in tracing.LAYERS.items():
        for module_name, func_name in targets:
            fn = getattr(importlib.import_module(module_name), func_name, None)
            assert callable(fn), (layer, module_name, func_name)


@pytest.mark.parametrize("consumer,name,owner", [
    ("gcn_energy.bounds", "dirichlet_energy_edge_sum", "gcn_energy.energy"),
    ("gcn_energy.sweeps", "perturb", "gcn_energy.graphs"),
    # T3.4 and P7.1 run their layers inside run_network's span
    ("gcn_energy.bounds", "run_network", "gcn_energy.network"),
    # the cached graph context builds through these globals of graphs
    ("gcn_energy.graphs", "eigendecompose", "gcn_energy.spectral"),
    ("gcn_energy.graphs", "augmented_normalized_laplacian", "gcn_energy.graphs"),
    # the energy command builds its own Laplacian for its trace form
    ("gcn_energy.cli", "augmented_normalized_laplacian", "gcn_energy.graphs"),
])
def test_consumers_bind_traced_functions_by_name(tracing, consumer, name, owner):
    traced = {(m, f) for targets in tracing.LAYERS.values() for m, f in targets}
    assert (owner, name) in traced
    bound = getattr(importlib.import_module(consumer), name)
    assert bound is getattr(importlib.import_module(owner), name)
