"""One Hypothesis profile for the whole suite: derandomized, so every run
draws the same examples, and with no deadline, since the numerical tests'
timing follows the host.  Each test keeps its own ``max_examples``.  The
``counted`` fixture counts the dense Laplacian builds and eigensolves."""

import sys

import pytest
from hypothesis import settings

import gcn_energy.graphs as graphs

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def counted(monkeypatch):
    """Count the Laplacian builds and eigensolves, wherever a module calls them."""
    calls = {"laplacian": 0, "eigendecompose": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for attr, name in (("augmented_normalized_laplacian", "laplacian"),
                       ("eigendecompose", "eigendecompose")):
        original = getattr(graphs, attr)
        wrapper = counting(name, original)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("gcn_energy") and getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, wrapper)
    return calls
