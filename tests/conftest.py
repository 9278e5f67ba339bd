"""One Hypothesis profile for the whole suite: derandomized, so every run
draws the same examples, and with no deadline, since the numerical tests'
timing follows the host.  Each test keeps its own ``max_examples``.  The
``counted`` fixture counts the dense Laplacian builds, the eigensolves and the
edge products, and :func:`search_components` is the component oracle of the
tests."""

import sys

import pytest
from hypothesis import settings

import gcn_energy.graphs as graphs

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def counted(monkeypatch):
    """Count the Laplacian builds and eigensolves, wherever a module calls them,
    and the edge products ``Graph.laplacian_times``."""
    calls = {"laplacian": 0, "eigendecompose": 0, "products": 0}

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
    monkeypatch.setattr(graphs.Graph, "laplacian_times",
                        counting("products", graphs.Graph.laplacian_times))
    return calls


def search_components(g):
    """Components by depth-first search over Python adjacency lists, as sorted
    node tuples ordered by smallest member: the oracle of ``g.component_labels``."""
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
