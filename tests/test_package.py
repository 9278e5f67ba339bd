"""The package namespace: every exported name resolves, once."""

import gcn_energy


def test_every_exported_name_resolves_and_is_listed_once():
    names = gcn_energy.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(gcn_energy, name, None) is not None, name


def test_the_graph_is_the_only_spectral_context():
    # eigenvalues, kernel and factors are read from a Graph, with no wrapper types
    for name in ("Spectrum", "ContractionFactors", "MonotonicityCheck"):
        assert name not in gcn_energy.__all__
        assert not hasattr(gcn_energy, name)
