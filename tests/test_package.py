"""The package namespace: every exported name resolves, once."""

import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

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


def test_no_dense_laplacian_member_and_no_rayleigh_quotient():
    # the dense Laplacian is built only where it is used, and the energy
    # command takes its Rayleigh quotient as energy over ||X||^2
    assert "rayleigh_quotient" not in gcn_energy.__all__
    assert not hasattr(gcn_energy, "rayleigh_quotient")
    assert not hasattr(gcn_energy.energy, "rayleigh_quotient")
    assert not hasattr(gcn_energy.Graph, "laplacian")


def test_component_labels_are_the_one_component_rule():
    # nothing regroups g.component_labels into node tuples
    assert "connected_components" not in gcn_energy.__all__
    assert not hasattr(gcn_energy, "connected_components")
    assert not hasattr(gcn_energy.graphs, "connected_components")


def test_one_count_rule_one_filter_constructor_and_no_unused_knobs():
    # every count goes through check_work_size, a filter has one constructor,
    # and no suite knob that no caller sets is left
    assert not hasattr(gcn_energy.graphs, "_check_node_count")
    assert not hasattr(gcn_energy.PolynomialFilter, "from_coefficients")
    assert "placement" not in inspect.signature(gcn_energy.bounds.verify_theorem_3_4).parameters
    assert "n_lo" not in inspect.signature(gcn_energy.bounds.random_graph).parameters


def test_one_real_rule_and_one_way_to_give_edges():
    # every real a user gives goes through errors.check_real, the only module
    # that tests for numbers.Real, and explicit edges go through Graph(n, u, v, w)
    assert callable(gcn_energy.errors.check_real)
    assert not hasattr(gcn_energy.Graph, "from_edges")
    package = Path(gcn_energy.__file__).parent
    importers = {path.stem for path in package.glob("*.py")
                 if re.search(r"^\s*(import numbers|from numbers import)", path.read_text(), re.M)}
    assert importers == {"errors"}


def test_perturb_takes_its_arguments_and_the_suites_draw_their_own_instances():
    # no argument bundle for perturb, and no module of its own for the suites' draws
    assert "PerturbationPlan" not in gcn_energy.__all__
    assert not hasattr(gcn_energy, "PerturbationPlan")
    assert not hasattr(gcn_energy.graphs, "PerturbationPlan")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("gcn_energy.sampling")


def test_one_activation_constructor_and_reports_compute_margin_and_ok():
    for name in ("relu", "leaky_relu", "tanh", "sigmoid", "identity"):
        assert not hasattr(gcn_energy.Activation, name)
    assert "margin" not in {f.name for f in dataclasses.fields(gcn_energy.BoundReport)}
    assert "ok" not in {f.name for f in dataclasses.fields(gcn_energy.Prop71Verdict)}
    report = gcn_energy.BoundReport("L3.1", 1.0, 2.5, 3.0, holds_paper=True, holds_safe=True)
    assert report.margin == 1.5
    with pytest.raises(AttributeError):
        report.margin = 0.0
    unmet = gcn_energy.Prop71Verdict("filter not monotone", 0.5, (), None)
    assert not unmet.ok and not unmet.holds
    with pytest.raises(AttributeError):
        unmet.ok = True
