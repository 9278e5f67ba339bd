"""Dirichlet-energy contraction analysis for deep graph convolutional networks.

The package measures how graph convolutions smooth node embeddings: it
builds augmented normalized Laplacians, simulates deep GCN forward passes
with polynomial Laplacian filters, verifies the energy contraction bounds
that explain over-smoothing, and sweeps edge perturbations to see how the
spectrum and the energy respond.
"""

from .bounds import (
    STATEMENTS,
    SUITE_TOKENS,
    BoundReport,
    Prop71Verdict,
    SuiteResult,
    fit_log_energy_slope,
    run_suite,
    verify_corollary_3_5,
    verify_lemma_3_1,
    verify_lemma_3_2,
    verify_lemma_3_3,
    verify_lemma_7_2,
    verify_prop_7_1,
    verify_theorem_3_4,
)
from .energy import (
    as_embedding,
    dirichlet_energy_edge_sum,
    dirichlet_energy_trace,
    rayleigh_quotient,
)
from .errors import DegenerateSpectrumError, NumericError, ParseError, ValidationError
from .graphs import (
    Graph,
    PerturbationPlan,
    augmented_normalized_laplacian,
    connected_components,
    from_edge_list,
    generate,
    perturb,
)
from .network import (
    Activation,
    LayerRecord,
    LayerSpec,
    Trajectory,
    apply_activation,
    layer_forward,
    make_weights,
    run_network,
    top_singular_value,
)
from .seeding import derive_seed
from .spectral import (
    FilterContraction,
    PolynomialFilter,
    apply_filter,
    check_monotone_decreasing,
    contraction_factors,
    eval_filter_scalar,
    filter_contraction,
)
from .sweeps import (
    DualityEntry,
    ProbeSpec,
    SweepConfig,
    SweepRow,
    duality_report,
    energy_increase_fraction,
    probe_field,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "STATEMENTS",
    "SUITE_TOKENS",
    "Activation",
    "BoundReport",
    "DegenerateSpectrumError",
    "DualityEntry",
    "FilterContraction",
    "Graph",
    "LayerRecord",
    "LayerSpec",
    "NumericError",
    "ParseError",
    "PerturbationPlan",
    "PolynomialFilter",
    "ProbeSpec",
    "Prop71Verdict",
    "SuiteResult",
    "SweepConfig",
    "SweepRow",
    "Trajectory",
    "ValidationError",
    "apply_activation",
    "apply_filter",
    "as_embedding",
    "augmented_normalized_laplacian",
    "check_monotone_decreasing",
    "connected_components",
    "contraction_factors",
    "derive_seed",
    "dirichlet_energy_edge_sum",
    "dirichlet_energy_trace",
    "duality_report",
    "energy_increase_fraction",
    "eval_filter_scalar",
    "filter_contraction",
    "fit_log_energy_slope",
    "from_edge_list",
    "generate",
    "layer_forward",
    "make_weights",
    "perturb",
    "probe_field",
    "rayleigh_quotient",
    "run_network",
    "run_suite",
    "run_sweep",
    "top_singular_value",
    "verify_corollary_3_5",
    "verify_lemma_3_1",
    "verify_lemma_3_2",
    "verify_lemma_3_3",
    "verify_lemma_7_2",
    "verify_prop_7_1",
    "verify_theorem_3_4",
]
