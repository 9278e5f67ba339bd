"""Edge-perturbation sweeps: how dropping and boosting edges move the spectrum
and the Dirichlet energy of a fixed probe field.

Each trial draws one probe (a Gaussian node-feature matrix held fixed across
all perturbations of that trial, so before/after energies are comparable),
then calls :func:`perturb` on the base graph with every configured drop ratio
and boost count, each under its own derived seed, and records spectral and
energy quantities before and after; a row whose graph lost every edge is
``degenerate``.  Dropping edges
tends to increase the probe energy; boosting edge weights behaves as a rough
dual, and :func:`duality_report` quantifies the gap without asserting a
verdict.

Every graph, the base and each perturbed one, is its own context: its two
spectral columns come from :func:`contraction_factors` on the graph, which
reads ``g.extremes`` once, by Lanczos on the edge arrays on large graphs and
from the dense ``g.spectrum`` on small ones or where Lanczos does not
converge.  Probe
energies take the elementwise edge-sum form, so they do not depend on the
BLAS thread count.

The module returns rows and duality entries; the command line writes them as
CSV.  A boost count stays a Python integer from the config to its row, so a
count past the float range is reported as written.  A :class:`SweepConfig`
holds the built graph, not its source: ``sweep`` hashes its document as read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import dirichlet_energy_edge_sum
from .errors import DegenerateSpectrumError, ValidationError, check_real
from .graphs import MAX_CHANNELS, MAX_TRIALS, Graph, check_work_size, perturb
from .seeding import check_seed, derive_seed
from .spectral import contraction_factors

PROBE_KINDS = ("fixed-field", "spectrum-only")


@dataclass(frozen=True)
class ProbeSpec:
    """What to measure on each perturbed graph.

    ``fixed-field`` draws one Gaussian N x C probe per trial and tracks its
    energy; ``spectrum-only`` skips probe energies (NaN columns).  Either
    kind needs at least one channel.
    """

    kind: str = "fixed-field"
    channels: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in PROBE_KINDS:
            raise ValidationError(f"probe kind must be one of {PROBE_KINDS}, got {self.kind!r}")
        check_work_size("'probe.channels'", self.channels, MAX_CHANNELS, "channels")
        check_seed("'probe.seed'", self.seed)


def check_sweep_values(drop_ratios, boost_counts, boost_factor: float, trials: int,
                       base_seed: int) -> None:
    """The checks of every :class:`SweepConfig` field but the graph and the
    probe, callable before the graph is built (exit 2)."""
    if not drop_ratios and not boost_counts:
        raise ValidationError("sweep needs at least one drop ratio or boost count")
    for r in drop_ratios:
        check_real("drop ratios", r, 0, 1, open_lo=True, open_hi=True)
    for c in boost_counts:
        if not (type(c) is int and c >= 1):  # a bool is not a count
            raise ValidationError(f"boost counts must be positive integers, got {c!r}")
    # duality rows are keyed by (trial, op, param), so a repeat would lose rows
    for name, values in (("drop ratio", drop_ratios), ("boost count", boost_counts)):
        seen = set()
        for x in values:
            if x in seen:
                raise ValidationError(f"{name} {x!r} is listed more than once")
            seen.add(x)
    check_real("boost factor", boost_factor, 1)
    check_work_size("'trials'", trials, MAX_TRIALS, "trials")
    check_seed("'base_seed'", base_seed)


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: a base graph, perturbation grids, trials and seeds."""

    graph: Graph
    drop_ratios: tuple[float, ...] = ()
    boost_counts: tuple[int, ...] = ()
    boost_factor: float = 10000.0
    trials: int = 1
    base_seed: int = 0
    probe: ProbeSpec = ProbeSpec()

    def __post_init__(self) -> None:
        check_sweep_values(self.drop_ratios, self.boost_counts, self.boost_factor,
                           self.trials, self.base_seed)

    def operations(self) -> tuple[tuple[str, float | int], ...]:
        """(op, param) pairs: drops with their float ratio, then boosts with
        their integer count, which may exceed the float range."""
        return (tuple(("drop", float(r)) for r in self.drop_ratios)
                + tuple(("boost", c) for c in self.boost_counts))


@dataclass(frozen=True)
class SweepRow:
    """Before/after measurements of one perturbation within one trial."""

    trial: int
    seed: int
    op: str
    param: float | int  # a drop ratio or a boost count
    edges_before: int
    edges_after: int
    lambda_min_before: float
    lambda_min_after: float
    lambda_bar_safe_before: float
    lambda_bar_safe_after: float
    energy_before: float
    energy_after: float

    @property
    def degenerate(self) -> bool:
        """True when the perturbation left no edge; the spectral columns are then NaN."""
        return self.edges_after == 0


def _spectral_summary(g: Graph) -> tuple[float, float]:
    """(lambda_min_nonzero, lambda_bar_safe) of the graph, NaN when degenerate."""
    try:
        cf = contraction_factors(g)
    except DegenerateSpectrumError:
        return float("nan"), float("nan")
    return cf.lambda_min_nonzero, cf.safe


def probe_field(cfg: SweepConfig, trial: int) -> np.ndarray | None:
    """The Gaussian probe of one trial (None in spectrum-only mode).

    Exposed so callers can reproduce exactly the field a sweep used.
    """
    if cfg.probe.kind != "fixed-field":
        return None
    rng = np.random.default_rng(derive_seed(cfg.probe.seed, trial))
    return rng.standard_normal((cfg.graph.n, cfg.probe.channels))


def run_sweep(cfg: SweepConfig) -> tuple[SweepRow, ...]:
    """Run all trials; rows are ordered by (trial, configured operation).

    Per-trial seeds derive from ``base_seed`` and per-operation seeds from
    the trial seed, so the output is bit-identical for identical configs.
    A drop that leaves zero edges yields a degenerate row (NaN spectral
    columns), not a failure.
    """
    lam_before, safe_before = _spectral_summary(cfg.graph)
    rows: list[SweepRow] = []
    for trial in range(cfg.trials):
        trial_seed = derive_seed(cfg.base_seed, trial)
        x = probe_field(cfg, trial)
        energy_before = (dirichlet_energy_edge_sum(x, cfg.graph)
                         if x is not None else float("nan"))
        for op_index, (op, param) in enumerate(cfg.operations()):
            op_seed = derive_seed(trial_seed, op_index)
            g2 = perturb(cfg.graph, op, param, op_seed, cfg.boost_factor)
            lam_after, safe_after = _spectral_summary(g2)
            energy_after = (dirichlet_energy_edge_sum(x, g2)
                            if x is not None else float("nan"))
            rows.append(SweepRow(
                trial=trial,
                seed=trial_seed,
                op=op,
                param=param,
                edges_before=cfg.graph.edge_count,
                edges_after=g2.edge_count,
                lambda_min_before=lam_before,
                lambda_min_after=lam_after,
                lambda_bar_safe_before=safe_before,
                lambda_bar_safe_after=safe_after,
                energy_before=energy_before,
                energy_after=energy_after,
            ))
    return tuple(rows)


@dataclass(frozen=True)
class DualityEntry:
    """Mean trial-wise distance between one drop and one boost operation."""

    drop_ratio: float
    boost_count: int
    mean_lambda_gap: float
    mean_energy_gap: float
    trials_used: int


def duality_report(rows) -> tuple[DualityEntry, ...]:
    """Pair every boost count with every drop ratio and average, per trial,
    the distances |d lambda_min(drop) - d lambda_min(boost)| and
    |d E(drop) - d E(boost)|.  Emits numbers, not a verdict.  Degenerate
    rows and NaN probe energies are left out of the averages.
    """
    drops = [r for r in rows if r.op == "drop"]
    boosts = [r for r in rows if r.op == "boost"]
    if not drops or not boosts:
        raise ValidationError("duality report needs both drop and boost rows")
    ratios = sorted({r.param for r in drops})
    counts = sorted({r.param for r in boosts})
    by_key: dict[tuple[int, str, float | int], SweepRow] = {
        (r.trial, r.op, r.param): r for r in rows
    }
    trials = sorted({r.trial for r in rows})
    entries = []
    for ratio in ratios:
        for count in counts:
            lam_gaps = []
            e_gaps = []
            used = 0
            for t in trials:
                d = by_key.get((t, "drop", ratio))
                b = by_key.get((t, "boost", count))
                if d is None or b is None or d.degenerate or b.degenerate:
                    continue
                used += 1
                lam_gaps.append(abs((d.lambda_min_after - d.lambda_min_before)
                                    - (b.lambda_min_after - b.lambda_min_before)))
                if math.isfinite(d.energy_after) and math.isfinite(b.energy_after):
                    e_gaps.append(abs((d.energy_after - d.energy_before)
                                      - (b.energy_after - b.energy_before)))
            entries.append(DualityEntry(
                drop_ratio=ratio,
                boost_count=count,
                mean_lambda_gap=float(np.mean(lam_gaps)) if lam_gaps else float("nan"),
                mean_energy_gap=float(np.mean(e_gaps)) if e_gaps else float("nan"),
                trials_used=used,
            ))
    return tuple(entries)


def energy_increase_fraction(rows, op: str = "drop") -> float:
    """Fraction of non-degenerate rows of one operation class whose probe
    energy increased; NaN if no usable rows."""
    usable = [r for r in rows
              if r.op == op and not r.degenerate
              and math.isfinite(r.energy_before) and math.isfinite(r.energy_after)]
    if not usable:
        return float("nan")
    return sum(1 for r in usable if r.energy_after > r.energy_before) / len(usable)
