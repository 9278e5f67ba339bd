"""Verification of the Dirichlet-energy contraction inequalities.

Each checkable statement has a stable identifier used in reports, CSV output
and CLI flags:

* ``L3.1``  one propagation step:          E(P X) <= (1 - lam)^2 E(X)
* ``L3.2``  weight multiplication:         E(X W) <= ||W^T||_2^2 E(X)
* ``L3.3``  entrywise activation:          E(sigma(X)) <= E(X)
* ``T3.4``  full layer with filter 1 - x:  E(f(X)) <= s * (1 - lam)^2 E(X)
* ``C3.5``  deep network decay:            E(X_L) <= rho^L E(X_0) for rho < 1
* ``L7.2``  filtered propagation step:     E(P(Ltil) X) <= P(lam)^2 E(X)
* ``P7.1``  monotone filters, margin eps:  E(X_l) <= (1 - eps)^l E(X_0)

``lam`` is the smallest nonzero Laplacian eigenvalue and ``s`` the product
of the top singular values of the layer weights.  Every check is evaluated
twice: against the nominal right-hand side above (``rhs_paper``) and against
the "safe" variant (``rhs_safe``), which replaces the spectral factor at
``lam`` with its maximum over all nonzero eigenvalues and the gain ``s`` with
``s^2``, as L3.2 requires of every weight.  The safe bound is what suites
assert; nominal-bound violations are possible when the spectrum extends past
``2 - lam`` or a gain exceeds one, and are counted and persisted as
counterexamples rather than asserted away.

Every check takes edge-sum energies and filters by Horner's rule on the edge
arrays (:func:`apply_filter`), as a run does; eigenvalues supply the factors.
L3.1 is L7.2's filter step with ``1 - x``.  T3.4 is a one-layer
:func:`run_network`, and C3.5 and P7.1 read a run, which carries its graph,
layers and records, so no check runs layers of its own or pairs a run with
layers it did not run.

The seeded random suites of :func:`run_suites` draw their own instances from
one generator per trial: graphs with at least one edge from the ring,
k-regular, path and Erdos-Renyi families (:func:`random_graph`), Gaussian
embeddings of 1 to 8 channels and chains of weight matrices.  Every
statement of trial ``t`` starts from the same generator state, so the
statements of one trial draw the same graph; :func:`run_suites` runs them
trial by trial and builds that graph once, so they share its cached degrees,
neighbours and spectrum.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .energy import as_embedding, dirichlet_energy_edge_sum
from .errors import ValidationError, check_real
from .graphs import MAX_TRIALS, Graph, check_work_size, generate
from .network import (Activation, LayerSpec, Trajectory, apply_activation, make_weights,
                      run_network, top_singular_value)
from .seeding import derive_seed
from .spectral import (
    PolynomialFilter,
    apply_filter,
    check_monotone_decreasing,
    filter_contraction,
)

STATEMENTS = ("L3.1", "L3.2", "L3.3", "T3.4", "C3.5", "L7.2", "P7.1")
SUITE_TOKENS = {s.replace(".", "").lower(): s for s in STATEMENTS}  # "l31" -> "L3.1"

TOLERANCE_REL = 1e-9
TOLERANCE_ABS = 1e-12
VACUOUS_LHS_TOL = 1e-12
DECAY_REL = 1e-6


def _holds(lhs: float, rhs: float, rel: float = TOLERANCE_REL) -> bool:
    return lhs <= rhs * (1.0 + rel) + TOLERANCE_ABS


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one inequality check.

    ``margin`` is computed from the report, ``rhs_paper - lhs``.  ``vacuous`` marks
    instances with zero input energy (they pass iff the left side is zero up
    to 1e-12 and are excluded from statistics).  ``asserted`` is False for
    purely informational checks (Tanh/Sigmoid on irregular graphs).
    """

    statement: str
    lhs: float
    rhs_paper: float
    rhs_safe: float | None
    holds_paper: bool
    holds_safe: bool | None
    vacuous: bool = False
    asserted: bool = True
    context: str = ""

    def __post_init__(self) -> None:
        if self.statement not in STATEMENTS:
            raise ValidationError(f"unknown statement id {self.statement!r}")

    @property
    def margin(self) -> float:
        """``rhs_paper - lhs``: how far the left side stays below the paper's bound."""
        return self.rhs_paper - self.lhs

    @property
    def gate_holds(self) -> bool:
        """The verdict a suite asserts: the safe bound when present."""
        if not self.asserted:
            return True
        if self.rhs_safe is not None:
            return bool(self.holds_safe)
        return self.holds_paper

    @property
    def paper_violation(self) -> bool:
        """Safe bound holds but the nominal one does not."""
        return (self.asserted and not self.vacuous and self.rhs_safe is not None
                and bool(self.holds_safe) and not self.holds_paper)


def _dual_report(statement: str, lhs: float, ex: float, factor_paper: float,
                 factor_safe: float | None = None, context: str = "", *,
                 rel: float = TOLERANCE_REL, asserted: bool = True) -> BoundReport:
    """Check ``lhs <= factor * ex`` against the paper and, when given, the safe factor.

    Zero input energy makes the report vacuous: it holds iff ``lhs`` is zero
    up to 1e-12.
    """
    rhs_paper = factor_paper * ex
    rhs_safe = None if factor_safe is None else factor_safe * ex
    if ex == 0.0:
        ok = lhs <= VACUOUS_LHS_TOL
        holds_paper, holds_safe = ok, None if rhs_safe is None else ok
    else:
        holds_paper = _holds(lhs, rhs_paper, rel)
        holds_safe = None if rhs_safe is None else _holds(lhs, rhs_safe, rel)
    return BoundReport(statement, lhs, rhs_paper, rhs_safe,
                       holds_paper=holds_paper, holds_safe=holds_safe,
                       vacuous=ex == 0.0, asserted=asserted, context=context)


def _filter_step(statement: str, g: Graph, x, f: PolynomialFilter, context: str) -> BoundReport:
    """``E(P(Ltil) X) <= P(lam)^2 E(X)`` for one filtered propagation step."""
    fc = filter_contraction(f, g)
    x = as_embedding(x, g.n)
    ex = dirichlet_energy_edge_sum(x, g)
    lhs = dirichlet_energy_edge_sum(apply_filter(f, g, x), g)
    return _dual_report(statement, lhs, ex, fc.paper, fc.safe, context)


def verify_lemma_3_1(g: Graph, x, *, context: str = "") -> BoundReport:
    """One propagation step contracts energy by the squared spectral gap."""
    return _filter_step("L3.1", g, x, PolynomialFilter.propagation(), context)


def verify_lemma_3_2(g: Graph, x, w, context: str = "") -> BoundReport:
    """Right-multiplying by W scales energy by at most the squared top singular value."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2:
        raise ValidationError(f"weight must be 2-D, got shape {w.shape}")
    x = as_embedding(x, g.n)
    if x.shape[1] != w.shape[0]:
        raise ValidationError(f"shape mismatch: X has {x.shape[1]} channels, W has {w.shape[0]} rows")
    ex = dirichlet_energy_edge_sum(x, g)
    lhs = dirichlet_energy_edge_sum(x @ w, g)
    top = top_singular_value(w)
    return _dual_report("L3.2", lhs, ex, top * top, context=context)


def _contracts_energy(act: Activation, g: Graph) -> bool:
    """ReLU, LeakyReLU, identity; Tanh and Sigmoid on regular graphs (degrees within 1e-12)."""
    return (act.kind in ("relu", "leaky_relu", "identity")
            or bool(np.ptp(g.augmented_degrees) <= 1e-12))


def verify_lemma_3_3(g: Graph, x, act: Activation, context: str = "") -> BoundReport:
    """Entrywise activations never increase energy.

    Asserted where :func:`_contracts_energy` holds; Tanh and Sigmoid on
    irregular graphs are informational.
    """
    x = as_embedding(x, g.n)
    return _activation_report(g, x, dirichlet_energy_edge_sum(x, g), act, context)


def _activation_report(g: Graph, x: np.ndarray, ex: float, act: Activation,
                       context: str) -> BoundReport:
    """L3.3 on an embedding ``x`` whose energy ``ex`` the caller has computed."""
    lhs = dirichlet_energy_edge_sum(apply_activation(x, act), g)
    return _dual_report("L3.3", lhs, ex, 1.0, context=context,
                        asserted=_contracts_energy(act, g))


def verify_theorem_3_4(g: Graph, x, layer: LayerSpec, *, context: str = "") -> BoundReport:
    """Full layer with the propagation filter ``1 - x`` and the paper's
    activation placement: a one-layer run.

    The bound is the run's record: the spectral factor times the product
    ``s`` of the top singular values of the realized weight matrices in the
    nominal column, and times ``s^2`` in the safe one.  The
    activation must never raise energy on ``g``: ReLU, LeakyReLU or identity,
    or Tanh or Sigmoid on a regular graph.
    """
    if layer.filter.coefficients != (1.0, -1.0):
        raise ValidationError(
            f"statement T3.4 requires the filter (1, -1), got {layer.filter.coefficients}"
        )
    if not _contracts_energy(layer.activation, g):
        raise ValidationError(
            f"statement T3.4 requires ReLU/LeakyReLU (or identity; Tanh/Sigmoid on a "
            f"regular graph), got {layer.activation.kind}"
        )
    before, after = run_network(x, (layer,), g).records
    return _dual_report("T3.4", after.energy, before.energy, after.bound_paper,
                        after.bound_safe, context)


def verify_lemma_7_2(g: Graph, x, f: PolynomialFilter, *, context: str = "") -> BoundReport:
    """One polynomially filtered propagation step: E(P(Ltil) X) <= P(lam)^2 E(X)."""
    return _filter_step("L7.2", g, x, f, context)


def fit_log_energy_slope(energies) -> float:
    """Least-squares slope of ``log E`` over layers with ``E > 1e-300``.

    Returns NaN when fewer than two layers qualify.
    """
    es = np.asarray(energies, dtype=float)
    idx = np.nonzero(es > 1e-300)[0]
    if idx.size < 2:
        return float("nan")
    return float(np.polyfit(idx, np.log(es[idx]), 1)[0])


def verify_corollary_3_5(traj: Trajectory, context: str = "") -> BoundReport:
    """Geometric decay of a deep run whose per-layer bounds stay below one.

    ``rho`` is the maximum recorded per-layer bound; the check is
    ``E(X_L) <= rho^L E(X_0) (1 + 1e-6)``.  The fitted log-energy slope is
    reported in the context alongside its limit ``log rho + 1e-6`` but does
    not gate the verdict: on near-degenerate spectra (all nonzero
    eigenvalues at 1, so rho underflows) the realized slope bottoms out at
    the floating-point noise floor long before ``log rho``.
    Raises a precondition error when the safe ``rho`` is not below one.
    """
    bounds_safe = [rec.bound_safe for rec in traj.records[1:]]
    bounds_paper = [rec.bound_paper for rec in traj.records[1:]]
    if not all(np.isfinite(bounds_safe)):
        raise ValidationError("trajectory has non-finite per-layer bounds")
    rho_safe = max(bounds_safe)
    rho_paper = max(bounds_paper)
    if rho_safe >= 1.0:
        raise ValidationError(
            f"decay requires a uniform per-layer bound below 1, got rho={rho_safe:.6g}"
        )
    depth = traj.depth
    e0 = traj.records[0].energy
    lhs = traj.records[-1].energy
    ctx = f"{context} rho_safe={rho_safe:.17g} rho_paper={rho_paper:.17g} depth={depth}"
    if e0 != 0.0:
        slope = fit_log_energy_slope(traj.energies())
        slope_limit = np.log(rho_safe) + DECAY_REL
        slope_ok = bool(slope <= slope_limit) if np.isfinite(slope) else True
        ctx += (f" slope={slope:.17g} slope_limit={slope_limit:.17g}"
                f" slope_ok={str(slope_ok).lower()}")
    return _dual_report("C3.5", lhs, e0, rho_paper**depth, rho_safe**depth, ctx.strip(),
                        rel=DECAY_REL)


@dataclass(frozen=True)
class Prop71Verdict:
    """Outcome of the monotone-filter decay check.

    The preconditions are monotone decreasing filters, activations that never
    raise energy, and ``s^2 * P(lam_i)^2 < 1 - eps`` on every nonzero
    eigenvalue; a failed precondition is a verdict, not an error, with
    ``reason``, an optional ``witness``, no rows and ``decay`` None.  When
    they hold, ``per_layer`` carries one report per layer and ``decay`` the
    global ``E(X_l) <= (1 - eps)^l E(X_0)`` check.
    """

    reason: str
    witness: float | None
    per_layer: tuple[BoundReport, ...]
    decay: BoundReport | None

    @property
    def ok(self) -> bool:
        """Whether the preconditions hold, which is when there is a decay check."""
        return self.decay is not None

    @property
    def holds(self) -> bool:
        return self.ok and self.decay.gate_holds and all(r.gate_holds for r in self.per_layer)


def _decay_ratio(energy: float, threshold: float, layer: int) -> float:
    """``energy / threshold**layer``, in log space once the power underflows."""
    power = threshold**layer
    if power >= sys.float_info.min:
        return energy / power
    if energy == 0.0:
        return 0.0
    log_ratio = math.log(energy) - layer * math.log(threshold)
    return math.exp(log_ratio) if log_ratio < math.log(sys.float_info.max) else math.inf


def _unmet(reason: str, witness: float | None = None) -> Prop71Verdict:
    return Prop71Verdict(reason=reason, witness=witness, per_layer=(), decay=None)


def verify_prop_7_1(traj: Trajectory, epsilon: float, context: str = "") -> Prop71Verdict:
    """Check geometric decay at rate ``1 - eps`` of the run ``traj``.

    Filters and activations come from ``traj.layers``, the spectral range
    from ``traj.graph``, and the margin and per-layer rows from its records.
    """
    epsilon = check_real("epsilon", epsilon, 0, 1, open_lo=True, open_hi=True)
    g = traj.graph
    lam_max = float(g.extremes[-1])  # raises on a degenerate spectrum
    for l, layer in enumerate(traj.layers, start=1):
        witness = check_monotone_decreasing(layer.filter, 0.0, lam_max)
        if witness is not None:
            return _unmet(f"layer {l}: filter {layer.filter.coefficients} is not monotone "
                          f"decreasing on [0, {lam_max:.6g}]", witness)
        if not _contracts_energy(layer.activation, g):
            return _unmet(f"layer {l}: activation {layer.activation.kind} can raise the "
                          f"energy on an irregular graph")
    threshold = 1.0 - epsilon
    for l, rec in enumerate(traj.records[1:], start=1):
        if rec.bound_safe >= threshold:
            return _unmet(f"layer {l}: s^2 * P(lambda_i)^2 reaches {rec.bound_safe:.6g}, "
                          f"not below 1 - eps = {threshold:.6g}")
    per_layer = tuple(
        _dual_report("P7.1", after.energy, before.energy, after.bound_paper, after.bound_safe,
                     f"{context} layer={l}".strip())
        for l, (before, after) in enumerate(zip(traj.records, traj.records[1:]), start=1))
    e0, later = traj.records[0].energy, [rec.energy for rec in traj.records[1:]]
    # the worst ratio E_l / (1 - eps)^l; a zero input passes iff every later
    # energy, not the scaled worst ratio, is <= 1e-12
    lhs = (max(later) if e0 == 0.0
           else max(_decay_ratio(e, threshold, l) for l, e in enumerate(later, start=1)))
    ctx = f"{context} eps={epsilon:.17g} depth={traj.depth}".strip()
    decay = _dual_report("P7.1", lhs, e0, 1.0, context=ctx, rel=DECAY_REL)
    return Prop71Verdict(reason="preconditions satisfied", witness=None,
                         per_layer=per_layer, decay=decay)


# --------------------------------------------------------------------------
# seeded random suites


@dataclass(frozen=True)
class SuiteResult:
    """All reports of one statement suite plus gate bookkeeping."""

    statement: str
    trials: int
    seed: int
    reports: tuple[BoundReport, ...]

    @property
    def asserted(self) -> tuple[BoundReport, ...]:
        return tuple(r for r in self.reports if r.asserted and not r.vacuous)

    @property
    def n_vacuous(self) -> int:
        return sum(1 for r in self.reports if r.vacuous)

    @property
    def n_informational(self) -> int:
        return sum(1 for r in self.reports if not r.asserted)

    @property
    def n_pass(self) -> int:
        return sum(1 for r in self.asserted if r.gate_holds)

    @property
    def n_fail(self) -> int:
        return sum(1 for r in self.asserted if not r.gate_holds)

    @property
    def ok(self) -> bool:
        vacuous_ok = all(r.gate_holds for r in self.reports if r.vacuous)
        return self.n_fail == 0 and vacuous_ok

    @property
    def paper_violations(self) -> tuple[BoundReport, ...]:
        return tuple(r for r in self.reports if r.paper_violation)

    @property
    def worst_margin(self) -> float:
        margins = [r.margin for r in self.asserted]
        return min(margins) if margins else float("nan")

    def summary_lines(self) -> list[str]:
        violations = self.paper_violations
        lines = [
            f"statement: {self.statement}",
            f"trials: {self.trials}",
            f"seed: {self.seed}",
            f"reports: {len(self.reports)}",
            f"passes: {self.n_pass}",
            f"failures: {self.n_fail}",
            f"vacuous: {self.n_vacuous}",
            f"informational: {self.n_informational}",
            f"worst_margin: {self.worst_margin:.17g}",
            f"paper_bound_violations: {len(violations)}",
        ]
        for r in violations:
            lines.append(f"counterexample: {r.context} lhs={r.lhs:.17g} rhs_paper={r.rhs_paper:.17g}")
        return lines


_KINDS = ("erdos_renyi", "ring", "k_regular", "path")


def _generated(graphs: dict, kind: str, n: int, seed: int = 0, **params) -> Graph:
    """``generate(kind, n, seed, **params)``, built once per key of ``graphs``."""
    key = (kind, n, seed, *params.values())
    g = graphs.get(key)
    if g is None:
        g = graphs[key] = generate(kind, n, seed, **params)
    return g


def random_graph(rng: np.random.Generator, graphs: dict, *,
                 n_hi: int = 60) -> tuple[Graph, str]:
    """Draw one graph of 5 to ``n_hi`` nodes with at least one edge, plus a
    short description of how it was built.

    ``graphs`` maps :func:`~gcn_energy.graphs.generate`'s arguments
    ``(kind, n, seed, *params)`` to the graph they built, and gains the graphs
    this draw builds: a draw whose arguments are already there takes that
    graph, cached spectrum and all, instead of building it again.  The draw
    itself, and so the generator's stream, does not depend on ``graphs``.
    """
    kind = _KINDS[int(rng.integers(len(_KINDS)))]
    n = int(rng.integers(5, n_hi + 1))
    if kind == "erdos_renyi":
        p = float(rng.uniform(0.05, 0.5))
        for _ in range(200):
            seed = int(rng.integers(2**63))
            g = _generated(graphs, "erdos_renyi", n, seed, p=p)
            if g.edge_count > 0:
                return g, f"er(n={n},p={p:.3f},seed={seed})"
        raise ValidationError(f"no edges after 200 draws for erdos_renyi({n}, {p})")
    if kind == "ring":
        return _generated(graphs, "ring", n), f"ring(n={n})"
    if kind == "k_regular":
        k_max = min(4, (n - 1) // 2)
        k = 2 * int(rng.integers(1, k_max + 1))
        return _generated(graphs, "k_regular", n, k=k), f"kregular(n={n},k={k})"
    return _generated(graphs, "path", n), f"path(n={n})"


def random_embedding(rng: np.random.Generator, n: int) -> np.ndarray:
    channels = int(rng.integers(1, 9))  # 1 to 8
    return rng.standard_normal((n, channels))


def random_weight_chain(rng: np.random.Generator,
                        c_in: int) -> tuple[tuple[np.ndarray, ...], str]:
    """Rectangular chain of 1 to 3 weight matrices, widths 1 to 8, with
    per-matrix top singular values drawn from [0.2, 2.0], as in the L3.2 suite.
    """
    depth = int(rng.integers(1, 4))
    dims = [c_in] + [int(rng.integers(1, 9)) for _ in range(depth)]
    weights = []
    targets = []
    for h in range(depth):
        target = float(rng.uniform(0.2, 2.0))
        targets.append(target)
        weights.append(make_weights(dims[h], dims[h + 1], target, seed=int(rng.integers(2**63))))
    desc = "x".join(str(d) for d in dims) + " targets=" + ",".join(f"{t:.3f}" for t in targets)
    return tuple(weights), desc


def _suite_l31(rng: np.random.Generator, graphs: dict, prefix: str) -> list[BoundReport]:
    g, desc = random_graph(rng, graphs)
    x = random_embedding(rng, g.n)
    ctx = f"{prefix} graph={desc} C={x.shape[1]}"
    return [verify_lemma_3_1(g, x, context=ctx)]


def _suite_l32(rng: np.random.Generator, graphs: dict, prefix: str) -> list[BoundReport]:
    g, desc = random_graph(rng, graphs)
    x = random_embedding(rng, g.n)
    cols = int(rng.integers(1, 9))
    target = float(rng.uniform(0.2, 2.0))
    w = make_weights(x.shape[1], cols, target, seed=int(rng.integers(2**63)))
    ctx = f"{prefix} graph={desc} C={x.shape[1]} W={x.shape[1]}x{cols} target={target:.3f}"
    return [verify_lemma_3_2(g, x, w, context=ctx)]


_L33_SLOPES = (0.01, 0.2, 0.5)


def _suite_l33(rng: np.random.Generator, graphs: dict, prefix: str) -> list[BoundReport]:
    g, desc = random_graph(rng, graphs)
    x = random_embedding(rng, g.n)
    ctx = f"{prefix} graph={desc} C={x.shape[1]}"
    acts = [Activation("relu")] + [Activation("leaky_relu", a) for a in _L33_SLOPES]
    acts += [Activation("tanh"), Activation("sigmoid")]
    ex = dirichlet_energy_edge_sum(x, g)  # one input energy for all six activations
    return [_activation_report(g, x, ex, act, f"{ctx} act={act.kind}"
                               + (f"({act.slope})" if act.slope is not None else ""))
            for act in acts]


def _random_energy_activation(rng: np.random.Generator) -> Activation:
    if rng.random() < 0.5:
        return Activation("relu")
    return Activation("leaky_relu", float(rng.uniform(0.01, 0.99)))


def _suite_t34(rng: np.random.Generator, graphs: dict, prefix: str) -> list[BoundReport]:
    g, desc = random_graph(rng, graphs)
    x = random_embedding(rng, g.n)
    weights, wdesc = random_weight_chain(rng, x.shape[1])
    act = _random_energy_activation(rng)
    layer = LayerSpec(filter=PolynomialFilter.propagation(), weights=weights, activation=act)
    ctx = f"{prefix} graph={desc} weights={wdesc} act={act.kind}"
    return [verify_theorem_3_4(g, x, layer, context=ctx)]


def _suite_c35(rng: np.random.Generator, graphs: dict, prefix: str) -> list[BoundReport]:
    g, desc = random_graph(rng, graphs, n_hi=40)
    channels = int(rng.integers(1, 7))
    depth = int(rng.integers(3, 11))
    target = float(rng.uniform(0.3, 1.0))
    act = _random_energy_activation(rng)
    propagation = PolynomialFilter.propagation()
    layers = [
        LayerSpec(
            filter=propagation,
            weights=(make_weights(channels, channels, target, seed=int(rng.integers(2**63))),),
            activation=act,
        )
        for _ in range(depth)
    ]
    x0 = rng.standard_normal((g.n, channels))
    traj = run_network(x0, layers, g)
    ctx = f"{prefix} graph={desc} C={channels} L={depth} target={target:.3f} act={act.kind}"
    return [verify_corollary_3_5(traj, context=ctx)]


def _random_filter(rng: np.random.Generator) -> PolynomialFilter:
    """Mostly monotone nonnegative decreasing filters, sometimes arbitrary ones."""
    if rng.random() < 0.8:
        a, b, c = rng.uniform(0.0, 0.5, size=3)
        # a + b(2 - x) + c(2 - x)^2 expanded in the standard basis
        coeffs = (a + 2.0 * b + 4.0 * c, -(b + 4.0 * c), c)
        return PolynomialFilter(coeffs)
    degree = int(rng.integers(0, 5))
    return PolynomialFilter(rng.uniform(-1.0, 1.0, size=degree + 1))


def _suite_l72(rng: np.random.Generator, graphs: dict, prefix: str) -> list[BoundReport]:
    g, desc = random_graph(rng, graphs)
    x = random_embedding(rng, g.n)
    f = _random_filter(rng)
    coeffs = ",".join(f"{c:.6g}" for c in f.coefficients)
    ctx = f"{prefix} graph={desc} C={x.shape[1]} filter=[{coeffs}]"
    return [verify_lemma_7_2(g, x, f, context=ctx)]


def _suite_p71(rng: np.random.Generator, graphs: dict, prefix: str) -> list[BoundReport]:
    g, desc = random_graph(rng, graphs, n_hi=40)
    channels = int(rng.integers(1, 7))
    depth = int(rng.integers(2, 7))
    layers = []
    for _ in range(depth):
        t = float(rng.uniform(0.2, 0.95))
        target = float(rng.uniform(0.3, 1.0))
        layers.append(LayerSpec(
            filter=PolynomialFilter((t, -t / 2.0)),
            weights=(make_weights(channels, channels, target, seed=int(rng.integers(2**63))),),
            activation=Activation("relu"),
        ))
    x0 = rng.standard_normal((g.n, channels))
    traj = run_network(x0, layers, g)
    worst = max(rec.bound_safe for rec in traj.records[1:])
    epsilon = min(0.99, max(1e-6, (1.0 - worst) / 2.0))
    ctx = f"{prefix} graph={desc} C={channels} L={depth}"
    verdict = verify_prop_7_1(traj, epsilon, context=ctx)
    if not verdict.ok:
        # constructed instances must satisfy the preconditions
        raise ValidationError(f"suite generated an invalid P7.1 instance: {verdict.reason}")
    return list(verdict.per_layer) + [verdict.decay]


_SUITE_BUILDERS = dict(zip(STATEMENTS, (_suite_l31, _suite_l32, _suite_l33, _suite_t34,
                                          _suite_c35, _suite_l72, _suite_p71)))


def run_suites(statements, trials: int, seed: int) -> tuple[SuiteResult, ...]:
    """Run ``trials`` seeded random instances of each statement, one result
    per statement in the order given.

    Trial ``t`` of every statement draws from the generator
    ``default_rng(derive_seed(seed, t))`` at its start state, so identical
    arguments reproduce identical reports bit for bit, and a statement's
    reports do not depend on which others run with it.  The loop runs trial by
    trial: the trial's statements share one ``graphs`` dict
    (:func:`random_graph`), so each graph they draw is built, and its
    spectrum solved, once per trial.  Every report is held until the last
    trial ends.
    """
    statements = tuple(statements)
    for statement in statements:
        if statement not in _SUITE_BUILDERS:
            raise ValidationError(f"unknown statement {statement!r}; known: {STATEMENTS}")
    check_work_size("trials", trials, MAX_TRIALS, "trials")
    builders = [_SUITE_BUILDERS[s] for s in statements]
    reports: list[list[BoundReport]] = [[] for _ in statements]
    for trial in range(trials):
        rng = np.random.default_rng(derive_seed(seed, trial))
        start = rng.bit_generator.state
        graphs = {}
        prefix = f"seed={seed} trial={trial}"
        for builder, suite_reports in zip(builders, reports):
            rng.bit_generator.state = start
            suite_reports += builder(rng, graphs, prefix)
    return tuple(SuiteResult(statement=s, trials=trials, seed=seed, reports=tuple(r))
                 for s, r in zip(statements, reports))


def run_suite(statement: str, trials: int, seed: int) -> SuiteResult:
    """Run ``trials`` seeded random instances of one statement:
    ``run_suites((statement,), trials, seed)[0]``."""
    return run_suites((statement,), trials, seed)[0]
