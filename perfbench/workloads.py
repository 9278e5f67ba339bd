"""The benchmark's workloads: what each one runs, why, and how its inputs
follow from the workload seed.

Every workload drives the public command line (``gcn_energy.cli.main``) with
inputs generated here from ``--seed``; the program only ever sees the
resulting ``gen:`` specs, config documents and flags.  The sizes are fixed so
that a later change is measured on the same work as its parent.

run-deep
    ``run`` on ``gen:er:2000:0.01:<s>``, 30 layers, C=16, filter ``[1, -1]``,
    relu, trajectory mode.  About three quarters of the time is
    ``spectral.eval_filter_matrix``, called once per layer from
    ``network.layer_forward``, and most of the rest is one full
    ``eigendecompose``.  ROADMAP item 4 (Horner forward pass, edge-sum
    energies) should show here.  The trajectory falls to the energy noise
    floor (E_30/E_0 around 1e-40), as real deep runs do, which is why the
    output check uses an absolute term scaled by ||X_l||_F^2.

sweep-perturb
    ``sweep`` on ``gen:er:1000:0.02:<s>``, drop ratios {0.1, 0.3, 0.5}, boost
    count {5}, 5 trials, fixed-field probe.  21 full eigensolves and 42 dense
    Laplacian builds, no filter work.  ROADMAP item 5 (extreme eigenvalues
    instead of a full ``eigh``) should show here; item 4 should not.

verify-suites
    ``verify --suite all --trials 200``: about 1,400 small instances
    (n <= 60) where no single function dominates.  Graph generation, tiny
    Laplacians and tiny ``eigh`` calls plus Python overhead in ``bounds``,
    ``sampling`` and ``network`` make up the time.  ROADMAP item 3 (one
    prepared graph context, array-backed ``Graph``) should show here, and a
    change that adds per-call set-up to the spectral layer (Lanczos for every
    eigensolve, say) would regress here while helping the other two.

The BLAS thread count is fixed per workload.  run-deep and sweep-perturb run
at 2 threads (sweep-perturb takes 6.0 s at 1 thread and 4.3 s at 2 on a
2-core machine).  verify-suites runs at 1: with 2 threads the second one
spin-waits through every tiny solve, so the run is about 10% slower, uses
twice the CPU, and slows down by an order of magnitude whenever anything else
uses the other core.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1

RUN_DEEP_N, RUN_DEEP_P = 2000, 0.01
RUN_DEEP_LAYERS, RUN_DEEP_CHANNELS = 30, 16
SWEEP_N, SWEEP_P = 1000, 0.02
SWEEP_DROP_RATIOS = (0.1, 0.3, 0.5)
SWEEP_BOOST_COUNTS = (5,)
SWEEP_BOOST_FACTOR = 10000.0
SWEEP_TRIALS = 5
SWEEP_PROBE_CHANNELS = 4
VERIFY_TRIALS = 200
VERIFY_SUITES = ("l31", "l32", "l33", "t34", "c35", "l72", "p71")   # in the CLI's order


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its argv and the files it writes."""

    argv: tuple[str, ...]
    outputs: tuple[Path, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    summary: str
    why: str
    exposes: str
    # fixed BLAS thread count of the workload's process (capped at the core count)
    blas_threads: int


WORKLOADS = {
    "run-deep": Workload(
        name="run-deep",
        summary=(f"run on gen:er:{RUN_DEEP_N}:{RUN_DEEP_P}:<s>, {RUN_DEEP_LAYERS} layers, "
                 f"C={RUN_DEEP_CHANNELS}, filter [1,-1], relu, trajectory mode"),
        why="one large eigensolve plus an O(n^3) filter matrix per layer",
        exposes="ROADMAP item 4 (forward pass without O(n^3) per layer)",
        blas_threads=2,
    ),
    "sweep-perturb": Workload(
        name="sweep-perturb",
        summary=(f"sweep on gen:er:{SWEEP_N}:{SWEEP_P}:<s>, drop {list(SWEEP_DROP_RATIOS)}, "
                 f"boost {list(SWEEP_BOOST_COUNTS)}, {SWEEP_TRIALS} trials, fixed-field probe"),
        why="a full eigensolve and two dense Laplacians per perturbed graph, no filter work",
        exposes="ROADMAP item 5 (two extreme eigenvalues instead of a full eigh)",
        blas_threads=2,
    ),
    "verify-suites": Workload(
        name="verify-suites",
        summary=f"verify --suite all --trials {VERIFY_TRIALS}",
        why="many tiny instances: per-call overhead in graphs, spectral, bounds and sampling",
        exposes="ROADMAP item 3 (one prepared graph context, array-backed Graph)",
        # n <= 60: a second OpenBLAS thread only spin-waits between tiny calls,
        # which makes the run slower and lets any load on the other core stall it
        blas_threads=1,
    ),
}


def program_seed(seed: int) -> int:
    """Map any benchmark seed to a seed every generator accepts (>= 0)."""
    return seed % 2**31


def run_deep_document(seed: int) -> dict:
    s = program_seed(seed)
    return {
        "graph": f"gen:er:{RUN_DEEP_N}:{RUN_DEEP_P}:{s}",
        "layers": RUN_DEEP_LAYERS,
        "channels": RUN_DEEP_CHANNELS,
        "filter": [1.0, -1.0],
        "weights": {"target_singular": 1.0},
        "activation": "relu",
        "activation_placement": "paper",
        "seed": s,
    }


def sweep_document(seed: int) -> dict:
    s = program_seed(seed)
    return {
        "graph": f"gen:er:{SWEEP_N}:{SWEEP_P}:{s}",
        "drop_ratios": list(SWEEP_DROP_RATIOS),
        "boost_counts": list(SWEEP_BOOST_COUNTS),
        "boost_factor": SWEEP_BOOST_FACTOR,
        "trials": SWEEP_TRIALS,
        "base_seed": s,
        "probe": {"kind": "fixed-field", "channels": SWEEP_PROBE_CHANNELS, "seed": s},
    }


def prepare(name: str, seed: int, workdir: Path) -> Invocation:
    """Write the workload's inputs under ``workdir`` and return its invocation."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "run-deep":
        doc = run_deep_document(seed)
        config = workdir / "run.json"
        config.write_text(json.dumps(doc))
        out = workdir / "trajectory.csv"
        return Invocation(("run", "--config", str(config), "--mode", "trajectory",
                           "--out", str(out)), (out,))
    if name == "sweep-perturb":
        doc = sweep_document(seed)
        config = workdir / "sweep.json"
        config.write_text(json.dumps(doc))
        out = workdir / "rows.csv"
        return Invocation(("sweep", "--config", str(config), "--out", str(out)),
                          (out, workdir / "rows.duality.csv"))
    if name == "verify-suites":
        out = workdir / "verify"
        files = tuple(out / f"{t}.csv" for t in VERIFY_SUITES) + (out / "summary.txt",)
        return Invocation(("verify", "--suite", "all", "--trials", str(VERIFY_TRIALS),
                           "--seed", str(program_seed(seed)), "--out", str(out)), files)
    raise ValueError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
