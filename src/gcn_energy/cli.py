"""Command-line front end.

Subcommands: ``spectrum``, ``energy``, ``run``, ``verify``, ``sweep``.
Exit codes: 0 on success (verdicts are data, not failures, except that
``verify`` exits 3 when an asserted safe bound fails), 2 on input or
validation errors, 3 on numeric errors.  Every output file starts with a
comment header carrying the tool version, the hash of the command's config
document and the seed; identical invocations produce byte-identical files.

Every CSV table is written by :func:`_table`, each cell by the rule of
:func:`_fmt`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    SUITE_TOKENS,
    fit_log_energy_slope,
    run_suite,
    verify_prop_7_1,
)
from .config import (
    config_hash,
    load_run_config,
    load_sweep_config,
    resolve_graph_source,
)
from .energy import dirichlet_energy_edge_sum, dirichlet_energy_trace, rayleigh_quotient
from .errors import DegenerateSpectrumError, NumericError, ValidationError
from .graphs import MAX_CHANNELS, MAX_TRIALS, check_work_size
from .network import run_network
from .seeding import check_seed
from .spectral import contraction_factors
from .sweeps import duality_report, energy_increase_fraction, run_sweep

RANGE_LO = -1e-10
RANGE_HI = 2.0 - 1e-12
SWEEP_CSV_HEADER = ("trial,seed,op,param,edges_before,edges_after,"
                    "lambda_min_before,lambda_min_after,"
                    "lambda_bar_safe_before,lambda_bar_safe_after,"
                    "energy_before,energy_after")


def _fmt(x) -> str:
    """The one cell rule: None is empty, a bool is true or false, a float has
    17 significant digits (``nan`` and ``inf`` included), and anything else,
    integers and text, is ``str``."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _table(header: str, rows) -> str:
    """The one CSV writer: the header line, then one line of cells per row tuple."""
    lines = [header] + [",".join(map(_fmt, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _header(document: dict, seed) -> str:
    return (f"# gcn-energy {__version__}\n"
            f"# config-sha256: {config_hash(document)}\n"
            f"# seed: {seed}\n")


def _emit(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, newline="\n")


def _cmd_spectrum(args) -> int:
    g = resolve_graph_source(args.graph)
    spectrum = g.spectrum
    doc = {"command": "spectrum", "graph": args.graph, "n": g.n, "edges": g.edge_count}
    table = _table("index,eigenvalue", enumerate(spectrum))
    try:
        cf = contraction_factors(g)
        summary = (f"lambda_min_nonzero={_fmt(cf.lambda_min_nonzero)} "
                   f"lambda_bar_paper={_fmt(cf.paper)} "
                   f"lambda_bar_safe={_fmt(cf.safe)} "
                   f"kernel_dim={g.kernel_dim}")
    except DegenerateSpectrumError as exc:
        summary = f"degenerate spectrum: {exc}"
    _emit(args.out, _header(doc, "-") + table + f"# {summary}\n")
    lo, hi = float(spectrum[0]), float(spectrum[-1])
    if lo < RANGE_LO or hi > RANGE_HI:
        print(f"warning: eigenvalues [{_fmt(lo)}, {_fmt(hi)}] leave the expected "
              f"range [{_fmt(RANGE_LO)}, {_fmt(RANGE_HI)}]")
    print(f"graph: {args.graph} n={g.n} edges={g.edge_count}")
    print(summary)
    return 0


def _cmd_energy(args) -> int:
    if args.channels < 1:
        raise ValidationError(f"--channels must be a positive integer, got {args.channels}")
    check_work_size("--channels", args.channels, MAX_CHANNELS, "channels")
    check_seed("--seed", args.seed)
    g = resolve_graph_source(args.graph)
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal((g.n, args.channels))
    e_trace = dirichlet_energy_trace(x, g.laplacian)
    e_edge = dirichlet_energy_edge_sum(x, g)
    rq = rayleigh_quotient(x, g.laplacian)
    doc = {"command": "energy", "graph": args.graph,
           "channels": args.channels, "seed": args.seed}
    body = _table("n,edges,channels,seed,energy_trace,energy_edge_sum,rayleigh",
                  [(g.n, g.edge_count, args.channels, args.seed, e_trace, e_edge, rq)])
    _emit(args.out, _header(doc, args.seed) + body)
    print(f"dirichlet energy of a seeded Gaussian probe on {args.graph}: "
          f"trace={_fmt(e_trace)} edge_sum={_fmt(e_edge)} rayleigh={_fmt(rq)}")
    return 0


def _cmd_run(args) -> int:
    setup = load_run_config(args.config)
    traj = run_network(setup.x0, setup.layers, setup.graph, placement=setup.placement)
    body = _table("layer,energy,rayleigh,bound_paper,bound_safe,channels",
                  ((l, rec.energy, rec.rayleigh, rec.bound_paper, rec.bound_safe, rec.channels)
                   for l, rec in enumerate(traj.records)))
    _emit(args.out, _header(setup.document, setup.seed) + body)
    rho_safe = max(rec.bound_safe for rec in traj.records[1:])
    rho_paper = max(rec.bound_paper for rec in traj.records[1:])
    slope = fit_log_energy_slope(traj.energies())
    e0 = traj.records[0].energy
    el = traj.records[-1].energy
    print(f"run: {args.config} layers={traj.depth} placement={setup.placement}")
    print(f"contractive: s^2*lambda_bar_safe = {_fmt(rho_safe)} < 1: "
          f"{'yes' if rho_safe < 1.0 else 'no'} (paper factor {_fmt(rho_paper)}); "
          f"fitted log-energy slope = {_fmt(slope)}")
    print(f"energy: E(X_0)={_fmt(e0)} E(X_{traj.depth})={_fmt(el)} "
          f"ratio={_fmt(el / e0) if e0 > 0 else 'nan'}")
    if args.mode == "prop71":
        verdict = verify_prop_7_1(traj, setup.epsilon)
        if not verdict.ok:
            witness = "" if verdict.witness is None else f" witness x={_fmt(verdict.witness)}"
            print(f"prop71 verdict: preconditions FAILED: {verdict.reason}{witness}")
        else:
            print(f"prop71 verdict: preconditions ok (eps={_fmt(setup.epsilon)}); "
                  f"decay bound {'holds' if verdict.holds else 'FAILS'}")
    return 0


def _cmd_verify(args) -> int:
    check_work_size("--trials", args.trials, MAX_TRIALS, "trials")
    check_seed("--seed", args.seed)
    tokens = list(SUITE_TOKENS) if args.suite == "all" else [args.suite]
    doc = {"command": "verify", "suite": args.suite,
           "trials": args.trials, "seed": args.seed}
    header = _header(doc, args.seed)
    out_dir = None
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    all_ok = True
    summary_blocks = []
    for token in tokens:
        result = run_suite(SUITE_TOKENS[token], args.trials, args.seed)
        all_ok = all_ok and result.ok
        if out_dir is not None:
            table = _table(
                "statement,context,lhs,rhs_paper,rhs_safe,margin,"
                "holds_paper,holds_safe,vacuous,asserted",
                ((r.statement, '"' + r.context.replace('"', "'") + '"', r.lhs, r.rhs_paper,
                  r.rhs_safe, r.margin, r.holds_paper, r.holds_safe, r.vacuous, r.asserted)
                 for r in result.reports))
            (out_dir / f"{token}.csv").write_text(header + table, newline="\n")
        summary_blocks.append("\n".join([f"suite: {token}"] + result.summary_lines()))
    summary = header + "\n\n".join(summary_blocks) + "\n"
    if out_dir is not None:
        (out_dir / "summary.txt").write_text(summary, newline="\n")
    sys.stdout.write(summary)
    if not all_ok:
        print("verify: at least one asserted safe bound FAILED", file=sys.stderr)
        return 3
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_sweep_config(args.config)
    rows = run_sweep(cfg)
    doc = {
        "command": "sweep",
        "graph": cfg.source,
        "drop_ratios": list(cfg.drop_ratios),
        "boost_counts": list(cfg.boost_counts),
        "boost_factor": cfg.boost_factor,
        "trials": cfg.trials,
        "base_seed": cfg.base_seed,
        "probe": {"kind": cfg.probe.kind, "channels": cfg.probe.channels,
                  "seed": cfg.probe.seed},
    }
    meta = (f"# probe: {cfg.probe.kind} channels={cfg.probe.channels} seed={cfg.probe.seed}\n"
            f"# edge-selection: uniform without replacement (seeded)\n")
    table = _table(SWEEP_CSV_HEADER, (
        (r.trial, r.seed, r.op, r.param, r.edges_before, r.edges_after,
         r.lambda_min_before, r.lambda_min_after, r.lambda_bar_safe_before,
         r.lambda_bar_safe_after, r.energy_before, r.energy_after) for r in rows))
    _emit(args.out, _header(doc, cfg.base_seed) + meta + table)
    if cfg.drop_ratios and cfg.boost_counts:
        dual = _table("drop_ratio,boost_count,mean_lambda_gap,mean_energy_gap,trials_used",
                      ((e.drop_ratio, e.boost_count, e.mean_lambda_gap, e.mean_energy_gap,
                        e.trials_used) for e in duality_report(rows)))
        if args.out is not None:
            p = Path(args.out)
            dual_path = p.with_name(p.stem + ".duality" + (p.suffix or ".csv"))
            dual_path.write_text(_header(doc, cfg.base_seed) + dual, newline="\n")
            print(f"duality table written to {dual_path}")
        else:
            sys.stdout.write(dual)
    for op, present in (("drop", bool(cfg.drop_ratios)), ("boost", bool(cfg.boost_counts))):
        if not present:
            continue
        frac = energy_increase_fraction(rows, op)
        msg = f"fraction of {op} rows with increased probe energy: {_fmt(frac)}"
        if np.isnan(frac):
            msg = f"fraction of {op} rows with increased probe energy: n/a (no probe energies)"
        print(msg)
        if op == "drop" and not np.isnan(frac) and frac <= 0.5:
            print("warning: dropping edges increased the probe energy in at most "
                  "half of the rows")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcn-energy",
        description="Dirichlet-energy contraction analysis for deep GCNs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("spectrum", help="eigenvalues and contraction factors of a graph")
    ps.add_argument("--graph", required=True, help="edge-list path or gen:<kind>:<args>")
    ps.add_argument("--out", help="output CSV path (default: stdout)")
    ps.set_defaults(func=_cmd_spectrum)

    pe = sub.add_parser("energy", help="Dirichlet energy of a seeded Gaussian probe")
    pe.add_argument("--graph", required=True, help="edge-list path or gen:<kind>:<args>")
    pe.add_argument("--channels", type=int, default=4)
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--out", help="output CSV path (default: stdout)")
    pe.set_defaults(func=_cmd_energy)

    pr = sub.add_parser("run", help="simulate a deep GCN and record its energy trajectory")
    pr.add_argument("--config", required=True, help="run config JSON path")
    pr.add_argument("--mode", choices=("trajectory", "prop71"), default="trajectory",
                    help="prop71 additionally checks the monotone-filter decay bound")
    pr.add_argument("--out", help="trajectory CSV path (default: stdout)")
    pr.set_defaults(func=_cmd_run)

    pv = sub.add_parser("verify", help="run seeded random suites for the energy bounds")
    pv.add_argument("--suite", choices=tuple(SUITE_TOKENS) + ("all",), default="all")
    pv.add_argument("--trials", type=int, default=100)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out", help="output directory for per-suite CSVs and summary.txt")
    pv.set_defaults(func=_cmd_verify)

    pw = sub.add_parser("sweep", help="edge drop/boost perturbation sweep")
    pw.add_argument("--config", required=True, help="sweep config JSON path")
    pw.add_argument("--out", help="rows CSV path (default: stdout)")
    pw.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
