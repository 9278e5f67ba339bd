"""gcn-energy benchmark: time the public command line on generated inputs.

    python3 perfbench/run.py --workload run-deep|sweep-perturb|verify-suites
                             --seconds N [--seed N] [--trace 0|1]

Run from the root of a checkout that holds ``src/gcn_energy``.  One run
measures one workload.  With ``--trace 0`` it first times fresh interpreters
importing the CLI, while nothing else of the benchmark runs, which gives
``setup_s``.  It then starts the workload's own process (``worker.py``) with
the BLAS thread count pinned to the workload's fixed value
(``workloads.py``), capped at the core count.  The process discards one
warm-up invocation, repeats the command for ``--seconds`` and checks every
output against an independent oracle outside the timed region.  The
end-to-end metrics are:

    wall_s       seconds of the fastest CLI invocation in a warm process
    setup_s      median time of a fresh interpreter to import gcn_energy.cli
    peak_rss_mb  peak resident memory of the workload's process
    failed_frac  invocations that exit nonzero, raise or fail the output
                 check, over invocations attempted (also in the result's
                 "attempted" and "failed")

``wall_s`` is the fastest sample of the run, not the median.  On a shared
host each core alternates between a fast state and one up to 1.8 times
slower, in stretches of seconds.  The median then flips between the two
states from run to run, while interference only ever adds time, so the
fastest sample is the estimate a code change moves.  The median and the
sample count are printed alongside.

With ``--trace 1`` the process alternates untraced and traced invocations
and the run reports per-layer calls and seconds per invocation, self times,
and the tracing overhead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 when every output is correct, 1 when a check fails or the
workload cannot finish, and 2 when the checkout has no program to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
CORES = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0        # a whole run ends well inside 180 s
SETUP_SAMPLES = 15         # fresh interpreters per run, after one discarded cold start
IMPORT_PROBE = ("import time; t = time.perf_counter(); import gcn_energy.cli; "
                "print(repr(time.perf_counter() - t))")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def pinned_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_seconds(env: dict[str, str]) -> float:
    """Time for a fresh interpreter to import the CLI from this checkout."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"importing gcn_energy.cli failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def setup_samples(env: dict[str, str]) -> list[float]:
    """Import times of fresh interpreters, taken one after another before the
    workload's process starts, so no BLAS thread of the benchmark competes."""
    import_seconds(env)  # cold start: compiles bytecode and fills the page cache
    return [import_seconds(env) for _ in range(SETUP_SAMPLES)]


def run_worker(name: str, args, env: dict[str, str], deadline: float) -> dict:
    workdir = OUT_DIR / f"work-{os.getpid()}-{name}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if args.trace:
        cmd += ["--spans", str(OUT_DIR / f"spans-{name}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(result: dict) -> dict[str, float]:
    return {"wall_s": min(result["wall_s"]),
            "setup_s": statistics.median(result["setup_s"]),
            "peak_rss_mb": result["peak_rss_mb"]}


def per_layer(result: dict) -> dict[str, float]:
    metrics = dict(result["layers"])
    metrics["trace.overhead_frac"] = min(result["traced_wall_s"]) / min(result["wall_s"]) - 1.0
    metrics["trace.spans"] = result["spans_per_invocation"]
    return metrics


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith(".calls") or metric == "trace.spans":
        return "count"
    if metric.endswith(".per_graph"):
        return "calls/graph"
    if metric == "trace.overhead_frac":
        return "ratio"
    return "s"


def report(name: str, seed: int, result: dict, trace: bool) -> None:
    w = workloads.WORKLOADS[name]
    walls = result["wall_s"]
    print(f"workload {name} (seed {seed}, BLAS threads {result['env']['blas_threads']}): "
          f"{w.summary}")
    print(f"  why: {w.why}; expected to expose {w.exposes}")
    print(f"  {'wall_s':<12} {min(walls):.4f} s  fastest of {len(walls)} untraced invocations "
          f"(median {statistics.median(walls):.4f}, max {max(walls):.4f}), 1 warm-up discarded")
    if not trace:
        setup = result["setup_s"]
        print(f"  {'setup_s':<12} {statistics.median(setup):.4f} s  median of {len(setup)} "
              f"fresh interpreters importing gcn_energy.cli, 1 cold start discarded "
              f"(min {min(setup):.4f}, max {max(setup):.4f})")
        print(f"  {'peak_rss_mb':<12} {result['peak_rss_mb']:.1f} MB")
    else:
        traced = result["traced_wall_s"]
        print(f"  {'traced wall':<12} {min(traced):.4f} s  fastest of {len(traced)} traced "
              f"invocations; tracing overhead {result['metrics']['trace.overhead_frac']:+.2%}")
    n, bad = result["invocations"], result["failed"]
    print(f"  {'failed_frac':<12} {bad / n:g}  ({bad} of {n} invocations, warm-up included)")
    verdict = "ok" if not result["n_problems"] and not bad else "FAILED"
    print(f"  output check: {verdict}, byte-identical repeats: "
          f"{'yes' if result['identical'] else 'NO'}, oracle {result['check_s']:.2f} s")
    for problem in result["problems"] + result["errors"]:
        print(f"    {problem}")


def layer_table(name: str, result: dict) -> None:
    """The traced per-layer numbers in the row shape of the ROADMAP Baseline."""
    m = result["metrics"]
    rows = [(layer, f"{m[layer + '.calls']:g} calls, {m[layer + '.s']:.4g} s")
            for layer in tracing.COUNTED]
    rows += [(f"{layer} per distinct graph", f"{m[layer + '.per_graph']:.3g}")
             for layer in tracing.PER_GRAPH]
    rows += [(layer, f"{m[layer + '.self_s']:.4g} s self") for layer in tracing.SELF_TIMED]
    rows += [("untraced wall (fastest)", f"{min(result['wall_s']):.4g} s"),
             ("traced wall (fastest)", f"{min(result['traced_wall_s']):.4g} s"),
             ("tracing overhead", f"{m['trace.overhead_frac']:+.2%}"),
             ("spans per invocation", f"{m['trace.spans']:g}")]
    print(f"| what | {name} |")
    print(f"| ---- | {'-' * len(name)} |")
    for label, cell in rows:
        print(f"| {label} | {cell} |")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gcn-energy benchmark")
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gcn_energy" / "cli.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'gcn_energy'} is missing",
              file=sys.stderr)
        return 2
    # turn a termination request into an exception, so the running child is
    # killed and waited for before this process exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + RUN_LIMIT_S
    name = args.workload
    env = pinned_env(min(workloads.WORKLOADS[name].blas_threads, CORES))
    OUT_DIR.mkdir(exist_ok=True)
    try:
        setup = [] if args.trace else setup_samples(env)
        result = run_worker(name, args, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: workload {name}: {exc}", file=sys.stderr)
        return 1
    result["setup_s"] = setup
    result["metrics"] = per_layer(result) if args.trace else end_to_end(result)
    report(name, args.seed, result, bool(args.trace))
    if args.trace:
        layer_table(name, result)
    print("environment: " + json.dumps(dict(result["env"], default_seed=workloads.DEFAULT_SEED,
                                            seed=args.seed, seconds=args.seconds)))

    correct = result["failed"] == 0 and not result["n_problems"]
    metrics = {key: {"value": value, "unit": unit_of(key)}
               for key, value in result["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": result["invocations"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
