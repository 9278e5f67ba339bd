"""Run one workload in this process and print its raw results as JSON.

``run.py`` starts this script once per workload with the BLAS thread count
pinned in the environment, so that every workload has its own process and
its own peak memory.  The process imports the command line once, runs one
warm-up invocation that is not timed, then repeats ``gcn_energy.cli.main``
until ``--seconds`` is used up.  With ``--trace 1`` it alternates untraced
and traced invocations instead, so the tracing overhead is measured in the
same process.  Outputs of every invocation must be byte-identical; the first is
checked against the oracle after the timed region.

    python3 perfbench/worker.py --workload run-deep --seed 1 --seconds 30 --trace 0 \\
        --workdir .perfbench/work
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import oracle
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_cli():
    """Import ``gcn_energy.cli`` from this checkout's ``src``, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gcn_energy.cli as cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"gcn_energy imported from {cli.__file__}, not from {SRC}")
    return cli


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def invoke(cli, inv) -> tuple[float, int, str, str, str | None]:
    """One CLI call: (seconds, exit code, digest of all output, stdout, traceback)."""
    for path in inv.outputs:
        path.unlink(missing_ok=True)
    out = io.StringIO()
    error = None
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(inv.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code, error = -1, traceback.format_exc()
    seconds = time.perf_counter() - start
    digest = hashlib.sha256(f"{code}\0{out.getvalue()}".encode())
    for path in inv.outputs:
        digest.update(b"\0" + (path.read_bytes() if path.exists() else b"<missing>"))
    return seconds, code, digest.hexdigest(), out.getvalue(), error


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 spans_path: Path | None = None) -> dict:
    cli = import_cli()
    inv = workloads.prepare(name, seed, workdir)
    tracer = tracing.Tracer()
    errors: list[str] = []
    digests: list[str] = []
    codes: list[int] = []
    untraced: list[float] = []
    traced: list[float] = []
    traced_ids: list[int] = []
    first: dict = {}

    def once(with_trace: bool) -> float:
        if with_trace:
            traced_ids.append(len(digests))
            tracer.begin(len(digests))
            tracer.install()
        try:
            sec, code, digest, stdout, error = invoke(cli, inv)
        finally:
            tracer.uninstall()
        if not digests:
            first["files"] = {p.name: p.read_text() for p in inv.outputs if p.exists()}
            first["stdout"] = stdout
        digests.append(digest)
        codes.append(code)
        if code != 0:
            errors.append(f"invocation {len(digests) - 1} exited {code}"
                          + (f":\n{error}" if error else ""))
        return sec

    once(False)  # warm-up: fills caches and lazy imports, not timed
    t0 = time.perf_counter()
    while True:
        with_trace = trace and len(traced) < len(untraced)
        (traced if with_trace else untraced).append(once(with_trace))
        samples = untraced + traced
        enough = not trace or (untraced and traced)
        if enough and time.perf_counter() - t0 + statistics.median(samples) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check_start = time.perf_counter()
    try:
        problems = oracle.CHECKS[name](seed, first["files"], first["stdout"])
    except Exception:
        problems = ["oracle check raised:\n" + traceback.format_exc()]
    check_s = time.perf_counter() - check_start
    # an invocation fails when it exits nonzero, raises, or its output differs
    # from the first one's; all fail when the first one's output is wrong
    failed = len(digests) if problems else sum(
        1 for d, c in zip(digests, codes) if c != 0 or d != digests[0])

    result = {
        "workload": name, "seed": seed, "invocations": len(digests), "failed": failed,
        "wall_s": untraced, "traced_wall_s": traced,
        "peak_rss_mb": peak_rss_mb,
        "problems": problems[:20], "n_problems": len(problems), "errors": errors[:5],
        "identical": all(d == digests[0] for d in digests), "check_s": check_s,
        "env": environment(),
    }
    if trace:
        result["layers"] = tracing.layer_metrics(tracer.spans, traced_ids)
        result["spans_per_invocation"] = len(tracer.spans) / max(1, len(traced))
        if spans_path is not None:
            tracer.write(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.workdir, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
