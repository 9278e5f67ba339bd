"""Independent numpy checks of the program's outputs.

Nothing here imports ``gcn_energy``.  The oracle regenerates each workload's
inputs from the documented seed streams (the ``gen:er`` draw order, the
splitmix64 seed derivation, the Gaussian probe and weight draws), builds the
dense augmented normalized Laplacian from edge arrays, propagates with
``X - L X``, computes energies in the edge-sum form and takes eigenvalues
from ``np.linalg.eigvalsh`` with the kernel fixed by the component count.
It then compares with the numbers the program wrote, within tolerances
stated per workload.  Each ``check_*`` function returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

import workloads as wl

REL = 1e-9
# run-deep: |E - E_o| <= ENERGY_REL * E_o + ENERGY_ABS * ||X_l||_F^2.  The
# absolute term covers energies at the noise floor, where the trace form of
# the program clamps to zero or keeps only round-off.
ENERGY_REL = 1e-9
ENERGY_ABS = 1e-12
STATEMENTS = {"l31": "L3.1", "l32": "L3.2", "l33": "L3.3", "t34": "T3.4",
              "c35": "C3.5", "l72": "L7.2", "p71": "P7.1"}
# reports per trial of each suite: exact, or (low, high) for P7.1 (2..6 layers + decay)
REPORTS_PER_TRIAL = {"l31": 1, "l32": 1, "l33": 6, "t34": 1, "c35": 1, "l72": 1, "p71": (3, 7)}
TOLERANCE_REL = 1e-9
TOLERANCE_ABS = 1e-12
DECAY_REL = 1e-6

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_seed(base: int, index: int) -> int:
    """The splitmix64-style child seed the program documents."""
    z = ((base & _MASK) ^ ((index * _GOLDEN) & _MASK)) & _MASK
    z = (z + _GOLDEN) & _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def er_edges(n: int, p: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Edges of ``gen:er:n:p:seed``: row ``u`` draws ``n - u - 1`` uniforms."""
    rng = np.random.default_rng(seed)
    us, vs = [], []
    for u in range(n):
        hits = np.nonzero(rng.random(n - u - 1) < p)[0]
        us.append(np.full(hits.size, u))
        vs.append(u + 1 + hits)
    return np.concatenate(us), np.concatenate(vs)


def augmented_degrees(n: int, u, v, w) -> np.ndarray:
    return 1.0 + np.bincount(u, w, n) + np.bincount(v, w, n)


def laplacian(n: int, u, v, w) -> np.ndarray:
    dtil = augmented_degrees(n, u, v, w)
    lap = np.zeros((n, n))
    off = -w / np.sqrt(dtil[u] * dtil[v])
    lap[u, v] = off
    lap[v, u] = off
    lap[np.arange(n), np.arange(n)] = 1.0 - 1.0 / dtil
    return lap


def edge_energy(x: np.ndarray, n: int, u, v, w) -> float:
    y = x / np.sqrt(augmented_degrees(n, u, v, w))[:, None]
    d = y[u] - y[v]
    return float(np.sum(w * np.sum(d * d, axis=1)))


def component_count(n: int, u, v) -> int:
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in zip(u.tolist(), v.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return sum(1 for a in range(n) if find(a) == a)


def spectral_summary(n: int, u, v, w) -> tuple[float, float, np.ndarray]:
    """(lambda_min_nonzero, lambda_bar_safe, nonzero eigenvalues)."""
    ev = np.linalg.eigvalsh(laplacian(n, u, v, w))
    nonzero = ev[component_count(n, u, v):]
    return float(nonzero[0]), float(np.max((1.0 - nonzero) ** 2)), nonzero


def config_hash(document: dict) -> str:
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _close(a: float, b: float, rel: float = REL) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel * abs(b)


def _split_header(text: str, n_comments: int) -> tuple[list[str], list[str]]:
    lines = text.splitlines()
    return lines[:n_comments], lines[n_comments:]


def _check_header(comments: list[str], document: dict | None, seed, problems: list[str],
                  where: str) -> None:
    if not comments or not comments[0].startswith("# gcn-energy "):
        problems.append(f"{where}: missing '# gcn-energy <version>' header")
    if document is not None and (len(comments) < 2
                                 or comments[1] != f"# config-sha256: {config_hash(document)}"):
        problems.append(f"{where}: config hash line does not match the input document")
    if len(comments) < 3 or comments[2] != f"# seed: {seed}":
        problems.append(f"{where}: seed line is not '# seed: {seed}'")


# --------------------------------------------------------------------------- run-deep


def gaussian_weights(rows: int, cols: int, target: float, seed: int) -> np.ndarray:
    """The program's weight draw: Gaussian rescaled to a top singular value."""
    rng = np.random.default_rng(seed)
    for _ in range(100):
        m = rng.standard_normal((rows, cols))
        top = float(np.linalg.svd(m, compute_uv=False)[0])
        if top > 1e-12:
            return m * (target / top)
    raise ValueError("no nonzero Gaussian weight matrix in 100 draws")


def run_deep_reference(seed: int) -> dict:
    """Energies, Frobenius norms and bounds of the run-deep trajectory."""
    doc = wl.run_deep_document(seed)
    s = doc["seed"]
    n, c, depth = wl.RUN_DEEP_N, wl.RUN_DEEP_CHANNELS, wl.RUN_DEEP_LAYERS
    u, v = er_edges(n, wl.RUN_DEEP_P, s)
    w = np.ones(u.size)
    lap = laplacian(n, u, v, w)
    lam, safe, _ = spectral_summary(n, u, v, w)
    x = np.random.default_rng(derive_seed(s, 0)).standard_normal((n, c))
    energies, norms, gains = [edge_energy(x, n, u, v, w)], [float(np.sum(x * x))], []
    for layer in range(depth):
        wt = gaussian_weights(c, c, doc["weights"]["target_singular"],
                              derive_seed(s, 1000 + layer * 100))
        gains.append(float(np.linalg.svd(wt, compute_uv=False)[0]))
        x = np.maximum(np.maximum(x - lap @ x, 0.0) @ wt, 0.0)
        energies.append(edge_energy(x, n, u, v, w))
        norms.append(float(np.sum(x * x)))
    return {"energies": energies, "norms": norms, "gains": gains,
            "paper": (1.0 - lam) ** 2, "safe": safe}


def check_run_deep(seed: int, files: dict[str, str], stdout: str) -> list[str]:
    problems: list[str] = []
    comments, body = _split_header(files["trajectory.csv"], 3)
    _check_header(comments, wl.run_deep_document(seed), wl.program_seed(seed), problems,
                  "trajectory.csv")
    if not body or body[0] != "layer,energy,rayleigh,bound_paper,bound_safe,channels":
        return problems + ["trajectory.csv: unexpected column header"]
    rows = [line.split(",") for line in body[1:]]
    ref = run_deep_reference(seed)
    if len(rows) != wl.RUN_DEEP_LAYERS + 1:
        return problems + [f"trajectory.csv: {len(rows)} rows, expected {wl.RUN_DEEP_LAYERS + 1}"]
    for l, row in enumerate(rows):
        if len(row) != 6 or row[0] != str(l) or row[5] != str(wl.RUN_DEEP_CHANNELS):
            problems.append(f"trajectory.csv row {l}: bad layer index or channel count: {row}")
            continue
        energy, rayleigh, b_paper, b_safe = (float(t) for t in row[1:5])
        e_o, norm = ref["energies"][l], ref["norms"][l]
        if not abs(energy - e_o) <= ENERGY_REL * e_o + ENERGY_ABS * norm:
            problems.append(f"layer {l}: energy {energy!r} vs oracle {e_o!r} "
                            f"(||X||_F^2 = {norm:.3e})")
        r_o = e_o / norm
        if not abs(rayleigh - r_o) <= ENERGY_REL * r_o + ENERGY_ABS:
            problems.append(f"layer {l}: rayleigh {rayleigh!r} vs oracle {r_o!r}")
        if l == 0:
            if not (math.isnan(b_paper) and math.isnan(b_safe)):
                problems.append("layer 0: bounds must be nan")
            continue
        gain = ref["gains"][l - 1]
        if not _close(b_paper, gain * ref["paper"]) or not _close(b_safe, gain * ref["safe"]):
            problems.append(f"layer {l}: bounds ({b_paper!r}, {b_safe!r}) vs oracle "
                            f"({gain * ref['paper']!r}, {gain * ref['safe']!r})")
    expect = f"energy: E(X_0)={rows[0][1]} E(X_{wl.RUN_DEEP_LAYERS})={rows[-1][1]} "
    if expect not in stdout:
        problems.append("stdout: energy summary line does not match the trajectory")
    return problems


# --------------------------------------------------------------------------- sweep-perturb


def sweep_reference(seed: int) -> list[dict]:
    """The sweep's rows as the oracle computes them."""
    doc = wl.sweep_document(seed)
    n = wl.SWEEP_N
    u, v = er_edges(n, wl.SWEEP_P, wl.program_seed(seed))
    w = np.ones(u.size)
    m = u.size
    lam_before, safe_before, _ = spectral_summary(n, u, v, w)
    ops = [("drop", float(r)) for r in doc["drop_ratios"]]
    ops += [("boost", float(c)) for c in doc["boost_counts"]]
    rows = []
    for trial in range(doc["trials"]):
        trial_seed = derive_seed(doc["base_seed"], trial)
        x = np.random.default_rng(derive_seed(doc["probe"]["seed"], trial)).standard_normal(
            (n, doc["probe"]["channels"]))
        e_before = edge_energy(x, n, u, v, w)
        for op_index, (op, param) in enumerate(ops):
            rng = np.random.default_rng(derive_seed(trial_seed, op_index))
            if op == "drop":
                chosen = rng.choice(m, size=math.ceil(param * m), replace=False)
                keep = np.ones(m, dtype=bool)
                keep[chosen] = False
                u2, v2, w2 = u[keep], v[keep], w[keep]
            else:
                chosen = rng.choice(m, size=int(param), replace=False)
                u2, v2, w2 = u, v, w.copy()
                w2[chosen] *= doc["boost_factor"]
            lam_after, safe_after, _ = spectral_summary(n, u2, v2, w2)
            rows.append({
                "trial": trial, "seed": trial_seed, "op": op,
                "param": str(int(param)) if op == "boost" else f"{param:.17g}",
                "edges_before": m, "edges_after": int(u2.size),
                "lambda_min_before": lam_before, "lambda_min_after": lam_after,
                "lambda_bar_safe_before": safe_before, "lambda_bar_safe_after": safe_after,
                "energy_before": e_before, "energy_after": edge_energy(x, n, u2, v2, w2),
            })
    return rows


SWEEP_FLOATS = ("lambda_min_before", "lambda_min_after", "lambda_bar_safe_before",
                "lambda_bar_safe_after", "energy_before", "energy_after")


def check_sweep(seed: int, files: dict[str, str], stdout: str) -> list[str]:
    problems: list[str] = []
    doc = wl.sweep_document(seed)
    comments, body = _split_header(files["rows.csv"], 5)
    _check_header(comments, None, doc["base_seed"], problems, "rows.csv")
    header = body[0].split(",") if body else []
    ref = sweep_reference(seed)
    if header != ["trial", "seed", "op", "param", "edges_before", "edges_after", *SWEEP_FLOATS]:
        return problems + ["rows.csv: unexpected column header"]
    rows = [dict(zip(header, line.split(","))) for line in body[1:]]
    if len(rows) != len(ref):
        return problems + [f"rows.csv: {len(rows)} rows, expected {len(ref)}"]
    for i, (got, want) in enumerate(zip(rows, ref)):
        for key in ("trial", "seed", "op", "param", "edges_before", "edges_after"):
            if got[key] != str(want[key]):
                problems.append(f"row {i}: {key} {got[key]!r} != {want[key]!r}")
        for key in SWEEP_FLOATS:
            if not _close(float(got[key]), want[key]):
                problems.append(f"row {i}: {key} {got[key]} vs oracle {want[key]!r}")
    problems += _check_duality(files["rows.duality.csv"], ref, doc)
    for op in ("drop", "boost"):
        usable = [r for r in ref if r["op"] == op]
        frac = sum(r["energy_after"] > r["energy_before"] for r in usable) / len(usable)
        if f"fraction of {op} rows with increased probe energy: {frac:.17g}\n" not in stdout:
            problems.append(f"stdout: {op} energy-increase fraction is not {frac:.17g}")
    return problems


def _check_duality(text: str, ref: list[dict], doc: dict) -> list[str]:
    comments, body = _split_header(text, 3)
    problems: list[str] = []
    _check_header(comments, None, doc["base_seed"], problems, "rows.duality.csv")
    if not body or body[0] != "drop_ratio,boost_count,mean_lambda_gap,mean_energy_gap,trials_used":
        return problems + ["rows.duality.csv: unexpected column header"]
    entries = [line.split(",") for line in body[1:]]
    pairs = [(r, c) for r in doc["drop_ratios"] for c in doc["boost_counts"]]
    if len(entries) != len(pairs):
        return problems + [f"rows.duality.csv: {len(entries)} entries, expected {len(pairs)}"]
    for (ratio, count), entry in zip(pairs, entries):
        drops = [r for r in ref if r["op"] == "drop" and r["param"] == f"{ratio:.17g}"]
        boosts = [r for r in ref if r["op"] == "boost" and r["param"] == str(count)]
        for col, key in ((2, "lambda_min"), (3, "energy")):
            gaps = [abs((d[key + "_after"] - d[key + "_before"])
                        - (b[key + "_after"] - b[key + "_before"])) for d, b in zip(drops, boosts)]
            scale = np.mean([abs(d[key + "_after"]) + abs(b[key + "_after"])
                             for d, b in zip(drops, boosts)])
            if not abs(float(entry[col]) - np.mean(gaps)) <= REL * scale:
                problems.append(f"duality ({ratio}, {count}): {key} gap {entry[col]} "
                                f"vs oracle {np.mean(gaps)!r}")
        if entry[0] != f"{ratio:.17g}" or entry[1] != str(count) or entry[4] != str(len(drops)):
            problems.append(f"duality ({ratio}, {count}): bad key or trials_used: {entry}")
    return problems


# --------------------------------------------------------------------------- verify-suites

SUITE_KINDS = ("erdos_renyi", "ring", "k_regular", "path")


def suite_graph(rng: np.random.Generator) -> tuple[int, np.ndarray, np.ndarray, str]:
    """A suite's random graph, drawn in the program's order: (n, u, v, description)."""
    kind = SUITE_KINDS[int(rng.integers(len(SUITE_KINDS)))]
    n = int(rng.integers(5, 61))
    if kind in ("ring", "k_regular"):
        n = max(n, 3)
    if kind == "erdos_renyi":
        p = float(rng.uniform(0.05, 0.5))
        for _ in range(200):
            seed = int(rng.integers(2**63))
            u, v = er_edges(n, p, seed)
            if u.size:
                break
        return n, u, v, f"er(n={n},p={p:.3f},seed={seed})"
    if kind == "path":
        u = np.arange(n - 1)
        return n, u, u + 1, f"path(n={n})"
    if kind == "ring":
        offsets, desc = (1,), f"ring(n={n})"
    else:
        k = 2 * int(rng.integers(1, max(1, min(4, (n - 1) // 2)) + 1))
        offsets, desc = range(1, k // 2 + 1), f"kregular(n={n},k={k})"
    i = np.arange(n)
    pairs = np.concatenate([np.stack([i, (i + o) % n], axis=1) for o in offsets])
    pairs = np.unique(np.sort(pairs, axis=1), axis=0)
    return n, pairs[:, 0], pairs[:, 1], desc


def l31_reference(seed: int, trial: int) -> tuple:
    """One L3.1 trial: (context, lhs = E(X - L X), ||X - L X||_F^2, rhs_paper, rhs_safe,
    ||X||_F^2)."""
    rng = np.random.default_rng(derive_seed(seed, trial))
    n, u, v, desc = suite_graph(rng)
    x = rng.standard_normal((n, int(rng.integers(1, 9))))
    w = np.ones(u.size)
    lam, safe, _ = spectral_summary(n, u, v, w)
    ex = edge_energy(x, n, u, v, w)
    px = x - laplacian(n, u, v, w) @ x
    return (f"seed={seed} trial={trial} graph={desc} C={x.shape[1]}",
            edge_energy(px, n, u, v, w), float(np.sum(px * px)), (1.0 - lam) ** 2 * ex, safe * ex,
            float(np.sum(x * x)))


def l32_reference(seed: int, trial: int) -> tuple:
    """One L3.2 trial: (context, lhs = E(X W), ||X W||_F^2, rhs_paper, None, ||X||_F^2)."""
    rng = np.random.default_rng(derive_seed(seed, trial))
    n, u, v, desc = suite_graph(rng)
    c = int(rng.integers(1, 9))
    x = rng.standard_normal((n, c))
    cols = int(rng.integers(1, 9))
    target = float(rng.uniform(0.2, 2.0))
    wt = gaussian_weights(c, cols, target, int(rng.integers(2**63)))
    xw = x @ wt
    w = np.ones(u.size)
    top = float(np.linalg.svd(wt, compute_uv=False)[0])
    return (f"seed={seed} trial={trial} graph={desc} C={c} W={c}x{cols} target={target:.3f}",
            edge_energy(xw, n, u, v, w), float(np.sum(xw * xw)),
            top * top * edge_energy(x, n, u, v, w), None, float(np.sum(x * x)))


# suites whose numbers the oracle recomputes from regenerated instances; the
# other suites are checked for consistency of verdicts and counts only
RECOMPUTED = {"l31": l31_reference, "l32": l32_reference}


def _recompute(token: str, seed: int, rows: list[list[str]], problems: list[str]) -> None:
    for trial, row in enumerate(rows):
        if len(row) != 10:
            continue   # reported as malformed already
        context, lhs, lhs_norm, rhs_paper, rhs_safe, norm = RECOMPUTED[token](seed, trial)
        if row[1] != context:
            problems.append(f"{token}.csv row {trial}: context {row[1]!r}, expected {context!r}")
            continue
        # the same error model as run-deep: relative, plus round-off of the
        # trace form scaled by the Frobenius norm of the embedding it measures;
        # a factor (1 - lam)^2 that is 0 in exact arithmetic (complete graphs)
        # leaves the right-hand sides at round-off level
        checks = [("lhs", row[2], lhs, lhs_norm), ("rhs_paper", row[3], rhs_paper, norm)]
        if rhs_safe is not None:
            checks.append(("rhs_safe", row[4], rhs_safe, norm))
        for column, text, want, scale in checks:
            if not abs(float(text) - want) <= ENERGY_REL * abs(want) + ENERGY_ABS * scale:
                problems.append(f"{token}.csv row {trial}: {column} {text} vs oracle {want!r}")


def _holds(lhs: float, rhs: float, rel: float) -> bool:
    return lhs <= rhs * (1.0 + rel) + TOLERANCE_ABS


def _suite_counts(token: str, rows: list[list[str]], problems: list[str]) -> dict:
    """Recount one suite's CSV and re-derive every verdict from its numbers."""
    counts = {"reports": 0, "passes": 0, "failures": 0, "vacuous": 0, "informational": 0,
              "paper_bound_violations": 0}
    for i, row in enumerate(rows):
        if len(row) != 10 or row[0] != STATEMENTS[token]:
            problems.append(f"{token}.csv row {i}: malformed {row[:1]}")
            continue
        lhs, rhs_paper = float(row[2]), float(row[3])
        rhs_safe = None if row[4] == "" else float(row[4])
        holds_paper, holds_safe = row[6] == "true", row[7] == "true"
        vacuous, asserted = row[8] == "true", row[9] == "true"
        counts["reports"] += 1
        counts["vacuous"] += vacuous
        counts["informational"] += not asserted
        if rhs_safe is None and row[7] != "":
            problems.append(f"{token}.csv row {i}: holds_safe set without rhs_safe")
        gate = holds_safe if rhs_safe is not None else holds_paper
        if vacuous:
            # zero input energy: the program's own vacuous rule decides, it must pass
            if asserted and not gate:
                problems.append(f"{token}.csv row {i}: vacuous report fails its gate")
            continue
        decay = token == "c35" or (token == "p71" and rhs_safe is None)
        rel = DECAY_REL if decay else TOLERANCE_REL
        if holds_paper != _holds(lhs, rhs_paper, rel):
            problems.append(f"{token}.csv row {i}: holds_paper={row[6]} but lhs={row[2]} "
                            f"rhs_paper={row[3]}")
        if rhs_safe is not None and holds_safe != _holds(lhs, rhs_safe, rel):
            problems.append(f"{token}.csv row {i}: holds_safe={row[7]} but lhs={row[2]} "
                            f"rhs_safe={row[4]}")
        if asserted:
            counts["passes" if gate else "failures"] += 1
            if rhs_safe is not None and holds_safe and not holds_paper:
                counts["paper_bound_violations"] += 1
    return counts


def check_verify(seed: int, files: dict[str, str], stdout: str) -> list[str]:
    problems: list[str] = []
    s = wl.program_seed(seed)
    summary = files["summary.txt"]
    if stdout != summary:
        problems.append("stdout differs from summary.txt")
    comments, body = _split_header(summary, 3)
    _check_header(comments, None, s, problems, "summary.txt")
    blocks = "\n".join(body).split("\n\n")
    if len(blocks) != len(wl.VERIFY_SUITES):
        return problems + [f"summary.txt: {len(blocks)} suite blocks, expected {len(wl.VERIFY_SUITES)}"]
    for token, block in zip(wl.VERIFY_SUITES, blocks):
        lines = block.splitlines()
        fields = dict(line.split(": ", 1) for line in lines if not line.startswith("counterexample:"))
        if fields.get("suite") != token or fields.get("statement") != STATEMENTS[token]:
            problems.append(f"summary.txt: expected suite {token}, got {fields.get('suite')}")
            continue
        if fields.get("trials") != str(wl.VERIFY_TRIALS) or fields.get("seed") != str(s):
            problems.append(f"suite {token}: trials/seed line wrong")
        if fields.get("failures") != "0":
            problems.append(f"suite {token}: failures: {fields.get('failures')}")
        comments_csv, csv_body = _split_header(files[f"{token}.csv"], 3)
        _check_header(comments_csv, None, s, problems, f"{token}.csv")
        rows = [_split_csv(line) for line in csv_body[1:]]
        counts = _suite_counts(token, rows, problems)
        if token in RECOMPUTED:
            _recompute(token, s, rows, problems)
        for key, value in counts.items():
            if fields.get(key) != str(value):
                problems.append(f"suite {token}: summary {key}={fields.get(key)} "
                                f"but the CSV gives {value}")
        n_counter = sum(line.startswith("counterexample:") for line in lines)
        if n_counter != counts["paper_bound_violations"]:
            problems.append(f"suite {token}: {n_counter} counterexample lines for "
                            f"{counts['paper_bound_violations']} violations")
        if counts["passes"] + counts["failures"] + counts["vacuous"] + counts["informational"] \
                < counts["reports"]:
            problems.append(f"suite {token}: pass/fail/vacuous/informational miss reports")
        per_trial = REPORTS_PER_TRIAL[token]
        lo, hi = per_trial if isinstance(per_trial, tuple) else (per_trial, per_trial)
        if not lo * wl.VERIFY_TRIALS <= counts["reports"] <= hi * wl.VERIFY_TRIALS:
            problems.append(f"suite {token}: {counts['reports']} reports for "
                            f"{wl.VERIFY_TRIALS} trials")
    return problems


def _split_csv(line: str) -> list[str]:
    """Split a report row; the quoted context column never contains a quote."""
    head, _, rest = line.partition(',"')
    context, _, tail = rest.partition('",')
    return [head, context] + tail.split(",")


CHECKS = {"run-deep": check_run_deep, "sweep-perturb": check_sweep,
          "verify-suites": check_verify}
