"""Independent checks of collapsekit run artifacts.

Everything here is recomputed with numpy code of the benchmark's own from
state_<head>.npz, report.json and trace.csv; nothing is imported from
collapsekit. check_run() returns, per trained head, the list of problems it
found (an empty list means the head passed).

A run spec is a plain dict written by workloads.py:
    name, head ("both" | "explicit" | "deq"), k, counts, steps, log_every,
    e_w, e_h, feature_budget, metric_cutoff, k_a (imbalanced only), and the
    workload-specific flags floors / comparison / grams / minority.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

BUDGET_REL = 1e-9      # budget balls hold up to this relative slack
LINK_REL = 1e-9        # head link residual, relative to the feature norm
LOSS_TOL = 1e-9        # re-derived loss vs report (absolute + relative)
NC_TOL = 1e-7          # naive NC metrics vs report (absolute + relative)
MATCH_REL = 1e-9       # recomputed comparison quantities vs report
GRAM_REL = 1e-12       # Gram CSV entries vs H^T H, relative to the largest entry
MINORITY_RATIO = 0.5   # minority/majority classifier row norm, as in criterion 07


def _close(a, b, tol) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


def head_dirs(run_dir, spec) -> dict:
    heads = ("explicit", "deq") if spec["head"] == "both" else (spec["head"],)
    run_dir = Path(run_dir)
    return {h: (run_dir / h if spec["head"] == "both" else run_dir) for h in heads}


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def class_means(h, labels, k) -> np.ndarray:
    d, n = h.shape
    means = np.zeros((d, k))
    counts = np.zeros(k)
    for i in range(n):
        means[:, labels[i]] += h[:, i]
        counts[labels[i]] += 1
    return means / counts


def naive_nc(h, labels, w, k, cutoff):
    """NC1/NC2/NC3 by explicit loops over samples and classes."""
    d, n = h.shape
    means = class_means(h, labels, k)
    global_mean = means.sum(axis=1) / k
    sigma_w = np.zeros((d, d))
    for i in range(n):
        dev = h[:, i] - means[:, labels[i]]
        sigma_w += np.outer(dev, dev)
    sigma_w /= n
    sigma_b = np.zeros((d, d))
    for c in range(k):
        dev = means[:, c] - global_mean
        sigma_b += np.outer(dev, dev)
    sigma_b /= k
    u, s, vt = np.linalg.svd(sigma_b)
    keep = s >= cutoff * s[0]
    pinv = (vt[keep].T / s[keep]) @ u[:, keep].T
    nc1 = float(np.trace(sigma_w @ pinv) / k)
    gram = means.T @ means
    target = (np.eye(k) - np.ones((k, k)) / k) / math.sqrt(k - 1)
    nc2 = float(np.linalg.norm(gram / np.linalg.norm(gram) - target))
    nc3 = float(np.linalg.norm(w / np.linalg.norm(w) - means.T / np.linalg.norm(means)))
    return nc1, nc2, nc3


def lse_loss(w, h, labels) -> float:
    """Mean cross-entropy by a per-sample log-sum-exp."""
    logits = w @ h
    total = 0.0
    for i in range(logits.shape[1]):
        col = logits[:, i]
        top = col.max()
        total += top + math.log(math.fsum(math.exp(v - top) for v in col)) - col[labels[i]]
    return float(total / logits.shape[1])


def loss_floors(w, h, labels, k, e_w, feature_budget):
    """(deq floor, explicit floor) of the balanced loss, with the Jensen
    constants at their tight ratio for the realized logits."""
    logits = w @ h
    true = logits[labels, np.arange(logits.shape[1])]
    others = (logits.sum(axis=0) - true) / (k - 1)
    gap = float(np.mean(true - others))
    c1, c2 = 1.0, (k - 1) * math.exp(-gap)
    m1 = c2 / (c1 + c2)
    c3 = c2 / ((k - 1) * (c1 + c2))
    m2 = m1 * math.log(c3) - (c1 / (c1 + c2)) * math.log((c1 + c2) / c1)
    base = m1 * (k / (k - 1)) * math.sqrt(e_w * feature_budget)
    return -2.0 * base - m2, -base - m2


def mean_class_cosine(h, labels, w, k) -> float:
    means = class_means(h, labels, k)
    cosines = []
    for c in range(k):
        denom = np.linalg.norm(means[:, c]) * np.linalg.norm(w[c])
        cosines.append(float(means[:, c] @ w[c] / denom) if denom > 0 else 0.0)
    return sum(cosines) / k


# ---------------------------------------------------------------------------
# per-head checks
# ---------------------------------------------------------------------------

def expected_steps(steps, log_every) -> list:
    out = list(range(0, steps + 1, log_every))
    if out[-1] != steps:
        out.append(steps)
    return out


def _check_trace(path, spec, final) -> list:
    k = spec["k"]
    header = (["step", "loss", "accuracy", "nc1", "nc2", "nc3"]
              + [f"per_class_acc_{c}" for c in range(k)]
              + ["solver_mean_iters", "solver_skip_count"])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        return [f"trace header {rows[0] if rows else None} != schema"]
    body = rows[1:]
    if any(len(r) != len(header) for r in body):
        return ["trace row with wrong field count"]
    try:
        steps = [int(r[0]) for r in body]
        values = [[float(v) for v in r[1:-1]] + [int(r[-1])] for r in body]
    except ValueError as exc:
        return [f"trace field does not parse: {exc}"]
    if steps != expected_steps(spec["steps"], spec["log_every"]):
        return [f"trace steps {steps[:3]}..{steps[-2:]} are not 0, multiples of "
                f"{spec['log_every']} and {spec['steps']} ({len(steps)} rows)"]
    last = dict(zip(header[1:], values[-1]))
    problems = []
    for key in ("loss", "nc1", "nc2", "nc3"):
        if last[key] != final[key]:
            problems.append(f"trace last {key} {last[key]!r} != report {final[key]!r}")
    return problems


def check_head(head_dir, head, spec, summary) -> tuple:
    """Problems of one trained head, plus its loaded state for later checks."""
    problems = []
    with np.load(Path(head_dir) / f"state_{head}.npz") as npz:
        state = {key: npz[key] for key in ("h", "h0", "labels", "w", "head_w")}
    h, h0, labels, w, head_w = (state[key] for key in ("h", "h0", "labels", "w", "head_w"))
    k = spec["k"]
    if not np.array_equal(labels, np.repeat(np.arange(k), spec["counts"])):
        return [f"labels do not follow the class counts {spec['counts']}"], state

    # budget balls
    cls_ms = sum(float(row @ row) for row in w) / k
    if cls_ms > spec["e_w"] * (1.0 + BUDGET_REL):
        problems.append(f"classifier mean square {cls_ms!r} > e_w {spec['e_w']}")
    head_norm = math.sqrt(float(np.sum(head_w * head_w)))
    if head_norm > spec["e_h"] * (1.0 + BUDGET_REL):
        problems.append(f"head weight norm {head_norm!r} > e_h {spec['e_h']}")
    counts = np.bincount(labels, minlength=k)
    feat = sum(float(h[:, i] @ h[:, i]) / counts[labels[i]] for i in range(h.shape[1])) / k
    if feat > spec["feature_budget"] * (1.0 + BUDGET_REL):
        problems.append(f"feature functional {feat!r} > budget {spec['feature_budget']}")

    # head link
    if head == "explicit":
        residual = np.linalg.norm(head_w @ h0 - h)
    else:
        residual = np.linalg.norm((np.eye(head_w.shape[0]) - head_w) @ h - h0)
    if residual > LINK_REL * max(np.linalg.norm(h), 1e-300):
        problems.append(f"head link residual {residual:.3e} for the {head} head")

    # loss and NC metrics against the report
    final = summary["final_report"]
    loss = lse_loss(w, h, labels)
    if not _close(loss, summary["final_loss"], LOSS_TOL):
        problems.append(f"re-derived loss {loss!r} != report {summary['final_loss']!r}")
    for key, ours in zip(("nc1", "nc2", "nc3"), naive_nc(h, labels, w, k, spec["metric_cutoff"])):
        if not _close(ours, final[key], NC_TOL):
            problems.append(f"naive {key} {ours!r} != report {final[key]!r}")

    trace_path = Path(head_dir) / "trace.csv"
    problems += _check_trace(trace_path, spec, dict(final, loss=summary["final_loss"]))
    return problems, state


# ---------------------------------------------------------------------------
# workload-specific checks
# ---------------------------------------------------------------------------

def _check_floors(states, spec) -> dict:
    out = {}
    for head, state in states.items():
        deq_floor, explicit_floor = loss_floors(
            state["w"], state["h"], state["labels"], spec["k"], spec["e_w"],
            spec["feature_budget"],
        )
        floor = deq_floor if head == "deq" else explicit_floor
        loss = lse_loss(state["w"], state["h"], state["labels"])
        problems = []
        if loss < floor - 1e-9:
            problems.append(f"{head} loss {loss!r} below its floor {floor!r}")
        if deq_floor > explicit_floor:
            problems.append(f"deq floor {deq_floor!r} above explicit floor {explicit_floor!r}")
        out[head] = problems
    return out


def _check_comparison(states, spec, condition) -> tuple:
    """Problems shared by both heads, and the recorded deq-vs-explicit verdict."""
    if condition is None:
        return ["report has no condition_report"], None
    k, fb, e_w, e_h = spec["k"], spec["feature_budget"], spec["e_w"], spec["e_h"]
    target = fb * (k / (k - 1)) * (np.eye(k) - np.ones((k, k)) / k)
    dist, cos = {}, {}
    for head, state in states.items():
        means = class_means(state["h"], state["labels"], k)
        dist[head] = float(np.linalg.norm(means.T @ means - target))
        cos[head] = mean_class_cosine(state["h"], state["labels"], state["w"], k)
    ratio = cos["deq"] / cos["explicit"]
    margin = 2.0 - (e_h / (e_w + e_h) + e_h * (1.0 - e_h))
    problems = []
    for key, ours in (("nc2_distance_explicit", dist["explicit"]),
                      ("nc2_distance_deq", dist["deq"]),
                      ("nc3_cosine_ratio", ratio),
                      ("nc3_margin", margin)):
        if condition.get(key) is None or not _close(ours, condition[key], MATCH_REL):
            problems.append(f"recomputed {key} {ours!r} != report {condition.get(key)!r}")
    if condition.get("nc3_condition_holds") != (margin > 0.0):
        problems.append("nc3_condition_holds disagrees with the recomputed margin")
    return problems, dist["deq"] <= dist["explicit"]


def _read_csv_matrix(path, size) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n").split(",")
    if header != [f"g_{j}" for j in range(size)]:
        raise ValueError(f"{path.name} header does not name {size} columns")
    matrix = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if matrix.shape != (size, size):
        raise ValueError(f"{path.name} has shape {matrix.shape}, expected {size}x{size}")
    return matrix


def _check_grams(head_dir, state, k) -> list:
    h, labels = state["h"], state["labels"]
    order = np.argsort(labels, kind="stable")
    hs = h[:, order]
    means = class_means(h, labels, k)
    problems = []
    for name, ours in (("gram_samples.csv", np.einsum("di,dj->ij", hs, hs)),
                       ("gram_class_means.csv", np.einsum("dk,dl->kl", means, means))):
        path = Path(head_dir) / name
        if not path.exists():
            continue
        try:
            theirs = _read_csv_matrix(path, ours.shape[0])
        except ValueError as exc:
            problems.append(str(exc))
            continue
        gap = float(np.max(np.abs(theirs - ours)))
        if gap > GRAM_REL * float(np.max(np.abs(ours))):
            problems.append(f"{name} differs from H^T H by {gap:.3e}")
    return problems


def check_run(run_dir, spec) -> tuple:
    """Check one run directory. Returns ({head: [problems]}, verdict), where
    verdict is the deq-closer-to-ETF outcome of a comparison run, else None."""
    run_dir = Path(run_dir)
    dirs = head_dirs(run_dir, spec)
    problems = {head: [] for head in dirs}
    try:
        report = json.loads((run_dir / "report.json").read_text())
        states = {}
        for head, head_dir in dirs.items():
            summary = report["heads"].get(head)
            if summary is None:
                problems[head].append("head missing from report.json")
                continue
            problems[head], states[head] = check_head(head_dir, head, spec, summary)
    except (OSError, ValueError, KeyError) as exc:
        for head in problems:
            problems[head].append(f"artifacts unreadable: {exc!r}")
        return problems, None
    if len(states) != len(dirs):
        return problems, None

    verdict = None
    if spec.get("floors"):
        for head, extra in _check_floors(states, spec).items():
            problems[head] += extra
    if spec.get("comparison"):
        shared, verdict = _check_comparison(states, spec, report.get("condition_report"))
        for head in problems:
            problems[head] += shared
    if spec.get("grams"):
        for head, head_dir in dirs.items():
            problems[head] += _check_grams(head_dir, states[head], spec["k"])
    if spec.get("minority"):
        for head, state in states.items():
            norms = np.sqrt(np.sum(state["w"] ** 2, axis=1))
            k_a = spec["k_a"]
            ratio = float(norms[k_a:].mean() / norms[:k_a].mean())
            if not ratio < MINORITY_RATIO:
                problems[head].append(f"minority/majority row norm {ratio:.3f} >= {MINORITY_RATIO}")
    return problems, verdict


def check_sweep(out_dir, specs) -> tuple:
    """Check a sweep: its summary and every config's run. Returns
    ({run name: {head: [problems]}}, [verdicts])."""
    out_dir = Path(out_dir)
    results, verdicts = {}, []
    try:
        summary = json.loads((out_dir / "sweep_summary.json").read_text())
    except (OSError, ValueError) as exc:
        summary_problem = f"sweep_summary.json unreadable: {exc!r}"
        summary = {}
    else:
        summary_problem = None
    by_name = {}
    for record in summary.values():
        by_name.setdefault(record.get("name"), []).append(record)
    for spec in specs:
        records = by_name.get(spec["name"], [])
        problems, verdict = check_run(out_dir / spec["name"], spec)
        verdicts.append(verdict)
        shared = []
        if summary_problem:
            shared.append(summary_problem)
        elif len(records) != 1:
            shared.append(f"sweep_summary.json holds {len(records)} records for {spec['name']}")
        elif set(records[0].get("heads", {})) != {"explicit", "deq"}:
            shared.append(f"sweep_summary.json record of {spec['name']} lacks a head")
        for head in problems:
            problems[head] += shared
        results[spec["name"]] = problems
    if len(summary) != len(specs):
        for problems in results.values():
            for head in problems:
                problems[head].append(
                    f"sweep_summary.json holds {len(summary)} records for {len(specs)} configs"
                )
    return results, verdicts
