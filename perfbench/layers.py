"""Per-layer metrics from the spans of traced rounds.

round_totals() reduces one traced round's spans to totals: inclusive time,
self time (the span minus its direct children) and call count per span name,
plus the counts the layer metrics need. layer_metrics() turns the totals of
all traced rounds of a run into the per-layer metrics, averaged per round.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

FEASIBILITY = ("lpm.classifier_mean_square", "lpm.feature_norm_functional")
MB = float(1 << 20)

# name -> unit, in the order they are reported
UNITS = {
    "lpm.train_s": "s",
    "lpm.step_us": "us",
    "lpm.step_gflops": "GFLOP/s",
    "lpm.feasibility_calls_per_step": "calls/step",
    "lpm.feasibility_s": "s",
    "metrics.nc_report_s": "s",
    "metrics.nc_report_calls": "count",
    "linalg.pseudo_inverse_s": "s",
    "etf.gram_distance_s": "s",
    "lpm.head_preimage_s": "s",
    "linalg.solve_linear_calls": "count",
    "linalg.solve_linear_s": "s",
    "deq.fixed_point_iterate_s": "s",
    "deq.picard_iters": "count",
    "deq.closed_form_calls": "count",
    "harness.export_gram_s": "s",
    "harness.gram_mb": "MB",
    "harness.write_trace_csv_s": "s",
    "harness.trace_csv_mb": "MB",
    "harness.state_npz_s": "s",
    "harness.compare_heads_s": "s",
    "bounds.comparison_conditions_s": "s",
    "harness.sweep_busy_ratio": "ratio",
    "harness.load_config_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def round_totals(spans) -> dict:
    """Totals of one traced round (all its processes)."""
    by_key = {(s["pid"], s["id"]): s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[(s["pid"], s["parent"])] += s["end"] - s["start"]

    incl, self_, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    attr_sum = defaultdict(float)
    steps = flops = feasibility_in_train = 0
    for s in spans:
        name, duration = s["name"], s["end"] - s["start"]
        incl[name] += duration
        self_[name] += duration - child_time[(s["pid"], s["id"])]
        calls[name] += 1
        for key, value in (s["attrs"] or {}).items():
            attr_sum[f"{name}.{key}"] += value
        if name == "lpm.train":
            a = s["attrs"]
            steps += a["steps"]
            flops += 6 * a["k"] * a["d"] * a["n"] * a["steps"]
        elif name in FEASIBILITY and s["parent"] is not None:
            if by_key[(s["pid"], s["parent"])]["name"] == "lpm.train":
                feasibility_in_train += 1
    return {
        "incl": dict(incl), "self": dict(self_), "calls": dict(calls),
        "attrs": dict(attr_sum), "steps": steps, "flops": flops,
        "feasibility_in_train": feasibility_in_train,
    }


def layer_metrics(rounds, traced_walls, plain_walls, busy_ratios) -> dict:
    """Per-layer metrics, each a per-round mean over the traced rounds."""
    n = len(rounds)

    def total(kind, *names):
        return sum(r[kind].get(name, 0.0) for r in rounds for name in names)

    steps = sum(r["steps"] for r in rounds)
    train_self = total("self", "lpm.train")
    values = {
        "lpm.train_s": total("incl", "lpm.train") / n,
        "lpm.step_us": 1e6 * train_self / steps,
        "lpm.step_gflops": sum(r["flops"] for r in rounds) / train_self / 1e9,
        "lpm.feasibility_calls_per_step": sum(r["feasibility_in_train"] for r in rounds) / steps,
        "lpm.feasibility_s": total("incl", *FEASIBILITY) / n,
        "metrics.nc_report_s": total("incl", "metrics.nc_report") / n,
        "metrics.nc_report_calls": total("calls", "metrics.nc_report") / n,
        "linalg.pseudo_inverse_s": total("incl", "linalg.pseudo_inverse") / n,
        "etf.gram_distance_s": total(
            "incl", "etf.gram_distance_to_etf", "etf.gram_distance_to_etf_raw") / n,
        "lpm.head_preimage_s": total("incl", "lpm.head_preimage") / n,
        "linalg.solve_linear_calls": total("calls", "linalg.solve_linear") / n,
        "linalg.solve_linear_s": total("incl", "linalg.solve_linear") / n,
        "deq.fixed_point_iterate_s": total("incl", "deq.fixed_point_iterate") / n,
        "deq.picard_iters": total("attrs", "deq.fixed_point_iterate.iterations") / n,
        "deq.closed_form_calls": total("calls", "deq.fixed_point_closed_form") / n,
        "harness.export_gram_s": total("incl", "harness.export_gram") / n,
        "harness.gram_mb": total("attrs", "harness.export_gram.bytes") / MB / n,
        "harness.write_trace_csv_s": total("incl", "harness.write_trace_csv") / n,
        "harness.trace_csv_mb": total("attrs", "harness.write_trace_csv.bytes") / MB / n,
        "harness.state_npz_s": total("incl", "harness.state_npz") / n,
        "harness.compare_heads_s": total("incl", "harness.compare_heads") / n,
        "bounds.comparison_conditions_s": total("incl", "bounds.comparison_conditions") / n,
        "harness.sweep_busy_ratio": statistics.median(busy_ratios),
        "harness.load_config_s": total("incl", "harness.load_config") / n,
        "cli.self_s": total("self", "cli.main") / n,
        "trace.overhead_ratio": statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}


def merge(rounds) -> dict:
    """Sum the self times of several rounds' totals."""
    merged = defaultdict(float)
    for r in rounds:
        for name, seconds in r["self"].items():
            merged[name] += seconds
    return {"self": dict(merged)}


def share_table(totals) -> list:
    """(span name, self seconds, share of all self time), largest first."""
    everything = sum(totals["self"].values())
    rows = sorted(totals["self"].items(), key=lambda item: -item[1])
    return [(name, seconds, seconds / everything) for name, seconds in rows]
