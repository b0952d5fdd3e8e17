"""In-memory span tracer for the traced benchmark run.

install() rebinds public collapsekit functions in the namespace each caller
resolves them from (``lpm.nc_report``, ``harness.lpm.train``, the lazily
imported ``deq.fixed_point_closed_form``, ``solve_linear`` in both ``lpm``
and ``deq``, ...), so every call records one span:

    (pid, span id, name, start, end, parent span id, run id, attrs)

Times come from time.perf_counter(), which is CLOCK_MONOTONIC on Linux and
so comparable across processes. Spans stay in memory: the command process
writes them when the command ends (write_spans), and each pool worker forked
by harness.run_sweep writes its own at the end of every config it runs.
Nothing under src/ is modified; the wrappers exist only in the traced
process and its forked workers.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time
from pathlib import Path

_spans = []        # finished spans
_stack = []        # ids of the open spans, innermost last
_ids = itertools.count()
_run_id = ["main"]
_out_dir = [None]


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _train_attrs(args, result):
    features, _head, cls, cfg = args[:4]
    return {"steps": cfg.steps, "n": features.n_total, "k": features.k, "d": cls.w.shape[1]}


def _picard_attrs(args, result):
    return {"iterations": int(result.iterations)}


def _gram_attrs(args, result):
    samples, means = result
    return {"bytes": _file_bytes(samples) + _file_bytes(means)}


def _trace_csv_attrs(args, result):
    return {"bytes": _file_bytes(args[2])}


def _npz_attrs(args, result):
    return {"bytes": _file_bytes(args[0])}


# (module under collapsekit, attribute, span name, attrs function). A function
# that callers import by name appears once per importing namespace.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("harness", "load_config", "harness.load_config", None),
    ("harness", "write_imbalance_grid", "harness.write_imbalance_grid", None),
    ("harness", "run_sweep", "harness.run_sweep", None),
    ("harness", "run_experiment", "harness.run_experiment", None),
    ("harness", "synthesize_dataset", "harness.synthesize_dataset", None),
    ("harness", "write_trace_csv", "harness.write_trace_csv", _trace_csv_attrs),
    ("harness", "export_gram", "harness.export_gram", _gram_attrs),
    ("harness", "compare_heads", "harness.compare_heads", None),
    ("harness", "comparison_conditions", "bounds.comparison_conditions", None),
    ("harness", "gram_distance_to_etf_raw", "etf.gram_distance_to_etf_raw", None),
    ("lpm", "train", "lpm.train", _train_attrs),
    ("lpm", "head_features", "lpm.head_features", None),
    ("lpm", "head_preimage", "lpm.head_preimage", None),
    ("lpm", "classifier_mean_square", "lpm.classifier_mean_square", None),
    ("lpm", "feature_norm_functional", "lpm.feature_norm_functional", None),
    ("lpm", "nc_report", "metrics.nc_report", None),
    ("lpm", "fixed_point_iterate", "deq.fixed_point_iterate", _picard_attrs),
    ("lpm", "solve_linear", "linalg.solve_linear", None),
    ("deq", "fixed_point_closed_form", "deq.fixed_point_closed_form", None),
    ("deq", "fixed_point_iterate", "deq.fixed_point_iterate", _picard_attrs),
    ("deq", "solve_linear", "linalg.solve_linear", None),
    ("metrics", "pseudo_inverse", "linalg.pseudo_inverse", None),
    ("linalg", "pseudo_inverse", "linalg.pseudo_inverse", None),
    ("etf", "gram_distance_to_etf", "etf.gram_distance_to_etf", None),
)


def _wrap(name, fn, attrs=None):
    perf_counter, ids, stack, record = time.perf_counter, _ids, _stack, _spans.append

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_id = next(ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            record((span_id, name, start, perf_counter(), parent, _run_id[0], None))
            stack.pop()
            raise
        end = perf_counter()
        stack.pop()
        record((span_id, name, start, end, parent, _run_id[0],
                attrs(args, result) if attrs is not None else None))
        return result

    return wrapper


def _wrap_sweep_worker(fn):
    """Wrap harness._sweep_worker: tag the worker's spans with the config it
    runs and write them out when that config ends."""
    inner = _wrap("harness.sweep_worker", fn)

    @functools.wraps(fn)
    def wrapper(job):
        _run_id[0] = Path(job[0]).stem
        try:
            return inner(job)
        finally:
            write_spans()

    return wrapper


def _after_fork_in_child():
    # a forked pool worker inherits the parent's open spans; it starts clean
    _spans.clear()
    _stack.clear()


def install(out_dir, run_id: str) -> None:
    """Rebind every TARGETS entry and route span files to out_dir."""
    import importlib

    import numpy as np

    _out_dir[0] = Path(out_dir)
    _run_id[0] = run_id
    for module_name, attr, span_name, attrs in TARGETS:
        module = importlib.import_module(f"collapsekit.{module_name}")
        setattr(module, attr, _wrap(span_name, getattr(module, attr), attrs))
    harness = importlib.import_module("collapsekit.harness")
    # pickled by reference: a forked worker resolves it to this wrapper
    harness._sweep_worker = _wrap_sweep_worker(harness._sweep_worker)
    # harness saves state_<head>.npz through np.savez; only harness calls it
    np.savez = _wrap("harness.state_npz", np.savez, _npz_attrs)
    os.register_at_fork(after_in_child=_after_fork_in_child)


def write_spans() -> None:
    """Append this process's finished spans to its span file, one JSON array
    per call, and drop them from memory."""
    if _out_dir[0] is None or not _spans:
        return
    pid = os.getpid()
    with (_out_dir[0] / f"spans-{pid}.jsonl").open("a") as fh:
        fh.write(json.dumps([(pid,) + span for span in _spans]) + "\n")
    _spans.clear()


def read_spans(out_dir) -> list:
    """All spans under out_dir as dicts."""
    keys = ("pid", "id", "name", "start", "end", "parent", "run_id", "attrs")
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            spans.extend(dict(zip(keys, span)) for span in json.loads(line))
    return spans
