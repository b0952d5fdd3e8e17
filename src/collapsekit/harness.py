"""Experiment orchestration: configs, dataset synthesis, runs, artifacts.

A run consumes a flat key = value config file, synthesizes a seeded dataset
(balanced or majority-first imbalanced), trains the requested head(s) from a
shared backbone-feature initialization, and persists:

    trace.csv             per-snapshot training trace (schema below)
    report.json           the run record (see _finish_run)
    gram_class_means.csv  K x K Gram of final class means
    state_<head>.npz      final parameters, for re-exporting Grams

Every head of `run` and of `sweep` trains in a head job, _sweep_worker: it
derives the run's initialization from the config, trains one head, writes
that head's artifacts, and returns the head's summary with what the
cross-head comparison reads (the class means of the initial and the final
features, and the classifier). A head's final post-head features are
head(preimage(z)) of its last state, computed once. _run_head_jobs runs a
list of head jobs: in this process with one job or one worker, else in one
forked pool, largest N x steps first; the pool modules (concurrent.futures,
which loads logging, and multiprocessing) are imported only then. The
outputs are the same either way at a fixed BLAS thread count. The N x N
sample Gram (gram_samples.csv, final post-head features, class-sorted) is
written only on request, by `collapsekit export-gram` (reexport_grams),
from the saved state.

With head = both, each head's artifacts land in an explicit/ or deq/
subdirectory of the run directory and report.json at the top level carries
the cross-head comparison. Both heads always train. When one fails, the run
raises the first failure in head order (explicit, then deq) and writes no
report.json; the other head's artifacts remain.

Trace CSV schema (fixed column order, header mandatory):
    step,loss,accuracy,nc1,nc2,nc3,per_class_acc_0..K-1,solver_mean_iters,solver_skip_count

All floats are written with repr(), which round-trips exactly; identical
config + seed therefore reproduces every CSV byte for byte at a fixed BLAS
thread count.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import numbers
import os
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import lpm
from .bounds import ImbalanceSpec, comparison_conditions, imbalance_etf_target
from .deq import SolverPolicy
from .errors import ConfigError
from .etf import gram_distance_to_etf_raw
from .linalg import as_matrix, make_rng
from .lpm import FeatureSet, TrainConfig, TrainTrace
from .metrics import ClassPartition

HEAD_CHOICES = ("explicit", "deq", "both")

PRESETS = {
    # desk scale: the TrainConfig defaults, budgets large enough for softmax
    # separation in a few thousand full-batch steps
    "desk": {},
    # reference training recipe: tiny norm budgets, small learning rate
    "paper": {"learning_rate": 1e-4, "e_w": 0.01, "e_h": 0.01, "feature_budget": 0.01},
}


def _settings_keys(cls) -> dict:
    """The config keys of a settings dataclass: field name -> type of its
    default. minority_classes follows from the layout and is not a key."""
    return {f.name: type(f.default) for f in dataclasses.fields(cls)
            if f.name != "minority_classes"}


_TRAIN_KEYS = _settings_keys(TrainConfig)
_SOLVER_KEYS = _settings_keys(SolverPolicy)

# key -> python type for the flat config format; the layout and head keys
# are spelled out, the training and solver keys derived
_SCHEMA = {
    "name": str, "head": str, "k": int, "d0": int, "d": int, "balanced_n": int,
    "k_a": int, "k_b": int, "n_a": int, "r": int, "output_dir": str,
    **_TRAIN_KEYS, **_SOLVER_KEYS,
}
# what config_from_dict takes for each schema type (never a bool)
_ACCEPTED = {float: numbers.Real, int: numbers.Integral, str: str}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: dataset layout, head selection, training settings."""

    name: str
    head: str
    k: int
    d0: int
    d: int
    train: TrainConfig
    solver: SolverPolicy
    output_dir: str
    balanced_n: Optional[int] = None
    imbalance: Optional[ImbalanceSpec] = None

    def __post_init__(self):
        # runs write into <out>/<name> or runs/<name>: the name must not leave
        # it, and no path holds a NUL byte
        if self.name in ("", ".", "..") or "/" in self.name or "\0" in self.name:
            raise ConfigError(f"name must be one path component, got {self.name!r}")
        if "\0" in self.output_dir:
            raise ConfigError(f"output_dir must not hold a NUL byte, got {self.output_dir!r}")
        if self.head not in HEAD_CHOICES:
            raise ConfigError(f"head must be one of {HEAD_CHOICES}, got {self.head!r}")
        if self.k < 2:
            raise ConfigError("k must be at least 2")
        if self.d < 2 or self.d0 < 1:
            raise ConfigError("need d >= 2 and d0 >= 1")
        if self.d0 < self.d:
            # every run draws the explicit head, which maps d0 -> d dims and
            # needs rank d for an exact preimage
            raise ConfigError(f"need d0 >= d, got d0={self.d0}, d={self.d}")
        if self.head != "explicit" and self.d0 != self.d:
            raise ConfigError(
                f"head = {self.head} needs d0 = d (the equilibrium head is square), "
                f"got d0={self.d0}, d={self.d}"
            )
        if (self.balanced_n is None) == (self.imbalance is None):
            raise ConfigError("exactly one of balanced_n / imbalance must be given")
        if self.balanced_n is not None and self.balanced_n < 1:
            raise ConfigError("balanced_n must be positive")
        if self.imbalance is not None and self.imbalance.k != self.k:
            raise ConfigError(
                f"imbalance spec covers {self.imbalance.k} classes but k={self.k}"
            )

    @property
    def class_counts(self) -> tuple:
        if self.balanced_n is not None:
            return (self.balanced_n,) * self.k
        return self.imbalance.class_counts

    def labels(self) -> np.ndarray:
        return np.repeat(np.arange(self.k), self.class_counts)

    def canonical_dict(self) -> dict:
        """Flat primitive view used for hashing. output_dir is excluded: it
        names where artifacts go, not what the experiment is."""
        out = {"name": self.name, "head": self.head, "k": self.k, "d0": self.d0, "d": self.d}
        out.update((key, getattr(self.train, key)) for key in _TRAIN_KEYS)
        out.update((key, getattr(self.solver, key)) for key in _SOLVER_KEYS)
        if self.balanced_n is not None:
            out["balanced_n"] = self.balanced_n
        else:
            out.update((key, getattr(self.imbalance, key)) for key in ("k_a", "k_b", "n_a", "n_b"))
        return out

    def canonical_string(self) -> str:
        """Key-sorted, type-normalized serialization; the hash input."""
        return "\n".join(
            f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}"
            for key, value in sorted(self.canonical_dict().items())
        )

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_string().encode()).hexdigest()


def config_from_dict(raw: dict, preset: str = "desk", name: str = "experiment") -> ExperimentConfig:
    """Build a config from a flat dict of primitive values.

    Values are typed as load_config types a file's: a float key takes a
    finite real number, an int key an integer (bool is neither), stored as
    float or int, and a str key a str; any other value is a ConfigError. A
    training or solver key the dict omits takes its preset value, else its
    TrainConfig or SolverPolicy default. d defaults to d0 (and vice versa)
    so the zero-weight equilibrium head and the identity explicit head
    coincide.
    """
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    unknown = set(raw) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    values = {**PRESETS[preset], **raw}
    for key, value in values.items():
        kind = _SCHEMA[key]
        if isinstance(value, bool) or not isinstance(value, _ACCEPTED[kind]):
            raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}")
        values[key] = value = kind(value)
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")

    for key in ("head", "k"):
        if key not in values:
            raise ConfigError(f"config is missing required key {key!r}")
    if "d0" not in values and "d" not in values:
        values["d0"] = values["d"] = 16
    values.setdefault("d", values.get("d0"))
    values.setdefault("d0", values.get("d"))
    values.setdefault("name", name)
    values.setdefault("output_dir", f"runs/{values['name']}")

    imbalance = None
    balanced_n = values.get("balanced_n")
    imbalance_keys = [key for key in ("k_a", "k_b", "n_a", "r") if key in values]
    if imbalance_keys and balanced_n is not None:
        raise ConfigError("give either balanced_n or the imbalance keys, not both")
    if imbalance_keys:
        missing = {"k_a", "k_b", "n_a", "r"} - set(imbalance_keys)
        if missing:
            raise ConfigError(f"incomplete imbalance spec, missing {sorted(missing)}")
        n_a, ratio = values["n_a"], values["r"]
        if ratio < 1 or n_a % ratio != 0:
            raise ConfigError(
                f"n_a={n_a} must be a positive multiple of r={ratio} so n_b is integral"
            )

    try:
        if imbalance_keys:
            imbalance = ImbalanceSpec(
                k_a=values["k_a"], k_b=values["k_b"], n_a=n_a, n_b=n_a // ratio
            )
        train = TrainConfig(
            **{key: values[key] for key in _TRAIN_KEYS if key in values},
            minority_classes=imbalance.minority_classes if imbalance else None,
        )
        solver = SolverPolicy(**{key: values[key] for key in _SOLVER_KEYS if key in values})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return ExperimentConfig(
        name=values["name"],
        head=values["head"],
        k=values["k"],
        d0=values["d0"],
        d=values["d"],
        train=train,
        solver=solver,
        output_dir=values["output_dir"],
        balanced_n=balanced_n,
        imbalance=imbalance,
    )


def load_config(path, preset: str = "desk", seed: Optional[int] = None) -> ExperimentConfig:
    """Parse the flat key = value config format.

    The file is UTF-8, with or without a byte-order mark. Blank lines and
    #-comments (full-line or trailing) are ignored; keys are typed per the
    documented schema; unknown keys are an error. A seed that is not None
    replaces the file's seed before the config is validated, so it passes
    the same checks as every other key (a negative one is a ConfigError).
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from exc
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        entry = line.split("#", 1)[0].strip()
        if not entry:
            continue
        if "=" not in entry:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, value = (part.strip() for part in entry.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            raw[key] = _SCHEMA[key](value)
        except ValueError as exc:
            raise ConfigError(
                f"{path}:{lineno}: cannot parse {key} = {value!r} as {_SCHEMA[key].__name__}"
            ) from exc
    if seed is not None:
        raw["seed"] = seed
    return config_from_dict(raw, preset=preset, name=path.stem)


# ---------------------------------------------------------------------------
# dataset synthesis
# ---------------------------------------------------------------------------

def synthesize_dataset(cfg: ExperimentConfig, rng: np.random.Generator) -> FeatureSet:
    """Seeded Gaussian backbone features with the config's label layout.

    Labels are class-sorted and majority-first (classes 0..k_a-1 are the
    majority block); H0's class-weighted feature functional starts at half
    the feature budget.
    """
    return lpm.initialize_features(
        cfg.labels(), cfg.k, cfg.d0, cfg.train.feature_budget, rng
    )


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return repr(float(x))


def write_trace_csv(trace: TrainTrace, k: int, path: Path) -> None:
    """Write the per-snapshot trace (schema documented at module top), one
    snapshot's row at a time, and check it through _write_validated_csv."""
    header = (
        ["step", "loss", "accuracy", "nc1", "nc2", "nc3"]
        + [f"per_class_acc_{c}" for c in range(k)]
        + ["solver_mean_iters", "solver_skip_count"]
    )
    rows = (
        [str(snap.step), _fmt(snap.report.loss), _fmt(snap.report.accuracy),
         _fmt(snap.report.nc1), _fmt(snap.report.nc2), _fmt(snap.report.nc3)]
        + [_fmt(a) for a in snap.report.per_class_accuracy]
        + [_fmt(snap.solver_mean_iters), str(snap.solver_skip_count)]
        for snap in trace.snapshots
    )
    _write_validated_csv(path, header, rows)


def _write_gram_csv(path: Path, gram: np.ndarray) -> None:
    """Write a Gram matrix under a g_0..g_{n-1} header. Every value is
    repr()-formatted (repr of a row's tolist() gives _fmt's text), so
    re-parsing the CSV reproduces the Gram exactly. Rows are formatted one
    at a time: the writer holds the Gram plus one row of text."""
    header = [f"g_{j}" for j in range(gram.shape[1])]
    _write_validated_csv(path, header, (map(repr, row.tolist()) for row in gram))


def export_gram(features_h, labels, k: int, out_dir) -> tuple:
    """Write the class-mean Gram and the class-sorted sample Gram H^T H.

    Returns (samples_path, means_path). The sample Gram is N x N repr()
    text, written and re-read for validation, so runs leave it to
    `collapsekit export-gram`, which holds the N x N Gram plus one row of
    text. features_h must be a finite 2-D array (else ValueError, before
    any file is written). The labels form a ClassPartition of k classes,
    whose order sorts the samples.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    h = as_matrix(features_h, "h")
    partition = ClassPartition.build(labels, k, h.shape[1])
    means = partition.class_means(h)
    means_path = out_dir / "gram_class_means.csv"
    _write_gram_csv(means_path, means.T @ means)
    h_sorted = h[:, partition.order]
    samples_path = out_dir / "gram_samples.csv"
    _write_gram_csv(samples_path, h_sorted.T @ h_sorted)
    return samples_path, means_path


def _csv_line(row, width: int):
    """The CSV line of a row as bytes, or None when the line would not read
    back as the row: a field that is not a str, a row of other than width
    fields, a quote or line break (text CSV would quote), or the one empty
    field of a one-column row."""
    try:
        line = ",".join(row)
    except TypeError:
        return None
    if not line or line.count(",") != width - 1 or '"' in line or "\r" in line or "\n" in line:
        return None
    return (line + "\r\n").encode()


def _file_sha256(path: Path) -> bytes:
    """sha256 digest of a file, read in 256 KiB chunks."""
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 18), b""):
            digest.update(chunk)
    return digest.digest()


def _write_validated_csv(path: Path, header, rows) -> None:
    """Write a CSV one row at a time and prove the file holds it.

    header is a list of str; rows is an iterable of rows of str fields
    (lists, or any iterable), read once. Each row is written as it arrives,
    so no copy of the table is held; the text is CRLF-terminated and
    unquoted, the bytes csv.writer gives these fields. The sha256 of the
    text as written is compared with the sha256 of the file re-read in
    chunks. A row that would not read back as its fields (see _csv_line)
    stops the write; it and a file whose bytes differ from the text are
    OSError("self-validation failed re-reading <path>"), and a failed write
    or read is OSError("while writing <path>: ...") (exit code 5 either way).
    """
    path = Path(path)
    written = hashlib.sha256()
    try:
        with path.open("wb") as fh:
            for row in itertools.chain([header], rows):
                line = _csv_line(row, len(header))
                if line is None:
                    break
                written.update(line)
                fh.write(line)
        same = line is not None and _file_sha256(path) == written.digest()
    except OSError as exc:
        raise OSError(f"while writing {path}: {exc}") from exc
    if not same:
        raise OSError(f"self-validation failed re-reading {path}")


# ---------------------------------------------------------------------------
# run records
# ---------------------------------------------------------------------------

def _head_summary(head_name: str, trace: TrainTrace, trace_path: Path, h0_sha: str) -> dict:
    """Final metrics of one trained head: its entry of the run record's
    heads."""
    accs = [snap.report.accuracy for snap in trace.snapshots[-10:]]
    return dict(
        head=head_name,
        final_report=trace.final.report.as_dict(),
        final_loss=trace.final.report.loss,
        acc_last10_mean=float(np.mean(accs)),
        acc_last10_std=float(np.std(accs)),
        solver_skip_total=int(sum(s.solver_skip_count for s in trace.snapshots)),
        feasibility_slack_max=trace.feasibility_slack_max,
        trace_path=str(trace_path),
        h0_init_sha256=h0_sha,
    )


def _mean_class_cosine(means: np.ndarray, w: np.ndarray) -> float:
    """Mean over classes of cos(class-mean feature, classifier row)."""
    cosines = []
    for c in range(means.shape[1]):
        m, row = means[:, c], w[c]
        denom = np.linalg.norm(m) * np.linalg.norm(row)
        cosines.append(float(m @ row / denom) if denom > 0 else 0.0)
    return float(np.mean(cosines))


def compare_heads(cfg: ExperimentConfig, means0: np.ndarray, finals: dict) -> tuple:
    """Cross-head comparison for an imbalanced both-heads run.

    Returns (condition_report, note). condition_report is None or the run
    record's dict: the ConditionReport fields, evaluated on means0 (the D x K
    class means of the backbone features both heads started from; the
    backbone output is standardized across models, so their Gram is the m
    matrix the conditions refer to), plus what they gate, measured on the
    trained states that finals maps per head to (final class means,
    classifier): nc2_distance_<head>, the raw Gram distance of the class
    means to the budget-scaled ETF Gram, and nc3_cosine_ratio, the ratio of
    mean feature/classifier cosines, deq over explicit. note is None or why
    there is no report or ratio. Both heads train over one feasible set in
    Z, so the measured part compares their starts Z0 = head(H0), not the
    heads (test_head_comparison_is_a_function_of_z0 in the acceptance tests).
    """
    if cfg.train.e_h >= 1.0:
        return None, "e_h >= 1: comparison conditions undefined (1/(1-e_h) diverges)"
    target = imbalance_etf_target(cfg.k, cfg.train.feature_budget)
    report = dataclasses.asdict(comparison_conditions(
        cfg.train.e_w, cfg.train.e_h, means0.T @ means0, target
    ))
    alpha = np.sqrt(cfg.train.feature_budget)
    for name, (means, _) in finals.items():
        report[f"nc2_distance_{name}"] = gram_distance_to_etf_raw(means.T @ means, cfg.k, alpha)
    explicit_cosine = _mean_class_cosine(*finals["explicit"])
    if explicit_cosine == 0.0:
        report["nc3_cosine_ratio"] = None
        return report, "explicit head's mean class cosine is 0: nc3_cosine_ratio undefined"
    report["nc3_cosine_ratio"] = _mean_class_cosine(*finals["deq"]) / explicit_cosine
    return report, None


# ---------------------------------------------------------------------------
# running experiments
# ---------------------------------------------------------------------------

def _head_jobs(cfg: ExperimentConfig, out: Path) -> list:
    """One run's head jobs, (name, config, run directory, head), in head order."""
    head_names = ("explicit", "deq") if cfg.head == "both" else (cfg.head,)
    return [(cfg.name, cfg, out, head_name) for head_name in head_names]


def _sweep_worker(job) -> tuple:
    """Run one head job: train one head of one run and write its artifacts
    (trace.csv, gram_class_means.csv, state_<head>.npz).

    The run's initialization is drawn here from the config's seed, in a
    fixed order (features, classifier, explicit head, deq head), so every
    head of a run starts from the same draws. Returns (summary, class
    means, classifier, initial class means, seconds): the head's entry of
    the run record's heads, the D x K class means of the final and of the
    initial features and the K x D classifier (what compare_heads reads),
    and the job's wall time.
    Module-level so that a pool worker resolves it by reference.
    """
    t0 = time.perf_counter()
    _, cfg, out, head_name = job
    run_dir = out / head_name if cfg.head == "both" else out
    run_dir.mkdir(parents=True, exist_ok=True)
    rng = make_rng(cfg.train.seed)
    features = synthesize_dataset(cfg, rng)
    h0_sha = hashlib.sha256(np.ascontiguousarray(features.h0).tobytes()).hexdigest()
    means0 = features.partition.class_means(features.h0)
    cls_init = lpm.initialize_classifier(cfg.k, cfg.d, cfg.train.e_w, rng)
    head = lpm.initialize_explicit_head(cfg.d, cfg.d0, cfg.train.e_h, rng)
    if head_name == "deq":
        head = lpm.initialize_deq_head(cfg.d, cfg.train.e_h, rng, policy=cfg.solver)
    trace = lpm.train(features, head, cls_init, cfg.train)

    trace_path = run_dir / "trace.csv"
    write_trace_csv(trace, cfg.k, trace_path)
    h_final = lpm.head_features(trace.head, trace.features.h0)
    means = trace.features.partition.class_means(h_final)
    _write_gram_csv(run_dir / "gram_class_means.csv", means.T @ means)
    np.savez(run_dir / f"state_{head_name}.npz", h=h_final, h0=trace.features.h0,
             labels=trace.features.labels, k=cfg.k, w=trace.classifier.w,
             head_w=trace.head.weight)
    summary = _head_summary(head_name, trace, trace_path, h0_sha)
    return summary, means, trace.classifier.w, means0, time.perf_counter() - t0


def _run_head_jobs(jobs: list, workers: int) -> list:
    """Run _sweep_worker on every job; return each job's result, or the
    exception it raised, in job order.

    With at most one job or one worker the jobs run here, in order.
    Otherwise one pool of min(workers, jobs) workers takes them largest
    N x steps first. The pool always forks, so its workers inherit this
    process's state (a rebound _sweep_worker too) rather than re-importing
    it.
    """
    def attempt(job):
        try:
            return _sweep_worker(job)
        except Exception as exc:  # returned; the caller raises it in head order
            return exc

    if len(jobs) <= 1 or workers == 1:
        return [attempt(job) for job in jobs]
    import concurrent.futures
    import multiprocessing

    order = sorted(range(len(jobs)), reverse=True,
                   key=lambda i: sum(jobs[i][1].class_counts) * jobs[i][1].train.steps)
    results, context = [None] * len(jobs), multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(min(workers, len(jobs)),
                                                mp_context=context) as pool:
        futures = {i: pool.submit(_sweep_worker, jobs[i]) for i in order}
        for i, future in futures.items():
            results[i] = future.exception() or future.result()
    return results


def _finish_run(cfg, out: Path, results: list, duration_s: float) -> dict:
    """Raise the first failed head in head order, or compare the heads,
    write the run record to report.json and return it. results are the
    run's head-job results in head order. A report.json already in out is
    removed first, so a run that fails leaves none.

    The record is a dict of JSON values: config_hash, name, seed,
    duration_s, heads (head name -> _head_summary), shared_h0_sha256,
    condition_report and condition_note (compare_heads' pair, stored as it
    is; None and None unless the run is an imbalanced head = both run).
    """
    (out / "report.json").unlink(missing_ok=True)
    summaries, finals, starts = {}, {}, {}
    for result in results:
        if isinstance(result, Exception):
            raise result
        summary, means, w, means0, _ = result
        head = summary["head"]
        summaries[head], finals[head], starts[head] = summary, (means, w), means0
    h0_shas = {summary["h0_init_sha256"] for summary in summaries.values()}
    if len(h0_shas) != 1:
        raise AssertionError("the heads did not start from the same H0 initialization")

    condition_report, condition_note = None, None
    if cfg.head == "both" and cfg.imbalance is not None:
        # both heads started from the one H0 just asserted: take its means once
        condition_report, condition_note = compare_heads(cfg, starts["explicit"], finals)

    record = dict(
        config_hash=cfg.config_hash(),
        name=cfg.name,
        seed=cfg.train.seed,
        duration_s=duration_s,
        heads=summaries,
        shared_h0_sha256=h0_shas.pop(),
        condition_report=condition_report,
        condition_note=condition_note,
    )
    (out / "report.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    return record


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Train the configured head(s) on one synthesized dataset.

    Each head trains in a head job (_run_head_jobs: in this process on one
    usable CPU, else in a pool of one worker per usable CPU and at most one
    per head); all start from the same backbone-feature and classifier
    draws, and the record carries the H0 hash per head, asserted identical.
    Artifacts go under out_dir (default: the config's output_dir).
    Returns the run record that report.json holds (see _finish_run), whose
    duration_s is the run's wall time. Nothing is printed; `collapsekit
    run` prints the record's summary.
    """
    t0 = time.perf_counter()
    out = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    results = _run_head_jobs(_head_jobs(cfg, out), len(os.sched_getaffinity(0)))
    return _finish_run(cfg, out, results, time.perf_counter() - t0)


def reexport_grams(run_dir) -> list:
    """Write the sample and class-mean Gram CSVs of a finished run from its
    state_*.npz files (one pair per head directory), with the state's k
    classes. A state file that is truncated, lacks an array, or holds an
    h that is not a finite 2-D array, a k that is not one integer, or labels
    that do not partition N samples into k classes is a ConfigError naming
    it."""
    run_dir = Path(run_dir)
    states = sorted(run_dir.rglob("state_*.npz"))
    if not states:
        raise ConfigError(f"no state_*.npz found under {run_dir}")
    written = []
    for state_path in states:
        try:  # np.load leaks a path it opened itself when the zip is bad
            with state_path.open("rb") as fh, np.load(fh) as state:
                h, labels, k = state["h"], state["labels"], state["k"]
        except (zipfile.BadZipFile, KeyError, ValueError, EOFError) as exc:
            raise ConfigError(f"cannot read {state_path}: {exc}") from exc
        if k.ndim != 0 or k.dtype.kind not in "iu":
            raise ConfigError(f"{state_path}: k must be one integer, got {k!r}")
        try:
            written.extend(export_gram(h, labels, int(k), state_path.parent))
        except ValueError as exc:  # an h or labels the checks reject
            raise ConfigError(f"{state_path}: {exc}") from exc
    return written


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def run_sweep(config_dir, preset: str = "desk", out_root=None, seed=None,
              max_workers: Optional[int] = None) -> dict:
    """Run the head jobs of every *.cfg under config_dir in one
    _run_head_jobs call on max_workers workers (default: the usable CPUs).

    A max_workers below 1 is a ConfigError before any config loads. Two
    configs that would write the same run directory (out_root/<name>, else
    their output_dir), or that share a config hash (the summary's key), are
    a ConfigError before any job starts. Else a config that fails to load,
    or whose head fails, does not stop the others. The run records (see
    _finish_run), keyed by config hash, are merged as they are into
    sweep_summary.json alongside the configs (or under out_root when
    given), with one record per failed config, keyed by its file name: its
    name, error class and message. A record's duration_s is the sum of its
    heads' job times. The summary is written before the first failure (in
    file order) is re-raised, so the CLI exits with that error's code.
    """
    if max_workers is not None and max_workers < 1:
        raise ConfigError(f"max_workers must be at least 1, got {max_workers}")
    config_dir = Path(config_dir)
    paths = sorted(config_dir.glob("*.cfg"))
    if not paths:
        raise ConfigError(f"no *.cfg files in {config_dir}")
    runs, owners = {}, {}
    for path in paths:
        try:
            cfg = load_config(path, preset=preset, seed=seed)
        except Exception as exc:  # reported in the summary, then re-raised
            runs[path] = exc
            continue
        out = Path(out_root) / cfg.name if out_root else Path(cfg.output_dir)
        for key, clash in ((out.resolve(), f"would both write run directory {out}"),
                           (cfg.config_hash(), "share a config hash, which keys sweep_summary.json")):
            owner = owners.setdefault(key, path)
            if owner != path:
                raise ConfigError(f"{owner} and {path} {clash}")
        runs[path] = (cfg, out, _head_jobs(cfg, out))

    jobs = [job for run in runs.values() if not isinstance(run, Exception) for job in run[2]]
    results = iter(_run_head_jobs(jobs, max_workers or len(os.sched_getaffinity(0))))
    merged, failures = {}, []
    for path, run in runs.items():
        try:
            if isinstance(run, Exception):
                raise run
            cfg, out, head_jobs = run
            head_results = [next(results) for _ in head_jobs]
            seconds = sum(r[-1] for r in head_results if not isinstance(r, Exception))
            record = _finish_run(cfg, out, head_results, seconds)
        except Exception as exc:  # reported in the summary, then re-raised
            failures.append(exc)
            merged[path.name] = dict(name=path.stem, error=type(exc).__name__, message=str(exc))
        else:
            merged[record["config_hash"]] = record
    summary_dir = Path(out_root) if out_root else config_dir
    summary_dir.mkdir(parents=True, exist_ok=True)
    (summary_dir / "sweep_summary.json").write_text(json.dumps(merged, indent=2, sort_keys=True))
    if failures:
        raise failures[0]
    return merged


def write_imbalance_grid(config_dir, steps: int = 3000, seed: int = 0) -> list:
    """Write the desk-scale imbalance sweep: (k_a, k_b) in (3,7)/(5,5)/(7,3)
    crossed with sample ratios 10/50/100 at n_a = 100 (the reference layout
    scaled by 1/50)."""
    config_dir = Path(config_dir)
    config_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for k_a, k_b in ((3, 7), (5, 5), (7, 3)):
        for ratio in (10, 50, 100):
            name = f"imb_ka{k_a}_r{ratio}"
            lines = [
                f"name = {name}",
                "head = both",
                "k = 10",
                "d0 = 16",
                "d = 16",
                f"k_a = {k_a}",
                f"k_b = {k_b}",
                "n_a = 100",
                f"r = {ratio}",
                f"steps = {steps}",
                f"seed = {seed}",
                "log_every = 500",
                # sub-unit budgets keep the cross-head comparison defined
                "e_h = 0.5",
                "feature_budget = 0.5",
            ]
            path = config_dir / f"{name}.cfg"
            path.write_text("\n".join(lines) + "\n")
            written.append(path)
    return written
