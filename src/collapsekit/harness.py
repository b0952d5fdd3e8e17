"""Experiment orchestration: configs, dataset synthesis, runs, artifacts.

A run consumes a flat key = value config file, synthesizes a seeded dataset
(balanced or majority-first imbalanced), trains the requested head(s) from a
shared backbone-feature initialization, and persists:

    trace.csv             per-snapshot training trace (schema below)
    report.json           the RunRecord
    gram_class_means.csv  K x K Gram of final class means
    state_<head>.npz      final parameters, for re-exporting Grams

The N x N sample Gram (gram_samples.csv, final post-head features,
class-sorted) is written only on request, by `collapsekit export-gram`
(reexport_grams), from the saved state.

With head = both, each head's artifacts land in an explicit/ or deq/
subdirectory of the run directory and report.json at the top level carries
the cross-head comparison.

Trace CSV schema (fixed column order, header mandatory):
    step,loss,accuracy,nc1,nc2,nc3,per_class_acc_0..K-1,solver_mean_iters,solver_skip_count

All floats are written with repr(), which round-trips exactly; identical
config + seed therefore reproduces every CSV byte for byte.
"""

from __future__ import annotations

import concurrent.futures
import csv
import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import lpm
from .bounds import ImbalanceSpec, comparison_conditions, imbalance_etf_target
from .deq import SolverPolicy
from .errors import ConfigError
from .etf import gram_distance_to_etf_raw
from .linalg import make_rng
from .lpm import FeatureSet, TrainConfig, TrainTrace
from .metrics import class_means

HEAD_CHOICES = ("explicit", "deq", "both")

PRESETS = {
    # desk-scale defaults: budgets large enough for softmax separation in a
    # few thousand full-batch steps
    "desk": {"learning_rate": 0.05, "e_w": 1.0, "e_h": 1.0, "feature_budget": 1.0},
    # reference training recipe: tiny norm budgets, small learning rate
    "paper": {"learning_rate": 1e-4, "e_w": 0.01, "e_h": 0.01, "feature_budget": 0.01},
}

# key -> python type for the flat config format
_SCHEMA = {
    "name": str,
    "head": str,
    "k": int,
    "d0": int,
    "d": int,
    "balanced_n": int,
    "k_a": int,
    "k_b": int,
    "n_a": int,
    "r": int,
    "learning_rate": float,
    "momentum": float,
    "steps": int,
    "e_w": float,
    "e_h": float,
    "feature_budget": float,
    "seed": int,
    "log_every": int,
    "epsilon": float,
    "t_max": int,
    "on_failure": str,
    "metric_cutoff": float,
    "output_dir": str,
}

_DEFAULTS = {
    "momentum": 0.9,
    "steps": 1000,
    "seed": 0,
    "log_every": 100,
    "epsilon": 1e-3,
    "t_max": 20,
    "on_failure": "skip",
    "metric_cutoff": 1e-10,
}


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
    metric_cutoff: float
    output_dir: str
    balanced_n: Optional[int] = None
    imbalance: Optional[ImbalanceSpec] = None

    def __post_init__(self):
        if self.head not in HEAD_CHOICES:
            raise ConfigError(f"head must be one of {HEAD_CHOICES}, got {self.head!r}")
        if self.k < 2:
            raise ConfigError("k must be at least 2")
        if self.d < 2 or self.d0 < 1:
            raise ConfigError("need d >= 2 and d0 >= 1")
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
        out = {
            "name": self.name,
            "head": self.head,
            "k": self.k,
            "d0": self.d0,
            "d": self.d,
            "learning_rate": self.train.learning_rate,
            "momentum": self.train.momentum,
            "steps": self.train.steps,
            "e_w": self.train.e_w,
            "e_h": self.train.e_h,
            "feature_budget": self.train.feature_budget,
            "seed": self.train.seed,
            "log_every": self.train.log_every,
            "epsilon": self.solver.epsilon,
            "t_max": self.solver.t_max,
            "on_failure": self.solver.on_failure,
            "metric_cutoff": self.metric_cutoff,
        }
        if self.balanced_n is not None:
            out["balanced_n"] = self.balanced_n
        else:
            out.update(
                k_a=self.imbalance.k_a,
                k_b=self.imbalance.k_b,
                n_a=self.imbalance.n_a,
                n_b=self.imbalance.n_b,
            )
        return out

    def canonical_string(self) -> str:
        """Key-sorted, type-normalized serialization; the hash input."""
        parts = []
        for key in sorted(self.canonical_dict()):
            value = self.canonical_dict()[key]
            if isinstance(value, float):
                parts.append(f"{key}={value!r}")
            else:
                parts.append(f"{key}={value}")
        return "\n".join(parts)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_string().encode()).hexdigest()


def config_from_dict(raw: dict, preset: str = "desk", name: str = "experiment") -> ExperimentConfig:
    """Build a config from a flat dict of primitive values.

    Preset values fill budget/learning-rate keys the dict omits; _DEFAULTS
    covers the rest. d defaults to d0 (and vice versa) so the zero-weight
    equilibrium head and the identity explicit head coincide.
    """
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    unknown = set(raw) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    values = dict(_DEFAULTS)
    values.update(PRESETS[preset])
    values.update(raw)

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
        imbalance = ImbalanceSpec(
            k_a=values["k_a"], k_b=values["k_b"], n_a=n_a, n_b=n_a // ratio
        )

    try:
        train = TrainConfig(
            learning_rate=values["learning_rate"],
            steps=values["steps"],
            e_w=values["e_w"],
            e_h=values["e_h"],
            feature_budget=values["feature_budget"],
            seed=values["seed"],
            log_every=values["log_every"],
            momentum=values["momentum"],
            metric_cutoff=values["metric_cutoff"],
            minority_classes=imbalance.minority_classes if imbalance else None,
        )
        solver = SolverPolicy(
            epsilon=values["epsilon"],
            t_max=values["t_max"],
            on_failure=values["on_failure"],
        )
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
        metric_cutoff=values["metric_cutoff"],
        output_dir=values["output_dir"],
        balanced_n=balanced_n,
        imbalance=imbalance,
    )


def load_config(path, preset: str = "desk") -> ExperimentConfig:
    """Parse the flat key = value config format.

    Blank lines and #-comments (full-line or trailing) are ignored; keys are
    typed per the documented schema; unknown keys are an error.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, value = (part.strip() for part in text.split("=", 1))
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
    return config_from_dict(raw, preset=preset, name=path.stem)


# ---------------------------------------------------------------------------
# dataset synthesis
# ---------------------------------------------------------------------------

def synthesize_dataset(cfg: ExperimentConfig, rng: np.random.Generator) -> FeatureSet:
    """Seeded Gaussian backbone features with the config's label layout.

    Labels are class-sorted and majority-first (classes 0..k_a-1 are the
    majority block); columns start at half the feature budget.
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
    """Write the per-snapshot trace; schema documented at module top."""
    header = (
        ["step", "loss", "accuracy", "nc1", "nc2", "nc3"]
        + [f"per_class_acc_{c}" for c in range(k)]
        + ["solver_mean_iters", "solver_skip_count"]
    )
    rows = []
    for snap in trace.snapshots:
        rows.append(
            [str(snap.step), _fmt(snap.loss), _fmt(snap.accuracy),
             _fmt(snap.report.nc1), _fmt(snap.report.nc2), _fmt(snap.report.nc3)]
            + [_fmt(a) for a in snap.report.per_class_accuracy]
            + [_fmt(snap.solver_mean_iters), str(snap.solver_skip_count)]
        )
    _write_validated_csv(path, header, rows)


def export_class_mean_gram(features_h, labels, out_dir) -> Path:
    """Write the K x K Gram of the class-mean features; returns its path.

    Every value is repr()-formatted, so re-parsing the CSV reproduces the
    in-memory Gram exactly.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    h = np.asarray(features_h, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    k = int(labels.max()) + 1
    means = class_means(h, labels, k)
    mean_gram = means.T @ means
    means_path = out_dir / "gram_class_means.csv"
    header = [f"g_{j}" for j in range(k)]
    _write_validated_csv(
        means_path, header, [[_fmt(v) for v in row] for row in mean_gram]
    )
    return means_path


def export_gram(features_h, labels, out_dir) -> tuple:
    """Write the class-sorted sample Gram H^T H and the class-mean Gram.

    Returns (samples_path, means_path). The sample Gram is N x N repr()
    text, re-parsed in full for validation, so runs leave it to
    `collapsekit export-gram`.
    """
    out_dir = Path(out_dir)
    h = np.asarray(features_h, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    means_path = export_class_mean_gram(h, labels, out_dir)
    order = np.argsort(labels, kind="stable")
    h_sorted = h[:, order]
    gram = h_sorted.T @ h_sorted

    samples_path = out_dir / "gram_samples.csv"
    header = [f"g_{j}" for j in range(gram.shape[1])]
    _write_validated_csv(
        samples_path, header, [[_fmt(v) for v in row] for row in gram]
    )
    return samples_path, means_path


def _write_validated_csv(path: Path, header, rows) -> None:
    """Write a CSV and immediately re-parse it to prove the schema holds."""
    path = Path(path)
    try:
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            read_header = next(reader)
            read_rows = list(reader)
    except OSError as exc:
        raise OSError(f"while writing {path}: {exc}") from exc
    if read_header != list(header) or read_rows != [list(r) for r in rows]:
        raise OSError(f"self-validation failed re-reading {path}")


# ---------------------------------------------------------------------------
# run records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeadSummary:
    """Final metrics of one trained head."""

    head: str
    final_report: dict
    final_loss: float
    acc_last10_mean: float
    acc_last10_std: float
    solver_skip_total: int
    feasibility_slack_max: float
    trace_path: str
    h0_init_sha256: str


@dataclass(frozen=True)
class RunRecord:
    config_hash: str
    name: str
    seed: int
    duration_s: float
    heads: dict
    shared_h0_sha256: str
    condition_report: Optional[dict] = None
    condition_note: Optional[str] = None

    def as_dict(self) -> dict:
        out = dataclasses.asdict(self)
        return out


def _head_summary(head_name: str, trace: TrainTrace, trace_path: Path, h0_sha: str) -> HeadSummary:
    accs = [snap.accuracy for snap in trace.snapshots[-10:]]
    return HeadSummary(
        head=head_name,
        final_report=trace.final.report.as_dict(),
        final_loss=trace.final.loss,
        acc_last10_mean=float(np.mean(accs)),
        acc_last10_std=float(np.std(accs)),
        solver_skip_total=int(sum(s.solver_skip_count for s in trace.snapshots)),
        feasibility_slack_max=trace.feasibility_slack_max,
        trace_path=str(trace_path),
        h0_init_sha256=h0_sha,
    )


def _class_mean_features(trace: TrainTrace) -> np.ndarray:
    h = lpm.head_features(trace.head, trace.features.h0)
    return class_means(h, trace.features.labels, trace.features.k)


def _mean_class_cosine(trace: TrainTrace) -> float:
    """Mean over classes of cos(class-mean feature, classifier row)."""
    means = _class_mean_features(trace)
    w = trace.classifier.w
    cosines = []
    for c in range(means.shape[1]):
        m, row = means[:, c], w[c]
        denom = np.linalg.norm(m) * np.linalg.norm(row)
        cosines.append(float(m @ row / denom) if denom > 0 else 0.0)
    return float(np.mean(cosines))


def compare_heads(cfg: ExperimentConfig, features_init: FeatureSet, traces: dict) -> tuple:
    """Cross-head comparison for an imbalanced both-heads run.

    The scalar preconditions are evaluated on the shared backbone features
    both heads started from (the backbone output is standardized across
    models, so its class-mean Gram is the m matrix the conditions refer to).
    The realized quantities they gate are measured on the trained states:
    raw Gram distances of class-mean post-head features to the budget-scaled
    ETF Gram, and the ratio of mean feature/classifier cosines (deq over
    explicit).
    """
    if cfg.train.e_h >= 1.0:
        return None, "e_h >= 1: comparison conditions undefined (1/(1-e_h) diverges)"
    target = imbalance_etf_target(cfg.k, cfg.train.feature_budget)
    means0 = class_means(features_init.h0, features_init.labels, cfg.k)
    conditions = comparison_conditions(
        cfg.train.e_w, cfg.train.e_h, means0.T @ means0, target
    )
    alpha = np.sqrt(cfg.train.feature_budget)
    dist = {}
    for name, trace in traces.items():
        means = _class_mean_features(trace)
        dist[name] = gram_distance_to_etf_raw(means.T @ means, cfg.k, alpha)
    explicit_cosine = _mean_class_cosine(traces["explicit"])
    if explicit_cosine == 0.0:
        cos_ratio = None
        note = "explicit head's mean class cosine is 0: nc3_cosine_ratio undefined"
    else:
        cos_ratio = _mean_class_cosine(traces["deq"]) / explicit_cosine
        note = None
    merged = dataclasses.replace(
        conditions,
        nc2_distance_explicit=dist["explicit"],
        nc2_distance_deq=dist["deq"],
        nc3_cosine_ratio=cos_ratio,
    )
    return merged, note


# ---------------------------------------------------------------------------
# running experiments
# ---------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig, out_dir=None, quiet: bool = True) -> RunRecord:
    """Train the configured head(s) on one synthesized dataset.

    Both heads consume the same backbone-feature initialization (the record
    carries its hash per head, asserted identical) and the same classifier
    initialization. Artifacts are written under out_dir (defaults to the
    config's output_dir).
    """
    t0 = time.perf_counter()
    out = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    rng = make_rng(cfg.train.seed)
    features = synthesize_dataset(cfg, rng)
    h0_sha = hashlib.sha256(np.ascontiguousarray(features.h0).tobytes()).hexdigest()
    cls_init = lpm.initialize_classifier(cfg.k, cfg.d, cfg.train.e_w, rng)
    # draw both head inits in a fixed order so head selection does not
    # perturb the stream consumed by either head
    head_inits = {
        "explicit": lpm.initialize_explicit_head(cfg.d, cfg.d0, cfg.train.e_h, rng),
        "deq": lpm.initialize_deq_head(cfg.d, cfg.train.e_h, rng, policy=cfg.solver),
    }

    head_names = ("explicit", "deq") if cfg.head == "both" else (cfg.head,)
    traces, summaries = {}, {}
    for head_name in head_names:
        run_dir = out / head_name if cfg.head == "both" else out
        run_dir.mkdir(parents=True, exist_ok=True)
        consumed_sha = hashlib.sha256(
            np.ascontiguousarray(features.h0).tobytes()
        ).hexdigest()
        if consumed_sha != h0_sha:
            raise AssertionError("shared H0 initialization was mutated between heads")
        trace = lpm.train(features, head_inits[head_name], cls_init, cfg.train)
        traces[head_name] = trace

        trace_path = run_dir / "trace.csv"
        write_trace_csv(trace, cfg.k, trace_path)
        h_final = lpm.head_features(trace.head, trace.features.h0)
        export_class_mean_gram(h_final, trace.features.labels, run_dir)
        np.savez(
            run_dir / f"state_{head_name}.npz",
            h=h_final,
            h0=trace.features.h0,
            labels=trace.features.labels,
            w=trace.classifier.w,
            head_w=trace.head.w_ex if head_name == "explicit" else trace.head.weights.w,
        )
        summaries[head_name] = _head_summary(head_name, trace, trace_path, consumed_sha)
        if not quiet:
            final = trace.final
            print(
                f"[{cfg.name}/{head_name}] step {final.step}: loss {final.loss:.6f} "
                f"acc {final.accuracy:.4f} nc1 {final.report.nc1:.4g} "
                f"nc2 {final.report.nc2:.4g} nc3 {final.report.nc3:.4g}"
            )

    condition_report, condition_note = None, None
    if cfg.head == "both" and cfg.imbalance is not None:
        condition_report, condition_note = compare_heads(cfg, features, traces)

    record = RunRecord(
        config_hash=cfg.config_hash(),
        name=cfg.name,
        seed=cfg.train.seed,
        duration_s=time.perf_counter() - t0,
        heads={name: dataclasses.asdict(s) for name, s in summaries.items()},
        shared_h0_sha256=h0_sha,
        condition_report=condition_report.as_dict() if condition_report else None,
        condition_note=condition_note,
    )
    (out / "report.json").write_text(json.dumps(record.as_dict(), indent=2, sort_keys=True))
    return record


def reexport_grams(run_dir) -> list:
    """Write the sample and class-mean Gram CSVs of a finished run from its
    state_*.npz files (one pair per head directory)."""
    run_dir = Path(run_dir)
    states = sorted(run_dir.rglob("state_*.npz"))
    if not states:
        raise ConfigError(f"no state_*.npz found under {run_dir}")
    written = []
    for state_path in states:
        with np.load(state_path) as state:
            written.extend(export_gram(state["h"], state["labels"], state_path.parent))
    return written


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _sweep_worker(args):
    path, preset, out_root, seed_override = args
    cfg = load_config(path, preset=preset)
    if seed_override is not None:
        cfg = replace(cfg, train=replace(cfg.train, seed=seed_override))
    out_dir = Path(out_root) / cfg.name if out_root else None
    record = run_experiment(cfg, out_dir=out_dir)
    return cfg.config_hash(), record.as_dict()


def run_sweep(config_dir, preset: str = "desk", out_root=None, seed=None,
              max_workers: Optional[int] = None) -> dict:
    """Run every *.cfg under config_dir concurrently, one worker per config.

    Runs are fully isolated; the aggregator merges RunRecords keyed by
    config hash into sweep_summary.json alongside the configs (or under
    out_root when given).
    """
    config_dir = Path(config_dir)
    paths = sorted(str(p) for p in config_dir.glob("*.cfg"))
    if not paths:
        raise ConfigError(f"no *.cfg files in {config_dir}")
    jobs = [(p, preset, str(out_root) if out_root else None, seed) for p in paths]
    merged = {}
    with concurrent.futures.ProcessPoolExecutor(max_workers=max_workers) as pool:
        for config_hash, record in pool.map(_sweep_worker, jobs):
            merged[config_hash] = record
    summary_dir = Path(out_root) if out_root else config_dir
    summary_dir.mkdir(parents=True, exist_ok=True)
    (summary_dir / "sweep_summary.json").write_text(
        json.dumps(merged, indent=2, sort_keys=True)
    )
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
