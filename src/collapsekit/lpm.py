"""Layer-peeled optimization: cross-entropy over constrained free features.

The blocks are the backbone features H0, a head (explicit linear map or
linear equilibrium cell), and the classifier W. The feasible set puts a
mean-square ball on classifier rows, a Frobenius ball on the head weight,
and a per-class mean-square ball on the post-head features; training is
full-batch projected gradient descent with momentum, projecting after every
step. Everything is bias-free.

Training parametrization: the optimization programs treat the post-head
features (the equilibrium z* or W_ex @ H0) as primal variables, with the
head equation acting as an exact link to the backbone features. train()
therefore descends on (W, Z) and derives H0 = link^{-1}(Z) through the head;
the head weight is a gauge block in these coordinates (the loss does not
depend on it once Z is free), so it stays at its feasible initialization.
Descending instead through the 3-factor chain W @ head @ H0 provably stalls
in rank-deficient constrained stationary points far from the program's
optimum (see the chain-rule gradients in loss_and_grads, which remain the
public differentiation API and are verified against finite differences).

Snapshots are recorded, not evaluated, when train() takes them: a record
holds the step's z and w with the logits and loss the training loop
computes for that state anyway. Pending records are evaluated in chunks,
the NC metrics of a chunk in one stacked pass (NcReporter.reports), each
state with the bits it would get alone.

Two determinism details are deliberate:
  * reductions over the class axis run in a canonical row order, so a
    class relabeling (with the matching row permutation of W) does not
    change their bits. The softmax denominator sums each column's values in
    ascending order; train() keeps each column's order from the previous
    step and re-sorts only the columns whose order changed (ClassSum),
    which gives the bits of a fresh sort. The logits product w @ z is not
    canonical: BLAS may round a row's last bits differently at another row
    position (seen with OpenBLAS at some N, e.g. 370), so a relabeled run
    reproduces the loss trace bit for bit only where it does not;
  * ball projections iterate the shrink factor to a floating-point fixed
    point, so projecting twice is exactly projecting once whenever the
    projection clears its budget (a rescale that stalls one ulp above the
    budget is kept, and a second projection rescales again).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import deq, linalg
from .deq import DeqWeights, SolverPolicy, fixed_point_iterate
from .errors import TrainingDivergedError
from .linalg import DEFAULT_PINV_CUTOFF, as_matrix, check_conditioning
from .linalg import solve_linear  # noqa: F401  (lpm.solve_linear: wrapped by perfbench/tracer.py)
from .metrics import ClassPartition, NcReport, NcReporter
from .metrics import nc_report  # noqa: F401  (lpm.nc_report: wrapped by perfbench/tracer.py)

# The heads look deq.fixed_point_closed_form and linalg.pseudo_inverse up
# through their modules at call time, so a rebinding of either is seen.

# train() evaluates its snapshots in stacked chunks whose features hold at
# most this many float64 elements (256 KB): 10 states at K=10, N=200, D=16,
# and one at N=1535. Only the D x N features are counted; a chunk's K x N
# logits and the copies its evaluation makes come on top. A chunk capped by
# count alone raised peak memory at large N.
SNAPSHOT_CHUNK_ELEMENTS = 2**15


# ---------------------------------------------------------------------------
# parameter blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureSet:
    """Backbone features (one column per sample) with their class labels."""

    h0: np.ndarray
    labels: np.ndarray
    k: int

    def __post_init__(self):
        h0 = as_matrix(self.h0, "h0")
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.shape[0] != h0.shape[1]:
            raise ValueError(
                f"labels must be 1-D with one entry per column, got {labels.shape}"
            )
        if self.k < 2:
            raise ValueError(f"need at least two classes, got k={self.k}")
        if labels.min() < 0 or labels.max() >= self.k:
            raise ValueError(f"labels must lie in [0, {self.k})")
        counts = np.bincount(labels, minlength=self.k)
        if np.any(counts == 0):
            raise ValueError(f"every class needs at least one sample, counts={counts}")
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "labels", labels)

    @property
    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)

    @property
    def n_total(self) -> int:
        return self.h0.shape[1]


@dataclass(frozen=True)
class ClassifierWeights:
    """Last-layer classifier W, one row per class; TrainConfig.e_w budgets
    its mean-square row norm (1/K) sum_k ||w_k||^2."""

    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", as_matrix(self.w, "w"))


class HeadModel:
    """The interface both heads share:

      weight               the head weight (its Frobenius budget is TrainConfig.e_h)
      with_weight(w)       the same head with another weight
      apply(h0)            the head output for backbone features h0
      preimage_operator()  the map z -> H0 with apply(H0) = z, constants built once
      backward(upstream, h0)
                           (grad_head, grad_h0) of <upstream, apply(h0)>
      diagnostic(z, h0, preimage)
                           a snapshot's (solver iterations, skip count); h0 is
                           z's preimage, or None to take preimage(z)
    """

    @property
    def d(self) -> int:
        return self.weight.shape[0]


@dataclass(frozen=True)
class ExplicitHead(HeadModel):
    """Plain linear head z = w_ex @ h0."""

    w_ex: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w_ex", as_matrix(self.w_ex, "w_ex"))

    @property
    def weight(self) -> np.ndarray:
        return self.w_ex

    def with_weight(self, w) -> "ExplicitHead":
        return ExplicitHead(w_ex=w)

    def apply(self, h0: np.ndarray) -> np.ndarray:
        return self.w_ex @ h0

    def preimage_operator(self):
        """A conditioning-checked solve, or the minimum-norm preimage
        through the pseudo-inverse when d0 > d."""
        w = self.w_ex
        d, d0 = w.shape
        if d == d0:
            check_conditioning(w)
            return lambda z: np.linalg.solve(w, z)
        if d0 > d:
            pinv = linalg.pseudo_inverse(w, 1e-12)
            return lambda z: pinv @ z
        raise ValueError(
            f"explicit head maps {d0} -> {d} dims; d0 >= d is required for an exact preimage"
        )

    def backward(self, upstream, h0) -> tuple:
        return upstream @ h0.T, self.w_ex.T @ upstream

    def diagnostic(self, z, h0, preimage) -> tuple:
        return 0.0, 0


@dataclass(frozen=True)
class DeqHead(HeadModel):
    """Equilibrium head z = W z + h0. The forward solves the equilibrium in
    closed form; the policy governs the Picard diagnostic of each training
    snapshot."""

    weights: DeqWeights
    policy: SolverPolicy = SolverPolicy()

    @property
    def weight(self) -> np.ndarray:
        return self.weights.w

    def with_weight(self, w) -> "DeqHead":
        return DeqHead(weights=DeqWeights(w=w), policy=self.policy)

    def apply(self, h0: np.ndarray) -> np.ndarray:
        return deq.fixed_point_closed_form(self.weights, h0)

    def preimage_operator(self):
        """The link H0 = (I - W) z."""
        link = np.eye(self.d) - self.weights.w
        return lambda z: link @ z

    def backward(self, upstream, h0) -> tuple:
        return deq.head_gradient(self.weights, h0, upstream)

    def diagnostic(self, z, h0, preimage) -> tuple:
        """Picard iteration under the head's policy, which raises when it does
        not converge and on_failure is "error"; skips are the columns whose
        last update exceeds epsilon."""
        result = fixed_point_iterate(self.weights, preimage(z) if h0 is None else h0,
                                     self.policy)
        skips = np.count_nonzero(result.column_residuals > self.policy.epsilon)
        return float(result.iterations), int(skips)


@dataclass(frozen=True)
class TrainConfig:
    """Full-batch projected-gradient settings.

    e_h budgets the head weight; feature_budget budgets the post-head
    features (the two coincide in the reference formulation but are kept
    separate so the equilibrium head can run with a tighter contraction).
    The field defaults below are the config-file defaults (the harness's
    "desk" preset): they keep softmax logits large enough to separate in a
    few thousand steps. The "paper" preset sets e_w = e_h = 0.01,
    feature_budget = 0.01 and learning_rate = 1e-4.
    """

    learning_rate: float = 0.05
    steps: int = 1000
    e_w: float = 1.0
    e_h: float = 1.0
    feature_budget: float = 1.0
    seed: int = 0
    log_every: int = 100
    momentum: float = 0.9
    metric_cutoff: float = DEFAULT_PINV_CUTOFF
    minority_classes: Optional[tuple] = None

    def __post_init__(self):
        if not self.learning_rate >= 0.0:
            raise ValueError("learning_rate must be non-negative")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if not all(budget > 0.0 for budget in (self.e_w, self.e_h, self.feature_budget)):
            raise ValueError("budgets must be positive")
        if self.log_every < 1:
            raise ValueError("log_every must be at least 1")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not (0.0 < self.metric_cutoff < 1.0):
            raise ValueError(f"metric_cutoff must lie in (0, 1), got {self.metric_cutoff}")
        if self.minority_classes is not None and len(self.minority_classes) < 2:
            raise ValueError(
                f"minority_classes needs at least two classes, got {self.minority_classes}"
            )


@dataclass(frozen=True)
class TraceSnapshot:
    """One snapshot: its step, its NC report (which holds the state's loss
    and accuracy) and the head's solver diagnostic."""

    step: int
    report: NcReport
    solver_mean_iters: float = 0.0
    solver_skip_count: int = 0


@dataclass
class TrainTrace:
    """Per-snapshot records plus the final parameters and full loss history."""

    snapshots: list = field(default_factory=list)
    loss_history: np.ndarray = None
    features: FeatureSet = None
    head: HeadModel = None
    classifier: ClassifierWeights = None
    feasibility_slack_max: float = 0.0

    @property
    def final(self) -> TraceSnapshot:
        return self.snapshots[-1]


# ---------------------------------------------------------------------------
# canonical reductions
# ---------------------------------------------------------------------------

def _class_order(w: np.ndarray) -> np.ndarray:
    # Canonical row order (lexicographic on row contents). Contracting the
    # class axis in this order fixes the floating-point reduction sequence,
    # so a class relabeling cannot perturb the last ulp.
    return np.lexsort(w.T[::-1])


def _sum_classes(x: np.ndarray) -> np.ndarray:
    # Order-canonical sum over axis 0: each column's values in ascending
    # order, added row by row. ClassSum reuses the order across calls.
    return np.add.reduce(np.sort(x, axis=0), axis=0)


class ClassSum:
    """_sum_classes for a sequence of K x N arrays whose column orders
    change little from call to call (the softmax terms of successive
    training steps), bit for bit.

    Each column's ascending order from the previous call is applied with
    one flat take. Columns no longer ascending, which includes every column
    holding a NaN, are re-sorted: their values by np.sort, as _sum_classes
    would, and their order by argsort. Ties between equal values can land
    in either order; their bits are equal, or they are zeros of both signs,
    whose ascending sum does not depend on their order.
    """

    def __init__(self, k: int, n: int):
        self.n = n
        # index[r, j] = j + N * (row of column j's r-th smallest entry)
        self.index = np.arange(k * n).reshape(k, n)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        srt = x.take(self.index)
        moved = np.flatnonzero(~np.logical_and.reduce(srt[1:] >= srt[:-1], axis=0))
        if moved.size:
            cols = x[:, moved]
            srt[:, moved] = np.sort(cols, axis=0)
            self.index[:, moved] = np.argsort(cols, axis=0) * self.n + moved
        return np.add.reduce(srt, axis=0)


def classifier_mean_square(w: np.ndarray) -> float:
    """(1/K) sum_k ||w_k||^2 with an order-canonical class reduction."""
    row_sq = np.einsum("kd,kd->k", w, w)
    return float(np.add.reduce(np.sort(row_sq)) / w.shape[0])


def _feature_norm(h: np.ndarray, weights: np.ndarray) -> float:
    # weights are a ClassPartition's per-sample 1 / (K n_y)
    col_sq = np.einsum("dn,dn->n", h, h)
    return float(np.dot(col_sq, weights))


def feature_norm_functional(h: np.ndarray, labels: np.ndarray, k: int) -> float:
    """(1/K) sum_k (1/n_k) sum_{i in k} ||h_i||^2, accumulated in sample order."""
    return _feature_norm(h, ClassPartition.build(labels, k).weights)


def _true_class_index(labels: np.ndarray, n: int) -> np.ndarray:
    # flat index of each column's true-class entry in a K x N array
    return labels * n + np.arange(n)


def _softmax_terms(logits: np.ndarray, picks: np.ndarray, class_sum=_sum_classes):
    """Per-sample cross-entropy, exp(max-shifted logits) and its class sums.

    The one softmax kernel behind cross_entropy, the training step and
    loss_and_grads; picks is _true_class_index(labels, N), and class_sum is
    _sum_classes or the training run's ClassSum.
    """
    shifted = logits - logits.max(axis=0, keepdims=True)
    exp = np.exp(shifted)
    denom = class_sum(exp)
    return np.log(denom) - shifted.take(picks), exp, denom


# ---------------------------------------------------------------------------
# raw-array core (the training loop avoids re-validating dataclasses per step)
# ---------------------------------------------------------------------------

def _logit_grads(exp, denom, picks, n, w, z):
    """Gradients (grad_w, grad_z) of the mean cross-entropy of logits w @ z,
    from _softmax_terms' exp (overwritten) and denom; grad_z contracts the
    class axis in canonical order."""
    g = np.divide(exp, denom, out=exp)
    g.reshape(-1)[picks] -= 1.0
    g /= n
    order = _class_order(w)
    return g @ z.T, w[order].T @ g[order]


def _shrink_to_ball(block: np.ndarray, value_fn, budget: float, squared: bool):
    """Radially rescale block until value_fn(block) <= budget.

    Returns the block and value_fn of that block. The shrink factor is
    re-applied until the recomputed functional clears the budget or stops
    moving, which makes the projection an exact floating-point fixed point
    (projecting twice == projecting once) whenever the value clears the
    budget.
    """
    value = value_fn(block)
    for _ in range(4):
        if value <= budget:
            break
        factor = budget / value
        factor = math.sqrt(factor) if squared else factor
        if factor >= 1.0:
            break
        block = block * factor
        new_value = value_fn(block)
        stalled = new_value >= value
        value = new_value
        if stalled:
            break
    return block, value


def _project_raw(h0, weights, head, w, cfg: TrainConfig):
    """Project (H0, head, W); weights are the feature functional's."""
    w, _ = _shrink_to_ball(w, classifier_mean_square, cfg.e_w, squared=True)
    head_w, _ = _shrink_to_ball(head.weight, np.linalg.norm, cfg.e_h, squared=False)
    if head_w is not head.weight:
        head = head.with_weight(head_w)

    def induced(h0_candidate):
        return _feature_norm(head.apply(h0_candidate), weights)

    h0, _ = _shrink_to_ball(h0, induced, cfg.feature_budget, squared=True)
    return h0, head, w


def head_preimage(head: HeadModel, z: np.ndarray) -> np.ndarray:
    """Backbone features H0 whose head output is exactly z.

    For the equilibrium head the link inverts in closed form,
    H0 = (I - W) z. The explicit head needs rank d, which the
    scaled-orthogonal initialization guarantees; the minimum-norm preimage
    is returned when d0 > d.
    """
    z = as_matrix(z, "z")
    if z.shape[0] != head.d:
        raise ValueError(f"z has {z.shape[0]} rows, head outputs {head.d}")
    return head.preimage_operator()(z)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def head_features(head: HeadModel, h0) -> np.ndarray:
    """Map backbone features through the head; the equilibrium head solves
    (I - W) z = h0 directly."""
    return head.apply(as_matrix(h0, "h0"))


def cross_entropy(logits, labels) -> float:
    """Mean negative log-softmax of the true-class logit, max-shift stabilized."""
    logits = as_matrix(logits, "logits")
    labels = np.asarray(labels, dtype=np.int64)
    per_sample, _, _ = _softmax_terms(logits, _true_class_index(labels, logits.shape[1]))
    return float(np.add.reduce(per_sample) / logits.shape[1])


def accuracy(logits, labels) -> float:
    """Fraction of columns whose argmax matches the label; argmax ties break
    toward the lowest class index."""
    logits = as_matrix(logits, "logits")
    labels = np.asarray(labels, dtype=np.int64)
    return float(np.mean(np.argmax(logits, axis=0) == labels))


def forward(features: FeatureSet, head: HeadModel, cls: ClassifierWeights) -> np.ndarray:
    """Logits W @ head(H0) for either head variant."""
    h = head_features(head, features.h0)
    if cls.w.shape[1] != h.shape[0]:
        raise ValueError(
            f"classifier expects {cls.w.shape[1]}-dim features, head produced {h.shape[0]}"
        )
    return cls.w @ h


def loss_and_grads(features: FeatureSet, head: HeadModel, cls: ClassifierWeights):
    """Cross-entropy loss and its exact gradients for every trainable block.

    Returns (loss, grads, logits, h) with grads keyed by "w", "head", "h0".
    """
    h0, w = features.h0, cls.w
    h = head.apply(h0)
    logits = w @ h
    n = logits.shape[1]
    picks = _true_class_index(features.labels, n)
    per_sample, exp, denom = _softmax_terms(logits, picks)
    grad_w, upstream = _logit_grads(exp, denom, picks, n, w, h)
    grad_head, grad_h0 = head.backward(upstream, h0)
    loss = float(np.add.reduce(per_sample) / n)
    return loss, {"w": grad_w, "head": grad_head, "h0": grad_h0}, logits, h


def project_feasible(
    features: FeatureSet,
    head: HeadModel,
    cls: ClassifierWeights,
    cfg: TrainConfig,
):
    """Euclidean projection of every block onto its constraint ball, of
    budget cfg.e_w, cfg.e_h or cfg.feature_budget (no block holds a budget).

    Classifier and head shrink radially when over budget; the feature ball
    constrains the post-head features, so H0 is rescaled by the factor that
    puts head(H0) exactly on the boundary (the head is linear, so scaling H0
    scales head(H0) by the same factor). Blocks inside their balls are
    returned untouched.
    """
    weights = ClassPartition.build(features.labels, features.k).weights
    h0, head, w = _project_raw(features.h0, weights, head, cls.w, cfg)
    if h0 is not features.h0:
        features = replace(features, h0=h0)
    if w is not cls.w:
        cls = ClassifierWeights(w=w)
    return features, head, cls


class _SnapshotBuffer:
    """train()'s snapshot records, evaluated in stacked chunks and
    appended in step order to snapshots (see train).

    pending holds (step, z, w, logits, loss, h0) per record, h0 given at
    step 0 only. The run's metric constants are built once.
    """

    def __init__(self, head: HeadModel, preimage, partition: ClassPartition,
                 cfg: TrainConfig, feature_size: int, snapshots: list):
        self.reporter = NcReporter.build(partition, cfg.metric_cutoff, cfg.minority_classes)
        self.head = head
        self.preimage = preimage
        self.chunk = max(1, SNAPSHOT_CHUNK_ELEMENTS // feature_size)
        self.pending = []
        self.snapshots = snapshots

    def record(self, step, z, w, logits, loss, h0=None) -> None:
        """Take a snapshot of the state (z, w) with its logits w @ z and its
        loss, and evaluate the pending ones once they fill a chunk; a
        non-finite z or w raises ValueError here."""
        z, w = as_matrix(z, "features"), as_matrix(w, "w")
        self.pending.append((step, z, w, logits, loss, h0))
        if len(self.pending) == self.chunk:
            self.flush()

    def flush(self) -> None:
        """Evaluate every pending record in one stacked pass."""
        if not self.pending:
            return
        steps, zs, ws, logits, losses, h0s = zip(*self.pending)
        self.pending = []
        reports = self.reporter.reports(np.stack(zs), np.stack(ws), np.stack(logits), losses)
        for step, z, h0, report in zip(steps, zs, h0s, reports):
            mean_iters, skip_count = self.head.diagnostic(z, h0, self.preimage)
            self.snapshots.append(TraceSnapshot(step, report, mean_iters, skip_count))


def train(
    features: FeatureSet,
    head: HeadModel,
    cls: ClassifierWeights,
    cfg: TrainConfig,
) -> TrainTrace:
    """Projected gradient descent with momentum, feature-primal coordinates.

    The post-head features Z start at head(H0) and descend together with W;
    the backbone features are the exact preimage H0 = link^{-1}(Z) at every
    recorded state, and the head weight holds its feasible initialization
    (its gradient in these coordinates is identically zero). Projections run
    after every update; snapshots are taken at step 0, every cfg.log_every
    steps, and at the final step. A non-finite z or w at a snapshot step
    raises ValueError at that step. A non-finite loss aborts with
    TrainingDivergedError carrying the trace collected so far: every
    snapshot taken before it.

    A snapshot is recorded with the logits and loss the loop computes for
    its state, and evaluated later. Pending records are evaluated in one
    stacked pass once their features fill SNAPSHOT_CHUNK_ELEMENTS, at the
    end of training, and before TrainingDivergedError is raised. The head's
    diagnostic runs per snapshot: the deq head's Picard solve, whose
    SolverConvergenceError under on_failure="error" ends the run.

    Built once per run and reused by every step and snapshot:
      * the class partition: per-class index arrays, class counts and the
        feature functional's sample weights 1 / (K n_y);
      * the projected head (a validated DeqWeights for the equilibrium
        head) and its preimage operator: the explicit head's conditioning
        check, or the deq link I - W;
      * the NC metric constants (cosine pair index, normalized ETF
        target);
      * the head's slack term, constant because the head weight is;
      * the true-class flat index, the ClassSum that keeps each column's
        class order from step to step, and the buffers the momentum and
        position updates write in place.
    Each projection returns its functional's value, which the slack reuses.
    """
    labels, k = features.labels, features.k
    partition = ClassPartition.build(labels, k)
    weights = partition.weights
    h0, head, w = _project_raw(features.h0, weights, head, cls.w, cfg)
    z = head.apply(h0)
    preimage = head.preimage_operator()
    head_slack = float(np.linalg.norm(head.weight)) / cfg.e_h - 1.0
    n = z.shape[1]
    picks = _true_class_index(labels, n)
    class_sum = ClassSum(k, n)

    def feature_norm(b):
        return _feature_norm(b, weights)

    trace = TrainTrace()
    snapshots = _SnapshotBuffer(head, preimage, partition, cfg, z.size, trace.snapshots)
    losses = []
    # the updates run in place, so the loop owns its w and z (_project_raw
    # can return cls.w itself) and records copies of them
    w, z = np.copy(w), np.copy(z)
    v_w, v_z = np.zeros_like(w), np.zeros_like(z)
    step_w, step_z = np.empty_like(w), np.empty_like(z)
    slack_max = 0.0

    def finalize():
        snapshots.flush()
        trace.loss_history = np.asarray(losses)
        trace.feasibility_slack_max = slack_max
        if np.all(np.isfinite(z)) and np.all(np.isfinite(w)):
            trace.features = replace(features, h0=preimage(z))
            trace.head = head
            trace.classifier = ClassifierWeights(w=w)
        # on a non-finite abort the last valid snapshot already holds the
        # most recent usable state

    # iteration `step` takes the loss of the state after `step` updates,
    # records that state if it is a snapshot step, and applies update step + 1
    for step in range(cfg.steps + 1):
        logits = w @ z
        per_sample, exp, denom = _softmax_terms(logits, picks, class_sum)
        loss = float(np.add.reduce(per_sample) / n)
        if step % cfg.log_every == 0 or step == cfg.steps:
            snapshots.record(step, np.copy(z), np.copy(w), logits, loss,
                             h0 if step == 0 else None)
        if step == cfg.steps:
            break
        if not math.isfinite(loss):
            finalize()
            raise TrainingDivergedError(
                f"loss became non-finite at step {step + 1}", trace=trace
            )
        losses.append(loss)

        gw, gz = _logit_grads(exp, denom, picks, n, w, z)

        # v = momentum * v + grad; x = x - learning_rate * v
        np.multiply(v_w, cfg.momentum, out=v_w)
        v_w += gw
        np.multiply(v_z, cfg.momentum, out=v_z)
        v_z += gz
        w -= np.multiply(v_w, cfg.learning_rate, out=step_w)
        z -= np.multiply(v_z, cfg.learning_rate, out=step_z)

        w, w_value = _shrink_to_ball(w, classifier_mean_square, cfg.e_w, squared=True)
        z, z_value = _shrink_to_ball(z, feature_norm, cfg.feature_budget, squared=True)
        slack_max = max(
            slack_max,
            w_value / cfg.e_w - 1.0,
            head_slack,
            z_value / cfg.feature_budget - 1.0,
        )

    finalize()
    return trace


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def initialize_classifier(k, d, e_w, rng) -> ClassifierWeights:
    """Gaussian rows rescaled so the mean-square functional sits at e_w / 2."""
    w = rng.standard_normal((k, d))
    w *= math.sqrt(0.5 * e_w / classifier_mean_square(w))
    return ClassifierWeights(w=w)


def initialize_explicit_head(d, d0, e_h, rng) -> ExplicitHead:
    """Scaled-orthogonal map on the Frobenius-ball boundary.

    Drawn as the Q factor of a seeded Gaussian, so the head is full rank
    with uniform singular values e_h / sqrt(d); a raw Gaussian draw can be
    ill-conditioned enough to corrupt the feature preimage.
    """
    if d0 < d:
        raise ValueError(f"explicit head needs d0 >= d, got d0={d0}, d={d}")
    w = (e_h / math.sqrt(d)) * linalg.random_orthonormal(d0, d, rng).T
    return ExplicitHead(w_ex=w)


def initialize_deq_head(d, e_h, rng, policy: SolverPolicy = SolverPolicy()) -> DeqHead:
    """Gaussian cell rescaled to half the Frobenius budget (a contraction
    whenever e_h < 2)."""
    w = rng.standard_normal((d, d))
    w *= 0.5 * e_h / np.linalg.norm(w)
    return DeqHead(weights=DeqWeights(w=w), policy=policy)


def initialize_features(labels, k, d0, feature_budget, rng) -> FeatureSet:
    """Gaussian columns rescaled so H0 itself sits at half the feature budget."""
    labels = np.asarray(labels, dtype=np.int64)
    h0 = rng.standard_normal((d0, labels.shape[0]))
    h0 *= math.sqrt(0.5 * feature_budget / feature_norm_functional(h0, labels, k))
    return FeatureSet(h0=h0, labels=labels, k=k)
