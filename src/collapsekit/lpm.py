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

Two determinism details are deliberate:
  * reductions over the class axis run in a canonical row order, so
    relabeling classes (with the matching row permutation of W) reproduces
    a training run bit for bit;
  * ball projections iterate the shrink factor to a floating-point fixed
    point, so projecting twice is exactly projecting once whenever the
    projection clears its budget (a rescale that stalls one ulp above the
    budget is kept, and a second projection rescales again).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from .deq import DeqWeights, SolverPolicy, fixed_point_iterate
from .errors import TrainingDivergedError
from .linalg import DEFAULT_PINV_CUTOFF, as_matrix, check_conditioning, solve_linear
from .metrics import ClassPartition, NcReport, NcReporter
from .metrics import nc_report  # noqa: F401  (lpm.nc_report: wrapped by perfbench/tracer.py)

# Above this head dimension the training forward falls back to Picard
# iteration instead of a direct solve.
CLOSED_FORM_MAX_DIM = 512


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

    @property
    def d0(self) -> int:
        return self.h0.shape[0]


@dataclass(frozen=True)
class ClassifierWeights:
    """Last-layer classifier with the mean-square row budget
    (1/K) sum_k ||w_k||^2 <= e_w."""

    w: np.ndarray
    e_w: float

    def __post_init__(self):
        w = as_matrix(self.w, "w")
        if self.e_w <= 0.0:
            raise ValueError(f"e_w must be positive, got {self.e_w}")
        object.__setattr__(self, "w", w)

    def mean_square(self) -> float:
        return classifier_mean_square(self.w)


@dataclass(frozen=True)
class ExplicitHead:
    """Plain linear head with Frobenius budget ||w_ex||_F <= e_h."""

    w_ex: np.ndarray
    e_h: float

    def __post_init__(self):
        w = as_matrix(self.w_ex, "w_ex")
        if self.e_h <= 0.0:
            raise ValueError(f"e_h must be positive, got {self.e_h}")
        object.__setattr__(self, "w_ex", w)

    @property
    def d(self) -> int:
        return self.w_ex.shape[0]


@dataclass(frozen=True)
class DeqHead:
    """Equilibrium head: weights carry their own Frobenius budget."""

    weights: DeqWeights
    policy: SolverPolicy = SolverPolicy()

    @property
    def d(self) -> int:
        return self.weights.dim


HeadModel = Union[ExplicitHead, DeqHead]


@dataclass(frozen=True)
class TrainConfig:
    """Full-batch projected-gradient settings.

    e_h budgets the head weight; feature_budget budgets the post-head
    features (the two coincide in the reference formulation but are kept
    separate so the equilibrium head can run with a tighter contraction).
    The "paper" preset in the harness sets e_w = e_h = 0.01 and
    learning_rate = 1e-4; the desk-scale defaults below keep softmax logits
    large enough to separate in a few thousand steps.
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
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must be non-negative")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if min(self.e_w, self.e_h, self.feature_budget) <= 0.0:
            raise ValueError("budgets must be positive")
        if self.log_every < 1:
            raise ValueError("log_every must be at least 1")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")


@dataclass(frozen=True)
class TraceSnapshot:
    step: int
    loss: float
    accuracy: float
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
    # Order-canonical sum over axis 0 (ascending values).
    return np.sum(np.sort(x, axis=0), axis=0)


def classifier_mean_square(w: np.ndarray) -> float:
    """(1/K) sum_k ||w_k||^2 with an order-canonical class reduction."""
    row_sq = np.einsum("kd,kd->k", w, w)
    return float(np.sum(np.sort(row_sq)) / w.shape[0])


def _feature_norm(h: np.ndarray, weights: np.ndarray) -> float:
    # weights are a ClassPartition's per-sample 1 / (K n_y)
    col_sq = np.einsum("dn,dn->n", h, h)
    return float(np.dot(col_sq, weights))


def feature_norm_functional(h: np.ndarray, labels: np.ndarray, k: int) -> float:
    """(1/K) sum_k (1/n_k) sum_{i in k} ||h_i||^2, accumulated in sample order."""
    return _feature_norm(h, ClassPartition.build(labels, k).weights)


def _softmax_terms(logits: np.ndarray, labels: np.ndarray, cols: np.ndarray):
    """Per-sample cross-entropy, exp(max-shifted logits) and its class sums.

    The one softmax kernel behind cross_entropy, the training step and
    loss_and_grads; cols is np.arange(N).
    """
    shifted = logits - logits.max(axis=0, keepdims=True)
    exp = np.exp(shifted)
    denom = _sum_classes(exp)
    return np.log(denom) - shifted[labels, cols], exp, denom


# ---------------------------------------------------------------------------
# raw-array core (the training loop avoids re-validating dataclasses per step)
# ---------------------------------------------------------------------------

def _is_explicit(head: HeadModel) -> bool:
    return isinstance(head, ExplicitHead)


def _apply_head_raw(head: HeadModel, h0: np.ndarray):
    """Head output plus the keep-mask implied by the solver policy.

    keep is None when every sample is usable. Only the iterative path with
    on_failure="skip" can mask samples; the direct solve is exact whenever
    the equilibrium exists.
    """
    if _is_explicit(head):
        return head.w_ex @ h0, None
    if head.d <= CLOSED_FORM_MAX_DIM:
        from .deq import fixed_point_closed_form

        return fixed_point_closed_form(head.weights, h0), None
    result = fixed_point_iterate(head.weights, h0, head.policy)
    keep = None
    if not result.converged and head.policy.on_failure == "skip":
        keep = result.column_residuals <= head.policy.epsilon
    return result.z_star, keep


def _loss_grads_raw(h0, labels, head, w):
    h, keep = _apply_head_raw(head, h0)
    logits = w @ h

    n = logits.shape[1]
    cols = np.arange(n)
    per_sample, exp, z = _softmax_terms(logits, labels, cols)
    if keep is None:
        n_kept = n
        loss = float(np.mean(per_sample))
    else:
        n_kept = int(np.count_nonzero(keep))
        if n_kept == 0:
            raise TrainingDivergedError("solver policy skipped every sample")
        loss = float(np.sum(per_sample[keep]) / n_kept)

    g = exp / z
    g[labels, cols] -= 1.0
    g /= n_kept
    if keep is not None:
        g[:, ~keep] = 0.0

    grad_w = g @ h.T
    # upstream into the head, contracted over classes in canonical order
    order = _class_order(w)
    upstream = w[order].T @ g[order]

    head_w = _head_weight(head)
    if _is_explicit(head):
        grad_head = upstream @ h0.T
        grad_h0 = head_w.T @ upstream
    else:
        eye = np.eye(head_w.shape[0])
        grad_h0 = solve_linear((eye - head_w).T, upstream)
        grad_head = grad_h0 @ h.T
    return loss, grad_w, grad_head, grad_h0, logits, h


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
    head_w, _ = _shrink_to_ball(_head_weight(head), np.linalg.norm, cfg.e_h, squared=False)
    head_budget = head.e_h if _is_explicit(head) else head.weights.e_h
    if head_w is not _head_weight(head) or head_budget != cfg.e_h:
        head = _rebuild_head(head, head_w, cfg.e_h)

    def induced(h0_candidate):
        h, _ = _apply_head_raw(head, h0_candidate)
        return _feature_norm(h, weights)

    h0, _ = _shrink_to_ball(h0, induced, cfg.feature_budget, squared=True)
    return h0, head, w


def _head_weight(head: HeadModel) -> np.ndarray:
    return head.w_ex if _is_explicit(head) else head.weights.w


def _rebuild_head(head: HeadModel, head_w: np.ndarray, e_h: float) -> HeadModel:
    if _is_explicit(head):
        return ExplicitHead(w_ex=head_w, e_h=e_h)
    return DeqHead(weights=DeqWeights(w=head_w, e_h=e_h), policy=head.policy)


def _preimage_operator(head: HeadModel):
    """The map z -> H0 with head(H0) = z, with its constants built once:
    the deq link I - W, the explicit head's conditioning check, or its
    pseudo-inverse when d0 > d."""
    head_w = _head_weight(head)
    if not _is_explicit(head):
        link = np.eye(head_w.shape[0]) - head_w
        return lambda z: link @ z
    d, d0 = head_w.shape
    if d == d0:
        check_conditioning(head_w)
        return lambda z: np.linalg.solve(head_w, z)
    if d0 > d:
        from .linalg import pseudo_inverse

        pinv = pseudo_inverse(head_w, 1e-12)
        return lambda z: pinv @ z
    raise ValueError(
        f"explicit head maps {d0} -> {d} dims; d0 >= d is required for an exact preimage"
    )


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
    return _preimage_operator(head)(z)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def head_features(head: HeadModel, h0) -> np.ndarray:
    """Map backbone features through the head.

    The equilibrium head uses the direct solve up to CLOSED_FORM_MAX_DIM and
    Picard iteration above it; both paths produce the same equilibrium for a
    contraction, which the tests cross-check.
    """
    h, _ = _apply_head_raw(head, as_matrix(h0, "h0"))
    return h


def cross_entropy(logits, labels) -> float:
    """Mean negative log-softmax of the true-class logit, max-shift stabilized."""
    logits = as_matrix(logits, "logits")
    labels = np.asarray(labels, dtype=np.int64)
    per_sample, _, _ = _softmax_terms(logits, labels, np.arange(logits.shape[1]))
    return float(np.mean(per_sample))


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
    Samples masked by the solver policy are excluded from the mean.
    """
    loss, gw, ghead, gh0, logits, h = _loss_grads_raw(
        features.h0, features.labels, head, cls.w
    )
    return loss, {"w": gw, "head": ghead, "h0": gh0}, logits, h


def project_feasible(
    features: FeatureSet,
    head: HeadModel,
    cls: ClassifierWeights,
    cfg: TrainConfig,
):
    """Euclidean projection of every block onto its constraint ball.

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
    if w is not cls.w or cls.e_w != cfg.e_w:
        cls = ClassifierWeights(w=w, e_w=cfg.e_w)
    return features, head, cls


def _snapshotter(head: HeadModel, preimage, partition: ClassPartition, cfg: TrainConfig):
    """snapshot(step, z, w, h0=None) -> TraceSnapshot, with the run's
    metric constants and Picard policy built once.

    h0 defaults to preimage(z); only the deq head's Picard diagnostic
    reads it.
    """
    reporter = NcReporter.build(partition, cfg.metric_cutoff, cfg.minority_classes)
    labels = partition.labels
    cols = np.arange(labels.shape[0])
    if not _is_explicit(head):
        diagnostic_policy = replace(head.policy, on_failure="accept-last")

    def snapshot(step, z, w, h0=None) -> TraceSnapshot:
        z = as_matrix(z, "features")
        w = as_matrix(w, "w")
        logits = w @ z
        per_sample, _, _ = _softmax_terms(logits, labels, cols)
        loss = float(np.mean(per_sample))
        report = reporter.report(z, w, logits, loss)
        mean_iters, skip_count = 0.0, 0
        if not _is_explicit(head):
            result = fixed_point_iterate(
                head.weights, preimage(z) if h0 is None else h0, diagnostic_policy
            )
            mean_iters = float(result.iterations)
            skip_count = int(np.count_nonzero(result.column_residuals > head.policy.epsilon))
        return TraceSnapshot(
            step=step,
            loss=loss,
            accuracy=report.accuracy,
            report=report,
            solver_mean_iters=mean_iters,
            solver_skip_count=skip_count,
        )

    return snapshot


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
    after every update; snapshots are recorded at step 0, every
    cfg.log_every steps, and at the final step. A non-finite loss aborts
    with TrainingDivergedError carrying the trace collected so far.

    Built once per run and reused by every step and snapshot:
      * the class partition: per-class index arrays, class counts and the
        feature functional's sample weights 1 / (K n_y);
      * the projected head (a validated DeqWeights for the equilibrium
        head) and its preimage operator: the explicit head's conditioning
        check, or the deq link I - W;
      * the NC metric constants (cosine pair indices, normalized ETF
        target) and the deq head's accept-last Picard policy;
      * the head's slack term, constant because the head weight is.
    Each projection returns its functional's value, which the slack reuses.
    """
    labels, k = features.labels, features.k
    partition = ClassPartition.build(labels, k)
    weights = partition.weights
    h0, head, w = _project_raw(features.h0, weights, head, cls.w, cfg)
    z, _ = _apply_head_raw(head, h0)
    preimage = _preimage_operator(head)
    snapshot = _snapshotter(head, preimage, partition, cfg)
    head_slack = float(np.linalg.norm(_head_weight(head))) / cfg.e_h - 1.0
    n = z.shape[1]
    cols = np.arange(n)

    trace = TrainTrace()
    trace.snapshots.append(snapshot(0, z, w, h0))
    losses = []
    v_w = np.zeros_like(w)
    v_z = np.zeros_like(z)
    slack_max = 0.0

    def finalize():
        trace.loss_history = np.asarray(losses)
        trace.feasibility_slack_max = slack_max
        if np.all(np.isfinite(z)) and np.all(np.isfinite(w)):
            trace.features = replace(features, h0=preimage(z))
            trace.head = head
            trace.classifier = ClassifierWeights(w=w, e_w=cfg.e_w)
        # on a non-finite abort the last valid snapshot already holds the
        # most recent usable state

    for step in range(1, cfg.steps + 1):
        logits = w @ z
        per_sample, exp, denom = _softmax_terms(logits, labels, cols)
        loss = float(np.mean(per_sample))
        if not math.isfinite(loss):
            finalize()
            raise TrainingDivergedError(
                f"loss became non-finite at step {step}", trace=trace
            )
        losses.append(loss)

        g = exp / denom
        g[labels, cols] -= 1.0
        g /= n
        gw = g @ z.T
        order = _class_order(w)
        gz = w[order].T @ g[order]

        v_w = cfg.momentum * v_w + gw
        v_z = cfg.momentum * v_z + gz
        w = w - cfg.learning_rate * v_w
        z = z - cfg.learning_rate * v_z

        w, w_value = _shrink_to_ball(w, classifier_mean_square, cfg.e_w, squared=True)
        z, z_value = _shrink_to_ball(
            z, lambda b: _feature_norm(b, weights), cfg.feature_budget, squared=True
        )
        slack_max = max(
            slack_max,
            w_value / cfg.e_w - 1.0,
            head_slack,
            z_value / cfg.feature_budget - 1.0,
        )

        if step % cfg.log_every == 0 or step == cfg.steps:
            trace.snapshots.append(snapshot(step, z, w))

    finalize()
    return trace


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def initialize_classifier(k, d, e_w, rng) -> ClassifierWeights:
    """Gaussian rows rescaled so the mean-square functional sits at e_w / 2."""
    w = rng.standard_normal((k, d))
    w *= math.sqrt(0.5 * e_w / classifier_mean_square(w))
    return ClassifierWeights(w=w, e_w=e_w)


def initialize_explicit_head(d, d0, e_h, rng) -> ExplicitHead:
    """Scaled-orthogonal map on the Frobenius-ball boundary.

    Drawn as the Q factor of a seeded Gaussian, so the head is full rank
    with uniform singular values e_h / sqrt(d); a raw Gaussian draw can be
    ill-conditioned enough to corrupt the feature preimage.
    """
    if d0 < d:
        raise ValueError(f"explicit head needs d0 >= d, got d0={d0}, d={d}")
    g = rng.standard_normal((d0, d))
    q, r = np.linalg.qr(g)
    q = q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)
    w = (e_h / math.sqrt(d)) * q.T
    return ExplicitHead(w_ex=w, e_h=e_h)


def initialize_deq_head(d, e_h, rng, policy: SolverPolicy = SolverPolicy()) -> DeqHead:
    """Gaussian cell rescaled to half the Frobenius budget (a contraction
    whenever e_h < 2)."""
    w = rng.standard_normal((d, d))
    w *= 0.5 * e_h / np.linalg.norm(w)
    return DeqHead(weights=DeqWeights(w=w, e_h=e_h), policy=policy)


def initialize_features(labels, k, d0, feature_budget, rng) -> FeatureSet:
    """Gaussian columns rescaled so H0 itself sits at half the feature budget."""
    labels = np.asarray(labels, dtype=np.int64)
    h0 = rng.standard_normal((d0, labels.shape[0]))
    h0 *= math.sqrt(0.5 * feature_budget / feature_norm_functional(h0, labels, k))
    return FeatureSet(h0=h0, labels=labels, k=k)
