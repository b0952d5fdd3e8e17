"""Layer-peeled optimization: cross-entropy over constrained free features.

The blocks are the backbone features H0, a head (explicit linear map or
linear equilibrium cell), and the classifier W. The feasible set puts a
mean-square ball on classifier rows, a Frobenius ball on the head weight,
and a per-class mean-square ball on the post-head features; training is
full-batch projected gradient descent with momentum, projecting after every
step. One update steps W and Z as one flat buffer and writes lr * v over
the gradient; a step works in two K x N arrays, the logits and the softmax
terms, whose true-class pick is taken before exp. Everything is bias-free.

Training parametrization: the optimization programs treat the post-head
features (the equilibrium z* or W_ex @ H0) as primal variables, with the
head equation acting as an exact link to the backbone features. train()
therefore descends on (W, Z) and derives H0 = link^{-1}(Z) through the head;
the head weight is a gauge block in these coordinates (the loss does not
depend on it once Z is free), so it stays at its feasible initialization.
Both heads thus solve one program over one feasible set, so a run is a
function of its start Z0 = head(H0) alone, and the feature ball bounds Z,
not the backbone H0, which is unconstrained.
Descending instead through the 3-factor chain W @ head @ H0 provably stalls
in rank-deficient constrained stationary points far from the program's
optimum (see the chain-rule gradients in loss_and_grads, which remain the
public differentiation API and are verified against finite differences).

A FeatureSet checks its labels once, by building their ClassPartition;
every per-class reduction of a run reads that partition.

Snapshots are recorded, not evaluated, when train() takes them: a record
copies the step's z and w, with the logits the training loop computes for
that state anyway, into the next slot of arrays the run allocates once, and
keeps its loss. Pending records are evaluated in chunks: the NC metrics of
a chunk in one stacked pass (NcReporter.reports), and the head's solver
diagnostic in one more (the deq head's Picard loop over the chunk's
preimages), each state with the bits it would get alone.

Two determinism details are deliberate:
  * reductions over the class axis run in a canonical row order, so a
    class relabeling (with the matching row permutation of W) does not
    change their bits. The softmax denominator sums each column's values in
    ascending order; train() keeps each column's order from the previous
    step and re-sorts only the columns whose order changed (ClassSum),
    which gives the bits of a fresh sort. grad_z contracts W's rows in
    lexsort order, which train() reuses while W's column 0 still orders it
    strictly: the order a fresh lexsort gives. The logits product w @ z is
    not canonical: BLAS may round a row's last bits differently at another
    row position (seen with OpenBLAS at some N, e.g. 370), so a relabeled
    run reproduces the loss trace bit for bit only where it does not;
  * ball projections iterate the shrink factor to a floating-point fixed
    point, so projecting twice is exactly projecting once whenever the
    projection clears its budget (a rescale that stalls one ulp above the
    budget is kept, and a second projection rescales again).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional

import numpy as np

from . import deq, linalg
from .deq import SolverPolicy
from .deq import fixed_point_iterate  # noqa: F401  (lpm.fixed_point_iterate: wrapped by perfbench/tracer.py)
from .errors import TrainingDivergedError
from .linalg import DEFAULT_PINV_CUTOFF, as_matrix, check_finite, solve_linear
from .metrics import ClassPartition, NcReport, NcReporter, check_labels
from .metrics import nc_report  # noqa: F401  (lpm.nc_report: wrapped by perfbench/tracer.py)

# The heads look deq.fixed_point_closed_form and linalg.pseudo_inverse up
# through their modules at call time, and solve_linear through this one, so
# a rebinding of any of them is seen.

# train() evaluates its snapshots in stacked chunks whose features hold at
# most this many float64 elements (256 KB): 10 states at K=10, N=200, D=16,
# and one at N=1535. Only the D x N features are counted; a chunk's K x N
# logits and the work arrays of its evaluation come on top. A chunk capped by
# count alone raised peak memory at large N.
SNAPSHOT_CHUNK_ELEMENTS = 2**15


# ---------------------------------------------------------------------------
# parameter blocks
# ---------------------------------------------------------------------------

# The parameter blocks compare and hash by identity (eq=False): a generated
# __eq__ would compare their arrays as a tuple, which raises.

@dataclass(frozen=True, eq=False)
class FeatureSet:
    """Backbone features (one column per sample) with their class labels
    and the ClassPartition that checks them. A partition passed in is kept
    if it holds these very labels (as replace(features, h0=...) passes
    them) for the columns of h0, and rebuilt otherwise."""

    h0: np.ndarray
    labels: np.ndarray
    k: int
    partition: Optional[ClassPartition] = field(default=None, repr=False)

    def __post_init__(self):
        h0 = as_matrix(self.h0, "h0")
        if self.k < 2:
            raise ValueError(f"need at least two classes, got k={self.k}")
        partition = self.partition
        if (partition is None or partition.labels is not self.labels
                or partition.k != self.k or partition.labels.shape != (h0.shape[1],)):
            partition = ClassPartition.build(self.labels, self.k, h0.shape[1])
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "labels", partition.labels)
        object.__setattr__(self, "partition", partition)

    @property
    def n_total(self) -> int:
        return self.h0.shape[1]


@dataclass(frozen=True, eq=False)
class ClassifierWeights:
    """Last-layer classifier W, one row per class; TrainConfig.e_w budgets
    its mean-square row norm (1/K) sum_k ||w_k||^2."""

    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", as_matrix(self.w, "w"))


@dataclass(frozen=True, eq=False)
class HeadModel:
    """The block both heads share: the head weight, whose Frobenius budget
    is TrainConfig.e_h. Each head adds its maps:

      apply(h0)            the head output for backbone features h0
      preimage(z)          backbone features H0 with apply(H0) = z
      backward(upstream, h0)
                           (grad_head, grad_h0) of <upstream, apply(h0)>
      diagnostic_operator(capacity, n)
                           the map Z -> one (solver iterations, skip count)
                           per state of a chunk: a (B, D, N) stack Z with
                           B <= capacity, each state's diagnostic starting
                           from its preimage. Its constants and work arrays
                           are built once.
    """

    weight: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weight", as_matrix(self.weight, "weight"))

    @property
    def d(self) -> int:
        return self.weight.shape[0]

    def with_weight(self, w) -> "HeadModel":
        """The same head with another weight."""
        return replace(self, weight=w)


class ExplicitHead(HeadModel):
    """Plain linear head z = weight @ h0."""

    def apply(self, h0: np.ndarray) -> np.ndarray:
        return self.weight @ h0

    def preimage(self, z: np.ndarray) -> np.ndarray:
        """solve_linear's conditioning-checked solve, or the minimum-norm
        preimage through the pseudo-inverse when d0 > d."""
        w = self.weight
        d, d0 = w.shape
        if d == d0:
            return solve_linear(w, z)
        if d0 > d:
            return linalg.pseudo_inverse(w, 1e-12) @ z
        raise ValueError(
            f"explicit head maps {d0} -> {d} dims; d0 >= d is required for an exact preimage"
        )

    def backward(self, upstream, h0) -> tuple:
        return upstream @ h0.T, self.weight.T @ upstream

    def diagnostic_operator(self, capacity, n):
        """No solver: zeros for every state of the chunk."""
        return lambda z: [(0.0, 0)] * z.shape[0]


@dataclass(frozen=True, eq=False)
class DeqHead(HeadModel):
    """Equilibrium head z = W z + h0 with a square weight W. The forward
    solves the equilibrium in closed form; the policy governs the Picard
    diagnostic of the training snapshots, run once per chunk of them."""

    policy: SolverPolicy = SolverPolicy()

    def __post_init__(self):
        object.__setattr__(self, "weight", deq.square_weight(self.weight))

    def apply(self, h0: np.ndarray) -> np.ndarray:
        return deq.fixed_point_closed_form(self.weight, h0)

    def preimage(self, z: np.ndarray) -> np.ndarray:
        """The link H0 = (I - W) z."""
        return (np.eye(self.d) - self.weight) @ z

    def backward(self, upstream, h0) -> tuple:
        return deq.head_gradient(self.weight, h0, upstream)

    def diagnostic_operator(self, capacity, n):
        """Picard iteration under the head's policy from each state's
        preimage: one batched link product (I - W) @ Z, then one loop over
        the chunk (deq.fixed_point_iterate_blocks), in which each state
        stops at its own iteration with the bits of fixed_point_iterate on
        it alone. The first unconverged state in step order raises when
        on_failure is "error"; skips are the columns whose last update
        exceeds epsilon. The link and the three (capacity, D, N) work
        arrays are built once."""
        weight, policy = self.weight, self.policy
        link = np.eye(self.d) - weight
        h0, z, z_next = np.empty((3, capacity, self.d, n))

        def diagnose(states):
            count = states.shape[0]
            np.matmul(link, states, out=h0[:count])
            iterations, _, column_residuals, _ = deq.fixed_point_iterate_blocks(
                weight, h0[:count], policy, z, z_next
            )
            skips = np.count_nonzero(column_residuals > policy.epsilon, axis=1)
            return list(zip(iterations.astype(float).tolist(), skips.tolist()))

        return diagnose


@dataclass(frozen=True)
class TrainConfig:
    """Full-batch projected-gradient settings.

    e_h budgets the head weight; feature_budget budgets the post-head
    features (the two coincide in the reference formulation but are kept
    separate so the equilibrium head can run with a tighter contraction).
    The field defaults below are the config-file defaults (the harness's
    "desk" preset): they keep softmax logits large enough to separate in a
    few thousand steps. The "paper" preset sets e_w = e_h = 0.01,
    feature_budget = 0.01 and learning_rate = 1e-4. minority_classes, when
    given, are at least two distinct classes in [0, K) of the run's K; the
    count is checked here, and the rest when train starts, before step 1.
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
        if not 0.0 <= self.learning_rate < math.inf:  # NaN fails too
            raise ValueError("learning_rate must be non-negative and finite")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        budgets = (self.e_w, self.e_h, self.feature_budget)
        if not all(0.0 < budget < math.inf for budget in budgets):  # NaN fails too
            raise ValueError("budgets must be positive and finite")
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
    solver_mean_iters: float
    solver_skip_count: int


@dataclass(eq=False)
class TrainTrace:
    """Per-snapshot records, full loss history and final parameters (None after an overflow)."""

    snapshots: list
    loss_history: np.ndarray
    feasibility_slack_max: float
    features: Optional[FeatureSet] = None
    head: Optional[HeadModel] = None
    classifier: Optional[ClassifierWeights] = None

    @property
    def final(self) -> TraceSnapshot:
        return self.snapshots[-1]


# ---------------------------------------------------------------------------
# canonical reductions
# ---------------------------------------------------------------------------

def _class_order(w: np.ndarray, previous: Optional[np.ndarray] = None) -> np.ndarray:
    # Canonical row order (lexicographic on row contents). Contracting the
    # class axis in this order fixes the floating-point reduction sequence,
    # so a class relabeling cannot perturb the last ulp. previous is kept
    # while column 0, lexsort's primary key, strictly increases under it:
    # then it is lexsort's only order (ties, -0.0 vs 0.0 and NaN re-sort).
    if previous is not None:
        first = w[:, 0].take(previous).tolist()
        if all(map(float.__lt__, first, first[1:])):
            return previous
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
    holding a NaN, are re-sorted: their values as _sum_classes sorts them,
    and their order by argsort. Ties between equal values can land
    in either order; their bits are equal, or they are zeros of both signs,
    whose ascending sum does not depend on their order. The sorted values
    are taken into an array the instance owns, and so are the comparisons
    and the sums; a call's result is overwritten by the next call.
    """

    def __init__(self, k: int, n: int):
        self.n = n
        # index[r, j] = j + N * (row of column j's r-th smallest entry)
        self.index = np.arange(k * n).reshape(k, n)
        self.sorted, self.ascending = np.empty((k, n)), np.empty((k - 1, n), bool)
        self.upper, self.lower = self.sorted[1:], self.sorted[:-1]
        self.kept, self.total = np.empty(n, bool), np.empty(n)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # mode="clip" writes into the array directly; the index is in range
        srt = x.take(self.index, out=self.sorted, mode="clip")
        np.greater_equal(self.upper, self.lower, out=self.ascending)
        kept = np.logical_and.reduce(self.ascending, axis=0, out=self.kept)
        moved = np.logical_not(kept, out=kept).nonzero()[0]
        if moved.size:
            cols = x[:, moved]
            rows = cols.argsort(axis=0)  # in place: a first call moves every column
            self.index[:, moved] = np.add(np.multiply(rows, self.n, out=rows), moved, out=rows)
            cols.sort(axis=0)
            srt[:, moved] = cols
        return np.add.reduce(srt, axis=0, out=self.total)


def classifier_mean_square(w: np.ndarray) -> float:
    """(1/K) sum_k ||w_k||^2 with an order-canonical class reduction."""
    row_sq = np.einsum("kd,kd->k", w, w)
    row_sq.sort()
    return float(np.add.reduce(row_sq)) / w.shape[0]


def _feature_norm(h: np.ndarray, weights: np.ndarray) -> float:
    # weights are a ClassPartition's per-sample 1 / (K n_y)
    col_sq = np.einsum("dn,dn->n", h, h)
    return float(np.dot(col_sq, weights))


def feature_norm_functional(h: np.ndarray, labels: np.ndarray, k: int) -> float:
    """(1/K) sum_k (1/n_k) sum_{i in k} ||h_i||^2, accumulated in sample order."""
    return _feature_norm(h, ClassPartition.build(labels, k, h.shape[1]).weights)


def _true_class_index(labels: np.ndarray, n: int) -> np.ndarray:
    # flat index of each column's true-class entry in a K x N array
    return labels * n + np.arange(n)


def _softmax_terms(logits: np.ndarray, picks: np.ndarray, class_sum=_sum_classes,
                   out=(None,) * 4):
    """Per-sample cross-entropy, exp(max-shifted logits) and its class sums.

    The one softmax kernel behind cross_entropy, the training step and
    loss_and_grads; picks is _true_class_index(labels, N), and class_sum is
    _sum_classes or the training run's ClassSum. out holds the K x N arrays
    of the shifted logits and their exp, which may be one array (the
    true-class pick is taken before exp), and the N-vectors of the column
    max (reused for the per-sample loss) and the pick, or None to allocate.
    """
    top = np.maximum.reduce(logits, axis=0, out=out[2])
    shifted = np.subtract(logits, top, out=out[0])
    # mode="clip" writes into out[3] directly; the picks are in range
    pick = shifted.take(picks, out=out[3], mode="clip")
    exp = np.exp(shifted, out=out[1])
    denom = class_sum(exp)
    return np.subtract(np.log(denom, out=top), pick, out=top), exp, denom


# ---------------------------------------------------------------------------
# raw-array core (the training loop avoids re-validating dataclasses per step)
# ---------------------------------------------------------------------------

def _logit_grads(exp, denom, picks, n, w, z, order, out=(None,) * 3):
    """Gradients (grad_w, grad_z) of the mean cross-entropy of logits w @ z,
    from _softmax_terms' exp (overwritten) and denom; grad_z contracts the
    class axis in the canonical order _class_order(w). out holds the K x N
    array of the reordered gradient rows, grad_w and grad_z, or None to
    allocate them."""
    g = np.divide(exp, denom, out=exp)
    g.reshape(-1)[picks] -= 1.0
    g /= n
    # mode="clip" writes into out[0] directly; the order is in range
    g_ordered = g.take(order, axis=0, out=out[0], mode="clip")
    return np.matmul(g, z.T, out=out[1]), np.matmul(w[order].T, g_ordered, out=out[2])


def _shrink_to_ball(block: np.ndarray, value_fn, budget: float, squared: bool,
                    out: Optional[np.ndarray] = None):
    """Radially rescale block until value_fn(block) <= budget.

    Returns the block and value_fn of that block. The shrink factor is
    re-applied until the recomputed functional clears the budget or stops
    moving, which makes the projection an exact floating-point fixed point
    (projecting twice == projecting once) whenever the value clears the
    budget. A rescale is written to out, which may be block itself, or to
    a new array when out is None. A block whose functional is not finite
    is returned as it is, with that value: a factor of 0 would zero it.
    """
    value = value_fn(block)
    for _ in range(4):
        if value <= budget or not math.isfinite(value):
            break
        factor = budget / value
        factor = math.sqrt(factor) if squared else factor
        block = np.multiply(block, factor, out=out)
        new_value = value_fn(block)
        stalled = new_value >= value
        value = new_value
        if stalled:
            break
    return block, value


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

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
    return head.preimage(z)


def head_features(head: HeadModel, h0) -> np.ndarray:
    """Map backbone features through the head; the equilibrium head solves
    (I - W) z = h0 directly."""
    return head.apply(as_matrix(h0, "h0"))


def cross_entropy(logits, labels) -> float:
    """Mean negative log-softmax of the true-class logit, max-shift stabilized."""
    logits = as_matrix(logits, "logits")
    labels = check_labels(labels, *logits.shape)
    per_sample, _, _ = _softmax_terms(logits, _true_class_index(labels, logits.shape[1]))
    return float(np.add.reduce(per_sample) / logits.shape[1])


def accuracy(logits, labels) -> float:
    """Fraction of columns whose argmax matches the label; argmax ties break
    toward the lowest class index."""
    logits = as_matrix(logits, "logits")
    labels = check_labels(labels, *logits.shape)
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
    grad_w, upstream = _logit_grads(exp, denom, picks, n, w, h, _class_order(w))
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
    scales head(H0) by the same factor). Blocks inside their balls, and
    blocks whose functional is not finite, are returned untouched.
    """
    w, _ = _shrink_to_ball(cls.w, classifier_mean_square, cfg.e_w, squared=True)
    head_w, _ = _shrink_to_ball(head.weight, np.linalg.norm, cfg.e_h, squared=False)
    if head_w is not head.weight:
        head = head.with_weight(head_w)

    def induced(h0_candidate):
        return _feature_norm(head.apply(h0_candidate), features.partition.weights)

    h0, _ = _shrink_to_ball(features.h0, induced, cfg.feature_budget, squared=True)
    if h0 is not features.h0:
        features = replace(features, h0=h0)
    if w is not cls.w:
        cls = ClassifierWeights(w=w)
    return features, head, cls


class _SnapshotBuffer:
    """train()'s snapshot records, evaluated in stacked chunks and
    appended in step order to its snapshots list (see train).

    A record copies its z, w and logits into the next slot of the chunk's
    (chunk, D, N), (chunk, K, D) and (chunk, K, N) arrays, and keeps its
    step and its loss. The chunk holds as many states as
    SNAPSHOT_CHUNK_ELEMENTS allows, or as the run takes. These arrays, the
    run's metric constants and the work arrays of the metrics and of the
    head's diagnostic are built once per run, all sized for one chunk; the
    class partition is the run's FeatureSet's.
    """

    def __init__(self, head: HeadModel, partition: ClassPartition,
                 cfg: TrainConfig, z_shape: tuple):
        d, n = z_shape
        taken = cfg.steps // cfg.log_every + 1 + (cfg.steps % cfg.log_every > 0)
        chunk = min(taken, max(1, SNAPSHOT_CHUNK_ELEMENTS // (d * n)))
        self.z = np.empty((chunk, d, n))
        self.w = np.empty((chunk, partition.k, d))
        self.logits = np.empty((chunk, partition.k, n))
        self.reporter = NcReporter(partition, cfg.metric_cutoff,
                                   cfg.minority_classes, chunk, d)
        self.diagnose = head.diagnostic_operator(chunk, n)
        self.steps, self.losses = [], []
        self.snapshots = []

    def record(self, step, z, w, logits, loss) -> None:
        """Take a snapshot of the state (z, w) with its logits w @ z and its
        loss, and evaluate the pending ones once they fill a chunk. z and w
        are finite: train checks its starting z, and every update's ball
        functionals."""
        slot = len(self.steps)
        self.z[slot] = z
        self.w[slot] = w
        self.logits[slot] = logits
        self.steps.append(step)
        self.losses.append(loss)
        if slot + 1 == self.z.shape[0]:
            self.flush()

    def flush(self) -> None:
        """Evaluate every pending record in one stacked pass."""
        count = len(self.steps)
        if not count:
            return
        steps, losses = self.steps, self.losses
        self.steps, self.losses = [], []
        z = self.z[:count]
        reports = self.reporter.reports(z, self.w[:count], self.logits[:count], losses)
        diagnostics = self.diagnose(z)
        for step, report, (mean_iters, skip_count) in zip(steps, reports, diagnostics):
            self.snapshots.append(TraceSnapshot(step, report, mean_iters, skip_count))


def train(
    features: FeatureSet,
    head: HeadModel,
    cls: ClassifierWeights,
    cfg: TrainConfig,
) -> TrainTrace:
    """Projected gradient descent with momentum, feature-primal coordinates.

    The blocks start as project_feasible returns them: the post-head
    features Z start at head(H0) and descend together with W;
    the backbone features are the exact preimage H0 = link^{-1}(Z) at every
    recorded state, and the head weight holds its feasible initialization
    (its gradient in these coordinates is identically zero). Projections run
    after every update; snapshots are taken at step 0, every cfg.log_every
    steps, and at the final step. An update that leaves a ball functional
    non-finite (a non-finite or overflowing z or w) aborts at that step
    with TrainingDivergedError, as does a non-finite loss; the error
    carries the trace collected so far: every snapshot taken before it.
    After a non-finite loss the trace's features, head and classifier are
    those of the state that took it; after an overflow they are None, and
    the last snapshot holds the most recent usable state.

    Finiteness is checked where it can be lost. The classifier is finite
    (ClassifierWeights checks it) and its projection only shrinks it. The
    starting features z = head(H0) can overflow: a non-finite z raises
    ValueError before step 0's loss. Every update must leave both ball
    functionals finite, and a finite functional with positive weights has
    finite entries.

    A snapshot is recorded with the logits and loss the loop computes for
    its state, and evaluated later. Pending records are evaluated in one
    stacked pass once their features fill SNAPSHOT_CHUNK_ELEMENTS, at the
    end of training, and before TrainingDivergedError is raised. The head's
    diagnostic runs once per chunk: the deq head's Picard loop over the
    chunk's preimages, whose SolverConvergenceError under
    on_failure="error" ends the run.

    The class partition is the FeatureSet's. The final state's preimage is
    computed once, when training ends. Every array a step or a snapshot
    writes is built once per run: w and z are views of one flat buffer,
    stepped with a velocity and a gradient buffer (lr * v overwrites the
    gradient), and the projections rescale w and z in place. One K x N
    array holds the logits, then (once a snapshot has copied them) the
    class-ordered gradient rows; the other the shifted logits, their exp,
    then the gradient. So a step allocates no K x N or D x N float array,
    which glibc can serve (above 128 KB, N in the thousands) from a fresh
    mapping or trimmed heap that the next step faults in anew. Each
    projection returns its functional's value, which the slack reuses.
    """
    labels, k, partition = features.labels, features.k, features.partition
    features, head, cls = project_feasible(features, head, cls, cfg)
    z = head.apply(features.h0)
    check_finite(z, "features")
    head_slack = float(np.linalg.norm(head.weight)) / cfg.e_h - 1.0
    n = z.shape[1]
    picks = _true_class_index(labels, n)
    class_sum = ClassSum(k, n)

    feature_norm = partial(_feature_norm, weights=partition.weights)
    snapshots = _SnapshotBuffer(head, partition, cfg, z.shape)
    losses = []
    # the loop owns its w and z (project_feasible can return cls itself, and
    # a head's apply a view of its input): views of one flat buffer [w | z],
    # like grad_w and grad_z; top holds the column max, then the loss
    size_w = cls.w.size
    params = np.concatenate((cls.w.reshape(-1), z.reshape(-1)))
    velocity, grad = np.zeros((2, params.size))
    w, z = params[:size_w].reshape(cls.w.shape), params[size_w:].reshape(z.shape)
    grad_w, grad_z = grad[:size_w].reshape(w.shape), grad[size_w:].reshape(z.shape)
    logits, exp = np.empty((2, k, n))
    top, pick = np.empty((2, n))
    order, slack_max = None, 0.0

    def finalize(usable=True):
        snapshots.flush()
        final = ()
        if usable:  # a usable z and w are finite: see train's docstring
            final = (replace(features, h0=head.preimage(z)), head, ClassifierWeights(w=w.copy()))
        return TrainTrace(snapshots.snapshots, np.asarray(losses), slack_max, *final)

    # iteration `step` takes the loss of the state after `step` updates,
    # records that state if it is a snapshot step, and applies update step + 1
    for step in range(cfg.steps + 1):
        np.matmul(w, z, out=logits)
        per_sample, exp, denom = _softmax_terms(logits, picks, class_sum,
                                                (exp, exp, top, pick))
        loss = float(np.add.reduce(per_sample)) / n
        if step % cfg.log_every == 0 or step == cfg.steps:
            snapshots.record(step, z, w, logits, loss)
        if step == cfg.steps:
            break
        if not math.isfinite(loss):
            raise TrainingDivergedError(f"loss became non-finite at step {step + 1}",
                                        trace=finalize())
        losses.append(loss)

        order = _class_order(w, order)
        _logit_grads(exp, denom, picks, n, w, z, order, (logits, grad_w, grad_z))
        # v = momentum * v + grad; [w | z] = [w | z] - learning_rate * v
        np.multiply(velocity, cfg.momentum, out=velocity)
        np.add(velocity, grad, out=velocity)
        np.subtract(params, np.multiply(velocity, cfg.learning_rate, out=grad), out=params)

        _, w_value = _shrink_to_ball(w, classifier_mean_square, cfg.e_w, True, w)
        _, z_value = _shrink_to_ball(z, feature_norm, cfg.feature_budget, True, z)
        if not (math.isfinite(w_value) and math.isfinite(z_value)):
            raise TrainingDivergedError(f"update left float range at step {step + 1}",
                                        trace=finalize(usable=False))
        slack_max = max(slack_max, w_value / cfg.e_w - 1.0, head_slack,
                        z_value / cfg.feature_budget - 1.0)

    return finalize()


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def _check_budget(name: str, budget: float) -> None:
    # a budget sets the scale of a draw: 0 would draw all zeros, a negative
    # budget flip signs; NaN fails the comparison too
    if not 0.0 < budget < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {budget}")


def initialize_classifier(k, d, e_w, rng) -> ClassifierWeights:
    """Gaussian rows rescaled so the mean-square functional sits at e_w / 2."""
    _check_budget("e_w", e_w)
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
    _check_budget("e_h", e_h)
    w = (e_h / math.sqrt(d)) * linalg.random_orthonormal(d0, d, rng).T
    return ExplicitHead(weight=w)


def initialize_deq_head(d, e_h, rng, policy: SolverPolicy = SolverPolicy()) -> DeqHead:
    """Gaussian cell rescaled to half the Frobenius budget (a contraction
    whenever e_h < 2)."""
    _check_budget("e_h", e_h)
    w = rng.standard_normal((d, d))
    w *= 0.5 * e_h / np.linalg.norm(w)
    return DeqHead(weight=w, policy=policy)


def initialize_features(labels, k, d0, feature_budget, rng) -> FeatureSet:
    """Gaussian columns rescaled so H0 itself sits at half the feature budget."""
    _check_budget("feature_budget", feature_budget)
    partition = ClassPartition.build(labels, k)
    h0 = rng.standard_normal((d0, partition.labels.shape[0]))
    h0 *= math.sqrt(0.5 * feature_budget / _feature_norm(h0, partition.weights))
    return FeatureSet(h0=h0, labels=partition.labels, k=k, partition=partition)
