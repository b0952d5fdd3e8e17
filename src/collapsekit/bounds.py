"""Numerical checks of the analytic collapse claims.

Covers four pieces of machinery:
  * a Jensen bound on log(delta_k / sum delta) with two free positive
    constants, plus the ratio that makes it tight;
  * closed-form lower bounds ("floors") on the balanced cross-entropy for
    the explicit and equilibrium heads, ordered deq <= explicit;
  * the scalar conditions under which the imbalanced-regime head comparison
    applies (the consequent is always measured, never assumed);
  * diagnostics for the extreme-imbalance limit, where minority classifier
    rows and features vanish and majority means form a smaller ETF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .etf import etf_gram, gram_distance_to_etf
from .linalg import as_matrix, make_rng
from .metrics import class_means


# ---------------------------------------------------------------------------
# the log-share bound and its constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundConstants:
    """Weights (c1, c2) of the Jensen split for K classes.

    Derived quantities: c3 completes the convex combination,
    m1 = c2/(c1+c2) is the slope, and m2 the additive constant of the bound.
    """

    c1: float
    c2: float
    k: int

    def __post_init__(self):
        if self.c1 <= 0.0 or self.c2 <= 0.0:
            raise ValueError("c1 and c2 must be positive")
        if self.k < 2:
            raise ValueError("need at least two classes")

    @property
    def c3(self) -> float:
        return self.c2 / ((self.k - 1) * (self.c1 + self.c2))

    @property
    def m1(self) -> float:
        return self.c2 / (self.c1 + self.c2)

    @property
    def m2(self) -> float:
        lead = self.c1 / (self.c1 + self.c2)
        return self.m1 * math.log(self.c3) - lead * math.log((self.c1 + self.c2) / self.c1)

    @classmethod
    def from_ratio(cls, ratio: float, k: int) -> "BoundConstants":
        return cls(c1=1.0, c2=float(ratio), k=k)


def _validate_deltas(deltas, k_index: int):
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.ndim != 1 or deltas.size < 2:
        raise ValueError("deltas must be a 1-D array with at least two entries")
    if np.any(deltas <= 0.0) or not np.all(np.isfinite(deltas)):
        raise ValueError("all deltas must be positive and finite")
    if not (0 <= k_index < deltas.size):
        raise ValueError(f"k_index {k_index} out of range for {deltas.size} deltas")
    return deltas


def log_share_bound(deltas, k_index: int, consts: BoundConstants):
    """Evaluate both sides of the bound
        log(delta_k / sum delta) <= m1 * (log delta_k - mean_{k' != k} log delta_k') + m2.

    Returns (lhs, rhs); the inequality holds for every positive choice of
    (c1, c2) by concavity of the log.
    """
    deltas = _validate_deltas(deltas, k_index)
    k = deltas.size
    if consts.k != k:
        raise ValueError(f"constants built for K={consts.k}, got {k} deltas")
    log_d = np.log(deltas)
    lhs = float(log_d[k_index] - math.log(np.sum(deltas)))
    others = np.delete(log_d, k_index)
    gap = float(log_d[k_index] - others.mean())
    rhs = consts.m1 * gap + consts.m2
    return lhs, rhs


def tightest_ratio(deltas, k_index: int) -> float:
    """The ratio c2/c1 at which the bound is tight.

    With A = log delta_k - mean of the other log deltas, the Jensen equality
    condition forces c2/c1 = (K-1) exp(-A); the bound's right side is convex
    in the mixing weight, so this ratio minimizes it (equivalently, it gives
    the largest valid loss floor).
    """
    deltas = _validate_deltas(deltas, k_index)
    k = deltas.size
    log_d = np.log(deltas)
    others = np.delete(log_d, k_index)
    gap = float(log_d[k_index] - others.mean())
    return (k - 1) * math.exp(-gap)


def fuzz_log_bound(draws: int, seed: int, tol: float = 1e-12):
    """Random search for violations of the log-share bound.

    Draws K in {2..10}, log-deltas in [-5, 5], and c1, c2 log-uniform in
    [0.01, 100]. Returns (violations, worst_gap) where worst_gap is the
    largest lhs - rhs observed (should stay <= tol).
    """
    rng = make_rng(seed)
    violations = 0
    worst = -np.inf
    for _ in range(draws):
        k = int(rng.integers(2, 11))
        deltas = np.exp(rng.uniform(-5.0, 5.0, size=k))
        c1, c2 = np.exp(rng.uniform(math.log(0.01), math.log(100.0), size=2))
        k_index = int(rng.integers(0, k))
        lhs, rhs = log_share_bound(deltas, k_index, BoundConstants(c1=c1, c2=c2, k=k))
        gap = lhs - rhs
        worst = max(worst, gap)
        if gap > tol:
            violations += 1
    return violations, float(worst)


# ---------------------------------------------------------------------------
# balanced loss floors
# ---------------------------------------------------------------------------

def balanced_loss_floor(e_w: float, e_h: float, k: int, consts: BoundConstants):
    """Lower bounds on the balanced cross-entropy for both head types.

    For any valid constants, the loss is at least
        -m1 * (K/(K-1)) * sqrt(e_w * e_h) - m2
    for the explicit head; the equilibrium head's floor doubles the linear
    term and is therefore never larger. Returns (deq_floor, explicit_floor).
    Here e_h is the feature budget (the ball on post-head features).
    """
    if e_w <= 0.0 or e_h <= 0.0:
        raise ValueError("budgets must be positive")
    if k < 2:
        raise ValueError("need at least two classes")
    if consts.k != k:
        raise ValueError(f"constants built for K={consts.k}, asked about K={k}")
    base = consts.m1 * (k / (k - 1)) * math.sqrt(e_w * e_h)
    explicit = -base - consts.m2
    deq = -2.0 * base - consts.m2
    return deq, explicit


def constants_from_logits(logits, labels, k: int) -> BoundConstants:
    """Constants that make the floor tightest for a realized set of logits.

    Averages the per-sample gap between the true-class logit and the mean of
    the others, then applies the tight-ratio formula at that mean gap.
    """
    logits = as_matrix(logits, "logits")
    labels = np.asarray(labels, dtype=np.int64)
    n = logits.shape[1]
    cols = np.arange(n)
    true_logit = logits[labels, cols]
    other_mean = (logits.sum(axis=0) - true_logit) / (k - 1)
    mean_gap = float(np.mean(true_logit - other_mean))
    return BoundConstants.from_ratio((k - 1) * math.exp(-mean_gap), k)


# ---------------------------------------------------------------------------
# imbalanced-regime comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImbalanceSpec:
    """Majority/minority class layout: k_a majority classes with n_a samples
    each, k_b minority classes with n_b samples each."""

    k_a: int
    k_b: int
    n_a: int
    n_b: int

    def __post_init__(self):
        if self.k_a < 1 or self.k_b < 1:
            raise ValueError("need at least one majority and one minority class")
        if not (self.n_a > self.n_b >= 1):
            raise ValueError(f"need n_a > n_b >= 1, got n_a={self.n_a}, n_b={self.n_b}")

    @property
    def k(self) -> int:
        return self.k_a + self.k_b

    @property
    def n_total(self) -> int:
        return self.k_a * self.n_a + self.k_b * self.n_b

    @property
    def r(self) -> float:
        """Sample-count ratio n_a / n_b."""
        return self.n_a / self.n_b

    @property
    def k_r(self) -> float:
        return self.k_a / self.k_b

    @property
    def majority_fraction(self) -> float:
        """k_a * n_a / N; the extreme-imbalance limit sends this to 1."""
        return self.k_a * self.n_a / self.n_total

    @property
    def class_counts(self) -> tuple:
        return (self.n_a,) * self.k_a + (self.n_b,) * self.k_b

    @property
    def minority_classes(self) -> tuple:
        return tuple(range(self.k_a, self.k))


@dataclass(frozen=True)
class ConditionReport:
    """Scalar preconditions of the head comparison plus, once a paired run
    has been measured, the realized quantities they gate.

    nc2_margin is the worst-case slack of
        e_h < 2 S_ij - m_ij < 1/(1 - e_h)
    over off-diagonal entries (negative = violated); nc2_tight_margin uses
    the stricter lower edge e_h/2 + 1/(2(1-e_h)) that one case split yields.
    The realized distances/ratio stay None until a harness fills them in.
    """

    nc2_condition_holds: bool
    nc2_margin: float
    nc2_tight_margin: float
    nc3_condition_holds: bool
    nc3_margin: float
    nc2_distance_explicit: Optional[float] = None
    nc2_distance_deq: Optional[float] = None
    nc3_cosine_ratio: Optional[float] = None

    def as_dict(self) -> dict:
        return {
            "nc2_condition_holds": self.nc2_condition_holds,
            "nc2_margin": self.nc2_margin,
            "nc2_tight_margin": self.nc2_tight_margin,
            "nc3_condition_holds": self.nc3_condition_holds,
            "nc3_margin": self.nc3_margin,
            "nc2_distance_explicit": self.nc2_distance_explicit,
            "nc2_distance_deq": self.nc2_distance_deq,
            "nc3_cosine_ratio": self.nc3_cosine_ratio,
        }


def comparison_conditions(e_w: float, e_h: float, gram_h0, etf_target) -> ConditionReport:
    """Evaluate the scalar conditions gating the imbalanced head comparison.

    gram_h0 is the Gram matrix of backbone class means, etf_target the ETF
    Gram they are compared against; both K x K. The first condition is
    checked entrywise over off-diagonal pairs; the second is
        e_h/(e_w + e_h) + e_h (1 - e_h) < 2.
    Only the conditions are asserted here; whether the equilibrium head
    actually lands closer to the ETF is measured by the caller.
    """
    if not (0.0 < e_h < 1.0):
        raise ValueError(f"e_h must lie in (0, 1), got {e_h}")
    if e_w <= 0.0:
        raise ValueError("e_w must be positive")
    gram_h0 = as_matrix(gram_h0, "gram_h0")
    etf_target = as_matrix(etf_target, "etf_target")
    if gram_h0.shape != etf_target.shape or gram_h0.shape[0] != gram_h0.shape[1]:
        raise ValueError(
            f"gram shapes must match and be square, got {gram_h0.shape} vs {etf_target.shape}"
        )
    k = gram_h0.shape[0]
    off = ~np.eye(k, dtype=bool)
    t = 2.0 * etf_target[off] - gram_h0[off]
    upper = 1.0 / (1.0 - e_h)
    nc2_margin = float(np.min(np.minimum(t - e_h, upper - t)))
    tight_lower = 0.5 * e_h + 0.5 * upper
    nc2_tight_margin = float(np.min(np.minimum(t - tight_lower, upper - t)))
    nc3_lhs = e_h / (e_w + e_h) + e_h * (1.0 - e_h)
    nc3_margin = 2.0 - nc3_lhs
    return ConditionReport(
        nc2_condition_holds=bool(nc2_margin > 0.0),
        nc2_margin=nc2_margin,
        nc2_tight_margin=nc2_tight_margin,
        nc3_condition_holds=bool(nc3_margin > 0.0),
        nc3_margin=nc3_margin,
    )


# ---------------------------------------------------------------------------
# extreme-imbalance diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremeImbalanceReport:
    """How far a trained state sits from the extreme-imbalance limit, where
    minority classifier rows and minority features vanish and the majority
    class means form a k_a-class ETF."""

    minority_max_weight_norm: float
    minority_mean_weight_norm: float
    majority_mean_weight_norm: float
    minority_max_feature_norm: float
    majority_mean_feature_norm: float
    majority_etf_distance: float
    weight_ratio: float
    feature_ratio: float
    weights_within_tol: bool
    features_within_tol: bool
    etf_within_tol: bool

    def as_dict(self) -> dict:
        return {key: getattr(self, key) for key in self.__dataclass_fields__}


def extreme_imbalance_report(
    w, features_h, labels, k_a: int, tol: float = 0.1
) -> ExtremeImbalanceReport:
    """Measure the extreme-imbalance limit on trained parameters.

    Classes 0..k_a-1 are the majority block (the dataset layout puts
    majority classes first). Weight and feature checks are relative: minority
    norms must fall below tol times the majority mean. The ETF check is the
    scale-free Gram distance of the majority class means, compared to tol
    directly.
    """
    w = as_matrix(w, "w")
    h = as_matrix(features_h, "features")
    labels = np.asarray(labels, dtype=np.int64)
    k = w.shape[0]
    if not (1 <= k_a <= k):
        raise ValueError(f"k_a must lie in [1, {k}], got {k_a}")
    if k_a < 2:
        raise ValueError("need at least two majority classes for an ETF distance")

    row_norms = np.linalg.norm(w, axis=1)
    majority_mean_w = float(row_norms[:k_a].mean())
    if k_a < k:
        minority_max_w = float(row_norms[k_a:].max())
        minority_mean_w = float(row_norms[k_a:].mean())
    else:
        minority_max_w = 0.0
        minority_mean_w = 0.0

    col_norms = np.linalg.norm(h, axis=0)
    majority_mask = labels < k_a
    majority_mean_f = float(col_norms[majority_mask].mean())
    minority_max_f = float(col_norms[~majority_mask].max()) if k_a < k else 0.0

    means = class_means(h, labels, k)[:, :k_a]
    majority_etf_distance = gram_distance_to_etf(means.T @ means, k_a)

    weight_ratio = minority_max_w / majority_mean_w if majority_mean_w > 0 else float("inf")
    feature_ratio = minority_max_f / majority_mean_f if majority_mean_f > 0 else float("inf")
    return ExtremeImbalanceReport(
        minority_max_weight_norm=minority_max_w,
        minority_mean_weight_norm=minority_mean_w,
        majority_mean_weight_norm=majority_mean_w,
        minority_max_feature_norm=minority_max_f,
        majority_mean_feature_norm=majority_mean_f,
        majority_etf_distance=majority_etf_distance,
        weight_ratio=weight_ratio,
        feature_ratio=feature_ratio,
        weights_within_tol=bool(weight_ratio <= tol),
        features_within_tol=bool(feature_ratio <= tol),
        etf_within_tol=bool(majority_etf_distance <= tol),
    )


def imbalance_etf_target(k: int, feature_budget: float) -> np.ndarray:
    """The raw ETF Gram the imbalanced comparison measures against, scaled so
    column norms sit at the feature budget (alpha^2 = feature_budget)."""
    return etf_gram(k, math.sqrt(feature_budget))
