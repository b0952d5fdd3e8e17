"""Collapse metrics on last-layer features and classifier weights.

NC1 measures within-class variability against between-class scatter, NC2 the
Gram-space distance of class means to a simplex ETF, NC3 the misalignment of
classifier rows and class means. All three are computed on post-head
features, and the global mean is the unweighted mean of class means even
under imbalance (some of the literature weights by sample count; this
convention does not).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import etf
from .linalg import DEFAULT_PINV_CUTOFF, as_matrix, pseudo_inverse

# Rows shorter than this count as "numerically zero" for cosine purposes.
ZERO_ROW_FLOOR = 1e-30


@dataclass(frozen=True)
class ClassStatistics:
    """Class means, global mean, and within/between-class scatter."""

    class_means: np.ndarray   # D x K
    global_mean: np.ndarray   # D
    sigma_w: np.ndarray       # D x D
    sigma_b: np.ndarray       # D x D
    class_counts: np.ndarray  # K


@dataclass(frozen=True)
class NcReport:
    """One training snapshot's collapse diagnostics."""

    nc1: float
    nc2: float
    nc3: float
    loss: float
    accuracy: float
    per_class_accuracy: tuple
    per_class_weight_norm: tuple
    minority_mean_pairwise_cosine: float

    def as_dict(self) -> dict:
        return {
            "nc1": self.nc1,
            "nc2": self.nc2,
            "nc3": self.nc3,
            "loss": self.loss,
            "accuracy": self.accuracy,
            "per_class_accuracy": list(self.per_class_accuracy),
            "per_class_weight_norm": list(self.per_class_weight_norm),
            "minority_mean_pairwise_cosine": self.minority_mean_pairwise_cosine,
        }


def _validate_labels(labels, n: int, k: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=-1) >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    return labels


@dataclass(frozen=True)
class ClassPartition:
    """Samples grouped by class, built once per label vector.

    index[c] holds the columns of class c in sample order; weights holds
    1 / (K n_y) per sample, the weight of sample i in the feature functional.
    """

    labels: np.ndarray   # N
    k: int
    index: tuple         # K index arrays
    counts: np.ndarray   # K
    weights: np.ndarray  # N

    @classmethod
    def build(cls, labels, k: int) -> "ClassPartition":
        labels = np.asarray(labels, dtype=np.int64)
        counts = np.bincount(labels, minlength=k)
        if np.any(counts == 0):
            empty = np.flatnonzero(counts == 0)
            raise ValueError(
                f"every class needs at least one sample; empty: {empty.tolist()}"
            )
        order = np.argsort(labels, kind="stable")
        index = tuple(np.split(order, np.cumsum(counts)[:-1]))
        return cls(labels, k, index, counts, 1.0 / (k * counts[labels]))

    def class_means(self, h: np.ndarray) -> np.ndarray:
        """D x K class means, bit-identical to h[:, labels == c].mean(axis=1).

        Each class is reduced from its own copy of the columns: reducing a
        strided view would change the last bits. np.add.reduce / n_c is the
        arithmetic of .mean without its per-call overhead.
        """
        means = np.empty((h.shape[0], self.k))
        for c, idx in enumerate(self.index):
            means[:, c] = np.add.reduce(h[:, idx], axis=1) / self.counts[c]
        return means

    def class_accuracy(self, correct: np.ndarray) -> np.ndarray:
        """Per-class fraction of True entries of a per-sample boolean mask."""
        return np.bincount(self.labels, weights=correct, minlength=self.k) / self.counts


def class_means(features_h, labels, k: int) -> np.ndarray:
    """D x K per-class means of the feature columns."""
    return ClassPartition.build(labels, k).class_means(np.asarray(features_h, dtype=np.float64))


def _class_statistics(h: np.ndarray, partition: ClassPartition) -> ClassStatistics:
    n, k = h.shape[1], partition.k
    means = partition.class_means(h)
    global_mean = means.mean(axis=1)

    centered = h - means[:, partition.labels]
    sigma_w = (centered @ centered.T) / n
    dev = means - global_mean[:, None]
    sigma_b = (dev @ dev.T) / k
    # symmetrize away the last-ulp asymmetry from the matrix products
    sigma_w = 0.5 * (sigma_w + sigma_w.T)
    sigma_b = 0.5 * (sigma_b + sigma_b.T)
    return ClassStatistics(
        class_means=means,
        global_mean=global_mean,
        sigma_w=sigma_w,
        sigma_b=sigma_b,
        class_counts=partition.counts,
    )


def class_statistics(features_h, labels, k: Optional[int] = None) -> ClassStatistics:
    """Per-class means plus within/between-class covariances.

    Sigma_W averages squared deviations over all N samples; Sigma_B averages
    squared deviations of the K class means from their unweighted mean.
    """
    h = as_matrix(features_h, "features")
    if k is None:
        k = int(np.max(labels)) + 1
    labels = _validate_labels(labels, h.shape[1], k)
    return _class_statistics(h, ClassPartition.build(labels, k))


def nc1(stats: ClassStatistics, cutoff: float = DEFAULT_PINV_CUTOFF) -> float:
    """(1/K) tr(Sigma_W Sigma_B^+). Zero exactly when every sample sits on
    its class mean; the pseudo-inverse handles rank-deficient scatter."""
    k = stats.class_means.shape[1]
    return float(np.trace(stats.sigma_w @ pseudo_inverse(stats.sigma_b, cutoff)) / k)


def _nc2(means: np.ndarray, etf_target: np.ndarray) -> float:
    if np.linalg.norm(means) == 0.0:
        raise ValueError("class means are all zero")
    # means.T @ means is exactly symmetric (a rank-k update), so the
    # symmetry check of gram_distance_to_etf has nothing to catch here
    return etf.normalized_gram_distance(means.T @ means, etf_target)


def nc2(class_means) -> float:
    """Distance of the class-mean Gram (unit-normalized) from the ETF Gram."""
    means = as_matrix(class_means, "class_means")
    return _nc2(means, etf.normalized_etf_gram(means.shape[1]))


def _nc3_diff(w: np.ndarray, means: np.ndarray) -> np.ndarray:
    w_norm = np.linalg.norm(w)
    m_norm = np.linalg.norm(means)
    if w_norm == 0.0 or m_norm == 0.0:
        raise ValueError("classifier and class means must both be non-zero")
    return w / w_norm - means.T / m_norm


def nc3(w, class_means, norm: str = "fro") -> float:
    """Norm of W/||W||_F - Hbar^T/||Hbar||_F, pairing classifier row k with
    class-k mean.

    The outer norm is Frobenius by default; pass norm="spectral" for the
    operator-norm variant.
    """
    w = as_matrix(w, "w")
    means = as_matrix(class_means, "class_means")
    if w.shape != (means.shape[1], means.shape[0]):
        raise ValueError(
            f"classifier {w.shape} and class means {means.shape} are not K x D vs D x K"
        )
    diff = _nc3_diff(w, means)
    if norm == "fro":
        return float(np.linalg.norm(diff))
    if norm == "spectral":
        return float(np.linalg.norm(diff, 2))
    raise ValueError(f"norm must be 'fro' or 'spectral', got {norm!r}")


def _mean_pairwise_cosine(rows: np.ndarray, pairs: tuple) -> float:
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms < ZERO_ROW_FLOOR):
        return float("nan")
    unit = rows / norms[:, None]
    gram = unit @ unit.T
    return float(gram[pairs].mean())


def _cosine_rows(classes: Sequence[int]) -> np.ndarray:
    rows = np.asarray(list(classes), dtype=np.intp)
    if rows.size < 2:
        raise ValueError("need at least two classes for pairwise cosines")
    return rows


def mean_pairwise_cosine(w, classes: Sequence[int]) -> float:
    """Mean cosine over all pairs of the selected classifier rows.

    Approaches 1 when the selected rows collapse onto one direction and
    -1/(K-1) when they sit on a K-class ETF. Returns NaN (with the norms
    left to per_class_weight_norm) when a selected row is numerically zero.
    """
    w = as_matrix(w, "w")
    rows = _cosine_rows(classes)
    return _mean_pairwise_cosine(w[rows], np.triu_indices(rows.size, k=1))


def minority_collapse_index(w, minority_classes: Sequence[int]) -> float:
    """Mean pairwise cosine among minority-class classifier rows."""
    return mean_pairwise_cosine(w, minority_classes)


@dataclass(frozen=True)
class NcReporter:
    """The per-run constants of nc_report, built once and applied to every
    snapshot: the class partition, the cosine rows and their pair indices,
    and the normalized ETF target."""

    partition: ClassPartition
    cutoff: float
    cosine_rows: np.ndarray
    cosine_pairs: tuple
    etf_target: np.ndarray

    @classmethod
    def build(cls, partition: ClassPartition, cutoff: float,
              minority_classes: Optional[Sequence[int]]) -> "NcReporter":
        k = partition.k
        rows = _cosine_rows(minority_classes if minority_classes is not None else range(k))
        return cls(
            partition=partition,
            cutoff=cutoff,
            cosine_rows=rows,
            cosine_pairs=np.triu_indices(rows.size, k=1),
            etf_target=etf.normalized_etf_gram(k),
        )

    def report(self, h: np.ndarray, w: np.ndarray, logits: np.ndarray, loss: float) -> NcReport:
        """The snapshot report for validated K x D classifier w and D x N
        features h whose labels are the partition's."""
        stats = _class_statistics(h, self.partition)
        correct = np.argmax(logits, axis=0) == self.partition.labels
        return NcReport(
            nc1=nc1(stats, self.cutoff),
            nc2=_nc2(stats.class_means, self.etf_target),
            nc3=float(np.linalg.norm(_nc3_diff(w, stats.class_means))),
            loss=float(loss),
            accuracy=float(np.mean(correct)),
            per_class_accuracy=tuple(self.partition.class_accuracy(correct).tolist()),
            per_class_weight_norm=tuple(np.linalg.norm(w, axis=1).tolist()),
            minority_mean_pairwise_cosine=_mean_pairwise_cosine(
                w[self.cosine_rows], self.cosine_pairs
            ),
        )


def nc_report(
    features_h,
    labels,
    w,
    logits,
    loss: float,
    cutoff: float = DEFAULT_PINV_CUTOFF,
    minority_classes: Optional[Sequence[int]] = None,
) -> NcReport:
    """Assemble the full per-snapshot report from post-head features."""
    h = as_matrix(features_h, "features")
    w = as_matrix(w, "w")
    logits = as_matrix(logits, "logits")
    k = w.shape[0]
    labels = _validate_labels(labels, h.shape[1], k)
    reporter = NcReporter.build(ClassPartition.build(labels, k), cutoff, minority_classes)
    return reporter.report(h, w, logits, loss)
