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
from .linalg import DEFAULT_PINV_CUTOFF, as_matrix, frobenius_norms, pseudo_inverse

# Rows shorter than this count as "numerically zero" for cosine purposes.
ZERO_ROW_FLOOR = 1e-30


@dataclass(frozen=True, eq=False)
class ClassStatistics:
    """Class means, global mean, and within/between-class scatter.

    Statistics of a (B, D, N) stack of feature sets carry the leading B
    axis on every field.
    """

    class_means: np.ndarray   # D x K
    global_mean: np.ndarray   # D
    sigma_w: np.ndarray       # D x D
    sigma_b: np.ndarray       # D x D


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


def check_labels(labels, k: int, n: Optional[int] = None) -> np.ndarray:
    """labels as a 1-D int64 array of n entries (when given) in [0, k);
    alone, without ClassPartition's check, for a batch that may miss a class.
    Labels of a float or bool dtype are rejected, not truncated."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    labels = labels.astype(np.int64, copy=False)
    if labels.ndim != 1 or (n is not None and labels.shape[0] != n):
        entries = "" if n is None else f" with {n} entries"
        raise ValueError(f"labels must be 1-D{entries}, got shape {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=-1) >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    return labels


@dataclass(frozen=True, eq=False)
class ClassPartition:
    """Samples grouped by class, built once per label vector; build is the
    one label check (check_labels with n samples, and no class empty).

    order holds the columns class by class, each in sample order (a stable
    argsort of the labels), index[c] those of class c; weights holds
    1 / (K n_y) per sample, the weight of sample i in the feature functional.
    """

    labels: np.ndarray   # N
    k: int
    order: np.ndarray    # N
    index: tuple         # K index arrays
    counts: np.ndarray   # K
    weights: np.ndarray  # N

    @classmethod
    def build(cls, labels, k: int, n: Optional[int] = None) -> "ClassPartition":
        """Check the labels and group them. Its work and any message are
        bounded by N: k > N fails before counting, and the message of empty
        classes names at most the first 10."""
        labels = check_labels(labels, k, n)
        if k > labels.shape[0]:
            raise ValueError(f"{k} classes need at least {k} samples, got {labels.shape[0]}")
        counts = np.bincount(labels, minlength=k)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            more = f" and {empty.size - 10} more" if empty.size > 10 else ""
            raise ValueError(
                f"every class needs at least one sample; empty: {empty[:10].tolist()}{more}"
            )
        order = np.argsort(labels, kind="stable")
        index = tuple(np.split(order, np.cumsum(counts)[:-1]))
        return cls(labels, k, order, index, counts, 1.0 / (k * counts[labels]))

    def class_means(self, h: np.ndarray) -> np.ndarray:
        """D x K class means of D x N features (B x D x K of a B x D x N
        stack), bit-identical to h[:, labels == c].mean(axis=1).

        Each class is reduced from its own copy of the columns: reducing a
        strided view would change the last bits. np.add.reduce / n_c is the
        arithmetic of .mean without its per-call overhead.
        """
        means = np.empty(h.shape[:-1] + (self.k,))
        for c, idx in enumerate(self.index):
            means[..., c] = np.add.reduce(h[..., idx], axis=-1) / self.counts[c]
        return means

    def class_accuracy(self, correct: np.ndarray) -> np.ndarray:
        """Per-class fraction of True entries of a per-sample boolean mask
        (K of an N mask, B x K of a B x N stack of masks)."""
        rows = correct.reshape(-1, correct.shape[-1])
        bins = self.labels + self.k * np.arange(rows.shape[0])[:, None]
        # the hit counts are exact whole numbers, so the bins can be summed in any order
        hits = np.bincount(bins.ravel(), weights=rows.ravel(), minlength=rows.shape[0] * self.k)
        return hits.reshape(correct.shape[:-1] + (self.k,)) / self.counts


def class_means(features_h, labels, k: int) -> np.ndarray:
    """D x K per-class means of the feature columns."""
    h = np.asarray(features_h, dtype=np.float64)
    return ClassPartition.build(labels, k, h.shape[-1]).class_means(h)


def _transpose(x: np.ndarray) -> np.ndarray:
    return x.swapaxes(-1, -2)


def _class_statistics(h: np.ndarray, partition: ClassPartition,
                      centered: np.ndarray) -> ClassStatistics:
    """Statistics of D x N features or of a B x D x N stack of them; every
    matrix of a stack gets the bits of its own 2-D call. centered, an array
    of h's shape, receives the centered features."""
    n, k = h.shape[-1], partition.k
    means = partition.class_means(h)
    global_mean = means.mean(axis=-1)

    # mode="clip" writes into centered directly; the labels are in range
    centered = np.take(means, partition.labels, axis=-1, out=centered, mode="clip")
    centered = np.subtract(h, centered, out=centered)
    sigma_w = (centered @ _transpose(centered)) / n
    dev = means - global_mean[..., None]
    sigma_b = (dev @ _transpose(dev)) / k
    # symmetrize away the last-ulp asymmetry from the matrix products
    sigma_w = 0.5 * (sigma_w + _transpose(sigma_w))
    sigma_b = 0.5 * (sigma_b + _transpose(sigma_b))
    return ClassStatistics(
        class_means=means,
        global_mean=global_mean,
        sigma_w=sigma_w,
        sigma_b=sigma_b,
    )


def class_statistics(features_h, labels, k: int) -> ClassStatistics:
    """Per-class means plus within/between-class covariances of k classes,
    each of which must hold a sample.

    Sigma_W averages squared deviations over all N samples; Sigma_B averages
    squared deviations of the K class means from their unweighted mean.
    """
    h = as_matrix(features_h, "features")
    return _class_statistics(h, ClassPartition.build(labels, k, h.shape[1]), np.empty(h.shape))


def _nc1(stats: ClassStatistics, cutoff: float) -> np.ndarray:
    k = stats.class_means.shape[-1]
    sigma_w_pinv = stats.sigma_w @ pseudo_inverse(stats.sigma_b, cutoff)
    return np.trace(sigma_w_pinv, axis1=-2, axis2=-1) / k


def nc1(stats: ClassStatistics, cutoff: float = DEFAULT_PINV_CUTOFF) -> float:
    """(1/K) tr(Sigma_W Sigma_B^+). Zero exactly when every sample sits on
    its class mean; the pseudo-inverse handles rank-deficient scatter."""
    return float(_nc1(stats, cutoff))


def _nc2(means: np.ndarray, means_norm: np.ndarray, etf_target: np.ndarray) -> np.ndarray:
    # B x D x K class means with their Frobenius norms
    if np.any(means_norm == 0.0):
        raise ValueError("class means are all zero")
    # means^T @ means is exactly symmetric (a rank-k update), so the
    # symmetry check of gram_distance_to_etf has nothing to catch here
    return etf.normalized_gram_distance(_transpose(means) @ means, etf_target)


def nc2(class_means) -> float:
    """Distance of the class-mean Gram (unit-normalized) from the ETF Gram."""
    means = as_matrix(class_means, "class_means")[None]
    return float(_nc2(means, frobenius_norms(means), etf.normalized_etf_gram(means.shape[-1]))[0])


def _nc3_diff(w: np.ndarray, means: np.ndarray, means_norm: np.ndarray) -> np.ndarray:
    # B x K x D classifiers and B x D x K class means with their norms
    w_norm = frobenius_norms(w)
    if np.any(w_norm == 0.0) or np.any(means_norm == 0.0):
        raise ValueError("classifier and class means must both be non-zero")
    return w / w_norm[:, None, None] - _transpose(means) / means_norm[:, None, None]


def nc3(w, class_means) -> float:
    """Frobenius norm of W/||W||_F - Hbar^T/||Hbar||_F, pairing classifier
    row k with class-k mean."""
    w = as_matrix(w, "w")
    means = as_matrix(class_means, "class_means")
    if w.shape != (means.shape[1], means.shape[0]):
        raise ValueError(
            f"classifier {w.shape} and class means {means.shape} are not K x D vs D x K"
        )
    diff = _nc3_diff(w[None], means[None], frobenius_norms(means[None]))[0]
    return float(np.linalg.norm(diff))


def _row_norms(w: np.ndarray) -> np.ndarray:
    # np.linalg.norm(w, axis=-1), stacked
    return np.sqrt(np.add.reduce(w * w, axis=-1))


def _mean_pairwise_cosines(w: np.ndarray, row_norms: np.ndarray, rows: np.ndarray,
                           pair_index: np.ndarray) -> np.ndarray:
    """Mean pairwise cosine of the selected rows of each B x K x D
    classifier, given its row norms; NaN for a classifier with a numerically
    zero selected row. pair_index holds the flat positions i * R + j of the
    pairs i < j of the R selected rows."""
    norms = np.take(row_norms, rows, axis=1)
    zero = np.any(norms < ZERO_ROW_FLOOR, axis=1)
    unit = np.take(w, rows, axis=1) / np.where(zero[:, None], 1.0, norms)[..., None]
    gram = unit @ _transpose(unit)
    # np.take keeps the pairs C-contiguous, so each mean reduces like the 1-D
    # gram[pairs].mean() of its classifier alone; fancy indexing would not
    pairs = np.take(gram.reshape(gram.shape[0], -1), pair_index, axis=1)
    cosines = np.mean(pairs, axis=1)
    cosines[zero] = np.nan
    return cosines


def _cosine_rows(classes: Sequence[int], k: int) -> np.ndarray:
    """The classes as row indices: at least two distinct classes in [0, k)."""
    rows = np.asarray(list(classes), dtype=np.intp)
    if rows.size < 2:
        raise ValueError("need at least two classes for pairwise cosines")
    # a set, not np.unique: np.unique imports numpy.ma (~1.6 MB) in every worker
    if len(set(rows.tolist())) < rows.size or rows.min() < 0 or rows.max() >= k:
        raise ValueError(f"cosine classes must be distinct and in [0, {k}), got {rows.tolist()}")
    return rows


def _pair_index(r: int) -> np.ndarray:
    i, j = np.triu_indices(r, k=1)
    return i * r + j


def minority_collapse_index(w, minority_classes: Sequence[int]) -> float:
    """Mean cosine over all pairs of the minority-class classifier rows.

    Approaches 1 when the selected rows collapse onto one direction and
    -1/(K-1) when they sit on a K-class ETF. Returns NaN (with the norms
    left to per_class_weight_norm) when a selected row is numerically zero.
    The minority classes must be at least two distinct classes in [0, K)
    for the K rows of w (else ValueError).
    """
    w = as_matrix(w, "w")[None]
    rows = _cosine_rows(minority_classes, w.shape[1])
    return float(_mean_pairwise_cosines(w, _row_norms(w), rows, _pair_index(rows.size))[0])


class NcReporter:
    """The per-run constants of nc_report, built once and applied to every
    snapshot: the class partition, the cosine rows and their flat pair
    index, and the normalized ETF target. The reporter also owns the
    (capacity, D, N) array its stacks' centered features are computed in,
    allocated once; a stack holds at most capacity states.
    minority_classes (default: all K) must be at least two distinct classes
    in [0, K), else ValueError; train builds its reporter before step 1."""

    def __init__(self, partition: ClassPartition, cutoff: float,
                 minority_classes: Optional[Sequence[int]], capacity: int, d: int):
        k = partition.k
        self.partition = partition
        self.cutoff = cutoff
        self.cosine_rows = _cosine_rows(range(k) if minority_classes is None else minority_classes, k)
        self.cosine_pairs = _pair_index(self.cosine_rows.size)
        self.etf_target = etf.normalized_etf_gram(k)
        self.centered = np.empty((capacity, d, partition.labels.shape[0]))

    def reports(self, h: np.ndarray, w: np.ndarray, logits: np.ndarray, losses) -> list:
        """The reports of B states at once, from validated B x D x N
        features h whose labels are the partition's, B x K x D classifiers
        w, B x K x N logits and B losses, with B at most the capacity.

        Each report has the bits its state gets when evaluated alone, as
        nc_report does with B = 1.
        """
        stats = _class_statistics(h, self.partition, self.centered[:h.shape[0]])
        means = stats.class_means
        means_norm = frobenius_norms(means)
        nc1_values = _nc1(stats, self.cutoff).tolist()
        nc2_values = _nc2(means, means_norm, self.etf_target).tolist()
        nc3_values = frobenius_norms(_nc3_diff(w, means, means_norm)).tolist()
        correct = np.argmax(logits, axis=1) == self.partition.labels
        accuracies = np.mean(correct, axis=1).tolist()
        class_accuracies = self.partition.class_accuracy(correct).tolist()
        row_norms = _row_norms(w)
        cosines = _mean_pairwise_cosines(
            w, row_norms, self.cosine_rows, self.cosine_pairs
        ).tolist()
        weight_norms = row_norms.tolist()
        return [
            NcReport(
                nc1=nc1_values[b],
                nc2=nc2_values[b],
                nc3=nc3_values[b],
                loss=float(losses[b]),
                accuracy=accuracies[b],
                per_class_accuracy=tuple(class_accuracies[b]),
                per_class_weight_norm=tuple(weight_norms[b]),
                minority_mean_pairwise_cosine=cosines[b],
            )
            for b in range(h.shape[0])
        ]


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
    partition = ClassPartition.build(labels, w.shape[0], h.shape[1])
    reporter = NcReporter(partition, cutoff, minority_classes, 1, h.shape[0])
    return reporter.reports(h[None], w[None], logits[None], [loss])[0]
