import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsekit.bounds import constants_from_logits, extreme_imbalance_report
from collapsekit.etf import make_etf, normalized_etf_gram
from collapsekit.linalg import make_rng, pseudo_inverse
from collapsekit.lpm import FeatureSet, accuracy, cross_entropy
from collapsekit.metrics import (
    ClassPartition,
    NcReport,
    NcReporter,
    class_statistics,
    minority_collapse_index,
    nc1,
    nc2,
    nc3,
    nc_report,
)


def _brute_force_stats(h, labels, k):
    d, n = h.shape
    means = np.zeros((d, k))
    for c in range(k):
        cols = [i for i in range(n) if labels[i] == c]
        means[:, c] = sum(h[:, i] for i in cols) / len(cols)
    global_mean = means.sum(axis=1) / k
    sigma_w = np.zeros((d, d))
    for i in range(n):
        dev = h[:, i] - means[:, labels[i]]
        sigma_w += np.outer(dev, dev)
    sigma_w /= n
    sigma_b = np.zeros((d, d))
    for c in range(k):
        dev = means[:, c] - global_mean
        sigma_b += np.outer(dev, dev)
    sigma_b /= k
    return means, global_mean, sigma_w, sigma_b


class TestClassStatistics:
    def test_repeated_vectors_zero_within_scatter(self):
        rng = make_rng(0)
        protos = rng.standard_normal((5, 3))
        labels = np.array([0, 0, 1, 1, 2, 2])
        h = protos[:, labels]
        stats = class_statistics(h, labels, 3)
        np.testing.assert_allclose(stats.sigma_w, 0.0, atol=1e-14)
        np.testing.assert_allclose(stats.class_means, protos, atol=1e-14)

    def test_two_antipodal_means(self):
        e1 = np.zeros(4)
        e1[0] = 1.0
        h = np.column_stack([e1, e1, -e1, -e1])
        stats = class_statistics(h, [0, 0, 1, 1], 2)
        np.testing.assert_allclose(stats.global_mean, 0.0, atol=1e-15)
        np.testing.assert_allclose(stats.sigma_b, np.outer(e1, e1), atol=1e-15)

    def test_matches_brute_force(self):
        rng = make_rng(17)
        labels = rng.integers(0, 4, size=30)
        labels[:4] = [0, 1, 2, 3]
        h = rng.standard_normal((6, 30))
        stats = class_statistics(h, labels, 4)
        means, g, sw, sb = _brute_force_stats(h, labels, 4)
        np.testing.assert_allclose(stats.class_means, means, atol=1e-12)
        np.testing.assert_allclose(stats.global_mean, g, atol=1e-12)
        np.testing.assert_allclose(stats.sigma_w, sw, atol=1e-12)
        np.testing.assert_allclose(stats.sigma_b, sb, atol=1e-12)

    def test_scatters_are_psd(self):
        rng = make_rng(4)
        labels = np.repeat(np.arange(3), 5)
        stats = class_statistics(rng.standard_normal((4, 15)), labels, 3)
        for mat in (stats.sigma_w, stats.sigma_b):
            np.testing.assert_allclose(mat, mat.T, atol=1e-10)
            assert np.linalg.eigvalsh(mat).min() > -1e-10

    def test_empty_class_error(self):
        with pytest.raises(ValueError, match="empty"):
            class_statistics(np.ones((2, 3)), [0, 0, 1], k=3)

    def test_missing_top_class_raises(self):
        # k is not guessed from the labels, so an absent top class is an
        # empty class like any other
        labels = [0, 0, 1, 1, 1, 0]
        with pytest.raises(ValueError, match=r"empty: \[2\]"):
            class_statistics(np.ones((2, 6)), labels, 3)
        with pytest.raises(TypeError):
            class_statistics(np.ones((2, 6)), labels)


class TestNc1:
    def test_collapsed_is_zero(self):
        rng = make_rng(1)
        protos = rng.standard_normal((4, 2))
        labels = np.array([0, 0, 1, 1])
        stats = class_statistics(protos[:, labels], labels, 2)
        assert nc1(stats) == 0.0

    def test_half_for_matched_rank_one(self):
        e1 = np.zeros(3)
        e1[0] = 1.0
        # hand-built statistics with sigma_w = sigma_b = e1 e1^T, K = 2
        from collapsekit.metrics import ClassStatistics

        stats = ClassStatistics(
            class_means=np.column_stack([e1, -e1]),
            global_mean=np.zeros(3),
            sigma_w=np.outer(e1, e1),
            sigma_b=np.outer(e1, e1),
        )
        assert nc1(stats) == pytest.approx(0.5, abs=1e-12)

    def test_positive_when_not_collapsed(self):
        rng = make_rng(2)
        labels = np.repeat(np.arange(3), 6)
        stats = class_statistics(rng.standard_normal((5, 18)), labels, 3)
        assert nc1(stats) > 1e-3

    def test_matches_independent_svd_path(self):
        rng = make_rng(23)
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 3))
        sigma_w = a @ a.T
        sigma_b = b @ b.T
        from collapsekit.metrics import ClassStatistics

        stats = ClassStatistics(
            class_means=np.zeros((5, 2)),
            global_mean=np.zeros(5),
            sigma_w=sigma_w,
            sigma_b=sigma_b,
        )
        u, s, vt = np.linalg.svd(sigma_b)
        inv = np.where(s > 1e-10 * s.max(), 1.0 / np.where(s > 0, s, 1.0), 0.0)
        pinv = (vt.T * inv) @ u.T
        expected = np.trace(sigma_w @ pinv) / 2
        assert nc1(stats) == pytest.approx(expected, rel=1e-9)


class TestNc2:
    def test_zero_at_etf_means(self):
        frame = make_etf(5, 8, 1.7, make_rng(2))
        assert nc2(frame.s) < 1e-9

    def test_identical_columns(self):
        col = np.array([1.0, 2.0, 0.5])
        means = np.column_stack([col, col, col])
        assert nc2(means) > 0.5

    def test_k2_antipodal_unit(self):
        e = np.array([1.0, 0.0])
        assert nc2(np.column_stack([e, -e])) < 1e-12

    def test_rotation_and_scale_invariance(self):
        rng = make_rng(6)
        means = rng.standard_normal((7, 4))
        base = nc2(means)
        q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        assert nc2(3.7 * (q @ means)) == pytest.approx(base, rel=1e-10)

    def test_zero_means_error(self):
        with pytest.raises(ValueError, match="zero"):
            nc2(np.zeros((3, 2)))


class TestNc3:
    def test_self_dual_is_zero(self):
        rng = make_rng(3)
        means = rng.standard_normal((5, 3))
        assert nc3(2.5 * means.T, means) < 1e-12

    def test_antipodal_is_two(self):
        rng = make_rng(4)
        means = rng.standard_normal((5, 3))
        assert nc3(-means.T, means) == pytest.approx(2.0, abs=1e-12)

    def test_direct_formula_oracle(self):
        rng = make_rng(29)
        w = rng.standard_normal((4, 6))
        means = rng.standard_normal((6, 4))
        expected = np.linalg.norm(
            w / np.linalg.norm(w) - means.T / np.linalg.norm(means)
        )
        assert nc3(w, means) == pytest.approx(expected, abs=1e-12)

    def test_separate_rescale_invariance(self):
        rng = make_rng(5)
        w = rng.standard_normal((3, 4))
        means = rng.standard_normal((4, 3))
        assert nc3(5.0 * w, 0.01 * means) == pytest.approx(nc3(w, means), rel=1e-12)

    def test_shape_error(self):
        with pytest.raises(ValueError, match="K x D"):
            nc3(np.ones((3, 4)), np.ones((3, 4)))

    def test_zero_classifier_error(self):
        with pytest.raises(ValueError, match="classifier and class means must both be non-zero"):
            nc3(np.zeros((3, 4)), np.ones((4, 3)))


class TestMinorityCollapse:
    def test_identical_rows(self):
        w = np.vstack([np.ones(4), np.ones(4), np.eye(4)[0]])
        assert minority_collapse_index(w, [0, 1]) == pytest.approx(1.0)

    def test_etf_rows_restricted(self):
        frame = make_etf(4, 6, 1.0, make_rng(7))
        w = frame.s.T
        assert minority_collapse_index(w, [1, 3]) == pytest.approx(-1.0 / 3.0, abs=1e-10)

    def test_orthogonal_rows(self):
        assert minority_collapse_index(np.eye(4), [0, 2]) == pytest.approx(0.0, abs=1e-15)

    def test_zero_row_sentinel(self):
        w = np.vstack([np.zeros(3), np.ones(3)])
        assert math.isnan(minority_collapse_index(w, [0, 1]))

    def test_needs_two_classes(self):
        with pytest.raises(ValueError, match="two classes"):
            minority_collapse_index(np.eye(3), [1])

    @pytest.mark.parametrize("classes", [[5, 6], [-1, -2], [1, 1]],
                             ids=["out-of-range", "negative", "repeated"])
    def test_bad_classes_raise(self, classes):
        w = np.vstack([np.eye(4)[:3], np.ones(4)])
        with pytest.raises(ValueError, match=r"distinct and in \[0, 4\)"):
            minority_collapse_index(w, classes)
        h, labels = w.T, np.arange(4)
        with pytest.raises(ValueError, match=r"distinct and in \[0, 4\)"):
            nc_report(h, labels, w, w @ h, 0.5, minority_classes=classes)


class TestNcReport:
    def test_fields_and_accuracy(self):
        frame = make_etf(3, 4, 1.0, make_rng(8))
        labels = np.array([0, 0, 1, 1, 2, 2])
        h = frame.s[:, labels]
        w = frame.s.T
        logits = w @ h
        report = nc_report(h, labels, w, logits, loss=0.1)
        assert report.accuracy == 1.0
        assert report.nc1 < 1e-10
        assert report.nc2 < 1e-9
        assert report.nc3 < 1e-9
        assert report.per_class_accuracy == (1.0, 1.0, 1.0)
        assert len(report.per_class_weight_norm) == 3
        assert report.minority_mean_pairwise_cosine == pytest.approx(-0.5, abs=1e-10)
        as_dict = report.as_dict()
        assert set(as_dict) == {
            "nc1", "nc2", "nc3", "loss", "accuracy",
            "per_class_accuracy", "per_class_weight_norm",
            "minority_mean_pairwise_cosine",
        }


class TestClassPartition:
    @pytest.mark.parametrize("sort_labels", [False, True])
    def test_matches_masked_reductions_bit_for_bit(self, sort_labels):
        rng = make_rng(12)
        labels = rng.permutation(np.repeat(np.arange(4), [7, 1, 30, 3]))
        if sort_labels:
            labels = np.sort(labels)
        h = rng.standard_normal((5, labels.size))
        partition = ClassPartition.build(labels, 4)
        masked = np.column_stack([h[:, labels == c].mean(axis=1) for c in range(4)])
        np.testing.assert_array_equal(partition.class_means(h), masked)
        np.testing.assert_array_equal(
            partition.weights, 1.0 / (4 * np.bincount(labels)[labels])
        )
        correct = rng.random(labels.size) < 0.6
        masked_acc = [np.mean(correct[labels == c]) for c in range(4)]
        np.testing.assert_array_equal(partition.class_accuracy(correct), masked_acc)


def _near_collapse(seed, k, extra_dims, noise):
    """Features and classifier rows scattered around a random simplex ETF,
    with unsorted labels and unequal class counts. The noise range keeps
    Sigma_B well conditioned and every metric away from zero, where a
    relative tolerance means something."""
    rng = make_rng(seed)
    d = k + extra_dims
    labels = rng.permutation(np.repeat(np.arange(k), rng.integers(1, 6, size=k)))
    frame = make_etf(k, d, 1.0, rng)
    h = frame.s[:, labels] + noise * rng.standard_normal((d, labels.size))
    w = frame.s.T + noise * rng.standard_normal((k, d))
    return rng, labels, h, w


_NEAR_COLLAPSE = dict(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 6),
    extra_dims=st.integers(0, 3),
    noise=st.floats(0.1, 0.5),
)


class TestNcReportProperties:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(minority=st.booleans(), **_NEAR_COLLAPSE)
    def test_joint_relabeling_invariance(self, seed, k, extra_dims, noise, minority):
        rng, labels, h, w = _near_collapse(seed, k, extra_dims, noise)
        classes = tuple(range(1, k)) if minority and k > 2 else None
        perm = rng.permutation(k)  # class c becomes class perm[c]
        w_relabeled = w[np.argsort(perm)]
        base = nc_report(h, labels, w, w @ h, 0.5, minority_classes=classes)
        relabeled = nc_report(
            h, perm[labels], w_relabeled, w_relabeled @ h, 0.5,
            minority_classes=None if classes is None else tuple(perm[list(classes)]),
        )
        for name in ("nc1", "nc2", "nc3", "accuracy", "minority_mean_pairwise_cosine"):
            assert getattr(relabeled, name) == pytest.approx(getattr(base, name), rel=1e-12)
        for name in ("per_class_accuracy", "per_class_weight_norm"):
            np.testing.assert_allclose(
                np.asarray(getattr(relabeled, name))[perm], getattr(base, name), rtol=1e-12
            )

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(log_scale=st.floats(-3.0, 3.0), **_NEAR_COLLAPSE)
    def test_nc2_invariant_under_feature_rescaling(self, seed, k, extra_dims, noise, log_scale):
        _, labels, h, _ = _near_collapse(seed, k, extra_dims, noise)
        base = nc2(class_statistics(h, labels, k).class_means)
        scaled = nc2(class_statistics(10.0**log_scale * h, labels, k).class_means)
        assert scaled == pytest.approx(base, rel=1e-12)


def _one_state_report(h, labels, w, logits, loss, cutoff, cosine_rows):
    """The one-state arithmetic each stacked report must reproduce bit for
    bit: masked class means, 2-D products, np.linalg.norm and a mean over
    the fancy-indexed cosine pairs."""
    k, n = w.shape[0], h.shape[1]
    means = np.column_stack([h[:, labels == c].mean(axis=1) for c in range(k)])
    global_mean = means.mean(axis=1)
    centered = h - means[:, labels]
    sigma_w = (centered @ centered.T) / n
    dev = means - global_mean[:, None]
    sigma_b = (dev @ dev.T) / k
    sigma_w = 0.5 * (sigma_w + sigma_w.T)
    sigma_b = 0.5 * (sigma_b + sigma_b.T)
    gram = means.T @ means
    correct = np.argmax(logits, axis=0) == labels
    rows = w[list(cosine_rows)]
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms < 1e-30):
        cosine = float("nan")
    else:
        unit = rows / norms[:, None]
        cosine = float((unit @ unit.T)[np.triu_indices(len(rows), k=1)].mean())
    return NcReport(
        nc1=float(np.trace(sigma_w @ pseudo_inverse(sigma_b, cutoff)) / k),
        nc2=float(np.linalg.norm(gram / np.linalg.norm(gram) - normalized_etf_gram(k))),
        nc3=float(np.linalg.norm(w / np.linalg.norm(w) - means.T / np.linalg.norm(means))),
        loss=float(loss),
        accuracy=float(np.mean(correct)),
        per_class_accuracy=tuple(float(np.mean(correct[labels == c])) for c in range(k)),
        per_class_weight_norm=tuple(np.linalg.norm(w, axis=1).tolist()),
        minority_mean_pairwise_cosine=cosine,
    )


class TestStackedReports:
    @pytest.mark.parametrize("minority", [None, (1, 3, 4)])
    def test_each_report_matches_one_state_arithmetic(self, minority):
        rng = make_rng(44)
        k, d, b = 5, 7, 9
        labels = rng.permutation(np.repeat(np.arange(k), [12, 1, 5, 3, 30]))
        frame = make_etf(k, d, 1.0, rng)
        scale = 10.0 ** rng.uniform(-3, 3, (b, 1, 1))
        noise = 10.0 ** rng.uniform(-4, 0, (b, 1, 1))
        h = scale * (frame.s[:, labels] + noise * rng.standard_normal((b, d, labels.size)))
        w = frame.s.T + noise * rng.standard_normal((b, k, d))
        w[4, 3] = 0.0  # a numerically zero minority row: NaN cosine
        logits = w @ h
        losses = rng.random(b).tolist()
        reporter = NcReporter(ClassPartition.build(labels, k), 1e-10, minority, b, d)
        reports = reporter.reports(h, w, logits, losses)

        rows = minority if minority is not None else range(k)
        for i, report in enumerate(reports):
            expected = _one_state_report(h[i], labels, w[i], logits[i], losses[i], 1e-10, rows)
            if i == 4:
                assert math.isnan(report.minority_mean_pairwise_cosine)
                assert math.isnan(expected.minority_mean_pairwise_cosine)
                report = dataclasses.replace(report, minority_mean_pairwise_cosine=0.0)
                expected = dataclasses.replace(expected, minority_mean_pairwise_cosine=0.0)
            assert report == expected


class TestLabelCheck:
    """Every public function that takes labels runs the one check: 1-D, one
    entry per sample, values in [0, K)."""

    H = np.arange(8.0).reshape(2, 4)
    W = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    CALLS = {
        "FeatureSet": lambda h, w, labels: FeatureSet(h0=h, labels=labels, k=3),
        "ClassPartition.build": lambda h, w, labels: ClassPartition.build(labels, 3, 4),
        "class_statistics": lambda h, w, labels: class_statistics(h, labels, 3),
        "nc_report": lambda h, w, labels: nc_report(h, labels, w, w @ h, 0.5),
        "cross_entropy": lambda h, w, labels: cross_entropy(w @ h, labels),
        "accuracy": lambda h, w, labels: accuracy(w @ h, labels),
        "constants_from_logits": lambda h, w, labels: constants_from_logits(w @ h, labels, 3),
        "extreme_imbalance_report":
            lambda h, w, labels: extreme_imbalance_report(w, h, labels, k_a=2),
    }

    @pytest.mark.parametrize("labels", [[0, 1, -1, 2], [0, 1, 3, 2], [0, 1, 2], [[0, 1, 2, 2]],
                                        [0, 1.7, 2.2, 1]],
                             ids=["negative", "too-large", "short", "2-D", "fractional"])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_bad_labels_raise(self, call, labels):
        with pytest.raises(ValueError, match="labels must"):
            self.CALLS[call](self.H, self.W, labels)

    def test_logit_scores_accept_a_missing_class(self):
        logits = self.W @ self.H
        labels = [0, 0, 1, 1]
        assert accuracy(logits, labels) == 0.5
        assert math.isfinite(cross_entropy(logits, labels))
        constants_from_logits(logits, labels, 3)
        with pytest.raises(ValueError, match="every class"):
            ClassPartition.build(labels, 3, 4)

    def test_partition_messages_are_bounded_by_n(self):
        # 11 empty classes: the first 10 are named
        with pytest.raises(ValueError) as info:
            ClassPartition.build([0] * 12, 12)
        assert str(info.value).endswith("empty: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] and 1 more")
        with pytest.raises(ValueError, match="100000 classes need at least 100000 samples, got 12"):
            ClassPartition.build([0] * 12, 100000)
