import math

import numpy as np
import pytest

from collapsekit.bounds import (
    BoundConstants,
    ImbalanceSpec,
    balanced_loss_floor,
    comparison_conditions,
    constants_from_logits,
    extreme_imbalance_report,
    fuzz_log_bound,
    imbalance_etf_target,
    log_share_bound,
    ratio_at_gap,
    tightest_ratio,
)
from collapsekit.etf import make_etf
from collapsekit.linalg import make_rng


class TestBoundConstants:
    def test_derived_quantities(self):
        c = BoundConstants(c1=2.0, c2=3.0, k=4)
        assert c.m1 == pytest.approx(0.6)
        assert c.c3 == pytest.approx(3.0 / (3 * 5.0))
        expected_m2 = 0.6 * math.log(c.c3) - 0.4 * math.log(5.0 / 2.0)
        assert c.m2 == pytest.approx(expected_m2, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundConstants(c1=0.0, c2=1.0, k=3)
        with pytest.raises(ValueError):
            BoundConstants(c1=1.0, c2=1.0, k=1)

    @pytest.mark.parametrize("c1, c2, message", [
        (math.nan, 1.0, "c1 and c2 must be positive"),
        (1.0, math.nan, "c1 and c2 must be positive"),
        (math.inf, 1.0, "c1 and c2 must be positive"),
        (1.0, math.inf, "c1 and c2 must be positive"),
        (1.0, 5e-324, "outside float range"),  # c3 underflows to 0
        (1e308, 1e308, "outside float range"),  # c1 + c2 overflows
        (5e-324, 1.0, "outside float range"),  # (c1 + c2) / c1 overflows
    ])
    def test_rejects_constants_outside_float_range(self, c1, c2, message):
        with pytest.raises(ValueError, match=message):
            BoundConstants(c1=c1, c2=c2, k=4)

    @pytest.mark.parametrize("ratio, k", [(1e-300, 10), (1e300, 4), (1e-12, 2), (1e12, 10)])
    def test_accepted_constants_are_finite(self, ratio, k):
        consts = BoundConstants.from_ratio(ratio, k)
        assert math.isfinite(consts.m1) and math.isfinite(consts.m2)


class TestLogShareBound:
    def test_symmetric_k2_equality(self):
        deltas = np.array([1.0, 1.0])
        lhs, rhs = log_share_bound(deltas, 0, BoundConstants(c1=1.0, c2=1.0, k=2))
        assert lhs == pytest.approx(-math.log(2.0), abs=1e-12)
        assert rhs == pytest.approx(-math.log(2.0), abs=1e-12)

    def test_holds_for_skewed_deltas(self):
        deltas = np.array([math.e, 1.0])
        for ratio in (0.1, 1.0, 5.0):
            lhs, rhs = log_share_bound(deltas, 0, BoundConstants.from_ratio(ratio, 2))
            assert lhs <= rhs + 1e-12

    def test_fuzz_small(self):
        violations, worst = fuzz_log_bound(2000, seed=7)
        assert violations == 0
        assert worst <= 1e-12

    def test_fuzz_counts_every_gap_above_tol(self):
        violations, worst = fuzz_log_bound(20, 0, tol=-math.inf)
        assert violations == 20
        assert worst <= 1e-12

    def test_validation(self):
        consts = BoundConstants(c1=1.0, c2=1.0, k=3)
        with pytest.raises(ValueError, match="positive"):
            log_share_bound([1.0, -1.0, 2.0], 0, consts)
        with pytest.raises(ValueError, match="out of range"):
            log_share_bound([1.0, 1.0, 1.0], 3, consts)
        with pytest.raises(ValueError, match="K="):
            log_share_bound([1.0, 1.0], 0, consts)
        with pytest.raises(ValueError, match="1-D array with at least two entries"):
            log_share_bound([1.0], 0, consts)


class TestTightestRatio:
    def test_equality_at_symmetric_point_all_k(self):
        for k in range(2, 11):
            deltas = np.full(k, 3.3)
            ratio = tightest_ratio(deltas, 0)
            lhs, rhs = log_share_bound(deltas, 0, BoundConstants.from_ratio(ratio, k))
            assert abs(lhs - rhs) < 1e-10

    def test_symmetric_value(self):
        # Jensen equality at equal deltas forces c2/c1 = K - 1
        assert tightest_ratio(np.ones(5), 2) == pytest.approx(4.0)

    def test_skewed_value(self):
        # delta_k = e^2 against ones, K = 3: ratio = (K-1) e^{-2}
        deltas = np.array([math.exp(2.0), 1.0, 1.0])
        assert tightest_ratio(deltas, 0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)

    def test_equality_for_skewed_deltas_when_others_equal(self):
        # the bound is tight whenever the non-focal deltas coincide
        deltas = np.array([5.0, 0.3, 0.3, 0.3])
        ratio = tightest_ratio(deltas, 0)
        lhs, rhs = log_share_bound(deltas, 0, BoundConstants.from_ratio(ratio, 4))
        assert abs(lhs - rhs) < 1e-12

    def test_grid_search_confirms_minimum_of_rhs(self):
        # the returned ratio gives the smallest rhs, i.e. the largest valid
        # loss floor, over a wide ratio grid
        rng = make_rng(3)
        for _ in range(10):
            k = int(rng.integers(2, 8))
            deltas = np.exp(rng.uniform(-2, 2, size=k))
            k_index = int(rng.integers(0, k))
            ratio = tightest_ratio(deltas, k_index)
            _, rhs_best = log_share_bound(
                deltas, k_index, BoundConstants.from_ratio(ratio, k)
            )
            for grid_ratio in np.geomspace(0.01, 100.0, 241):
                _, rhs = log_share_bound(
                    deltas, k_index, BoundConstants.from_ratio(grid_ratio, k)
                )
                assert rhs_best <= rhs + 1e-12


class TestBalancedLossFloor:
    def test_ordering_always(self):
        rng = make_rng(5)
        for _ in range(50):
            k = int(rng.integers(2, 11))
            consts = BoundConstants.from_ratio(float(rng.uniform(0.05, 20.0)), k)
            e_w, e_h = rng.uniform(0.01, 5.0, size=2)
            deq, explicit = balanced_loss_floor(e_w, e_h, k, consts)
            assert deq <= explicit

    def test_difference_formula(self):
        consts = BoundConstants.from_ratio(2.0, 5)
        e = 0.7
        deq, explicit = balanced_loss_floor(e, e, 5, consts)
        assert explicit - deq == pytest.approx(consts.m1 * (5 / 4) * e, rel=1e-12)

    def test_floor_equals_optimum_at_tight_constants(self):
        # at the collapsed optimum the floor is exact: both sides equal
        # log(1 + (K-1) exp(-K/(K-1) * sqrt(e_w e_h)))
        for k in (3, 4, 7):
            for e in (0.5, 1.0):
                gap = (k / (k - 1)) * math.sqrt(e * e)
                consts = BoundConstants.from_ratio((k - 1) * math.exp(-gap), k)
                _, explicit = balanced_loss_floor(e, e, k, consts)
                optimum = math.log(1 + (k - 1) * math.exp(-gap))
                assert explicit == pytest.approx(optimum, abs=1e-12)

    def test_constants_from_logits(self):
        # collapsed logits (true 1, others -1/(K-1)) have margin gap K/(K-1)
        k, n = 4, 6
        gap = k / (k - 1)
        logits = np.full((k, n), -1.0 / (k - 1) + 1e-1)
        labels = np.arange(n) % k
        logits[labels, np.arange(n)] = 1.0 + 1e-1
        consts = constants_from_logits(logits, labels, k)
        assert consts.c2 / consts.c1 == pytest.approx((k - 1) * math.exp(-gap), rel=1e-9)

    def test_validation(self):
        consts = BoundConstants.from_ratio(1.0, 3)
        with pytest.raises(ValueError):
            balanced_loss_floor(0.0, 1.0, 3, consts)
        with pytest.raises(ValueError, match="K="):
            balanced_loss_floor(1.0, 1.0, 4, consts)
        with pytest.raises(ValueError, match="need at least two classes"):
            balanced_loss_floor(1.0, 1.0, 1, consts)

    @pytest.mark.parametrize("e_w, e_h", [(math.nan, 1.0), (math.inf, 1.0),
                                          (1.0, math.nan), (1.0, math.inf)])
    def test_rejects_non_finite_budgets(self, e_w, e_h):
        with pytest.raises(ValueError, match="budgets must be positive"):
            balanced_loss_floor(e_w, e_h, 3, BoundConstants.from_ratio(1.0, 3))

    def test_floors_stay_finite_where_the_budget_product_overflows(self):
        # e_w * e_h overflows; sqrt(e_w) * sqrt(e_h) = 1e200 does not
        deq, explicit = balanced_loss_floor(1e200, 1e200, 4, BoundConstants.from_ratio(1.0, 4))
        assert math.isfinite(deq) and math.isfinite(explicit)
        assert deq <= explicit


@pytest.mark.parametrize("call", [
    lambda: ratio_at_gap(-800.0, 4),
    lambda: constants_from_logits([[-800.0], [0.0], [0.0], [0.0]], [0], 4),
], ids=["ratio_at_gap", "constants_from_logits"])
def test_a_ratio_outside_float_range_is_a_value_error(call):
    # (K - 1) exp(800) overflows
    with pytest.raises(ValueError, match="log gap -800.0"):
        call()


class TestComparisonConditions:
    def test_small_eh_window_holds(self):
        # 2 S_ij - m_ij = 0.5 everywhere, e_h = 0.01: 0.01 < 0.5 < ~1.0101
        k = 3
        target = np.zeros((k, k))
        gram = 2.0 * target - 0.5 * (1 - np.eye(k))
        np.fill_diagonal(gram, 1.0)
        report = comparison_conditions(1.0, 0.01, gram, target)
        assert report.nc2_condition_holds
        assert report.nc2_margin == pytest.approx(0.49, abs=1e-9)

    def test_nc3_condition_small_budgets(self):
        report = comparison_conditions(0.01, 0.01, np.eye(2), np.zeros((2, 2)))
        assert report.nc3_condition_holds
        assert report.nc3_margin == pytest.approx(2.0 - (0.5 + 0.01 * 0.99), rel=1e-12)

    def test_margin_arithmetic_large_eh(self):
        # e_h = 0.9, all off-diagonal 2 S_ij - m_ij = 5:
        # 0.9 < 5 < 10 holds with margin min(5 - 0.9, 10 - 5) = 4.1
        k = 2
        target = np.full((k, k), 2.0)
        gram = 2.0 * target - 5.0
        report = comparison_conditions(1.0, 0.9, gram, target)
        assert report.nc2_condition_holds
        assert report.nc2_margin == pytest.approx(4.1, abs=1e-12)

    def test_permutation_symmetry(self):
        rng = make_rng(8)
        m = rng.standard_normal((4, 4))
        gram = 0.5 * (m + m.T)
        target = imbalance_etf_target(4, 0.5)
        base = comparison_conditions(1.0, 0.5, gram, target)
        perm = np.array([2, 0, 3, 1])
        permuted = comparison_conditions(
            1.0, 0.5, gram[np.ix_(perm, perm)], target[np.ix_(perm, perm)]
        )
        assert permuted.nc2_condition_holds == base.nc2_condition_holds
        assert permuted.nc2_margin == pytest.approx(base.nc2_margin, abs=1e-12)

    def test_eh_out_of_range(self):
        with pytest.raises(ValueError, match="e_h"):
            comparison_conditions(1.0, 1.0, np.eye(2), np.eye(2))

    def test_bad_ew_and_gram_shapes(self):
        with pytest.raises(ValueError, match="e_w must be positive"):
            comparison_conditions(0.0, 0.5, np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="gram shapes must match and be square"):
            comparison_conditions(1.0, 0.5, np.eye(2), np.eye(3))

    @pytest.mark.parametrize("e_w", [math.nan, math.inf])
    def test_rejects_non_finite_ew(self, e_w):
        with pytest.raises(ValueError, match="e_w must be positive"):
            comparison_conditions(e_w, 0.5, np.eye(2), np.eye(2))


class TestImbalanceSpec:
    def test_properties(self):
        spec = ImbalanceSpec(k_a=3, k_b=7, n_a=100, n_b=10)
        assert spec.k == 10
        assert spec.r == 10.0
        assert spec.k_r == pytest.approx(3 / 7)
        assert spec.n_total == 370
        assert spec.majority_fraction == pytest.approx(300 / 370)
        assert spec.class_counts == (100,) * 3 + (10,) * 7
        assert spec.minority_classes == tuple(range(3, 10))

    def test_validation(self):
        with pytest.raises(ValueError):
            ImbalanceSpec(k_a=0, k_b=2, n_a=10, n_b=1)
        with pytest.raises(ValueError):
            ImbalanceSpec(k_a=1, k_b=1, n_a=5, n_b=5)


class TestExtremeImbalance:
    def test_exact_limit_has_zero_gaps(self):
        # construct the limit state: majority means on an exact ETF,
        # minority rows and features identically zero
        k_a, k_b, d = 3, 2, 8
        frame = make_etf(k_a, d, 1.0, make_rng(0))
        labels = np.array([0, 0, 1, 1, 2, 2, 3, 4])
        h = np.zeros((d, 8))
        for i, c in enumerate(labels):
            if c < k_a:
                h[:, i] = frame.s[:, c]
        w = np.zeros((k_a + k_b, d))
        w[:k_a] = frame.s.T
        report = extreme_imbalance_report(w, h, labels, k_a, tol=0.1)
        assert report.minority_max_weight_norm == 0.0
        assert report.minority_max_feature_norm == 0.0
        assert report.majority_etf_distance < 1e-9
        assert report.weights_within_tol
        assert report.features_within_tol
        assert report.etf_within_tol

    def test_balanced_consistency_when_all_majority(self):
        # with k_a = K the majority ETF distance is just the full nc2 measure
        from collapsekit.metrics import nc2

        rng = make_rng(1)
        labels = np.repeat(np.arange(4), 3)
        h = rng.standard_normal((6, 12))
        w = rng.standard_normal((4, 6))
        report = extreme_imbalance_report(w, h, labels, k_a=4, tol=0.1)
        means = np.column_stack([h[:, labels == c].mean(axis=1) for c in range(4)])
        assert report.majority_etf_distance == pytest.approx(nc2(means), rel=1e-12)
        assert report.minority_max_weight_norm == 0.0

    def test_ratios(self):
        labels = np.array([0, 0, 1, 1, 2])
        h = np.ones((3, 5))
        w = np.vstack([np.ones(3), np.ones(3), 0.05 * np.ones(3)])
        report = extreme_imbalance_report(w, h, labels, k_a=2, tol=0.1)
        assert report.weight_ratio == pytest.approx(0.05, rel=1e-12)
        assert report.weights_within_tol

    def test_needs_two_majority_classes(self):
        with pytest.raises(ValueError, match="two majority"):
            extreme_imbalance_report(np.ones((3, 2)), np.ones((2, 3)), [0, 1, 2], k_a=1)
        with pytest.raises(ValueError, match=r"k_a must lie in \[1, 3\]"):
            extreme_imbalance_report(np.ones((3, 2)), np.ones((2, 3)), [0, 1, 2], k_a=4)

    def test_trained_run_near_limit(self):
        # majority fraction 0.999 (3 classes x 2331 vs 7 classes x 1):
        # minority classifier rows shrink below 10% of the majority mean.
        # Slowest test in this module (~15 s); the run is deterministic.
        import collapsekit as ck
        from collapsekit import lpm

        counts = [2331] * 3 + [1] * 7
        labels = np.repeat(np.arange(10), counts)
        spec = ImbalanceSpec(k_a=3, k_b=7, n_a=2331, n_b=1)
        assert spec.majority_fraction > 0.998
        cfg = ck.TrainConfig(learning_rate=0.05, steps=6000, e_w=1.0, e_h=1.0,
                             feature_budget=1.0, seed=0, log_every=6000, momentum=0.9)
        rng = make_rng(0)
        features = lpm.initialize_features(labels, 10, 16, 1.0, rng)
        cls = lpm.initialize_classifier(10, 16, 1.0, rng)
        head = lpm.initialize_explicit_head(16, 16, 1.0, rng)
        trace = ck.train(features, head, cls, cfg)
        h = lpm.head_features(trace.head, trace.features.h0)
        report = extreme_imbalance_report(trace.classifier.w, h, labels, k_a=3)
        assert report.weight_ratio < 0.10
        assert report.minority_mean_weight_norm < 0.10 * report.majority_mean_weight_norm


def test_imbalance_etf_target_scale():
    # diagonal is alpha^2 = feature budget, off-diagonal -alpha^2/(K-1)
    target = imbalance_etf_target(4, 0.5)
    assert target[0, 0] == pytest.approx(0.5)
    assert target[0, 1] == pytest.approx(-0.5 / 3)
