import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collapsekit.lpm as lpm_mod
from collapsekit.deq import SolverPolicy, fixed_point_iterate
from collapsekit.errors import TrainingDivergedError
from collapsekit.etf import make_etf
from collapsekit.linalg import make_rng, spectral_radius_bound
from collapsekit.lpm import (
    ClassifierWeights,
    DeqHead,
    ExplicitHead,
    FeatureSet,
    TraceSnapshot,
    TrainConfig,
    accuracy,
    classifier_mean_square,
    cross_entropy,
    feature_norm_functional,
    forward,
    head_features,
    head_preimage,
    initialize_classifier,
    initialize_deq_head,
    initialize_explicit_head,
    initialize_features,
    loss_and_grads,
    project_feasible,
    train,
)
from collapsekit.metrics import ClassPartition, NcReporter, class_statistics, nc_report


def _small_instance(seed, k=3, n=4, d=6, head_kind="explicit", e_h=1.0, gaussian_head=False):
    rng = make_rng(seed)
    labels = np.repeat(np.arange(k), n)
    features = initialize_features(labels, k, d, 1.0, rng)
    cls = initialize_classifier(k, d, 1.0, rng)
    if head_kind == "explicit":
        if gaussian_head:
            w = rng.standard_normal((d, d))
            w *= 0.5 * e_h / np.linalg.norm(w)
            head = ExplicitHead(weight=w)
        else:
            head = initialize_explicit_head(d, d, e_h, rng)
    else:
        head = initialize_deq_head(d, e_h, rng)
    return features, head, cls


class TestCrossEntropy:
    def test_uniform_two_classes(self):
        logits = np.zeros((2, 5))
        labels = np.array([0, 1, 0, 1, 1])
        assert cross_entropy(logits, labels) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_confident_correct(self):
        logits = np.array([[10.0], [0.0]])
        assert cross_entropy(logits, [0]) == pytest.approx(
            math.log1p(math.exp(-10.0)), abs=1e-12
        )

    def test_confident_wrong(self):
        logits = np.array([[0.0], [10.0]])
        assert cross_entropy(logits, [0]) == pytest.approx(
            10.0 + math.log1p(math.exp(-10.0)), abs=1e-9
        )

    def test_stabilized_against_large_logits(self):
        logits = np.array([[1000.0], [0.0]])
        assert cross_entropy(logits, [0]) == 0.0


# values the class sum sees: exp underflow to 0.0 and subnormals, the max
# column entry 1.0, repeated values for ties, zeros, inf and NaN of both signs
CLASS_SUM_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 0.25, 1.0, 1.0, 3.0, math.inf,
                     -math.inf, math.nan, -math.nan]),
    st.floats(min_value=0.0, max_value=1e300),
)


def _sort_sum(x):
    return np.sum(np.sort(x, axis=0), axis=0)


class TestClassSum:
    """ClassSum reuses each column's order across calls and must give the
    bits of a fresh sort-and-sum on every call."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), k=st.integers(2, 7), n=st.integers(1, 12),
           calls=st.integers(1, 6), through_exp=st.booleans())
    def test_matches_sort_sum_byte_for_byte(self, data, k, n, calls, through_exp):
        values = st.lists(CLASS_SUM_VALUES, min_size=k * n, max_size=k * n)
        x = np.array(data.draw(values)).reshape(k, n)
        class_sum = lpm_mod.ClassSum(k, n)
        with np.errstate(all="ignore"):
            for _ in range(calls):
                # softmax terms: exp(max-shifted logits), which underflow to
                # 0.0 and turn an inf logit into NaN
                terms = np.exp(x - np.max(x, axis=0)) if through_exp else x
                assert class_sum(terms).tobytes() == _sort_sum(terms).tobytes()
                # next call: permute or overwrite some columns, keep the rest
                x = x.copy()
                for col in data.draw(st.lists(st.integers(0, n - 1), max_size=n)):
                    if data.draw(st.booleans()):
                        x[:, col] = x[data.draw(st.permutations(range(k))), col]
                    else:
                        x[data.draw(st.integers(0, k - 1)), col] = data.draw(CLASS_SUM_VALUES)

    def test_reuses_order_and_resorts_moved_columns(self):
        rng = make_rng(5)
        x = rng.random((6, 50))
        class_sum = lpm_mod.ClassSum(6, 50)
        class_sum(x)
        order = class_sum.index.copy()
        y = x.copy()
        y[:, 7] = y[::-1, 7]
        y[2, 9] = np.nan
        assert class_sum(y).tobytes() == _sort_sum(y).tobytes()
        changed = np.flatnonzero(np.any(class_sum.index != order, axis=0))
        assert set(changed) <= {7, 9} and 7 in changed


class TestSoftmaxTerms:
    """The true-class pick is taken before exp, so one array may hold the
    shifted logits and their exp: every out layout gives the same bytes."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), k=st.integers(2, 7), n=st.integers(1, 12),
           class_sum_name=st.sampled_from(["ClassSum", "_sum_classes"]))
    def test_out_layouts_give_the_same_bytes(self, data, k, n, class_sum_name):
        # few distinct values, so entries repeat and zeros of both signs meet
        values = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -2.5, 1e300, -1e300]),
                           st.floats(-1e300, 1e300))
        logits = np.array(data.draw(st.lists(values, min_size=k * n, max_size=k * n)))
        logits = logits.reshape(k, n)
        labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
        picks = lpm_mod._true_class_index(labels, n)
        shared = np.empty((k, n))
        layouts = [(shared, shared, np.empty(n), np.empty(n)),
                   (np.empty((k, n)), np.empty((k, n)), np.empty(n), np.empty(n)),
                   (None,) * 4]
        top = np.max(logits, axis=0)
        shifted = logits - top
        expected_exp = np.exp(shifted)
        expected_denom = _sort_sum(expected_exp)
        expected = [np.log(expected_denom) - shifted[labels, np.arange(n)],
                    expected_exp, expected_denom]
        for out in layouts:
            class_sum = (lpm_mod.ClassSum(k, n) if class_sum_name == "ClassSum"
                         else lpm_mod._sum_classes)
            per_sample, exp, denom = lpm_mod._softmax_terms(logits, picks, class_sum, out)
            if out[0] is not None:
                assert exp is out[1] and per_sample is out[2]
            for got, want in zip((per_sample, exp, denom), expected, strict=True):
                assert got.tobytes() == want.tobytes()


class TestClassOrder:
    """_class_order keeps a previous order only where it is lexsort's one
    answer: column 0 strictly increasing under it."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), k=st.integers(2, 7), d=st.integers(1, 4))
    def test_matches_lexsort(self, data, k, d):
        # few distinct values, so column 0 ties, rows repeat and zeros of
        # both signs meet; NaN falls back to a fresh sort too
        values = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0, math.nan]),
                           st.floats(-3.0, 3.0))
        w = np.array(data.draw(st.lists(values, min_size=k * d, max_size=k * d))).reshape(k, d)
        if data.draw(st.booleans()):
            w[data.draw(st.integers(0, k - 1))] = w[data.draw(st.integers(0, k - 1))]
        previous = np.array(data.draw(st.permutations(range(k))))
        fresh = np.lexsort(w.T[::-1])
        np.testing.assert_array_equal(lpm_mod._class_order(w, previous), fresh)
        np.testing.assert_array_equal(lpm_mod._class_order(w), fresh)

    def test_keeps_a_strict_order_and_resorts_a_tie(self):
        w = np.array([[2.0, 0.0], [-1.0, 5.0], [0.5, -3.0]])
        order = lpm_mod._class_order(w)
        assert lpm_mod._class_order(w, order) is order
        w[1, 0] = 0.5  # ties row 2 in column 0: row 2's column 1 sorts it first
        np.testing.assert_array_equal(lpm_mod._class_order(w, order), [2, 1, 0])


class TestAccuracy:
    def test_one_hot(self):
        labels = np.array([2, 0, 1])
        logits = np.eye(3)[:, labels] * 5.0
        assert accuracy(logits, labels) == 1.0

    def test_tie_breaks_to_lowest_index(self):
        logits = np.ones((3, 4))
        labels = np.array([0, 0, 1, 2])
        assert accuracy(logits, labels) == 0.5

    def test_matches_brute_force(self):
        rng = make_rng(21)
        logits = rng.standard_normal((5, 40))
        labels = rng.integers(0, 5, size=40)
        expected = sum(
            int(max(range(5), key=lambda c: logits[c, i]) == labels[i]) for i in range(40)
        ) / 40
        assert accuracy(logits, labels) == pytest.approx(expected)

    def test_scale_neutrality(self):
        rng = make_rng(22)
        logits = rng.standard_normal((4, 25))
        labels = rng.integers(0, 4, size=25)
        base = accuracy(logits, labels)
        for c in (1e-6, 0.5, 3.0, 1e6):
            assert accuracy(c * logits, labels) == base


class TestForward:
    def test_identity_pipeline(self):
        rng = make_rng(0)
        labels = np.array([0, 1, 2])
        h0 = rng.standard_normal((3, 3))
        features = FeatureSet(h0=h0, labels=labels, k=3)
        head = ExplicitHead(weight=np.eye(3))
        cls = ClassifierWeights(w=np.eye(3))
        np.testing.assert_array_equal(forward(features, head, cls), h0)

    def test_zero_deq_equals_identity_explicit(self):
        rng = make_rng(1)
        labels = np.repeat(np.arange(2), 3)
        h0 = rng.standard_normal((4, 6))
        features = FeatureSet(h0=h0, labels=labels, k=2)
        cls = ClassifierWeights(w=rng.standard_normal((2, 4)))
        deq = DeqHead(weight=np.zeros((4, 4)))
        explicit = ExplicitHead(weight=np.eye(4))
        np.testing.assert_allclose(
            forward(features, deq, cls), forward(features, explicit, cls), atol=1e-12
        )

    def test_matrix_chain_oracle(self):
        rng = make_rng(13)
        labels = np.repeat(np.arange(3), 2)
        h0 = rng.standard_normal((5, 6))
        features = FeatureSet(h0=h0, labels=labels, k=3)
        w_head = rng.standard_normal((5, 5)) * 0.1
        w = rng.standard_normal((3, 5))
        cls = ClassifierWeights(w=w)
        explicit = ExplicitHead(weight=w_head)
        np.testing.assert_allclose(
            forward(features, explicit, cls), w @ (w_head @ h0), atol=1e-10
        )
        w_deq = rng.standard_normal((5, 5))
        w_deq *= 0.3 / np.linalg.norm(w_deq)
        deq = DeqHead(weight=w_deq)
        oracle = w @ np.linalg.solve(np.eye(5) - w_deq, h0)
        np.testing.assert_allclose(forward(features, deq, cls), oracle, atol=1e-10)


class TestProjection:
    def _cfg(self, **kw):
        defaults = dict(learning_rate=0.05, steps=1, e_w=1.0, e_h=1.0, feature_budget=1.0)
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_interior_point_untouched(self):
        features, head, cls = _small_instance(0)
        cfg = self._cfg(e_w=100.0, e_h=100.0, feature_budget=100.0)
        f2, h2, c2 = project_feasible(features, head, cls, cfg)
        np.testing.assert_array_equal(f2.h0, features.h0)
        np.testing.assert_array_equal(c2.w, cls.w)
        np.testing.assert_array_equal(h2.weight, head.weight)

    def test_classifier_scaled_by_half(self):
        rng = make_rng(3)
        w = rng.standard_normal((4, 6))
        w *= math.sqrt(4.0 / classifier_mean_square(w))  # mean-square = 4 * e_w
        cls = ClassifierWeights(w=w)
        features, head, _ = _small_instance(3, k=4, d=6)
        cfg = self._cfg(e_w=1.0, e_h=100.0, feature_budget=100.0)
        _, _, c2 = project_feasible(features, head, cls, cfg)
        np.testing.assert_allclose(c2.w, 0.5 * w, rtol=1e-12)

    def test_deq_head_scaled_by_half(self):
        rng = make_rng(4)
        w = rng.standard_normal((5, 5))
        w *= 2.0 / np.linalg.norm(w)  # ||w|| = 2 = 2 * e_h
        head = DeqHead(weight=w)
        labels = np.repeat(np.arange(2), 3)
        features = FeatureSet(h0=make_rng(5).standard_normal((5, 6)), labels=labels, k=2)
        cls = ClassifierWeights(w=make_rng(6).standard_normal((2, 5)))
        cfg = self._cfg(e_w=100.0, e_h=1.0, feature_budget=100.0)
        _, h2, _ = project_feasible(features, head, cls, cfg)
        np.testing.assert_allclose(h2.weight, 0.5 * w, rtol=1e-12)
        assert spectral_radius_bound(h2.weight) < 1.0

    def test_deq_head_keeps_its_policy(self):
        policy = SolverPolicy(epsilon=1e-6, t_max=7, on_failure="error")
        w = make_rng(9).standard_normal((4, 4))
        w *= 2.0 / np.linalg.norm(w)  # ||w|| = 2 = 2 * e_h
        head = DeqHead(weight=w, policy=policy)
        features, _, cls = _small_instance(8, k=2, d=4)
        cfg = self._cfg(e_w=100.0, e_h=1.0, feature_budget=100.0)
        _, h2, _ = project_feasible(features, head, cls, cfg)
        assert type(h2) is DeqHead and h2.policy == policy
        np.testing.assert_allclose(h2.weight, 0.5 * w, rtol=1e-12)

    def test_feature_ball_on_post_head_features(self):
        features, head, cls = _small_instance(7)
        cfg = self._cfg(e_w=100.0, e_h=100.0, feature_budget=0.01)
        f2, h2, _ = project_feasible(features, head, cls, cfg)
        induced = feature_norm_functional(
            head_features(h2, f2.h0), f2.labels, f2.k
        )
        assert induced <= 0.01 * (1 + 1e-12)

    def test_idempotence_exact(self):
        for seed in range(5):
            rng = make_rng(seed)
            labels = np.repeat(np.arange(3), 4)
            h0 = rng.standard_normal((6, 12)) * 3.0
            features = FeatureSet(h0=h0, labels=labels, k=3)
            cls = ClassifierWeights(w=rng.standard_normal((3, 6)) * 2.0)
            w_head = rng.standard_normal((6, 6)) * 2.0
            head = ExplicitHead(weight=w_head)
            cfg = self._cfg()
            once = project_feasible(features, head, cls, cfg)
            twice = project_feasible(*once, cfg)
            np.testing.assert_array_equal(once[0].h0, twice[0].h0)
            np.testing.assert_array_equal(once[1].weight, twice[1].weight)
            np.testing.assert_array_equal(once[2].w, twice[2].w)


class TestGradients:
    @pytest.mark.parametrize("head_kind,e_h", [("explicit", 1.0), ("deq", 0.5)])
    def test_matches_finite_differences(self, head_kind, e_h):
        for seed in range(5):
            features, head, cls = _small_instance(
                seed, head_kind=head_kind, e_h=e_h, gaussian_head=True
            )
            labels = features.labels
            loss, grads, _, _ = loss_and_grads(features, head, cls)
            eps = 1e-6

            def loss_at(h0=None, head_w=None, w=None):
                f = features if h0 is None else FeatureSet(h0=h0, labels=labels, k=features.k)
                h = head if head_w is None else head.with_weight(head_w)
                c = cls if w is None else ClassifierWeights(w=w)
                return cross_entropy(forward(f, h, c), labels)

            blocks = {
                "w": (cls.w, lambda m: loss_at(w=m)),
                "head": (head.weight, lambda m: loss_at(head_w=m)),
                "h0": (features.h0, lambda m: loss_at(h0=m)),
            }
            for name, (base, fn) in blocks.items():
                fd = np.zeros_like(base)
                it = np.nditer(base, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    plus = base.copy()
                    plus[idx] += eps
                    minus = base.copy()
                    minus[idx] -= eps
                    fd[idx] = (fn(plus) - fn(minus)) / (2 * eps)
                rel = np.linalg.norm(fd - grads[name]) / max(np.linalg.norm(grads[name]), 1e-12)
                assert rel < 1e-4, f"{head_kind}/{name}: rel error {rel:.2e}"


class TestTrain:
    def _run(self, seed=0, head_kind="explicit", steps=400, **cfg_kw):
        defaults = dict(
            learning_rate=0.05, steps=steps, e_w=1.0,
            e_h=1.0 if head_kind == "explicit" else 0.5,
            feature_budget=1.0, seed=seed, log_every=100, momentum=0.9,
        )
        defaults.update(cfg_kw)
        cfg = TrainConfig(**defaults)
        features, head, cls = _small_instance(
            seed, k=4, n=5, d=8, head_kind=head_kind, e_h=defaults["e_h"]
        )
        return train(features, head, cls, cfg), cfg

    def test_noop_training(self):
        trace, _ = self._run(steps=1, learning_rate=0.0)
        assert len(trace.snapshots) == 2
        first, last = trace.snapshots
        assert first.report.loss == last.report.loss
        assert first.report.nc2 == last.report.nc2
        assert trace.loss_history.shape == (1,)
        assert trace.loss_history[0] == first.report.loss

    def test_loss_decreases(self):
        trace, _ = self._run(steps=600)
        assert trace.loss_history[-1] < trace.loss_history[0]
        assert trace.final.report.accuracy == 1.0

    def test_windowed_monotonicity(self):
        trace, _ = self._run(steps=1000)
        lh = trace.loss_history
        worst = max(lh[i + 50] - lh[i] for i in range(len(lh) - 50))
        assert worst <= 1e-6

    def test_feasibility_slack(self):
        trace, _ = self._run(steps=300)
        assert trace.feasibility_slack_max <= 1e-12

    def test_determinism(self):
        a, _ = self._run(seed=3, steps=200)
        b, _ = self._run(seed=3, steps=200)
        np.testing.assert_array_equal(a.loss_history, b.loss_history)
        np.testing.assert_array_equal(a.classifier.w, b.classifier.w)
        np.testing.assert_array_equal(a.features.h0, b.features.h0)

    def test_label_permutation_equivariance_exact(self):
        k, n, d = 4, 5, 8
        rng = make_rng(11)
        labels = np.repeat(np.arange(k), n)
        features = initialize_features(labels, k, d, 1.0, rng)
        cls = initialize_classifier(k, d, 1.0, rng)
        head = initialize_explicit_head(d, d, 1.0, rng)
        cfg = TrainConfig(learning_rate=0.05, steps=300, e_w=1.0, e_h=1.0,
                          feature_budget=1.0, seed=11, log_every=300, momentum=0.9)
        base = train(features, head, cls, cfg)

        perm = np.array([2, 0, 3, 1])
        features_p = FeatureSet(h0=features.h0, labels=perm[labels], k=k)
        inverse = np.argsort(perm)
        cls_p = ClassifierWeights(w=cls.w[inverse])
        permuted = train(features_p, head, cls_p, cfg)
        np.testing.assert_array_equal(base.loss_history, permuted.loss_history)

    def test_label_permutation_with_reordering_columns(self, monkeypatch):
        # shuffled labels at N = 520: the cached class order must follow
        # columns whose order changes during training
        k, d = 5, 8
        rng = make_rng(23)
        labels = rng.permutation(np.repeat(np.arange(k), (200, 200, 80, 30, 10)))
        features = initialize_features(labels, k, d, 1.0, rng)
        cls = initialize_classifier(k, d, 1.0, rng)
        head = initialize_explicit_head(d, d, 1.0, rng)
        cfg = TrainConfig(learning_rate=0.05, steps=300, log_every=100)
        moved = []

        class CountingClassSum(lpm_mod.ClassSum):
            def __call__(self, x):
                before = self.index.copy()
                out = super().__call__(x)
                moved.append(int(np.count_nonzero(np.any(self.index != before, axis=0))))
                return out

        class_order = lpm_mod._class_order
        reordered = []

        def watching_order(w, previous=None):
            order = class_order(w, previous)
            reordered.append(previous is not None and not np.array_equal(order, previous))
            return order

        monkeypatch.setattr(lpm_mod, "ClassSum", CountingClassSum)
        monkeypatch.setattr(lpm_mod, "_class_order", watching_order)
        base = train(features, head, cls, cfg)
        # the first call sorts every column; later ones re-sort a few
        assert 0 < sum(moved[1:]) < len(labels) * (len(moved) - 1) // 10
        # the reused class order of grad_z changes during the run
        assert any(reordered)

        perm = np.array([3, 0, 4, 1, 2])
        features_p = FeatureSet(h0=features.h0, labels=perm[labels], k=k)
        cls_p = ClassifierWeights(w=cls.w[np.argsort(perm)])
        permuted = train(features_p, head, cls_p, cfg)
        assert base.loss_history.tobytes() == permuted.loss_history.tobytes()

        # and the same bits as a fresh sort at every step, of the columns
        # and of the class order
        monkeypatch.setattr(lpm_mod, "ClassSum", lambda k, n: lpm_mod._sum_classes)
        fresh = train(features, head, cls, cfg)
        assert base.loss_history.tobytes() == fresh.loss_history.tobytes()
        assert base.snapshots == fresh.snapshots
        monkeypatch.setattr(lpm_mod, "_class_order", lambda w, previous=None: class_order(w))
        fresh_order = train(features, head, cls, cfg)
        assert base.loss_history.tobytes() == fresh_order.loss_history.tobytes()
        assert base.snapshots == fresh_order.snapshots

    @pytest.mark.xfail(strict=True, reason="the BLAS logits product w @ z can round a row "
                                           "differently at another row position")
    def test_label_permutation_not_exact_at_every_n(self):
        # N = 370: the class-axis reductions are canonical, but OpenBLAS's
        # w @ z can round a logits row differently at another row position,
        # so the relabeled loss trace first differs at step 380
        k, d = 10, 16
        labels = np.repeat(np.arange(k), (100,) * 3 + (10,) * 7)
        rng = make_rng(4)
        features = initialize_features(labels, k, d, 0.5, rng)
        cls = initialize_classifier(k, d, 1.0, rng)
        head = initialize_explicit_head(d, d, 0.5, rng)
        cfg = TrainConfig(steps=400, e_h=0.5, feature_budget=0.5, seed=4, log_every=400)
        base = train(features, head, cls, cfg)

        perm = np.roll(np.arange(k), 5)
        features_p = FeatureSet(h0=features.h0, labels=perm[labels], k=k)
        cls_p = ClassifierWeights(w=cls.w[np.argsort(perm)])
        permuted = train(features_p, head, cls_p, cfg)
        assert base.loss_history.tobytes() == permuted.loss_history.tobytes()

    @pytest.mark.parametrize("head_kind", ["explicit", "deq"])
    def test_inputs_untouched(self, head_kind):
        # the classifier starts inside its ball, so the projection hands
        # back cls.w itself: the in-place updates must not reach it
        features, head, cls = _small_instance(31, k=4, n=6, d=8, head_kind=head_kind, e_h=0.5)
        cfg = TrainConfig(learning_rate=0.05, steps=50, e_h=0.5, log_every=10)
        assert project_feasible(features, head, cls, cfg)[2] is cls
        head_w = head.weight
        saved = [a.copy() for a in (features.h0, cls.w, head_w)]
        first = train(features, head, cls, cfg)
        for array, before in zip((features.h0, cls.w, head_w), saved):
            np.testing.assert_array_equal(array, before)
        # a second head trained from the same classifier starts where the first did
        again = train(features, head, cls, cfg)
        np.testing.assert_array_equal(first.loss_history, again.loss_history)

    def test_preimage_link_consistency(self):
        for head_kind in ("explicit", "deq"):
            trace, _ = self._run(head_kind=head_kind, steps=150)
            z = head_features(trace.head, trace.features.h0)
            logits = trace.classifier.w @ z
            assert cross_entropy(logits, trace.features.labels) == pytest.approx(
                trace.final.report.loss, abs=1e-9
            )

    def test_deq_snapshots_carry_solver_stats(self):
        trace, _ = self._run(head_kind="deq", steps=150)
        assert all(s.solver_mean_iters >= 1 for s in trace.snapshots)
        assert all(s.solver_skip_count == 0 for s in trace.snapshots)

    def test_explicit_snapshots_zero_solver_stats(self):
        trace, _ = self._run(steps=120)
        assert all(s.solver_mean_iters == 0.0 for s in trace.snapshots)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_trace(self):
        # ball projections rescale any finite overshoot back inside, so the
        # only route to a non-finite loss is an overflowing update
        with pytest.raises(TrainingDivergedError) as excinfo:
            self._run(steps=200, learning_rate=1e308)
        trace = excinfo.value.trace
        assert trace is not None
        assert len(trace.snapshots) >= 1

    def test_overflowing_update_aborts_at_that_step(self):
        # a finite learning rate whose first update overflows the ball
        # functionals: no projection can rescale an infinite value, and a
        # factor of 0 would zero the state
        rng = make_rng(0)
        features = initialize_features(np.repeat(np.arange(3), 5), 3, 4, 1.0, rng)
        cls = initialize_classifier(3, 4, 1.0, rng)
        head = initialize_explicit_head(4, 4, 1.0, rng)
        cfg = TrainConfig(learning_rate=1e308, steps=20)
        with pytest.raises(TrainingDivergedError, match="at step 1") as excinfo:
            train(features, head, cls, cfg)
        trace = excinfo.value.trace
        assert [s.step for s in trace.snapshots] == [0]
        assert trace.features is None and trace.classifier is None
        assert trace.head is None

    def test_final_snapshot_at_final_step(self):
        trace, cfg = self._run(steps=250, log_every=100)
        assert [s.step for s in trace.snapshots] == [0, 100, 200, 250]


class TestSnapshotParity:
    """train records each snapshot's state and evaluates the records in
    stacked chunks; every snapshot must equal, bit for bit, the one rebuilt
    from the public functions on its recorded state."""

    @staticmethod
    def _instance(head_kind, counts, d=6):
        k = len(counts)
        rng = make_rng(31)
        # not class-sorted
        labels = rng.permutation(np.repeat(np.arange(k), counts))
        features = initialize_features(labels, k, d, 1.0, rng)
        cls = initialize_classifier(k, d, 1.0, rng)
        e_h = 1.0 if head_kind == "explicit" else 0.5
        if head_kind == "explicit":
            head = initialize_explicit_head(d, d, e_h, rng)
        else:
            head = initialize_deq_head(d, e_h, rng)
        return features, head, cls, e_h

    @staticmethod
    def _recorded_train(monkeypatch, features, head, cls, cfg):
        """train, plus every recorded (step, z, w) and the size of every
        stacked evaluation."""
        states, chunks = [], []
        record = lpm_mod._SnapshotBuffer.record
        reports = NcReporter.reports

        def recording(buffer, step, z, w, logits, loss):
            states.append((step, z.copy(), w.copy()))
            return record(buffer, step, z, w, logits, loss)

        def counting(reporter, h, w, logits, losses):
            chunks.append(h.shape[0])
            return reports(reporter, h, w, logits, losses)

        monkeypatch.setattr(lpm_mod._SnapshotBuffer, "record", recording)
        monkeypatch.setattr(NcReporter, "reports", counting)
        return train(features, head, cls, cfg), states, chunks

    @staticmethod
    def _public_snapshot(trace, labels, cfg, step, z, w):
        logits = w @ z
        loss = cross_entropy(logits, labels)
        report = nc_report(z, labels, w, logits, loss, cutoff=cfg.metric_cutoff,
                           minority_classes=cfg.minority_classes)
        iters, skips = 0.0, 0
        if isinstance(trace.head, DeqHead):
            policy = trace.head.policy
            h0 = head_preimage(trace.head, z)
            result = fixed_point_iterate(trace.head.weight, h0, policy)
            iters = float(result.iterations)
            skips = int(np.count_nonzero(result.column_residuals > policy.epsilon))
        return TraceSnapshot(step, report, iters, skips)

    def _assert_parity(self, trace, states, labels, cfg):
        for snap, state in zip(trace.snapshots, states, strict=True):
            assert snap == self._public_snapshot(trace, labels, cfg, *state)
        np.testing.assert_array_equal(
            trace.features.h0, head_preimage(trace.head, states[-1][1])
        )

    @pytest.mark.parametrize("head_kind", ["explicit", "deq"])
    @pytest.mark.parametrize("counts", [(5, 5, 5, 5), (9, 4, 2, 1)])
    def test_snapshots_match_public_functions(self, monkeypatch, head_kind, counts):
        features, head, cls, e_h = self._instance(head_kind, counts)
        minority = (2, 3) if len(set(counts)) > 1 else None
        cfg = TrainConfig(learning_rate=0.05, steps=40, e_h=e_h, log_every=3,
                          minority_classes=minority)
        trace, states, chunks = self._recorded_train(monkeypatch, features, head, cls, cfg)

        assert [s[0] for s in states] == list(range(0, 40, 3)) + [40]
        assert chunks == [15]
        self._assert_parity(trace, states, features.labels, cfg)

    @pytest.mark.parametrize("head_kind", ["explicit", "deq"])
    @pytest.mark.parametrize(
        "steps, chunks",
        [(6, [3]), (9, [4]), (27, [4, 4, 2])],
        ids=["below-one-chunk", "one-chunk", "chunks-and-remainder"],
    )
    def test_chunks_match_public_functions(self, monkeypatch, head_kind, steps, chunks):
        counts = (9, 4, 2, 1)
        features, head, cls, e_h = self._instance(head_kind, counts)
        feature_size = 6 * sum(counts)
        # room for four states and not five
        monkeypatch.setattr(lpm_mod, "SNAPSHOT_CHUNK_ELEMENTS", 5 * feature_size - 1)
        cfg = TrainConfig(learning_rate=0.05, steps=steps, e_h=e_h, log_every=3,
                          minority_classes=(2, 3))
        trace, states, seen = self._recorded_train(monkeypatch, features, head, cls, cfg)

        assert [s[0] for s in states] == list(range(0, steps + 1, 3))
        assert seen == chunks
        self._assert_parity(trace, states, features.labels, cfg)

    @pytest.mark.parametrize("head_kind", ["explicit", "deq"])
    def test_divergence_keeps_every_snapshot_taken(self, monkeypatch, head_kind):
        counts = (9, 4, 2, 1)
        features, head, cls, e_h = self._instance(head_kind, counts)
        monkeypatch.setattr(lpm_mod, "SNAPSHOT_CHUNK_ELEMENTS", 4 * 6 * sum(counts))
        cfg = TrainConfig(learning_rate=0.05, steps=20, e_h=e_h, log_every=2)
        full, states, _ = self._recorded_train(monkeypatch, features, head, cls, cfg)

        # the state after step 10 gets a non-finite loss, so step 11 diverges:
        # snapshots 0, 2, ..., 10 were taken, the first four evaluated as one
        # chunk, the last two pending
        step, z, w = states[5]
        assert step == 10
        poisoned = w @ z
        softmax_terms = lpm_mod._softmax_terms

        def diverging(logits, *args):
            per_sample, exp, denom = softmax_terms(logits, *args)
            if np.array_equal(logits, poisoned):
                per_sample = np.full_like(per_sample, np.nan)
            return per_sample, exp, denom

        monkeypatch.setattr(lpm_mod, "_softmax_terms", diverging)
        with pytest.raises(TrainingDivergedError, match="step 11") as excinfo:
            train(features, head, cls, cfg)
        trace = excinfo.value.trace
        # a loss abort keeps the final parameters: those of the last recorded state
        np.testing.assert_array_equal(trace.features.h0, head_preimage(trace.head, z))
        np.testing.assert_array_equal(trace.classifier.w, w)
        snapshots = trace.snapshots
        assert [s.step for s in snapshots] == list(range(0, 11, 2))
        assert snapshots[:-1] == full.snapshots[:5]
        # the last one has the non-finite loss of its state, and the rest of
        # its record as before
        last = snapshots[-1]
        assert math.isnan(last.report.loss)
        expected = full.snapshots[5]
        assert replace(last, report=replace(last.report, loss=expected.report.loss)) == expected


class TestSnapshotBuffer:
    @pytest.mark.parametrize("head_kind", ["explicit", "deq"])
    def test_chunks_share_one_run_owned_buffer(self, monkeypatch, head_kind):
        counts = (9, 4, 2, 1)
        features, head, cls, e_h = TestSnapshotParity._instance(head_kind, counts)
        monkeypatch.setattr(lpm_mod, "SNAPSHOT_CHUNK_ELEMENTS", 4 * 6 * sum(counts))
        buffers, chunks = set(), []
        record = lpm_mod._SnapshotBuffer.record
        reports = NcReporter.reports

        def recording(buffer, *args):
            buffers.add(buffer)
            return record(buffer, *args)

        def keeping(reporter, h, w, logits, losses):
            chunks.append(h)
            return reports(reporter, h, w, logits, losses)

        monkeypatch.setattr(lpm_mod._SnapshotBuffer, "record", recording)
        monkeypatch.setattr(NcReporter, "reports", keeping)
        cfg = TrainConfig(learning_rate=0.05, steps=27, e_h=e_h, log_every=3)
        train(features, head, cls, cfg)

        assert [h.shape[0] for h in chunks] == [4, 4, 2]
        (buffer,) = buffers
        assert all(np.shares_memory(h, buffer.z) for h in chunks)


class TestStepWorkArrays:
    @pytest.mark.parametrize("head_kind", ["explicit", "deq"])
    def test_every_step_reuses_the_same_arrays(self, monkeypatch, head_kind):
        # a step's K x N and D x N temporaries are the run's work arrays, so
        # the allocator has nothing large to map or trim from step to step
        features, head, cls = _small_instance(3, k=4, n=5, d=8, head_kind=head_kind, e_h=0.5)
        exps, losses, grads_w, grads_z, shrinks = [], [], [], [], []
        logits, reordered = [], []
        softmax_terms, logit_grads = lpm_mod._softmax_terms, lpm_mod._logit_grads
        shrink = lpm_mod._shrink_to_ball

        def keeping_exp(*args):
            per_sample, exp, denom = softmax_terms(*args)
            # one K x N array holds the shifted logits, then their exp
            assert exp is args[3][0]
            logits.append(args[0])
            exps.append(exp)
            losses.append(per_sample)
            return per_sample, exp, denom

        def keeping_grad_z(*args):
            reordered.append(args[7][0])
            gw, gz = logit_grads(*args)
            grads_w.append(gw)
            grads_z.append(gz)
            return gw, gz

        def keeping_shrink(block, *args, **kwargs):
            out, value = shrink(block, *args, **kwargs)
            if block.shape == (8, 20):
                shrinks.append((block, out, value))
            return out, value

        monkeypatch.setattr(lpm_mod, "_softmax_terms", keeping_exp)
        monkeypatch.setattr(lpm_mod, "_logit_grads", keeping_grad_z)
        monkeypatch.setattr(lpm_mod, "_shrink_to_ball", keeping_shrink)
        cfg = TrainConfig(learning_rate=0.5, steps=30, e_h=0.5, feature_budget=0.5)
        train(features, head, cls, cfg)

        # the lists keep every array alive, so distinct arrays have distinct ids
        for arrays in (exps, losses, grads_w, grads_z):
            assert len({id(array) for array in arrays}) == 1
        # the class-ordered gradient rows overwrite that step's logits
        assert len(reordered) == 30
        assert all(rows is step_logits for rows, step_logits in zip(reordered, logits))
        # after the initial projection of H0, the loop rescales z in place
        loop = shrinks[1:]
        assert len(loop) == 30 and all(out is block for block, out, _ in loop)
        assert any(abs(value - cfg.feature_budget) < 1e-12 for _, _, value in loop)


class TestShrinkToBall:
    # name -> (value_fn over a K x D block, squared); "feature" treats the
    # block as D x N features with labels i mod D
    FUNCTIONALS = {
        "classifier": (classifier_mean_square, True),
        "head": (np.linalg.norm, False),
        "feature": (
            lambda b: feature_norm_functional(b, np.arange(b.shape[1]) % b.shape[0],
                                              b.shape[0]),
            True,
        ),
    }

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(2, 6), st.integers(6, 9)),
        log_scale=st.floats(-3.0, 3.0),
        log_budget=st.floats(-3.0, 3.0),
        name=st.sampled_from(sorted(FUNCTIONALS)),
    )
    def test_returned_value_and_idempotence(self, seed, shape, log_scale, log_budget, name):
        value_fn, squared = self.FUNCTIONALS[name]
        block = make_rng(seed).standard_normal(shape) * 10.0**log_scale
        budget = 10.0**log_budget
        once, value = lpm_mod._shrink_to_ball(block, value_fn, budget, squared)
        assert value == value_fn(once)
        assert value <= budget * (1.0 + 1e-15)
        twice, value_twice = lpm_mod._shrink_to_ball(once, value_fn, budget, squared)
        assert value_twice == value_fn(twice)
        if value <= budget:
            np.testing.assert_array_equal(twice, once)

    @pytest.mark.parametrize("name", sorted(FUNCTIONALS))
    def test_one_ulp_above_budget_is_rescaled(self, name):
        # budget / value rounds below 1 (and so does its square root), so
        # even the smallest excess takes a rescale
        value_fn, squared = self.FUNCTIONALS[name]
        block = make_rng(31).standard_normal((3, 7))
        budget = np.nextafter(value_fn(block), 0.0)
        once, value = lpm_mod._shrink_to_ball(block, value_fn, budget, squared)
        assert once is not block
        assert np.all(np.abs(once) < np.abs(block))
        assert value == value_fn(once) < value_fn(block)

    @pytest.mark.xfail(strict=True, reason="a stalled shrink rescales again when re-projected")
    def test_idempotent_after_stall(self):
        # the last rescale leaves the value one ulp above the budget and no
        # longer lowers it; the block keeps that rescale, so a second
        # projection rescales again
        block = make_rng(142).standard_normal((3, 4)) * 5.0
        budget = 0.1071
        once, value = lpm_mod._shrink_to_ball(block, classifier_mean_square, budget, True)
        assert value > budget
        twice, _ = lpm_mod._shrink_to_ball(once, classifier_mean_square, budget, True)
        np.testing.assert_array_equal(twice, once)


class TestInitializers:
    def test_classifier_at_half_budget(self):
        cls = initialize_classifier(4, 8, 2.0, make_rng(0))
        assert classifier_mean_square(cls.w) == pytest.approx(1.0, rel=1e-12)

    def test_features_at_half_budget(self):
        labels = np.repeat(np.arange(3), 4)
        features = initialize_features(labels, 3, 6, 2.0, make_rng(1))
        assert feature_norm_functional(features.h0, labels, 3) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_explicit_head_is_scaled_orthogonal_on_ball(self):
        head = initialize_explicit_head(6, 6, 1.5, make_rng(2))
        assert np.linalg.norm(head.weight) == pytest.approx(1.5, rel=1e-12)
        sv = np.linalg.svd(head.weight, compute_uv=False)
        np.testing.assert_allclose(sv, sv[0], rtol=1e-10)

    def test_deq_head_at_half_budget(self):
        head = initialize_deq_head(6, 0.5, make_rng(3))
        assert np.linalg.norm(head.weight) == pytest.approx(0.25, rel=1e-12)
        assert spectral_radius_bound(head.weight) < 1.0

    def test_preimage_roundtrip(self):
        rng = make_rng(4)
        labels = np.repeat(np.arange(2), 3)
        z = rng.standard_normal((5, 6))
        for head in (
            initialize_explicit_head(5, 5, 1.0, make_rng(5)),
            initialize_deq_head(5, 0.5, make_rng(6)),
        ):
            h0 = head_preimage(head, z)
            np.testing.assert_allclose(head_features(head, h0), z, atol=1e-10)

    @pytest.mark.parametrize("budget", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("name, init", [
        ("e_w", lambda b, rng: initialize_classifier(3, 4, b, rng)),
        ("e_h", lambda b, rng: initialize_explicit_head(4, 4, b, rng)),
        ("e_h", lambda b, rng: initialize_deq_head(4, b, rng)),
        ("feature_budget", lambda b, rng: initialize_features(np.arange(3), 3, 4, b, rng)),
    ], ids=["classifier", "explicit_head", "deq_head", "features"])
    def test_budget_must_be_positive_and_finite(self, name, init, budget):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            init(budget, make_rng(0))


class TestPreimageRoundTrip:
    # the measured worst case over 20000 such draws is 1e-15 relative
    TOLERANCE = 1e-13

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        head_kind=st.sampled_from(["explicit", "deq"]),
        d=st.integers(2, 8),
        extra_dims=st.integers(0, 4),
        n=st.integers(1, 12),
        log_scale=st.floats(-3.0, 3.0),
        budget=st.floats(0.05, 1.9),
    )
    def test_head_features_of_preimage_is_z(self, seed, head_kind, d, extra_dims, n,
                                            log_scale, budget):
        """head(preimage(z)) = z to TOLERANCE relative, for the explicit head
        with d0 >= d (solve or pseudo-inverse) and the contracting deq head
        (d0 = d; its Frobenius norm, half the budget, bounds sigma_max by
        0.95)."""
        rng = make_rng(seed)
        if head_kind == "explicit":
            head = initialize_explicit_head(d, d + extra_dims, budget, rng)
        else:
            head = initialize_deq_head(d, budget, rng)
        z = rng.standard_normal((d, n)) * 10.0**log_scale
        back = head_features(head, head_preimage(head, z))
        assert np.linalg.norm(back - z) <= self.TOLERANCE * np.linalg.norm(z)

    def test_explicit_preimage_solves_through_solve_linear(self, monkeypatch):
        # the square explicit head's preimage is linalg.solve_linear, looked
        # up through lpm: once when training ends, once per head_preimage
        calls = []
        solve_linear = lpm_mod.solve_linear

        def counting(a, b):
            calls.append(b.shape)
            return solve_linear(a, b)

        monkeypatch.setattr(lpm_mod, "solve_linear", counting)
        features, head, cls = _small_instance(5, k=4, n=5, d=6)
        trace = train(features, head, cls, TrainConfig(steps=12, log_every=3))
        assert calls == [(6, 20)]
        head_preimage(trace.head, trace.features.h0)
        head_preimage(trace.head, trace.features.h0[:, :3])
        assert calls == [(6, 20), (6, 20), (6, 3)]


class TestValidation:
    def test_featureset_checks(self):
        with pytest.raises(ValueError, match="every class"):
            FeatureSet(h0=np.ones((2, 3)), labels=[0, 0, 0], k=2)
        with pytest.raises(ValueError, match="labels"):
            FeatureSet(h0=np.ones((2, 3)), labels=[0, 1], k=2)
        with pytest.raises(ValueError, match="need at least two classes, got k=1"):
            FeatureSet(h0=np.ones((2, 3)), labels=[0, 0, 0], k=1)

    def test_config_checks(self):
        with pytest.raises(ValueError):
            TrainConfig(steps=0)
        with pytest.raises(ValueError):
            TrainConfig(e_w=0.0)
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        nan = float("nan")
        with pytest.raises(ValueError, match="learning_rate must be non-negative"):
            TrainConfig(learning_rate=nan)
        with pytest.raises(ValueError, match="learning_rate must be non-negative and finite"):
            TrainConfig(learning_rate=float("inf"))
        with pytest.raises(ValueError, match="log_every must be at least 1"):
            TrainConfig(log_every=0)
        for budget in ("e_w", "e_h", "feature_budget"):
            with pytest.raises(ValueError, match="budgets must be positive"):
                TrainConfig(**{budget: nan})
        # learning_rate = 0 is allowed: it is the no-op training idiom
        TrainConfig(learning_rate=0.0)
        for budget in ("e_w", "e_h", "feature_budget"):
            with pytest.raises(ValueError, match="budgets must be positive and finite"):
                TrainConfig(**{budget: float("inf")})

    @pytest.mark.parametrize("head_kind", ["explicit", "deq"])
    def test_train_reads_the_feature_set_partition(self, monkeypatch, head_kind):
        features, head, cls = _small_instance(5, k=4, n=5, d=6, head_kind=head_kind, e_h=0.5)
        builds = []
        build = ClassPartition.build.__func__

        def counting(klass, *args, **kwargs):
            builds.append(args)
            return build(klass, *args, **kwargs)

        monkeypatch.setattr(ClassPartition, "build", classmethod(counting))
        cfg = TrainConfig(learning_rate=0.05, steps=12, e_h=0.5, log_every=3)
        trace = train(features, head, cls, cfg)
        projected, _, _ = project_feasible(trace.features, head, cls, cfg)
        assert builds == []
        assert trace.features.partition is features.partition
        assert projected.partition is features.partition

    @pytest.mark.parametrize("minority", [(5, 6), (-1, -2), (1, 1)],
                             ids=["out-of-range", "negative", "repeated"])
    def test_bad_minority_classes_raise_before_the_first_step(self, monkeypatch, minority):
        features, head, cls = _small_instance(5, k=4, n=5, d=6)
        calls = []
        softmax_terms = lpm_mod._softmax_terms

        def counting(*args):
            calls.append(1)
            return softmax_terms(*args)

        monkeypatch.setattr(lpm_mod, "_softmax_terms", counting)
        cfg = TrainConfig(steps=20, log_every=5, minority_classes=minority)
        with pytest.raises(ValueError, match=r"distinct and in \[0, 4\)"):
            train(features, head, cls, cfg)
        assert calls == []
        train(features, head, cls, replace(cfg, minority_classes=(2, 3)))
        assert len(calls) == 21

    @pytest.mark.parametrize("call, message", [
        (lambda: ExplicitHead(weight=np.ones((3, 2))).preimage(np.ones((3, 1))),
         "explicit head maps 2 -> 3 dims; d0 >= d is required"),
        (lambda: head_preimage(ExplicitHead(weight=np.eye(3)), np.ones((2, 1))),
         "z has 2 rows, head outputs 3"),
        (lambda: forward(FeatureSet(h0=np.eye(3), labels=[0, 1, 1], k=2),
                         ExplicitHead(weight=np.eye(3)), ClassifierWeights(w=np.ones((2, 4)))),
         "classifier expects 4-dim features, head produced 3"),
        (lambda: initialize_explicit_head(5, 4, 1.0, make_rng(0)),
         "explicit head needs d0 >= d, got d0=4, d=5"),
    ], ids=["preimage", "head_preimage", "forward", "initialize_explicit_head"])
    def test_dimension_mismatch_raises(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("head", [ExplicitHead(weight=2.0 * np.eye(3)),
                                      DeqHead(weight=0.5 * np.eye(3))],
                             ids=["explicit", "deq"])
    def test_overflowing_head_output_raises_before_the_first_loss(self, monkeypatch, head):
        # finite backbone features whose head output 2 * h0 overflows; the
        # weight and the features lie inside their budgets' balls or have a
        # non-finite functional, so no projection rescales them
        features = FeatureSet(h0=np.full((3, 4), 1e308), labels=[0, 0, 1, 1], k=2)
        cls = ClassifierWeights(w=np.ones((2, 3)))
        calls = []
        softmax_terms = lpm_mod._softmax_terms

        def counting(*args):
            calls.append(1)
            return softmax_terms(*args)

        monkeypatch.setattr(lpm_mod, "_softmax_terms", counting)
        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="features contains non-finite entries"
        ):
            train(features, head, cls, TrainConfig(steps=5, e_w=10.0, e_h=10.0))
        assert calls == []

    def test_featureset_rebuilds_a_partition_of_other_labels(self):
        features = FeatureSet(h0=np.eye(3), labels=[0, 1, 1], k=2)
        other = FeatureSet(h0=np.eye(3), labels=[1, 0, 1], k=2, partition=features.partition)
        assert other.partition is not features.partition
        assert other.partition.labels.tolist() == [1, 0, 1]
        with pytest.raises(ValueError, match="labels must be 1-D with 2 entries"):
            replace(features, h0=np.eye(2))

    @pytest.mark.parametrize("build", [
        lambda: FeatureSet(h0=np.eye(2), labels=[0, 1], k=2),
        lambda: ClassifierWeights(w=np.eye(2)),
        lambda: ExplicitHead(weight=np.eye(2)),
        lambda: DeqHead(weight=0.5 * np.eye(2)),
        lambda: ClassPartition.build([0, 1], 2),
        lambda: class_statistics(np.eye(2), [0, 1], 2),
        lambda: fixed_point_iterate(0.5 * np.eye(2), np.eye(2), SolverPolicy()),
        lambda: make_etf(2, 2, 1.0, make_rng(0)),
        lambda: train(*_small_instance(0), TrainConfig(steps=2, log_every=1)),
        lambda: NcReporter(ClassPartition.build([0, 1], 2), 1e-10, None, 1, 2),
    ], ids=["FeatureSet", "ClassifierWeights", "ExplicitHead", "DeqHead", "ClassPartition",
            "ClassStatistics", "FixedPointResult", "EtfFrame", "TrainTrace", "NcReporter"])
    def test_blocks_compare_by_identity(self, build):
        block, twin = build(), build()
        assert block == block
        assert block != twin  # equal arrays, distinct blocks: no ambiguous truth value
        assert len({block, twin, block}) == 2
