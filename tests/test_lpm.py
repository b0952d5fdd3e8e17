import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collapsekit.lpm as lpm_mod
from collapsekit.deq import DeqWeights, SolverPolicy, fixed_point_iterate
from collapsekit.errors import TrainingDivergedError
from collapsekit.linalg import make_rng
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
from collapsekit.metrics import nc_report


def _small_instance(seed, k=3, n=4, d=6, head_kind="explicit", e_h=1.0, gaussian_head=False):
    rng = make_rng(seed)
    labels = np.repeat(np.arange(k), n)
    features = initialize_features(labels, k, d, 1.0, rng)
    cls = initialize_classifier(k, d, 1.0, rng)
    if head_kind == "explicit":
        if gaussian_head:
            w = rng.standard_normal((d, d))
            w *= 0.5 * e_h / np.linalg.norm(w)
            head = ExplicitHead(w_ex=w, e_h=e_h)
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
        head = ExplicitHead(w_ex=np.eye(3), e_h=10.0)
        cls = ClassifierWeights(w=np.eye(3), e_w=10.0)
        np.testing.assert_array_equal(forward(features, head, cls), h0)

    def test_zero_deq_equals_identity_explicit(self):
        rng = make_rng(1)
        labels = np.repeat(np.arange(2), 3)
        h0 = rng.standard_normal((4, 6))
        features = FeatureSet(h0=h0, labels=labels, k=2)
        cls = ClassifierWeights(w=rng.standard_normal((2, 4)), e_w=10.0)
        deq = DeqHead(weights=DeqWeights(w=np.zeros((4, 4)), e_h=1.0))
        explicit = ExplicitHead(w_ex=np.eye(4), e_h=10.0)
        np.testing.assert_allclose(
            forward(features, deq, cls), forward(features, explicit, cls), atol=1e-12
        )

    def test_matrix_chain_oracle(self):
        rng = make_rng(13)
        labels = np.repeat(np.arange(3), 2)
        h0 = rng.standard_normal((5, 6))
        features = FeatureSet(h0=h0, labels=labels, k=3)
        w_ex = rng.standard_normal((5, 5)) * 0.1
        w = rng.standard_normal((3, 5))
        cls = ClassifierWeights(w=w, e_w=100.0)
        explicit = ExplicitHead(w_ex=w_ex, e_h=100.0)
        np.testing.assert_allclose(
            forward(features, explicit, cls), w @ (w_ex @ h0), atol=1e-10
        )
        w_deq = rng.standard_normal((5, 5))
        w_deq *= 0.3 / np.linalg.norm(w_deq)
        deq = DeqHead(weights=DeqWeights(w=w_deq, e_h=0.3))
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
        np.testing.assert_array_equal(h2.w_ex, head.w_ex)

    def test_classifier_scaled_by_half(self):
        rng = make_rng(3)
        w = rng.standard_normal((4, 6))
        w *= math.sqrt(4.0 / classifier_mean_square(w))  # mean-square = 4 * e_w
        cls = ClassifierWeights(w=w, e_w=1.0)
        features, head, _ = _small_instance(3, k=4, d=6)
        cfg = self._cfg(e_w=1.0, e_h=100.0, feature_budget=100.0)
        _, _, c2 = project_feasible(features, head, cls, cfg)
        np.testing.assert_allclose(c2.w, 0.5 * w, rtol=1e-12)

    def test_deq_head_scaled_by_half(self):
        rng = make_rng(4)
        w = rng.standard_normal((5, 5))
        w *= 2.0 / np.linalg.norm(w)  # ||w|| = 2 = 2 * e_h
        head = DeqHead(weights=DeqWeights(w=w, e_h=2.0))
        labels = np.repeat(np.arange(2), 3)
        features = FeatureSet(h0=make_rng(5).standard_normal((5, 6)), labels=labels, k=2)
        cls = ClassifierWeights(w=make_rng(6).standard_normal((2, 5)), e_w=100.0)
        cfg = self._cfg(e_w=100.0, e_h=1.0, feature_budget=100.0)
        _, h2, _ = project_feasible(features, head, cls, cfg)
        np.testing.assert_allclose(h2.weights.w, 0.5 * w, rtol=1e-12)
        assert h2.weights.sigma_max() < 1.0

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
            cls = ClassifierWeights(w=rng.standard_normal((3, 6)) * 2.0, e_w=1.0)
            w_ex = rng.standard_normal((6, 6)) * 2.0
            head = ExplicitHead(w_ex=w_ex, e_h=1.0)
            cfg = self._cfg()
            once = project_feasible(features, head, cls, cfg)
            twice = project_feasible(*once, cfg)
            np.testing.assert_array_equal(once[0].h0, twice[0].h0)
            np.testing.assert_array_equal(once[1].w_ex, twice[1].w_ex)
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
                if head_w is None:
                    h = head
                elif head_kind == "explicit":
                    h = ExplicitHead(w_ex=head_w, e_h=head.e_h)
                else:
                    h = DeqHead(
                        weights=DeqWeights(w=head_w, e_h=np.linalg.norm(head_w) + 1.0),
                        policy=head.policy,
                    )
                c = cls if w is None else ClassifierWeights(w=w, e_w=cls.e_w)
                return cross_entropy(forward(f, h, c), labels)

            blocks = {
                "w": (cls.w, lambda m: loss_at(w=m)),
                "head": (
                    head.w_ex if head_kind == "explicit" else head.weights.w,
                    lambda m: loss_at(head_w=m),
                ),
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
        assert first.loss == last.loss
        assert first.report.nc2 == last.report.nc2
        assert trace.loss_history.shape == (1,)
        assert trace.loss_history[0] == first.loss

    def test_loss_decreases(self):
        trace, _ = self._run(steps=600)
        assert trace.loss_history[-1] < trace.loss_history[0]
        assert trace.final.accuracy == 1.0

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
        cls_p = ClassifierWeights(w=cls.w[inverse], e_w=cls.e_w)
        permuted = train(features_p, head, cls_p, cfg)
        np.testing.assert_array_equal(base.loss_history, permuted.loss_history)

    def test_preimage_link_consistency(self):
        for head_kind in ("explicit", "deq"):
            trace, _ = self._run(head_kind=head_kind, steps=150)
            z = head_features(trace.head, trace.features.h0)
            logits = trace.classifier.w @ z
            assert cross_entropy(logits, trace.features.labels) == pytest.approx(
                trace.final.loss, abs=1e-9
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
            self._run(steps=200, learning_rate=float("inf"))
        trace = excinfo.value.trace
        assert trace is not None
        assert len(trace.snapshots) >= 1

    def test_final_snapshot_at_final_step(self):
        trace, cfg = self._run(steps=250, log_every=100)
        assert [s.step for s in trace.snapshots] == [0, 100, 200, 250]


class TestSnapshotParity:
    """train builds the snapshot constants once per run; each snapshot must
    equal, bit for bit, the one rebuilt from the public functions."""

    @pytest.mark.parametrize("head_kind", ["explicit", "deq"])
    @pytest.mark.parametrize("counts", [(5, 5, 5, 5), (9, 4, 2, 1)])
    def test_snapshots_match_public_functions(self, monkeypatch, head_kind, counts):
        k, d = len(counts), 6
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
        minority = (2, 3) if len(set(counts)) > 1 else None
        cfg = TrainConfig(learning_rate=0.05, steps=40, e_h=e_h, log_every=3,
                          minority_classes=minority)

        states = []
        make_snapshot = lpm_mod._snapshotter

        def recording_snapshotter(*args):
            snapshot = make_snapshot(*args)

            def record(step, z, w, h0=None):
                states.append((step, z.copy(), w.copy(), h0))
                return snapshot(step, z, w, h0)

            return record

        monkeypatch.setattr(lpm_mod, "_snapshotter", recording_snapshotter)
        trace = train(features, head, cls, cfg)

        assert [s[0] for s in states] == list(range(0, 40, 3)) + [40]
        for snap, (step, z, w, h0) in zip(trace.snapshots, states, strict=True):
            logits = w @ z
            loss = cross_entropy(logits, labels)
            report = nc_report(z, labels, w, logits, loss, cutoff=cfg.metric_cutoff,
                               minority_classes=cfg.minority_classes)
            iters, skips = 0.0, 0
            if head_kind == "deq":
                policy = replace(trace.head.policy, on_failure="accept-last")
                h0 = head_preimage(trace.head, z) if h0 is None else h0
                result = fixed_point_iterate(trace.head.weights, h0, policy)
                iters = float(result.iterations)
                skips = int(np.count_nonzero(result.column_residuals > policy.epsilon))
            assert snap == TraceSnapshot(step, loss, report.accuracy, report, iters, skips)
        np.testing.assert_array_equal(
            trace.features.h0, head_preimage(trace.head, states[-1][1])
        )


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


class TestIterativePath:
    def test_forward_matches_closed_form(self, monkeypatch):
        monkeypatch.setattr(lpm_mod, "CLOSED_FORM_MAX_DIM", 0)
        rng = make_rng(5)
        labels = np.repeat(np.arange(2), 3)
        h0 = rng.standard_normal((4, 6))
        features = FeatureSet(h0=h0, labels=labels, k=2)
        w_deq = rng.standard_normal((4, 4))
        w_deq *= 0.3 / np.linalg.norm(w_deq)
        head = DeqHead(
            weights=DeqWeights(w=w_deq, e_h=0.3),
            policy=SolverPolicy(epsilon=1e-12, t_max=10_000),
        )
        iterative = head_features(head, h0)
        monkeypatch.setattr(lpm_mod, "CLOSED_FORM_MAX_DIM", 512)
        closed = head_features(head, h0)
        assert np.linalg.norm(iterative - closed) < 1e-8

    def test_skip_policy_masks_unconverged_samples(self, monkeypatch):
        monkeypatch.setattr(lpm_mod, "CLOSED_FORM_MAX_DIM", 0)
        rng = make_rng(6)
        labels = np.repeat(np.arange(2), 4)
        h0 = rng.standard_normal((3, 8))
        h0[:, 0] *= 1e7  # one sample too large to converge within t_max
        features = FeatureSet(h0=h0, labels=labels, k=2)
        head = DeqHead(
            weights=DeqWeights(w=0.5 * np.eye(3), e_h=2.0),
            policy=SolverPolicy(epsilon=1e-3, t_max=15, on_failure="skip"),
        )
        cls = ClassifierWeights(w=rng.standard_normal((2, 3)), e_w=10.0)
        loss, grads, _, _ = loss_and_grads(features, head, cls)
        assert math.isfinite(loss)
        # the masked column contributes no feature gradient
        assert np.all(grads["h0"][:, 0] == 0.0)
        assert np.any(grads["h0"][:, 1:] != 0.0)


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
        assert np.linalg.norm(head.w_ex) == pytest.approx(1.5, rel=1e-12)
        sv = np.linalg.svd(head.w_ex, compute_uv=False)
        np.testing.assert_allclose(sv, sv[0], rtol=1e-10)

    def test_deq_head_at_half_budget(self):
        head = initialize_deq_head(6, 0.5, make_rng(3))
        assert np.linalg.norm(head.weights.w) == pytest.approx(0.25, rel=1e-12)
        assert head.weights.sigma_max() < 1.0

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


class TestValidation:
    def test_featureset_checks(self):
        with pytest.raises(ValueError, match="every class"):
            FeatureSet(h0=np.ones((2, 3)), labels=[0, 0, 0], k=2)
        with pytest.raises(ValueError, match="labels"):
            FeatureSet(h0=np.ones((2, 3)), labels=[0, 1], k=2)

    def test_config_checks(self):
        with pytest.raises(ValueError):
            TrainConfig(steps=0)
        with pytest.raises(ValueError):
            TrainConfig(e_w=0.0)
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        # learning_rate = 0 is allowed: it is the no-op training idiom
        TrainConfig(learning_rate=0.0)
