"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -v -s`); the test
name itself mirrors the criterion number. Training-based criteria share
module-scoped runs executed through the harness so the artifacts they check
are the ones a user would get.
"""

import csv
import math
import time
from dataclasses import replace

import numpy as np
import pytest

import collapsekit as ck
from collapsekit import harness, lpm
from collapsekit.linalg import make_rng

D = 16


def _report(num, description, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {num:02d} {status} - {description}{tail}")
    return ok


def _criterion4_config(head, seed=0):
    return harness.config_from_dict({
        "head": head,
        "k": 4, "d0": D, "d": D, "balanced_n": 10,
        "learning_rate": 0.05, "momentum": 0.9, "steps": 8000,
        "e_w": 1.0, "e_h": 1.0 if head == "explicit" else 0.5,
        "feature_budget": 1.0, "seed": seed, "log_every": 500,
    }, name=f"balanced-{head}")


@pytest.fixture(scope="module")
def balanced_runs(tmp_path_factory):
    """The balanced collapse-emergence runs, one per head, via the harness."""
    root = tmp_path_factory.mktemp("balanced")
    runs = {}
    for head in ("explicit", "deq"):
        out = root / head
        t0 = time.perf_counter()
        record = harness.run_experiment(_criterion4_config(head), out_dir=out)
        runs[head] = {
            "record": record,
            "dir": out,
            "seconds": time.perf_counter() - t0,
        }
    return runs


def test_criterion_01_etf_grid():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(2, 11):
        for d in range(k, 33):
            for alpha in (0.5, 1.0, 2.0):
                frame = ck.make_etf(k, d, alpha, make_rng(k * 1000 + d))
                worst = max(
                    worst,
                    float(np.linalg.norm(frame.p.T @ frame.p - np.eye(k))),
                    float(np.linalg.norm(frame.gram() - ck.etf_gram(k, alpha))),
                )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    assert _report(1, "ETF construction over the (k, d, alpha) grid", ok,
                   f"worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_fixed_point_oracle():
    t0 = time.perf_counter()
    rng = make_rng(2024)
    policy = ck.SolverPolicy(epsilon=1e-12, t_max=10_000, on_failure="skip")
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 10))
        w = rng.standard_normal((d, d))
        sigma = np.linalg.svd(w, compute_uv=False)[0]
        w *= rng.uniform(0.05, 0.9) / sigma
        h0 = rng.standard_normal((d, int(rng.integers(1, 8))))
        z_iter = ck.fixed_point_iterate(w, h0, policy).z_star
        z_exact = ck.fixed_point_closed_form(w, h0)
        worst = max(worst, float(np.linalg.norm(z_iter - z_exact)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    assert _report(2, "fixed-point solver matches the closed form (200 draws)", ok,
                   f"worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_gradient_checks():
    t0 = time.perf_counter()
    k, n, d = 3, 4, 6
    labels = np.repeat(np.arange(k), n)
    worst = 0.0
    for instance in range(20):
        rng = make_rng(5000 + instance)
        features = lpm.initialize_features(labels, k, d, 1.0, rng)
        cls = lpm.initialize_classifier(k, d, 1.0, rng)
        w_gauss = rng.standard_normal((d, d))
        w_head = 0.4 * w_gauss / np.linalg.norm(w_gauss)
        for head in (ck.ExplicitHead(weight=w_head), ck.DeqHead(weight=w_head)):
            _, grads, _, _ = ck.loss_and_grads(features, head, cls)

            def loss_at(h0=None, head_w=None, w=None):
                f = features if h0 is None else ck.FeatureSet(h0=h0, labels=labels, k=k)
                h = head if head_w is None else head.with_weight(head_w)
                c = cls if w is None else ck.ClassifierWeights(w=w)
                return ck.cross_entropy(ck.forward(f, h, c), labels)

            blocks = {
                "w": (cls.w, lambda m: loss_at(w=m)),
                "head": (head.weight, lambda m: loss_at(head_w=m)),
                "h0": (features.h0, lambda m: loss_at(h0=m)),
            }
            eps = 1e-6
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
                rel = np.linalg.norm(fd - grads[name]) / np.linalg.norm(grads[name])
                worst = max(worst, float(rel))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    assert _report(3, "analytic gradients match finite differences (both heads)", ok,
                   f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_balanced_collapse(balanced_runs):
    results = []
    ok = True
    for head, run in balanced_runs.items():
        rep = run["record"]["heads"][head]["final_report"]
        head_ok = rep["nc1"] < 0.05 and rep["nc2"] < 0.05 and rep["nc3"] < 0.05
        time_ok = run["seconds"] < 60.0
        ok = ok and head_ok and time_ok
        results.append(
            f"{head}: nc1={rep['nc1']:.2e} nc2={rep['nc2']:.2e} nc3={rep['nc3']:.2e} "
            f"{run['seconds']:.1f}s"
        )
    # the equilibrium head reaches a loss no worse than the explicit head
    deq_loss = balanced_runs["deq"]["record"]["heads"]["deq"]["final_loss"]
    ex_loss = balanced_runs["explicit"]["record"]["heads"]["explicit"]["final_loss"]
    ok = ok and deq_loss <= ex_loss + 1e-3
    assert _report(4, "balanced collapse emergence, both heads", ok, "; ".join(results))


def test_criterion_05_log_bound_fuzz():
    t0 = time.perf_counter()
    violations, worst = ck.fuzz_log_bound(10_000, seed=99)
    equality_gap = 0.0
    for k in range(2, 11):
        deltas = np.full(k, 2.0)
        ratio = ck.tightest_ratio(deltas, 0)
        lhs, rhs = ck.log_share_bound(deltas, 0, ck.BoundConstants.from_ratio(ratio, k))
        equality_gap = max(equality_gap, abs(lhs - rhs))
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and worst <= 1e-12 and equality_gap < 1e-10 and elapsed < 5.0
    assert _report(5, "log-share bound fuzz and symmetric-point equality", ok,
                   f"violations={violations}, worst={worst:.2e}, "
                   f"equality gap={equality_gap:.2e}, {elapsed:.1f}s")


def test_criterion_06_loss_floors(balanced_runs):
    ok = True
    details = []
    for head, run in balanced_runs.items():
        run_dir = run["dir"]
        with np.load(run_dir / f"state_{head}.npz") as state:
            logits = state["w"] @ state["h"]
            labels = state["labels"]
        measured = run["record"]["heads"][head]["final_loss"]
        consts = ck.constants_from_logits(logits, labels, 4)
        deq_floor, explicit_floor = ck.balanced_loss_floor(1.0, 1.0, 4, consts)
        floor = deq_floor if head == "deq" else explicit_floor
        head_ok = measured >= floor - 1e-9 and deq_floor <= explicit_floor
        ok = ok and head_ok
        details.append(f"{head}: measured={measured:.6f} floor={floor:.6f}")
    assert _report(6, "measured loss respects the analytic floors", ok, "; ".join(details))


def test_criterion_07_minority_collapse(tmp_path):
    t0 = time.perf_counter()
    imb_cfg = harness.config_from_dict({
        "head": "explicit", "k": 10, "d0": D, "d": D,
        "k_a": 3, "k_b": 7, "n_a": 100, "r": 100,
        "learning_rate": 0.05, "momentum": 0.9, "steps": 8000,
        "e_w": 1.0, "e_h": 1.0, "feature_budget": 1.0,
        "seed": 0, "log_every": 1000,
    }, name="minority")
    bal_cfg = harness.config_from_dict({
        "head": "explicit", "k": 10, "d0": D, "d": D, "balanced_n": 31,
        "learning_rate": 0.05, "momentum": 0.9, "steps": 8000,
        "e_w": 1.0, "e_h": 1.0, "feature_budget": 1.0,
        "seed": 0, "log_every": 1000,
    }, name="balanced-k10")
    imb = harness.run_experiment(imb_cfg, out_dir=tmp_path / "imb")
    bal = harness.run_experiment(bal_cfg, out_dir=tmp_path / "bal")

    minority = tuple(range(3, 10))
    with np.load(tmp_path / "imb/state_explicit.npz") as state:
        w_imb = state["w"]
    with np.load(tmp_path / "bal/state_explicit.npz") as state:
        w_bal = state["w"]
    imb_cosine = ck.minority_collapse_index(w_imb, minority)
    bal_cosine = ck.minority_collapse_index(w_bal, minority)
    norms = np.linalg.norm(w_imb, axis=1)
    ratio = norms[3:].mean() / norms[:3].mean()
    elapsed = time.perf_counter() - t0
    ok = (imb_cosine - bal_cosine >= 0.3) and (ratio < 0.5) and elapsed < 90.0
    assert _report(7, "minority collapse under extreme imbalance", ok,
                   f"cosine {imb_cosine:.3f} vs balanced {bal_cosine:.3f}, "
                   f"norm ratio {ratio:.3f}, {elapsed:.0f}s")


def test_criterion_08_head_comparison(tmp_path):
    """The imbalanced explicit-versus-equilibrium comparison, asserted on the
    seeds where its conditions hold. Its runs stop well short of their
    program's optimum: at 8000 steps, seeds 0 and 1 end at a loss of
    0.50650 against the certified optimum 0.447677 (32000 steps still read
    0.506487). So the NC numbers compared here are those of a
    non-stationary point, not of the program's solution."""
    t0 = time.perf_counter()
    held, failed_conditions = [], []
    ok = True
    for seed in range(10):
        cfg = harness.config_from_dict({
            "head": "both", "k": 4, "d0": D, "d": D,
            "k_a": 2, "k_b": 2, "n_a": 100, "r": 50,
            "learning_rate": 0.05, "momentum": 0.9, "steps": 8000,
            "e_w": 1.0, "e_h": 0.5, "feature_budget": 0.5,
            "seed": seed, "log_every": 2000,
        }, name=f"compare-{seed}")
        record = harness.run_experiment(cfg, out_dir=tmp_path / f"seed{seed}")
        cr = record["condition_report"]
        if cr["nc2_condition_holds"] and cr["nc3_condition_holds"]:
            held.append(seed)
            seed_ok = (
                cr["nc2_distance_deq"] <= cr["nc2_distance_explicit"]
                and cr["nc3_cosine_ratio"] >= 1.0 - 0.05
            )
            ok = ok and seed_ok
        else:
            failed_conditions.append((seed, round(cr["nc2_margin"], 3)))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    assert _report(
        8, "imbalanced head comparison (asserted where conditions hold)", ok,
        f"conditions held: {held or 'none'}; reported-not-asserted: "
        f"{failed_conditions}; runs stop well short of their program's optimum "
        f"(loss 0.5065 vs 0.447677 at 8000 steps, seeds 0-1), so these are the NC "
        f"numbers of a non-stationary point; {elapsed:.0f}s",
    )


def test_head_comparison_is_a_function_of_z0():
    """In the default training mode both heads descend on (W, Z) over one
    feasible set, so a run is fixed by its start Z0 = head(H0): an explicit
    head started from the deq head's Z0 retraces the deq run, and the
    comparison of the two reads equal heads. Criterion 08's config, shorter."""
    for seed in range(3):
        cfg = harness.config_from_dict({
            "head": "both", "k": 4, "d0": D, "d": D,
            "k_a": 2, "k_b": 2, "n_a": 100, "r": 50,
            "learning_rate": 0.05, "momentum": 0.9, "steps": 400,
            "e_w": 1.0, "e_h": 0.5, "feature_budget": 0.5,
            "seed": seed, "log_every": 100,
        }, name=f"gauge-{seed}")
        # the draws of harness._sweep_worker, in its order
        rng = make_rng(seed)
        features = harness.synthesize_dataset(cfg, rng)
        cls = lpm.initialize_classifier(cfg.k, cfg.d, cfg.train.e_w, rng)
        explicit = lpm.initialize_explicit_head(cfg.d, cfg.d0, cfg.train.e_h, rng)
        deq = lpm.initialize_deq_head(cfg.d, cfg.train.e_h, rng, policy=cfg.solver)
        traces = {"deq": lpm.train(features, deq, cls, cfg.train)}
        # the deq run's start, projected as train projects it
        projected, deq_head, _ = lpm.project_feasible(features, deq, cls, cfg.train)
        z0 = lpm.head_features(deq_head, projected.h0)
        traces["explicit"] = lpm.train(
            replace(features, h0=explicit.preimage(z0)), explicit, cls, cfg.train
        )

        np.testing.assert_allclose(traces["explicit"].loss_history,
                                   traces["deq"].loss_history, rtol=1e-14, atol=0)
        pairs = zip(traces["explicit"].snapshots, traces["deq"].snapshots, strict=True)
        for ex, dq in pairs:
            assert ex.step == dq.step
            for metric in ("nc1", "nc2", "nc3"):
                assert math.isclose(getattr(ex.report, metric), getattr(dq.report, metric),
                                    rel_tol=1e-12), (seed, ex.step, metric)
        finals = {}
        for name, trace in traces.items():
            h = lpm.head_features(trace.head, trace.features.h0)
            finals[name] = (trace.features.partition.class_means(h), trace.classifier.w)
        means0 = features.partition.class_means(features.h0)
        report, note = harness.compare_heads(cfg, means0, finals)
        assert note is None
        assert abs(report["nc3_cosine_ratio"] - 1.0) <= 1e-12


def test_criterion_09_determinism(balanced_runs, tmp_path):
    cfg = _criterion4_config("explicit")
    harness.run_experiment(cfg, out_dir=tmp_path / "repeat")
    original = (balanced_runs["explicit"]["dir"] / "trace.csv").read_bytes()
    repeated = (tmp_path / "repeat/trace.csv").read_bytes()
    ok = original == repeated
    assert _report(9, "identical seed reproduces trace.csv byte for byte", ok,
                   f"{len(original)} bytes")


def _naive_metrics(h, labels, w, k, cutoff=1e-10):
    d, n = h.shape
    means = np.zeros((d, k))
    for c in range(k):
        cols = [i for i in range(n) if labels[i] == c]
        for i in cols:
            means[:, c] += h[:, i]
        means[:, c] /= len(cols)
    global_mean = sum(means[:, c] for c in range(k)) / k
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
    nc1 = np.trace(sigma_w @ np.linalg.pinv(sigma_b, rcond=cutoff)) / k
    gram = means.T @ means
    target = (np.eye(k) - np.ones((k, k)) / k) / math.sqrt(k - 1)
    nc2 = np.linalg.norm(gram / np.linalg.norm(gram) - target)
    nc3 = np.linalg.norm(w / np.linalg.norm(w) - means.T / np.linalg.norm(means))
    return float(nc1), float(nc2), float(nc3)


def test_criterion_10_metric_oracles():
    rng = make_rng(77)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(2, 9))
        d = int(rng.integers(k, 11))
        labels = np.repeat(np.arange(k), n)
        h = rng.standard_normal((d, k * n))
        w = rng.standard_normal((k, d))
        stats = ck.class_statistics(h, labels, k)
        ours = (
            ck.nc1(stats),
            ck.nc2(stats.class_means),
            ck.nc3(w, stats.class_means),
        )
        reference = _naive_metrics(h, labels, w, k)
        worst = max(worst, max(abs(a - b) for a, b in zip(ours, reference)))
    ok = worst < 1e-9
    assert _report(10, "collapse metrics match double-loop references", ok,
                   f"worst gap {worst:.2e}")
