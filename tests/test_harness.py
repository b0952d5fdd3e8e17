import csv
import json

import numpy as np
import pytest

from collapsekit.errors import ConfigError
from collapsekit.harness import (
    config_from_dict,
    export_gram,
    load_config,
    reexport_grams,
    run_experiment,
    run_sweep,
    synthesize_dataset,
    write_imbalance_grid,
    write_trace_csv,
)
from collapsekit.linalg import make_rng
from collapsekit.lpm import ExplicitHead

TINY = {
    "head": "explicit", "k": 3, "d0": 6, "d": 6, "balanced_n": 4,
    "steps": 30, "log_every": 10, "seed": 1,
}


def _write_config(tmp_path, lines, name="exp.cfg"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestConfigParsing:
    def test_roundtrip_with_comments(self, tmp_path):
        path = _write_config(tmp_path, [
            "# a demo experiment",
            "head = both",
            "k = 4",
            "balanced_n = 10   # per-class count",
            "steps = 50",
            "",
        ])
        cfg = load_config(path)
        assert cfg.head == "both"
        assert cfg.k == 4
        assert cfg.balanced_n == 10
        assert cfg.name == "exp"
        assert cfg.d == cfg.d0 == 16

    def test_unknown_key(self, tmp_path):
        path = _write_config(tmp_path, ["head = explicit", "k = 3", "balanced_n = 2", "foo = 1"])
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_duplicate_key(self, tmp_path):
        path = _write_config(tmp_path, ["head = explicit", "head = deq", "k = 3", "balanced_n = 2"])
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(path)

    def test_bad_type(self, tmp_path):
        path = _write_config(tmp_path, ["head = explicit", "k = many", "balanced_n = 2"])
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required"):
            config_from_dict({"k": 3, "balanced_n": 2})

    def test_layout_exclusivity(self):
        with pytest.raises(ConfigError, match="not both"):
            config_from_dict({
                "head": "deq", "k": 4, "balanced_n": 3,
                "k_a": 2, "k_b": 2, "n_a": 10, "r": 5,
            })
        with pytest.raises(ConfigError, match="exactly one"):
            config_from_dict({"head": "deq", "k": 4})

    def test_incomplete_imbalance(self):
        with pytest.raises(ConfigError, match="incomplete"):
            config_from_dict({"head": "deq", "k": 4, "k_a": 2, "n_a": 10})

    def test_ratio_must_divide(self):
        with pytest.raises(ConfigError, match="multiple"):
            config_from_dict({
                "head": "deq", "k": 4, "k_a": 2, "k_b": 2, "n_a": 10, "r": 3,
            })

    def test_presets(self):
        desk = config_from_dict(dict(TINY))
        paper = config_from_dict(dict(TINY), preset="paper")
        assert desk.train.learning_rate == 0.05
        assert desk.train.e_w == 1.0
        assert paper.train.learning_rate == 1e-4
        assert paper.train.e_w == 0.01
        with pytest.raises(ConfigError, match="preset"):
            config_from_dict(dict(TINY), preset="warp")


class TestConfigHash:
    def test_stable_under_reordering(self, tmp_path):
        lines = ["head = both", "k = 4", "balanced_n = 10", "steps = 50", "seed = 3"]
        a = load_config(_write_config(tmp_path, lines, "a.cfg"))
        b = load_config(_write_config(tmp_path, list(reversed(lines)), "b.cfg"))
        # name differs by file stem; align it before hashing
        from dataclasses import replace

        assert replace(a, name="x").config_hash() == replace(b, name="x").config_hash()

    def test_sensitive_to_values(self):
        a = config_from_dict(dict(TINY))
        changed = dict(TINY)
        changed["seed"] = 2
        b = config_from_dict(changed)
        assert a.config_hash() != b.config_hash()

    def test_output_dir_excluded(self):
        a = config_from_dict(dict(TINY, output_dir="runs/a"))
        b = config_from_dict(dict(TINY, output_dir="runs/b"))
        assert a.config_hash() == b.config_hash()


class TestSynthesize:
    def test_balanced_counts(self):
        cfg = config_from_dict({"head": "explicit", "k": 4, "balanced_n": 10})
        assert cfg.class_counts == (10, 10, 10, 10)
        features = synthesize_dataset(cfg, make_rng(0))
        np.testing.assert_array_equal(np.bincount(features.labels), [10] * 4)

    def test_imbalanced_majority_first_layout(self):
        cfg = config_from_dict({
            "head": "explicit", "k": 10,
            "k_a": 3, "k_b": 7, "n_a": 100, "r": 10,
        })
        assert cfg.class_counts == (100, 100, 100, 10, 10, 10, 10, 10, 10, 10)
        labels = cfg.labels()
        assert labels[0] == 0 and labels[299] == 2 and labels[300] == 3

    def test_deterministic(self):
        cfg = config_from_dict(dict(TINY))
        a = synthesize_dataset(cfg, make_rng(cfg.train.seed))
        b = synthesize_dataset(cfg, make_rng(cfg.train.seed))
        np.testing.assert_array_equal(a.h0, b.h0)


class TestExportGram:
    def test_identical_unit_features(self, tmp_path):
        h = np.array([[1.0, 1.0]])
        samples_path, _ = export_gram(h, [0, 1], tmp_path)
        with samples_path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["g_0", "g_1"]
        values = [[float(x) for x in row] for row in rows[1:]]
        assert values == [[1.0, 1.0], [1.0, 1.0]]

    def test_orthonormal_means_identity_gram(self, tmp_path):
        h = np.eye(3)
        _, means_path = export_gram(h, [0, 1, 2], tmp_path)
        with means_path.open() as fh:
            rows = list(csv.reader(fh))
        values = np.array([[float(x) for x in row] for row in rows[1:]])
        np.testing.assert_array_equal(values, np.eye(3))

    def test_roundtrip_exact(self, tmp_path):
        rng = make_rng(5)
        h = rng.standard_normal((4, 7))
        labels = rng.integers(0, 3, size=7)
        labels[:3] = [0, 1, 2]
        samples_path, means_path = export_gram(h, labels, tmp_path)
        order = np.argsort(labels, kind="stable")
        expected = h[:, order].T @ h[:, order]
        with samples_path.open() as fh:
            rows = list(csv.reader(fh))[1:]
        parsed = np.array([[float(x) for x in row] for row in rows])
        np.testing.assert_array_equal(parsed, expected)

    def test_class_sorted(self, tmp_path):
        h = np.array([[2.0, 1.0, 3.0]])
        labels = [1, 0, 1]
        samples_path, _ = export_gram(h, labels, tmp_path)
        with samples_path.open() as fh:
            rows = list(csv.reader(fh))[1:]
        parsed = np.array([[float(x) for x in row] for row in rows])
        assert parsed[0, 0] == 1.0  # the label-0 sample leads


class TestRunExperiment:
    def test_artifacts_and_record(self, tmp_path):
        cfg = config_from_dict(dict(TINY), name="tiny")
        record = run_experiment(cfg, out_dir=tmp_path)
        assert (tmp_path / "trace.csv").is_file()
        # the N x N sample Gram is left to export-gram
        assert not (tmp_path / "gram_samples.csv").exists()
        assert (tmp_path / "gram_class_means.csv").is_file()
        assert (tmp_path / "state_explicit.npz").is_file()
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config_hash"] == cfg.config_hash()
        assert "explicit" in report["heads"]
        summary = report["heads"]["explicit"]
        assert summary["h0_init_sha256"] == report["shared_h0_sha256"]
        assert record.heads["explicit"]["final_loss"] == pytest.approx(
            summary["final_loss"]
        )

    def test_trace_schema(self, tmp_path):
        cfg = config_from_dict(dict(TINY))
        run_experiment(cfg, out_dir=tmp_path)
        with (tmp_path / "trace.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == (
            ["step", "loss", "accuracy", "nc1", "nc2", "nc3"]
            + [f"per_class_acc_{c}" for c in range(3)]
            + ["solver_mean_iters", "solver_skip_count"]
        )
        steps = [int(r[0]) for r in rows[1:]]
        assert steps == [0, 10, 20, 30]

    def test_deq_trace_logs_solver_stats(self, tmp_path):
        cfg = config_from_dict(dict(TINY, head="deq", e_h=0.5))
        run_experiment(cfg, out_dir=tmp_path)
        with (tmp_path / "trace.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["solver_mean_iters"]) >= 1 for r in rows)
        assert all(int(r["solver_skip_count"]) == 0 for r in rows)

    def test_deterministic_trace_bytes(self, tmp_path):
        cfg = config_from_dict(dict(TINY))
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a/trace.csv").read_bytes() == (tmp_path / "b/trace.csv").read_bytes()

    def test_both_heads_share_h0_and_compare(self, tmp_path):
        cfg = config_from_dict({
            "head": "both", "k": 4, "d0": 6, "d": 6,
            "k_a": 2, "k_b": 2, "n_a": 10, "r": 5,
            "steps": 40, "log_every": 20, "e_h": 0.5, "feature_budget": 0.5,
        })
        record = run_experiment(cfg, out_dir=tmp_path)
        assert (tmp_path / "explicit/trace.csv").is_file()
        assert (tmp_path / "deq/trace.csv").is_file()
        shas = {s["h0_init_sha256"] for s in record.heads.values()}
        assert len(shas) == 1
        assert record.condition_report is not None
        assert record.condition_report["nc2_distance_explicit"] > 0
        assert record.condition_report["nc3_cosine_ratio"] > 0

    def test_zero_explicit_cosine_leaves_ratio_undefined(self, tmp_path, monkeypatch):
        def cosine(trace):
            return 0.0 if isinstance(trace.head, ExplicitHead) else 0.5

        monkeypatch.setattr("collapsekit.harness._mean_class_cosine", cosine)
        cfg = config_from_dict({
            "head": "both", "k": 4, "d0": 6, "d": 6,
            "k_a": 2, "k_b": 2, "n_a": 10, "r": 5,
            "steps": 20, "log_every": 20, "e_h": 0.5, "feature_budget": 0.5,
        })
        record = run_experiment(cfg, out_dir=tmp_path)
        assert record.condition_report["nc3_cosine_ratio"] is None
        assert record.condition_report["nc2_distance_explicit"] > 0
        assert "cosine" in record.condition_note
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["condition_report"]["nc3_cosine_ratio"] is None

    def test_condition_note_when_eh_too_large(self, tmp_path):
        cfg = config_from_dict({
            "head": "both", "k": 4, "d0": 6, "d": 6,
            "k_a": 2, "k_b": 2, "n_a": 10, "r": 5,
            "steps": 20, "log_every": 20, "e_h": 1.0,
        })
        record = run_experiment(cfg, out_dir=tmp_path)
        assert record.condition_report is None
        assert "e_h" in record.condition_note

    def test_reexport_grams(self, tmp_path):
        cfg = config_from_dict(dict(TINY))
        run_dir = tmp_path / "run"
        run_experiment(cfg, out_dir=run_dir)
        written = reexport_grams(run_dir)
        assert len(written) == 2
        with np.load(run_dir / "state_explicit.npz") as state:
            h, labels = state["h"], state["labels"]
        samples_path, _ = export_gram(h, labels, tmp_path / "direct")
        assert (run_dir / "gram_samples.csv").read_bytes() == samples_path.read_bytes()
        with (run_dir / "gram_samples.csv").open() as fh:
            rows = list(csv.reader(fh))[1:]
        parsed = np.array([[float(x) for x in row] for row in rows])
        h_sorted = h[:, np.argsort(labels, kind="stable")]
        np.testing.assert_array_equal(parsed, h_sorted.T @ h_sorted)

    def test_reexport_needs_state(self, tmp_path):
        with pytest.raises(ConfigError, match="state"):
            reexport_grams(tmp_path)


class TestSweep:
    def test_grid_writer(self, tmp_path):
        written = write_imbalance_grid(tmp_path)
        assert len(written) == 9
        cfg = load_config(written[0])
        assert cfg.k == 10
        assert cfg.imbalance.n_a == 100

    def test_sweep_runs_and_merges(self, tmp_path):
        for seed in (1, 2):
            _write_config(tmp_path, [
                "head = explicit", "k = 3", "d0 = 6", "d = 6",
                "balanced_n = 3", "steps = 10", "log_every = 5",
                f"seed = {seed}",
            ], name=f"s{seed}.cfg")
        merged = run_sweep(tmp_path, out_root=tmp_path / "out", max_workers=2)
        assert len(merged) == 2
        summary = json.loads((tmp_path / "out/sweep_summary.json").read_text())
        assert set(summary) == set(merged)

    def test_sweep_empty_dir(self, tmp_path):
        with pytest.raises(ConfigError, match="no \\*.cfg"):
            run_sweep(tmp_path)


def test_write_trace_csv_validates(tmp_path):
    cfg = config_from_dict(dict(TINY))
    record_dir = tmp_path / "run"
    record_dir.mkdir()
    run_experiment(cfg, out_dir=record_dir)
    # re-write the trace from the same data must be byte-stable
    data = (record_dir / "trace.csv").read_bytes()
    assert data.startswith(b"step,loss,accuracy")
