import concurrent.futures
import csv
import functools
import importlib.util
import itertools
import json
import os
from pathlib import Path

import numpy as np
import pytest

from collapsekit import harness, lpm
from collapsekit.cli import main
from collapsekit.errors import ConfigError, SolverConvergenceError, TrainingDivergedError
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
from collapsekit.etf import gram_distance_to_etf_raw
from collapsekit.linalg import make_rng
from collapsekit.lpm import ExplicitHead
from collapsekit.metrics import ClassPartition, class_means

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

TINY = {
    "head": "explicit", "k": 3, "d0": 6, "d": 6, "balanced_n": 4,
    "steps": 30, "log_every": 10, "seed": 1,
}

IMBALANCED = {"head": "both", "k": 10, "k_a": 3, "k_b": 7, "n_a": 100, "r": 10}


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

    def test_unknown_dict_key(self):
        with pytest.raises(ConfigError, match=r"unknown config keys: \['foo'\]"):
            config_from_dict(dict(TINY, foo=1))

    def test_line_without_equals(self, tmp_path):
        path = _write_config(tmp_path, ["head = explicit", "k 3", "balanced_n = 2"])
        with pytest.raises(ConfigError, match="exp.cfg:2: expected key = value, got 'k 3'"):
            load_config(path)

    def test_duplicate_key(self, tmp_path):
        path = _write_config(tmp_path, ["head = explicit", "head = deq", "k = 3", "balanced_n = 2"])
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(path)

    def test_bad_type(self, tmp_path):
        path = _write_config(tmp_path, ["head = explicit", "k = many", "balanced_n = 2"])
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(path)

    def test_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin.cfg"
        path.write_bytes(b"name = caf\xe9\nhead = explicit\nk = 3\nbalanced_n = 2\n")
        with pytest.raises(ConfigError, match="latin.cfg: not valid UTF-8"):
            load_config(path)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    def test_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbfhead = explicit\nk = 3\nbalanced_n = 2\n")
        assert load_config(path).head == "explicit"

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

    @pytest.mark.parametrize("overrides, message", [
        ({"seed": -1}, "seed must be non-negative"),
        ({"e_w": float("nan")}, "e_w must be finite"),
        ({"e_h": float("inf")}, "e_h must be finite"),
        ({"e_h": 1e400}, "e_h must be finite"),
        ({"feature_budget": float("inf")}, "feature_budget must be finite"),
        ({"metric_cutoff": 2.0}, "metric_cutoff must lie in"),
        ({"metric_cutoff": 0.0}, "metric_cutoff must lie in"),
        ({"metric_cutoff": float("nan")}, "metric_cutoff must be finite"),
        ({"learning_rate": float("nan")}, "learning_rate must be finite"),
        ({"learning_rate": float("inf")}, "learning_rate must be finite"),
        ({"epsilon": float("nan")}, "epsilon must be finite"),
        # an imbalanced layout in place of TINY's balanced_n
        ({"balanced_n": None, "k_a": 0, "k_b": 3, "n_a": 10, "r": 5}, "majority"),
        ({"balanced_n": None, "k_a": 2, "k_b": 1, "n_a": 10, "r": 1}, "n_a > n_b"),
        ({"on_failure": "accept-last"}, "on_failure must be one of"),
        ({"balanced_n": None, "k_a": 2, "k_b": 1, "n_a": 10, "r": 5}, "minority"),
        ({"name": ""}, "name must be one path component"),
        ({"name": "."}, "name must be one path component"),
        ({"name": ".."}, "name must be one path component"),
        ({"name": "a/b"}, "name must be one path component"),
        ({"head": "foo"}, "head must be one of"),
        ({"k": 1}, "k must be at least 2"),
        ({"d": 1, "d0": 1}, "need d >= 2 and d0 >= 1"),
        ({"balanced_n": 0}, "balanced_n must be positive"),
        ({"balanced_n": None, "k": 4, "k_a": 2, "k_b": 3, "n_a": 10, "r": 5},
         "imbalance spec covers 5 classes but k=4"),
        # a dict is typed as a config file is
        ({"steps": 10.0}, "steps must be int, got 10.0"),
        ({"seed": True}, "seed must be int, got True"),
        ({"e_w": "1"}, "e_w must be float, got '1'"),
    ])
    def test_bad_values(self, overrides, message):
        raw = {k: v for k, v in dict(TINY, **overrides).items() if v is not None}
        with pytest.raises(ConfigError, match=message):
            config_from_dict(raw)

    def test_seed_override(self, tmp_path):
        path = _write_config(tmp_path, [f"{key} = {value}" for key, value in TINY.items()])
        cfg = load_config(path)
        assert load_config(path, seed=None).config_hash() == cfg.config_hash()
        reseeded = load_config(path, seed=5)
        assert reseeded.train.seed == 5
        expected = config_from_dict(dict(TINY, seed=5), name="exp")
        assert reseeded.config_hash() == expected.config_hash()
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            load_config(path, seed=-1)

    def test_seed_override_replaces_an_invalid_file_seed(self, tmp_path):
        # the override replaces the file's value before validation
        lines = [f"{key} = {value}" for key, value in dict(TINY, seed=-3).items()]
        path = _write_config(tmp_path, lines)
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            load_config(path)
        assert load_config(path, seed=2).train.seed == 2


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

    # computed before the training and solver keys were derived from
    # TrainConfig and SolverPolicy; a schema edit that changes any of these
    # re-keys every sweep_summary.json
    @pytest.mark.parametrize("raw, preset, expected", [
        (TINY, "desk", "843d22f653d566b3038472557f8f57800e281419d8291559f04196013ca02dcc"),
        (TINY, "paper", "e64a35d9bd9d4e5cbfafef32b549b42eb89a5ba7f00a478037026cd92b05e03e"),
        (IMBALANCED, "desk", "5db9c46680ed5a38d8cd04d9cf9b3716486ec475459cfb69450cfcc6749261e3"),
        (IMBALANCED, "paper", "5511d8b13d55183bc5229e6a81dc05cf70de527a12b7448088396fa534b716d8"),
    ], ids=["balanced-desk", "balanced-paper", "imbalanced-desk", "imbalanced-paper"])
    def test_pinned_hashes(self, raw, preset, expected):
        assert config_from_dict(dict(raw), preset=preset).config_hash() == expected

    def test_a_float_key_hashes_by_value(self):
        # as a config file's "learning_rate = 1" parses to 1.0
        hashes = {config_from_dict(dict(TINY, learning_rate=value)).config_hash()
                  for value in (1, 1.0, np.float64(1.0))}
        assert len(hashes) == 1

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
        samples_path, _ = export_gram(h, [0, 1], 2, tmp_path)
        with samples_path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["g_0", "g_1"]
        values = [[float(x) for x in row] for row in rows[1:]]
        assert values == [[1.0, 1.0], [1.0, 1.0]]

    def test_orthonormal_means_identity_gram(self, tmp_path):
        h = np.eye(3)
        _, means_path = export_gram(h, [0, 1, 2], 3, tmp_path)
        with means_path.open() as fh:
            rows = list(csv.reader(fh))
        values = np.array([[float(x) for x in row] for row in rows[1:]])
        np.testing.assert_array_equal(values, np.eye(3))

    def test_roundtrip_exact(self, tmp_path):
        rng = make_rng(5)
        h = rng.standard_normal((4, 7))
        labels = rng.integers(0, 3, size=7)
        labels[:3] = [0, 1, 2]
        samples_path, means_path = export_gram(h, labels, 3, tmp_path)
        order = np.argsort(labels, kind="stable")
        expected = h[:, order].T @ h[:, order]
        with samples_path.open() as fh:
            rows = list(csv.reader(fh))[1:]
        parsed = np.array([[float(x) for x in row] for row in rows])
        np.testing.assert_array_equal(parsed, expected)

    def test_class_sorted(self, tmp_path):
        h = np.array([[2.0, 1.0, 3.0]])
        labels = [1, 0, 1]
        samples_path, _ = export_gram(h, labels, 2, tmp_path)
        with samples_path.open() as fh:
            rows = list(csv.reader(fh))[1:]
        parsed = np.array([[float(x) for x in row] for row in rows])
        assert parsed[0, 0] == 1.0  # the label-0 sample leads


def test_rows_that_do_not_read_back_fail_self_validation(tmp_path):
    # the file holds the text "1.0", which is not the float the row gave
    with pytest.raises(OSError, match="self-validation failed re-reading"):
        harness._write_validated_csv(tmp_path / "x.csv", ["a"], [[1.0]])


class TestRunExperiment:
    def test_returns_the_record_report_json_holds(self, tmp_path):
        record = run_experiment(config_from_dict(dict(BOTH_IMBALANCED)), out_dir=tmp_path)
        assert record["condition_report"] is not None
        assert record == json.loads((tmp_path / "report.json").read_text())

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
        assert record["heads"]["explicit"]["final_loss"] == pytest.approx(
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
        shas = {s["h0_init_sha256"] for s in record["heads"].values()}
        assert len(shas) == 1
        assert record["condition_report"] is not None
        assert record["condition_report"]["nc2_distance_explicit"] > 0
        assert record["condition_report"]["nc3_cosine_ratio"] > 0

    def test_comparison_matches_saved_artifacts_exactly(self, tmp_path):
        cfg = config_from_dict(dict(BOTH_IMBALANCED))
        record = run_experiment(cfg, out_dir=tmp_path)
        report = record["condition_report"]
        cosines = {}
        for head in ("explicit", "deq"):
            with np.load(tmp_path / head / f"state_{head}.npz") as state:
                means = class_means(state["h"], state["labels"], cfg.k)
                w = state["w"]
            with (tmp_path / head / "gram_class_means.csv").open(newline="") as fh:
                gram = np.array([[float(x) for x in row] for row in list(csv.reader(fh))[1:]])
            assert np.array_equal(gram, means.T @ means)
            alpha = np.sqrt(cfg.train.feature_budget)
            assert report[f"nc2_distance_{head}"] == gram_distance_to_etf_raw(
                means.T @ means, cfg.k, alpha
            )
            cosines[head] = float(np.mean([
                float(means[:, c] @ w[c] / (np.linalg.norm(means[:, c]) * np.linalg.norm(w[c])))
                for c in range(cfg.k)
            ]))
        assert report["nc3_cosine_ratio"] == cosines["deq"] / cosines["explicit"]

    def test_zero_explicit_cosine_leaves_ratio_undefined(self, tmp_path, monkeypatch):
        # compare_heads takes the explicit head's cosine first
        cosines = iter([0.0, 0.5])
        monkeypatch.setattr("collapsekit.harness._mean_class_cosine",
                            lambda means, w: next(cosines))
        cfg = config_from_dict({
            "head": "both", "k": 4, "d0": 6, "d": 6,
            "k_a": 2, "k_b": 2, "n_a": 10, "r": 5,
            "steps": 20, "log_every": 20, "e_h": 0.5, "feature_budget": 0.5,
        })
        record = run_experiment(cfg, out_dir=tmp_path)
        assert record["condition_report"]["nc3_cosine_ratio"] is None
        assert record["condition_report"]["nc2_distance_explicit"] > 0
        assert "cosine" in record["condition_note"]
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["condition_report"]["nc3_cosine_ratio"] is None

    def test_condition_note_when_eh_too_large(self, tmp_path):
        cfg = config_from_dict({
            "head": "both", "k": 4, "d0": 6, "d": 6,
            "k_a": 2, "k_b": 2, "n_a": 10, "r": 5,
            "steps": 20, "log_every": 20, "e_h": 1.0,
        })
        record = run_experiment(cfg, out_dir=tmp_path)
        assert record["condition_report"] is None
        assert "e_h" in record["condition_note"]

    def test_reexport_grams(self, tmp_path):
        cfg = config_from_dict(dict(TINY))
        run_dir = tmp_path / "run"
        run_experiment(cfg, out_dir=run_dir)
        written = reexport_grams(run_dir)
        assert len(written) == 2
        with np.load(run_dir / "state_explicit.npz") as state:
            h, labels = state["h"], state["labels"]
        samples_path, _ = export_gram(h, labels, cfg.k, tmp_path / "direct")
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

    def test_failed_config_is_isolated_and_reraised(self, tmp_path):
        grid, mixed = tmp_path / "grid", tmp_path / "mixed"
        for config_dir in (grid, mixed):
            write_imbalance_grid(config_dir, steps=20, seed=4)
        # sorts first, fails in its worker
        _write_config(mixed, ["head = deq", "k = 5", "d0 = 20", "d = 12",
                              "balanced_n = 3"], name="a_bad.cfg")
        clean = run_sweep(grid, out_root=tmp_path / "grid_out", max_workers=2)
        with pytest.raises(ConfigError, match="d0 = d"):
            run_sweep(mixed, out_root=tmp_path / "mixed_out", max_workers=2)

        summary = json.loads((tmp_path / "mixed_out/sweep_summary.json").read_text())
        failed = summary.pop("a_bad.cfg")
        assert failed["name"] == "a_bad"
        assert failed["error"] == "ConfigError"
        assert "d0 = d" in failed["message"]
        assert compare_outputs._drop_timing(summary) == compare_outputs._drop_timing(clean)

    def test_no_config_loads(self, tmp_path):
        _write_config(tmp_path, ["head = deq", "k = 5", "d0 = 20", "d = 12",
                                 "balanced_n = 3"], name="bad.cfg")
        with pytest.raises(ConfigError, match="d0 = d"):
            run_sweep(tmp_path, max_workers=2)
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert summary["bad.cfg"]["error"] == "ConfigError"

    def test_run_names_stay_under_out(self, tmp_path, capsys):
        cfgs = tmp_path / "cfgs"
        cfgs.mkdir()
        layout = ["head = explicit", "k = 3", "d0 = 6", "d = 6", "balanced_n = 3", "steps = 5"]
        for stem, name in (("up", ".."), ("empty", ""), ("ok", "ok")):
            _write_config(cfgs, layout + [f"name = {name}"], name=f"{stem}.cfg")
        out = tmp_path / "out" / "sweep"
        assert main(["sweep", str(cfgs), "--out", str(out), "--workers", "1", "--quiet"]) == 2
        assert "name must be one path component" in capsys.readouterr().err
        written = {p.relative_to(tmp_path).parts[:3] for p in tmp_path.rglob("*") if p.is_file()}
        assert written == {("cfgs", f"{stem}.cfg") for stem in ("up", "empty", "ok")} | {
            ("out", "sweep", "sweep_summary.json"), ("out", "sweep", "ok")}
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["up.cfg"]["error"] == summary["empty.cfg"]["error"] == "ConfigError"

    def test_sweep_empty_dir(self, tmp_path):
        with pytest.raises(ConfigError, match="no \\*.cfg"):
            run_sweep(tmp_path)


BOTH_BALANCED = {
    "head": "both", "k": 4, "d0": 6, "d": 6, "balanced_n": 6,
    "steps": 60, "log_every": 7, "seed": 2,
}
BOTH_IMBALANCED = {
    "head": "both", "k": 4, "d0": 6, "d": 6, "k_a": 2, "k_b": 2, "n_a": 10, "r": 5,
    "steps": 60, "log_every": 7, "e_h": 0.5, "feature_budget": 0.5, "seed": 3,
}


def _set_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _log_pools(monkeypatch, log_path):
    """Make every process pool, in this process or a forked one, append
    "<pid> <start method>" to log_path when it is created."""

    class LoggedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, mp_context=None, **kwargs):
            method = mp_context.get_start_method() if mp_context else None
            with open(log_path, "a") as fh:
                fh.write(f"{os.getpid()} {method}\n")
            super().__init__(*args, mp_context=mp_context, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", LoggedPool)


def _pool_log(log_path) -> list:
    return log_path.read_text().splitlines() if log_path.exists() else []


def _diverge_deq_head(monkeypatch, at_step):
    """Give the deq head's training a non-finite loss at step at_step."""
    train = lpm.train

    def patched(features, head, cls, cfg):
        if isinstance(head, ExplicitHead):
            return train(features, head, cls, cfg)
        steps = itertools.count()
        softmax_terms = lpm._softmax_terms

        def diverging(*args):
            per_sample, exp, denom = softmax_terms(*args)
            if next(steps) == at_step:
                per_sample = np.full_like(per_sample, np.nan)
            return per_sample, exp, denom

        lpm._softmax_terms = diverging
        try:
            return train(features, head, cls, cfg)
        finally:
            lpm._softmax_terms = softmax_terms

    monkeypatch.setattr(lpm, "train", patched)


class TestParallelHeads:
    """head = both trains the deq head in a forked worker on two or more
    CPUs, and both heads in order on one."""

    @pytest.mark.parametrize("params", [BOTH_BALANCED, BOTH_IMBALANCED],
                             ids=["balanced", "imbalanced"])
    def test_matches_sequential_byte_for_byte(self, tmp_path, monkeypatch, params):
        cfg = config_from_dict(dict(params), name="pair")
        log = tmp_path / "pools.log"
        _log_pools(monkeypatch, log)
        dirs = {}
        for cpus in (2, 1):
            _set_cpus(monkeypatch, cpus)
            dirs[cpus] = tmp_path / f"cpus{cpus}"
            run_experiment(cfg, out_dir=dirs[cpus])
        # only the two-CPU run started a pool, a forking one
        assert _pool_log(log) == [f"{os.getpid()} fork"]

        assert compare_outputs.compare_trees(dirs[2], dirs[1]) == (7, [])
        if "k_a" in params:
            report = json.loads((dirs[2] / "report.json").read_text())
            assert report["condition_report"]["nc2_distance_deq"] > 0

    def test_worker_divergence_is_reraised_with_its_trace(self, tmp_path, monkeypatch):
        _diverge_deq_head(monkeypatch, at_step=9)
        cfg = config_from_dict(dict(BOTH_BALANCED), name="pair")
        errors = {}
        for cpus in (2, 1):
            _set_cpus(monkeypatch, cpus)
            with pytest.raises(TrainingDivergedError, match="step 10") as excinfo:
                run_experiment(cfg, out_dir=tmp_path / f"cpus{cpus}")
            errors[cpus] = excinfo.value
        # raised in the worker and unpickled in this process
        assert type(errors[2].__cause__).__name__ == "_RemoteTraceback"
        assert errors[1].__cause__ is None

        parallel, sequential = errors[2].trace, errors[1].trace
        assert [snap.step for snap in parallel.snapshots] == [0, 7]
        assert parallel.snapshots == sequential.snapshots
        assert parallel.loss_history.tobytes() == sequential.loss_history.tobytes()
        assert parallel.features.h0.tobytes() == sequential.features.h0.tobytes()
        # the explicit head finished; the run wrote no report
        assert (tmp_path / "cpus2/explicit/state_explicit.npz").is_file()
        assert not (tmp_path / "cpus2/report.json").exists()

        _set_cpus(monkeypatch, 2)
        path = _write_config(tmp_path, [f"{k} = {v}" for k, v in BOTH_BALANCED.items()])
        assert main(["run", str(path), "--out", str(tmp_path / "cli"), "--quiet"]) == 3

    def test_first_head_failure_is_raised_first(self, tmp_path, monkeypatch):
        def failing(features, head, cls, cfg):
            if isinstance(head, ExplicitHead):
                raise TrainingDivergedError("explicit head diverged")
            raise SolverConvergenceError("deq head did not converge")

        monkeypatch.setattr(lpm, "train", failing)
        log = tmp_path / "pools.log"
        _log_pools(monkeypatch, log)
        _set_cpus(monkeypatch, 2)
        cfg = config_from_dict(dict(BOTH_BALANCED))
        with pytest.raises(TrainingDivergedError, match="explicit"):
            run_experiment(cfg, out_dir=tmp_path / "run")
        assert _pool_log(log) == [f"{os.getpid()} fork"]
        path = _write_config(tmp_path, [f"{k} = {v}" for k, v in BOTH_BALANCED.items()])
        assert main(["run", str(path), "--out", str(tmp_path / "cli"), "--quiet"]) == 3

    def test_sweep_workers_start_no_pool(self, tmp_path, monkeypatch):
        for seed in (1, 2):
            _write_config(tmp_path, [f"{k} = {v}" for k, v in BOTH_BALANCED.items()
                                     if k != "seed"] + [f"seed = {seed}"],
                          name=f"s{seed}.cfg")
        log = tmp_path / "pools.log"
        _log_pools(monkeypatch, log)
        _set_cpus(monkeypatch, 2)
        merged = run_sweep(tmp_path, out_root=tmp_path / "out", max_workers=2)
        assert len(merged) == 2
        # the sweep's own pool forks; its workers train both heads in order
        assert _pool_log(log) == [f"{os.getpid()} fork"]
        assert (tmp_path / "out/s2/deq/trace.csv").is_file()


class TestHeadJobs:
    def test_every_head_trains_in_a_head_job(self, tmp_path, monkeypatch):
        # a rebound _sweep_worker sees every head of a run and of a sweep,
        # in this process and in forked pool workers alike
        log = tmp_path / "jobs.log"
        worker = harness._sweep_worker

        @functools.wraps(worker)
        def logged(job):
            with open(log, "a") as fh:
                fh.write(f"{job[0]} {job[3]}\n")
            return worker(job)

        monkeypatch.setattr(harness, "_sweep_worker", logged)
        configs = tmp_path / "configs"
        configs.mkdir()
        _write_config(configs, [f"{k} = {v}" for k, v in BOTH_BALANCED.items()], name="s.cfg")
        _write_config(configs, [f"{k} = {v}" for k, v in TINY.items()], name="t.cfg")
        expected = []
        for cpus in (1, 2):
            _set_cpus(monkeypatch, cpus)
            run_experiment(config_from_dict(dict(BOTH_BALANCED), name="pair"),
                           out_dir=tmp_path / f"run{cpus}")
            run_sweep(configs, out_root=tmp_path / f"sweep{cpus}", max_workers=cpus)
            expected += ["pair deq", "pair explicit", "s deq", "s explicit", "t explicit"]
        assert sorted(log.read_text().splitlines()) == sorted(expected)

    @pytest.mark.parametrize("head", ["explicit", "deq"])
    def test_a_head_job_builds_one_class_partition(self, tmp_path, monkeypatch, head):
        # the dataset's partition serves the initial and final class means
        # and training
        builds = []
        build = ClassPartition.build.__func__

        def counting(klass, *args, **kwargs):
            builds.append(args)
            return build(klass, *args, **kwargs)

        monkeypatch.setattr(ClassPartition, "build", classmethod(counting))
        cfg = config_from_dict(dict(BOTH_BALANCED), name="pair")
        harness._sweep_worker((cfg.name, cfg, tmp_path, head))
        assert len(builds) == 1

    def test_pool_takes_the_largest_job_first(self, tmp_path, monkeypatch):
        submitted = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def submit(self, fn, job):
                submitted.append(job[0])
                return super().submit(fn, job)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        # N x steps: 240, 720 and 810
        sizes = {"small": (4, 20), "long": (4, 60), "wide": (9, 30)}
        jobs = [job for name, (n, steps) in sizes.items() for job in harness._head_jobs(
            config_from_dict(dict(TINY, balanced_n=n, steps=steps), name=name), tmp_path / name)]
        results = harness._run_head_jobs(jobs, workers=2)
        assert submitted == ["wide", "long", "small"]
        # results come back in job order
        assert [result[0]["trace_path"] for result in results] == [
            str(tmp_path / name / "trace.csv") for name in sizes]

        # every job has a worker: the pool still takes them all, largest first
        submitted.clear()
        harness._run_head_jobs(jobs[:2], workers=2)
        assert submitted == ["long", "small"]

    def test_heads_from_different_h0_write_no_report(self, tmp_path):
        cfg = config_from_dict(dict(BOTH_BALANCED), name="pair")
        results = harness._run_head_jobs(harness._head_jobs(cfg, tmp_path), workers=1)
        results[1][0]["h0_init_sha256"] = "0" * 64
        with pytest.raises(AssertionError, match="same H0"):
            harness._finish_run(cfg, tmp_path, results, 0.0)
        assert not (tmp_path / "report.json").exists()


def test_write_trace_csv_validates(tmp_path):
    cfg = config_from_dict(dict(TINY))
    record_dir = tmp_path / "run"
    record_dir.mkdir()
    run_experiment(cfg, out_dir=record_dir)
    # re-write the trace from the same data must be byte-stable
    data = (record_dir / "trace.csv").read_bytes()
    assert data.startswith(b"step,loss,accuracy")
