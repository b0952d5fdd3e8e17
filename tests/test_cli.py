import csv
import functools
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from collapsekit import harness
from collapsekit.cli import main
from collapsekit.errors import SingularMatrixError

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _cfg_lines(**overrides):
    base = {
        "head": "explicit", "k": 3, "d0": 6, "d": 6,
        "balanced_n": 4, "steps": 20, "log_every": 10, "seed": 0,
    }
    base.update(overrides)
    return [f"{k} = {v}" for k, v in base.items()]


def _write(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestRunCommand:
    def test_run_writes_artifacts(self, tmp_path, capsys):
        cfg = _write(tmp_path, "demo.cfg", _cfg_lines())
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert (out / "trace.csv").is_file()
        assert "demo" in capsys.readouterr().out

    def test_seed_override(self, tmp_path):
        cfg = _write(tmp_path, "demo.cfg", _cfg_lines())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", str(cfg), "--out", str(out_a), "--quiet"])
        main(["run", str(cfg), "--out", str(out_b), "--quiet", "--seed", "9"])
        assert (out_a / "trace.csv").read_bytes() != (out_b / "trace.csv").read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = _write(tmp_path, "bad.cfg", ["head = explicit", "k = 3"])
        assert main(["run", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["name", "output_dir"])
    def test_nul_byte_in_a_path_exits_2(self, tmp_path, monkeypatch, capsys, key):
        # no file system takes a NUL byte in a path
        cfg = _write(tmp_path, "nul.cfg", _cfg_lines(steps=5, **{key: "a\0b"}))
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(cfg), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["nul.cfg"]

    @pytest.mark.parametrize("head, d0, d", [("deq", 20, 12), ("both", 20, 12),
                                             ("explicit", 12, 20)])
    def test_head_dimension_mismatch_is_a_config_error(self, tmp_path, capsys, head, d0, d):
        lines = _cfg_lines(head=head, k=5, d0=d0, d=d)
        out = tmp_path / "out"
        assert main(["run", str(_write(tmp_path, "dims.cfg", lines)), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    # one Picard step cannot reach epsilon = 1e-12, so every snapshot's
    # diagnostic solve leaves all N columns unconverged
    UNCONVERGED = dict(t_max=1, epsilon=1e-12)

    @pytest.mark.parametrize("head", ["deq", "both"])
    def test_error_policy_exits_4(self, tmp_path, capsys, head):
        lines = _cfg_lines(head=head, on_failure="error", **self.UNCONVERGED)
        out = tmp_path / "out"
        assert main(["run", str(_write(tmp_path, "stuck.cfg", lines)), "--out", str(out)]) == 4
        assert "solver did not converge" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_failed_run_leaves_no_earlier_report(self, tmp_path):
        lines = _cfg_lines(head="both", k=3, balanced_n=5)
        out = tmp_path / "out"
        assert main(["run", str(_write(tmp_path, "ok.cfg", lines)), "--out", str(out),
                     "--quiet"]) == 0
        assert (out / "report.json").exists()
        bad = _write(tmp_path, "bad.cfg", lines + ["learning_rate = 1e308"])
        assert main(["run", str(bad), "--out", str(out), "--quiet"]) == 3
        assert not (out / "report.json").exists()

    def test_skip_policy_counts_every_column(self, tmp_path):
        lines = _cfg_lines(head="deq", on_failure="skip", **self.UNCONVERGED)
        out = tmp_path / "out"
        assert main(["run", str(_write(tmp_path, "stuck.cfg", lines)), "--out", str(out),
                     "--quiet"]) == 0
        with (out / "trace.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["step"] for row in rows] == ["0", "10", "20"]
        assert all(row["solver_skip_count"] == "12" for row in rows)  # N = 3 x 4

    def test_paper_preset(self, tmp_path):
        cfg = _write(tmp_path, "demo.cfg", _cfg_lines())
        out = tmp_path / "paper"
        assert main(["run", str(cfg), "--out", str(out), "--quiet", "--preset", "paper"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["heads"]["explicit"]["final_loss"] > 0

    @pytest.mark.parametrize("e_h", [0.5, 1.0])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_prints_one_line_per_head(self, tmp_path, capsys, monkeypatch, cpus, e_h):
        # two CPUs train the deq head in a forked worker; the lines keep head order
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        lines = _cfg_lines(head="both", k=4, k_a=2, k_b=2, n_a=10, r=5, steps=60,
                           e_h=e_h, feature_budget=0.5, seed=3)
        lines.remove("balanced_n = 4")
        cfg = _write(tmp_path, "pair.cfg", lines)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("run pair: hash ")
        assert [line.split()[0] for line in out[1:]] == ["explicit:", "deq:", "conditions:"]
        note = json.loads((tmp_path / "out" / "report.json").read_text())["condition_note"]
        if e_h >= 1.0:
            # no comparison at e_h >= 1: the line says why
            assert out[-1] == f"  conditions: {note}"
            assert note.startswith("e_h >= 1")
        else:
            assert note is None


class TestChecks:
    def test_etf_check_pass(self, capsys):
        assert main(["etf-check", "--k", "5", "--d", "8", "--alpha", "1.5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_bound_check(self, capsys):
        assert main(["bound-check", "--k", "4", "--ew", "1.0", "--eh", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "ordering deq <= explicit: True" in out

    def test_bound_check_prints_the_tight_floors(self, capsys):
        assert main(["bound-check", "--k", "4", "--ew", "1.0", "--eh", "1.0"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "constants: c2/c1 = 0.790791  m1 = 0.441588  m2 = -1.17144",
            "explicit-head loss floor: 0.5826576531",
            "equilibrium-head loss floor: -0.0061259116",
            "ordering deq <= explicit: True",
        ]

    def test_bound_check_custom_ratio(self, capsys):
        assert main(["bound-check", "--k", "3", "--ew", "0.5", "--eh", "0.5",
                     "--ratio", "2.0"]) == 0
        assert "c2/c1 = 2" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["bound-check", "--k", "1", "--ew", "1", "--eh", "1"],
        ["bound-check", "--k", "4", "--ew", "-1", "--eh", "1"],
        ["bound-check", "--k", "4", "--ew", "1", "--eh", "1", "--ratio", "0"],
        # the tight ratio (K - 1) exp(-gap) underflows to 0
        ["bound-check", "--k", "4", "--ew", "1e6", "--eh", "1"],
        # c3 = c2 / ((K - 1)(c1 + c2)) underflows to 0
        ["bound-check", "--k", "10", "--ew", "1", "--eh", "1", "--ratio", "5e-324"],
        ["etf-check", "--k", "1", "--d", "4"],
        ["etf-check", "--k", "4", "--d", "2"],
        ["etf-check", "--k", "4", "--d", "6", "--alpha", "nan"],
        ["etf-check", "--k", "4", "--d", "6", "--alpha", "inf"],
        ["lemma-fuzz", "--draws", "0"],
        ["lemma-fuzz", "--draws", "-5"],
        ["sweep", "{dir}", "--workers", "0"],
        ["run", "{dir}/one.cfg", "--seed", "-1"],
        ["lemma-fuzz", "--seed", "-1"],
        ["sweep", "{dir}", "--write-grid", "--seed", "-1"],
    ], ids=["bound-k1", "bound-ew-negative", "bound-ratio-0", "bound-ratio-underflow",
            "bound-c3-underflow", "etf-k1", "etf-d-below-k",
            "etf-alpha-nan", "etf-alpha-inf",
            "fuzz-draws-0", "fuzz-draws-negative", "sweep-workers-0", "run-seed-negative",
            "fuzz-seed-negative", "sweep-grid-seed-negative"])
    def test_bad_values_exit_2(self, tmp_path, capsys, argv):
        _write(tmp_path, "one.cfg", _cfg_lines())
        out = tmp_path / "runs"
        argv = [arg.format(dir=tmp_path) for arg in argv]
        assert main(argv + (["--out", str(out)] if argv[0] in ("run", "sweep") else [])) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
        assert "PASS" not in captured.out
        assert not out.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["one.cfg"]

    def test_lemma_fuzz(self, capsys):
        assert main(["lemma-fuzz", "--draws", "500", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "violations: 0" in out

    @pytest.mark.parametrize("module", ["collapsekit", "collapsekit.cli"])
    def test_module_entry_points(self, module):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-m", module, "lemma-fuzz", "--draws", "5"],
                              env=env, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines()[-1] == "PASS"


class TestExportGram:
    def test_reexport(self, tmp_path):
        cfg = _write(tmp_path, "demo.cfg", _cfg_lines())
        out = tmp_path / "out"
        main(["run", str(cfg), "--out", str(out), "--quiet"])
        assert not (out / "gram_samples.csv").exists()
        assert main(["export-gram", str(out)]) == 0
        assert (out / "gram_samples.csv").is_file()

    def test_reexport_both_heads(self, tmp_path, capsys):
        cfg = _write(tmp_path, "demo.cfg", _cfg_lines(head="both", e_h=0.5))
        out = tmp_path / "out"
        main(["run", str(cfg), "--out", str(out), "--quiet"])
        assert main(["export-gram", str(out)]) == 0
        printed = capsys.readouterr().out
        for head in ("explicit", "deq"):
            assert (out / head / "gram_samples.csv").is_file()
            assert str(out / head / "gram_samples.csv") in printed

    def test_quiet_writes_and_prints_nothing(self, tmp_path, capsys):
        cfg = _write(tmp_path, "demo.cfg", _cfg_lines(head="both", e_h=0.5))
        out = tmp_path / "out"
        main(["run", str(cfg), "--out", str(out), "--quiet"])
        assert main(["export-gram", str(out), "--quiet"]) == 0
        assert capsys.readouterr() == ("", "")
        for head in ("explicit", "deq"):
            assert (out / head / "gram_samples.csv").is_file()

    def test_missing_state_exit_2(self, tmp_path, capsys):
        assert main(["export-gram", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    @staticmethod
    def _damage_state(state, how):
        if how == "truncated":
            state.write_bytes(state.read_bytes()[:-30])
            return
        with np.load(state) as saved:
            arrays = {key: saved[key] for key in saved.files}
        labels = arrays["labels"]  # 12 class-sorted labels of 3 classes
        if how == "missing-array":  # a state without its h array
            del arrays["h"]
        elif how == "short-labels":  # labels for 5 of the 12 columns of h
            arrays["labels"] = labels[:5]
        elif how == "empty-class":  # class 1 relabeled 2: no sample left in 1
            arrays["labels"] = np.where(labels == 1, 2, labels)
        elif how == "empty-top-class":  # class 2 relabeled 1: no sample left in 2
            arrays["labels"] = np.where(labels == 2, 1, labels)
        elif how == "missing-k":  # a state without its class count
            del arrays["k"]
        elif how == "flat-h":  # h flattened to 1-D
            arrays["h"] = arrays["h"].ravel()
        elif how == "two-k":  # a k that is not one integer
            arrays["k"] = np.array([3, 3])
        elif how == "nan-h":  # a NaN entry in h
            arrays["h"][0, 0] = np.nan
        elif how == "float-labels":  # fractional labels that truncate to the saved ones
            arrays["labels"] = labels + np.array([0, 0.9, 0.3, 0.6] * 3)
        elif how == "huge-k":  # far more classes than the 12 samples
            arrays["k"] = np.array(100000)
        else:  # a negative label
            arrays["labels"] = np.where(np.arange(labels.size) == 1, -1, labels)
        np.savez(state, **arrays)

    @pytest.mark.parametrize(
        "how", ["truncated", "missing-array", "short-labels", "empty-class", "negative-label",
                "empty-top-class", "missing-k", "flat-h", "two-k", "nan-h", "float-labels",
                "huge-k"]
    )
    def test_bad_state_exit_2(self, tmp_path, capsys, how):
        cfg = _write(tmp_path, "demo.cfg", _cfg_lines())
        out = tmp_path / "out"
        main(["run", str(cfg), "--out", str(out), "--quiet"])
        means = (out / "gram_class_means.csv").read_bytes()
        self._damage_state(out / "state_explicit.npz", how)
        assert main(["export-gram", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "state_explicit.npz" in err
        assert not (out / "gram_samples.csv").exists()
        assert (out / "gram_class_means.csv").read_bytes() == means
        if how == "empty-top-class":
            assert "empty: [2]" in err
        if how == "huge-k":
            assert len(err) < 300

    def test_unreadable_state_exit_5(self, tmp_path, capsys):
        # a directory named like a state file: np.load raises an OSError
        (tmp_path / "state_explicit.npz").mkdir()
        assert main(["export-gram", str(tmp_path)]) == 5
        assert "artifact error" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep(self, tmp_path):
        _write(tmp_path, "one.cfg", _cfg_lines(seed=1))
        _write(tmp_path, "two.cfg", _cfg_lines(seed=2))
        out = tmp_path / "runs"
        assert main(["sweep", str(tmp_path), "--out", str(out), "--quiet", "--workers", "2"]) == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert len(summary) == 2

    def test_failed_config_sets_exit_code_after_summary(self, tmp_path, capsys):
        _write(tmp_path, "one.cfg", _cfg_lines(seed=1))
        _write(tmp_path, "two.cfg", _cfg_lines(head="deq", d0=8))
        out = tmp_path / "runs"
        assert main(["sweep", str(tmp_path), "--out", str(out), "--quiet", "--workers", "2"]) == 2
        assert "config error" in capsys.readouterr().err
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary.pop("two.cfg")["error"] == "ConfigError"
        assert [record["name"] for record in summary.values()] == ["one"]
        assert (out / "one/trace.csv").is_file()

    def test_same_outputs_in_process_and_pooled(self, tmp_path):
        configs = tmp_path / "configs"
        configs.mkdir()
        for seed in (1, 2):
            _write(configs, f"s{seed}.cfg", _cfg_lines(head="both", e_h=0.5, seed=seed))
        _write(configs, "wide.cfg", _cfg_lines(balanced_n=9, steps=30))
        for workers in (1, 2):
            assert main(["sweep", str(configs), "--out", str(tmp_path / f"w{workers}"),
                         "--quiet", "--workers", str(workers)]) == 0
        count, differ = compare_outputs.compare_trees(tmp_path / "w1", tmp_path / "w2")
        assert (count, differ) == (19, [])

    def test_failed_deq_head_exits_4_and_spares_the_rest(self, tmp_path, capsys):
        clean, mixed = tmp_path / "clean", tmp_path / "mixed"
        for config_dir in (clean, mixed):
            config_dir.mkdir()
            for seed in (1, 2):
                _write(config_dir, f"s{seed}.cfg", _cfg_lines(head="both", e_h=0.5, seed=seed))
        _write(mixed, "stuck.cfg", _cfg_lines(head="both", e_h=0.5, on_failure="error",
                                              **TestRunCommand.UNCONVERGED))
        runs = {}
        for config_dir, code in ((clean, 0), (mixed, 4)):
            runs[config_dir] = tmp_path / f"{config_dir.name}_out"
            assert main(["sweep", str(config_dir), "--out", str(runs[config_dir]), "--quiet",
                         "--workers", "2"]) == code
        assert "solver did not converge" in capsys.readouterr().err

        summary = json.loads((runs[mixed] / "sweep_summary.json").read_text())
        failed = summary.pop("stuck.cfg")
        assert (failed["name"], failed["error"]) == ("stuck", "SolverConvergenceError")
        assert (runs[mixed] / "stuck/explicit/state_explicit.npz").is_file()
        assert not (runs[mixed] / "stuck/report.json").exists()
        clean_summary = json.loads((runs[clean] / "sweep_summary.json").read_text())
        assert compare_outputs._drop_timing(summary) == compare_outputs._drop_timing(clean_summary)

    def test_write_grid(self, tmp_path, capsys, monkeypatch):
        # the grid at 2 steps per config instead of 3000
        monkeypatch.setattr(harness, "write_imbalance_grid",
                            functools.partial(harness.write_imbalance_grid, steps=2))
        configs, out = tmp_path / "grid", tmp_path / "runs"
        assert main(["sweep", str(configs), "--write-grid", "--seed", "3", "--workers", "1",
                     "--out", str(out)]) == 0
        paths = sorted(configs.glob("*.cfg"))
        assert len(paths) == 9
        assert all("seed = 3" in path.read_text().splitlines() for path in paths)
        printed = capsys.readouterr().out
        assert f"wrote 9 grid configs to {configs}" in printed
        assert "sweep finished: 9 runs merged into sweep_summary.json" in printed
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert len(summary) == 9
        assert {record["seed"] for record in summary.values()} == {3}

    @pytest.mark.parametrize("out_flag", [True, False], ids=["out", "output_dir"])
    def test_shared_run_directory_exits_2(self, tmp_path, capsys, out_flag):
        configs = tmp_path / "configs"
        configs.mkdir()
        for name, seed in (("a", 1), ("b", 2), ("c", 1)):
            lines = _cfg_lines(seed=seed) + ["name = same"]
            if not out_flag:
                lines.append(f"output_dir = {tmp_path / 'runs' / 'same'}")
            _write(configs, f"{name}.cfg", lines)
        argv = ["sweep", str(configs), "--quiet"]
        if out_flag:
            argv += ["--out", str(tmp_path / "runs")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert str(configs / "a.cfg") in err and str(configs / "b.cfg") in err
        assert not (tmp_path / "runs").exists()
        assert not (configs / "sweep_summary.json").exists()


def test_divergence_exit_code(tmp_path, capsys, monkeypatch):
    # a run whose training diverges maps to exit 3
    def explode(cfg, out_dir=None):
        from collapsekit.errors import DivergenceError

        raise DivergenceError("sigma_max >= 1")

    monkeypatch.setattr("collapsekit.cli.harness.run_experiment", explode)
    cfg = _write(tmp_path, "demo.cfg", _cfg_lines(head="deq"))
    assert main(["run", str(cfg)]) == 3
    assert "diverged" in capsys.readouterr().err


def test_overflowing_update_exits_3(tmp_path, capsys):
    # a finite learning rate whose first update overflows the ball functionals
    lines = _cfg_lines(balanced_n=5, d0=4, d=4, learning_rate=1e308)
    cfg = _write(tmp_path, "demo.cfg", lines)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "diverged" in err and "step 1" in err


def test_solver_convergence_exit_code(tmp_path, capsys, monkeypatch):
    # a non-converged solve under an error policy maps to exit 4
    def stuck(cfg, out_dir=None):
        from collapsekit.errors import SolverConvergenceError

        raise SolverConvergenceError("fixed point not reached")

    monkeypatch.setattr("collapsekit.cli.harness.run_experiment", stuck)
    cfg = _write(tmp_path, "demo.cfg", _cfg_lines(head="deq", on_failure="error"))
    assert main(["run", str(cfg)]) == 4
    assert "converge" in capsys.readouterr().err


def test_artifact_error_exit_code(tmp_path, capsys, monkeypatch):
    # a failed artifact write or self-validation maps to exit 5
    def unwritable(cfg, out_dir=None):
        raise OSError("self-validation failed re-reading trace.csv")

    monkeypatch.setattr("collapsekit.cli.harness.run_experiment", unwritable)
    cfg = _write(tmp_path, "demo.cfg", _cfg_lines())
    assert main(["run", str(cfg)]) == 5
    assert "artifact error" in capsys.readouterr().err


def test_failed_trace_write_exits_5(tmp_path, capsys):
    # a directory stands where trace.csv goes, so opening it for writing fails
    out = tmp_path / "out"
    (out / "trace.csv").mkdir(parents=True)
    cfg = _write(tmp_path, "demo.cfg", _cfg_lines())
    assert main(["run", str(cfg), "--out", str(out)]) == 5
    assert f"artifact error: while writing {out / 'trace.csv'}" in capsys.readouterr().err


def test_bytes_that_change_before_the_re_read_exit_5(tmp_path, capsys, monkeypatch):
    # the trace file is altered between its write and its re-read
    file_sha256 = harness._file_sha256

    def tampered(path):
        path.write_bytes(path.read_bytes().replace(b"step", b"stop"))
        return file_sha256(path)

    monkeypatch.setattr(harness, "_file_sha256", tampered)
    out = tmp_path / "out"
    cfg = _write(tmp_path, "demo.cfg", _cfg_lines())
    assert main(["run", str(cfg), "--out", str(out)]) == 5
    err = capsys.readouterr().err
    assert f"artifact error: self-validation failed re-reading {out / 'trace.csv'}" in err


@pytest.mark.parametrize("error", [SingularMatrixError, np.linalg.LinAlgError])
def test_linear_algebra_exit_code(tmp_path, capsys, monkeypatch, error):
    # a singular solve or a failed numpy factorization maps to exit 6
    def singular(cfg, out_dir=None):
        raise error("matrix is singular")

    monkeypatch.setattr("collapsekit.cli.harness.run_experiment", singular)
    cfg = _write(tmp_path, "demo.cfg", _cfg_lines())
    assert main(["run", str(cfg)]) == 6
    assert "linear algebra error" in capsys.readouterr().err
