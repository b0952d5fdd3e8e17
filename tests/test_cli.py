import json

import numpy as np
import pytest

from collapsekit.cli import main
from collapsekit.errors import SingularMatrixError


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

    def test_paper_preset(self, tmp_path):
        cfg = _write(tmp_path, "demo.cfg", _cfg_lines())
        out = tmp_path / "paper"
        assert main(["run", str(cfg), "--out", str(out), "--quiet", "--preset", "paper"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["heads"]["explicit"]["final_loss"] > 0


class TestChecks:
    def test_etf_check_pass(self, capsys):
        assert main(["etf-check", "--k", "5", "--d", "8", "--alpha", "1.5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_bound_check(self, capsys):
        assert main(["bound-check", "--k", "4", "--ew", "1.0", "--eh", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "ordering deq <= explicit: True" in out

    def test_bound_check_custom_ratio(self, capsys):
        assert main(["bound-check", "--k", "3", "--ew", "0.5", "--eh", "0.5",
                     "--ratio", "2.0"]) == 0
        assert "c2/c1 = 2" in capsys.readouterr().out

    def test_lemma_fuzz(self, capsys):
        assert main(["lemma-fuzz", "--draws", "500", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "violations: 0" in out


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

    def test_missing_state_exit_2(self, tmp_path, capsys):
        assert main(["export-gram", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep(self, tmp_path):
        _write(tmp_path, "one.cfg", _cfg_lines(seed=1))
        _write(tmp_path, "two.cfg", _cfg_lines(seed=2))
        out = tmp_path / "runs"
        assert main(["sweep", str(tmp_path), "--out", str(out), "--quiet", "--workers", "2"]) == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert len(summary) == 2


def test_divergence_exit_code(tmp_path, capsys, monkeypatch):
    # a run whose training diverges maps to exit 3
    def explode(cfg, out_dir=None, quiet=True):
        from collapsekit.errors import DivergenceError

        raise DivergenceError("sigma_max >= 1")

    monkeypatch.setattr("collapsekit.cli.harness.run_experiment", explode)
    cfg = _write(tmp_path, "demo.cfg", _cfg_lines(head="deq"))
    assert main(["run", str(cfg)]) == 3
    assert "diverged" in capsys.readouterr().err


def test_solver_convergence_exit_code(tmp_path, capsys, monkeypatch):
    # a non-converged solve under an error policy maps to exit 4
    def stuck(cfg, out_dir=None, quiet=True):
        from collapsekit.errors import SolverConvergenceError

        raise SolverConvergenceError("fixed point not reached")

    monkeypatch.setattr("collapsekit.cli.harness.run_experiment", stuck)
    cfg = _write(tmp_path, "demo.cfg", _cfg_lines(head="deq", on_failure="error"))
    assert main(["run", str(cfg)]) == 4
    assert "converge" in capsys.readouterr().err


def test_artifact_error_exit_code(tmp_path, capsys, monkeypatch):
    # a failed artifact write or self-validation maps to exit 5
    def unwritable(cfg, out_dir=None, quiet=True):
        raise OSError("self-validation failed re-reading trace.csv")

    monkeypatch.setattr("collapsekit.cli.harness.run_experiment", unwritable)
    cfg = _write(tmp_path, "demo.cfg", _cfg_lines())
    assert main(["run", str(cfg)]) == 5
    assert "artifact error" in capsys.readouterr().err


@pytest.mark.parametrize("error", [SingularMatrixError, np.linalg.LinAlgError])
def test_linear_algebra_exit_code(tmp_path, capsys, monkeypatch, error):
    # a singular solve or a failed numpy factorization maps to exit 6
    def singular(cfg, out_dir=None, quiet=True):
        raise error("matrix is singular")

    monkeypatch.setattr("collapsekit.cli.harness.run_experiment", singular)
    cfg = _write(tmp_path, "demo.cfg", _cfg_lines())
    assert main(["run", str(cfg)]) == 6
    assert "linear algebra error" in capsys.readouterr().err
