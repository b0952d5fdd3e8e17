import csv

import reference_runs
from collapsekit import lpm
from collapsekit.harness import load_config, run_experiment


def test_every_config_loads(tmp_path):
    paths = reference_runs.write_configs(tmp_path)
    assert [p.stem for p in paths] == list(reference_runs.RUNS)
    for path in paths:
        cfg = load_config(path, preset=reference_runs.preset(path.stem))
        assert cfg.name == path.stem
        keys = dict(reference_runs.RUNS[path.stem])
        keys.pop("r", None)  # the config hashes n_b = n_a / r
        assert cfg.canonical_dict().items() >= keys.items()


def test_deq_chunks_stops_blocks_apart_in_its_first_chunk(tmp_path):
    # deq-chunks is the set's only run whose Picard blocks of one snapshot
    # chunk stop at different iterations, so its bytes check per-block
    # stopping in the stacked diagnostic
    (path,) = [p for p in reference_runs.write_configs(tmp_path) if p.stem == "deq-chunks"]
    cfg = load_config(path, preset=reference_runs.preset(path.stem))
    run_experiment(cfg, out_dir=tmp_path / "out")
    chunk = lpm.SNAPSHOT_CHUNK_ELEMENTS // (cfg.d * cfg.labels().size)
    with (tmp_path / "out" / "trace.csv").open() as fh:
        iters = [row["solver_mean_iters"] for row in csv.DictReader(fh)][:chunk]
    assert len(iters) == chunk > 1
    assert len(set(iters)) >= 2


def test_refuses_an_out_that_holds_files(tmp_path, monkeypatch, capsys):
    # a file left by an earlier revision would be compared as if written now
    (tmp_path / "gram_samples.csv").write_text("stale\n")

    def no_child(out, name):
        raise AssertionError("the child ran")

    monkeypatch.setattr(reference_runs, "_child", no_child)
    assert reference_runs.main([str(tmp_path)]) == 2
    assert "not empty" in capsys.readouterr().err
    assert not (tmp_path / "configs").exists()
