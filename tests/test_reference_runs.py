import importlib.util
from pathlib import Path

from collapsekit.harness import load_config

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "reference_runs.py"
_spec = importlib.util.spec_from_file_location("reference_runs", _TOOL)
reference_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference_runs)


def test_every_config_loads(tmp_path):
    paths = reference_runs.write_configs(tmp_path)
    assert [p.stem for p in paths] == list(reference_runs.RUNS)
    for path in paths:
        cfg = load_config(path, preset=reference_runs.preset(path.stem))
        assert cfg.name == path.stem
        keys = dict(reference_runs.RUNS[path.stem])
        keys.pop("r", None)  # the config hashes n_b = n_a / r
        assert cfg.canonical_dict().items() >= keys.items()
