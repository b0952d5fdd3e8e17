"""README's library example runs as written and does what its comment
says, and its config example loads and names every config key."""

import re
from pathlib import Path

from collapsekit import harness
from collapsekit.harness import load_config

_README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = _README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_collapses():
    namespace = {}
    exec(compile(_library_example(), "README.md", "exec"), namespace)
    final = namespace["final"]
    # "all -> 0 on balanced data"
    assert max(final.nc1, final.nc2, final.nc3) < 1e-6


def test_config_example_loads_and_names_every_key(tmp_path):
    block = re.search(r"```ini\n(.*?)```", _README.read_text(), re.DOTALL).group(1)
    path = tmp_path / "balanced-demo.cfg"
    path.write_text(block)
    assert load_config(path).name == "balanced-demo"
    keys = {line.split("=", 1)[0].strip() for line in block.splitlines() if line.strip()}
    # the imbalanced layout's keys are named in the balanced_n comment
    assert keys | {"k_a", "k_b", "n_a", "r"} == set(harness._SCHEMA)
