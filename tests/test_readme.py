"""README's library example runs as written and does what its comment says."""

import re
from pathlib import Path

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
