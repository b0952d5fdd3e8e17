"""Output byte identity: a subset of the identity set (see
tools/identity_digests.py) must reproduce the digests pinned in
tests/data/identity.json."""

import importlib.util
import json
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "identity_digests.py"
_spec = importlib.util.spec_from_file_location("identity_digests", _TOOL)
identity_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity_digests)

MANIFEST = Path(__file__).resolve().parent / "data" / "identity.json"


def test_outputs_match_the_pinned_digests(tmp_path):
    pinned = json.loads(MANIFEST.read_text())
    # bytes are reproducible within one Python, numpy and BLAS build only
    current = identity_digests.environment()
    assert current == pinned["environment"], (
        f"{MANIFEST} was pinned under {pinned['environment']}, this is {current}"
    )
    files = identity_digests.digests(tmp_path / "out")["files"]
    moved = sorted(path for path in files.keys() | pinned["files"].keys()
                   if files.get(path) != pinned["files"].get(path))
    assert not moved, f"outputs differ from {MANIFEST}: {moved}"
