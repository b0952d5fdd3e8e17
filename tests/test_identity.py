"""Output byte identity: the pinned set of tools/reference_runs.py must
reproduce the digests pinned in tests/data/identity.json."""

import json
from pathlib import Path

import reference_runs

MANIFEST = Path(__file__).resolve().parent / "data" / "identity.json"


def test_outputs_match_the_pinned_digests(tmp_path):
    pinned = json.loads(MANIFEST.read_text())
    # bytes are reproducible within one Python, numpy and BLAS build only
    current = reference_runs.environment()
    assert current == pinned["environment"], (
        f"{MANIFEST} was pinned under {pinned['environment']}, this is {current}"
    )
    files = reference_runs.digests(tmp_path)["files"]
    moved = sorted(path for path in files.keys() | pinned["files"].keys()
                   if files.get(path) != pinned["files"].get(path))
    assert not moved, f"outputs differ from {MANIFEST}: {moved}"
