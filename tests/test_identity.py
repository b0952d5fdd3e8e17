"""Output byte identity: the pinned set of tools/reference_runs.py must
reproduce the digests pinned in tests/data/identity.json, and so must one of
its runs through the program entry, `python -m collapsekit run`."""

import json
import os
import subprocess
import sys
from pathlib import Path

import compare_outputs
import reference_runs

MANIFEST = Path(__file__).resolve().parent / "data" / "identity.json"


def _pinned() -> dict:
    pinned = json.loads(MANIFEST.read_text())
    # bytes are reproducible within one Python, numpy and BLAS build only
    current = reference_runs.environment()
    assert current == pinned["environment"], (
        f"{MANIFEST} was pinned under {pinned['environment']}, this is {current}"
    )
    return pinned


def test_outputs_match_the_pinned_digests(tmp_path):
    pinned = _pinned()
    files = reference_runs.digests(tmp_path)["files"]
    moved = sorted(path for path in files.keys() | pinned["files"].keys()
                   if files.get(path) != pinned["files"].get(path))
    assert not moved, f"outputs differ from {MANIFEST}: {moved}"


def test_program_entry_reproduces_a_pinned_run(tmp_path):
    # the pinned set runs in-process through cli.main; this run goes through
    # the program entry in a fresh interpreter, as the command line does
    name = "deq-chunks"
    prefix = f"{name}/"
    expected = {path.removeprefix(prefix): digest
                for path, digest in _pinned()["files"].items() if path.startswith(prefix)}
    (config,) = reference_runs.write_configs(tmp_path / "configs", [name])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(reference_runs.SRC),
                                                      env.get("PYTHONPATH"))))
    out = tmp_path / name
    subprocess.run([sys.executable, "-m", "collapsekit", "run", str(config), "--out", str(out),
                    "--quiet", "--preset", reference_runs.preset(name)], env=env, check=True)
    assert expected and compare_outputs.tree_digests(out) == expected
