"""Pin the output bytes of a small subset of the identity set as digests.

    python tools/identity_digests.py MANIFEST

runs the subset into a temporary directory and writes MANIFEST (the suite
checks tests/data/identity.json): the sha256 of every compared output file,
under tools/compare_outputs.py's rules, and the Python, numpy and BLAS
build it ran under. The subset takes entries of tools/reference_runs.py's
RUNS:
  * paper-defaults (both heads, imbalanced, the paper preset),
    deq-chunks (a Picard diagnostic over several snapshot chunks) and
    explicit-wide (d0 > d), each by `collapsekit run`;
  * `export-gram` of explicit-wide;
  * solver-skips and balanced-deq (the balanced layout) as one
    `sweep --workers 2`.
It runs in one child process with OPENBLAS_NUM_THREADS=1, so its bytes do
not depend on the BLAS thread count, and uses the collapsekit under src/
next to this tools/ directory. `--run OUT` runs the subset into OUT in
this process, as the child does, and exits with the first failing
command's exit code, or 0.

Re-pin only with a change that means to move output bytes, and say so in
CHANGES.md. tools/compare_outputs.py still checks the full identity set.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent
SRC = TOOLS.parent / "src"

RUN_NAMES = ("paper-defaults", "deq-chunks", "explicit-wide")
EXPORT_GRAM = ("explicit-wide",)
SWEEP_NAMES = ("solver-skips", "balanced-deq")


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_outputs = _tool("compare_outputs")
reference_runs = _tool("reference_runs")


def run_subset(out: Path) -> int:
    """Run the subset's commands into out, in this process; returns the
    first failing command's exit code, or 0."""
    from collapsekit.cli import main

    paths = {path.stem: path for path in reference_runs.write_configs(out / "configs")}
    commands = [["run", paths[name], "--out", out / name, "--quiet",
                 "--preset", reference_runs.preset(name)] for name in RUN_NAMES]
    commands += [["export-gram", out / name, "--quiet"] for name in EXPORT_GRAM]
    sweep_dir = out / "sweep-configs"
    sweep_dir.mkdir()
    for name in SWEEP_NAMES:
        (sweep_dir / paths[name].name).write_bytes(paths[name].read_bytes())
    commands.append(["sweep", sweep_dir, "--workers", 2, "--out", out / "sweep", "--quiet"])
    for command in commands:
        code = main([str(arg) for arg in command])
        if code:
            return code
    return 0


def environment() -> dict:
    """The Python, numpy and BLAS build that output bytes depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def digests(out: Path) -> dict:
    """Run the subset into out in one child process and return the manifest:
    environment and files (relative path -> sha256)."""
    done = subprocess.run([sys.executable, __file__, "--run", str(out)],
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"the subset exited {done.returncode}: {done.stderr}")
    return {"environment": environment(), "files": compare_outputs.tree_digests(out)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("manifest", type=Path, nargs="?", help="manifest file to write")
    parser.add_argument("--run", type=Path, metavar="OUT",
                        help="run the subset into OUT (created) in this process")
    args = parser.parse_args(argv)
    if args.run is not None:
        sys.path.insert(0, str(SRC))
        args.run.mkdir(parents=True)
        return run_subset(args.run)
    if args.manifest is None:
        parser.error("give MANIFEST or --run OUT")
    with tempfile.TemporaryDirectory() as tmp:
        manifest = digests(Path(tmp) / "out")
    args.manifest.parent.mkdir(parents=True, exist_ok=True)
    args.manifest.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"{args.manifest}: {len(manifest['files'])} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
