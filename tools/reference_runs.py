"""Write and run collapsekit's output-identity sets: the full set, and a
pinned subset whose output digests the suite checks.

    python tools/reference_runs.py OUT
    python tools/reference_runs.py --pin MANIFEST

The full set: each entry of RUNS runs into OUT/<name> under its preset
(PRESETS, else desk), and `export-gram` then writes the sample Grams of the
runs in EXPORT_GRAM. Then `sweep --write-grid --seed 6` writes the nine
imbalance-grid configs to OUT/grid-configs and runs their head jobs on a
two-worker pool into OUT/grid, and the same grid runs again in-process
(`--workers 1`) into OUT/grid-serial. Run it at two revisions into two
fresh directories and compare the trees with

    python tools/compare_outputs.py OUT_A OUT_B

An OUT that already holds files is refused (exit 2) before anything is
written: a file left by an earlier revision would be compared as if this
one had written it. Else exits with the first failing command's exit code,
or 0.

The pinned set runs the RUNS entries in PINNED_RUNS, `export-gram` of
PINNED_EXPORT_GRAM, and PINNED_SWEEP's configs as one `sweep --workers 2`
into OUT/sweep. `--pin MANIFEST` runs it into a temporary directory and
writes MANIFEST (the suite checks tests/data/identity.json): the sha256 of
every compared output file, under tools/compare_outputs.py's rules, and the
Python, numpy and BLAS build it ran under. Re-pin only with a change that
means to move output bytes, and say so in CHANGES.md.

Either set runs in one child process (`--child SET OUT`) started with
OPENBLAS_NUM_THREADS=1, so its bytes do not depend on the BLAS thread count,
and with the collapsekit under src/ next to this tools/ directory first on
its path. Each of its config files is written to OUT/configs (the sweeps'
to their own directories), and each command runs in that child through
collapsekit.cli.main.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import compare_outputs  # beside this file, so on the path of a script run from it

TOOL = Path(__file__).resolve()
SRC = TOOL.parents[1] / "src"

_DESK = {"learning_rate": 0.05, "momentum": 0.9, "e_w": 1.0}

# name -> config keys; every run takes one command
RUNS = {
    # the benchmark's dense-trace workload: both heads, a snapshot every 2 steps
    "dense-trace": dict(
        _DESK, head="both", k=10, d0=16, d=16, balanced_n=20, steps=2000,
        e_h=1.0, feature_budget=1.0, log_every=2, seed=7,
    ),
    # the benchmark's wide-imbalance workload: explicit head, N = 1535
    "wide-imbalance": dict(
        _DESK, head="explicit", k=10, d0=16, d=16, k_a=3, k_b=7, n_a=500, r=100,
        steps=2000, e_h=1.0, feature_budget=1.0, log_every=500, seed=11,
    ),
    # criterion 08's imbalanced head comparison
    "criterion-08": dict(
        _DESK, head="both", k=4, d0=16, d=16, k_a=2, k_b=2, n_a=100, r=50,
        steps=8000, e_h=0.5, feature_budget=0.5, log_every=2000, seed=3,
    ),
    # the equilibrium head alone, balanced, snapshots off the step grid
    "balanced-deq": dict(
        _DESK, head="deq", k=4, d0=16, d=16, balanced_n=30, steps=2000,
        e_h=0.5, feature_budget=1.0, log_every=7, seed=0,
    ),
    # explicit head with d0 > d: the pseudo-inverse preimage
    "explicit-wide": dict(
        _DESK, head="explicit", k=5, d0=20, d=12, k_a=2, k_b=3, n_a=40, r=10,
        steps=1500, e_h=1.0, feature_budget=1.0, log_every=3, seed=0,
    ),
    # a Picard diagnostic that cannot converge in t_max = 2: every snapshot
    # records skipped columns under on_failure = skip
    "solver-skips": dict(
        _DESK, head="deq", k=4, d0=16, d=16, balanced_n=10, steps=300,
        e_h=0.5, feature_budget=0.5, log_every=7, epsilon=1e-9, t_max=2,
        on_failure="skip", seed=1,
    ),
    # the deq head's Picard diagnostic over several snapshot chunks (61
    # snapshots: chunks of 17, 17, 17 and 10); epsilon lies among the
    # snapshots' third-iteration residuals, so states stop after 3 or 4
    # iterations, both within the first chunk
    "deq-chunks": dict(
        _DESK, head="deq", k=4, d0=16, d=16, balanced_n=30, steps=600,
        e_h=0.5, feature_budget=0.5, log_every=10, epsilon=1.5e-3, seed=2,
    ),
    # the paper preset and every default: only the required keys are given
    "paper-defaults": dict(head="both", k=4, k_a=2, k_b=2, n_a=20, r=4,
                           steps=400, log_every=50),
}

# name -> --preset of the runs not under the desk preset
PRESETS = {"paper-defaults": "paper"}

# runs whose sample Grams `export-gram` writes; wide-imbalance's 1535 x 1535
# CSV would take most of the tool's time
EXPORT_GRAM = ("criterion-08", "balanced-deq", "explicit-wide")

GRID_SEED = 6

# the pinned set: both heads, both layouts, d0 > d, the paper preset, a
# Picard diagnostic over several snapshot chunks and a short sweep
PINNED_RUNS = ("paper-defaults", "deq-chunks", "explicit-wide")
PINNED_EXPORT_GRAM = ("explicit-wide",)
PINNED_SWEEP = ("solver-skips", "balanced-deq")


def write_configs(config_dir, names=RUNS) -> list:
    """Write one <name>.cfg per named RUNS entry; returns their paths."""
    config_dir = Path(config_dir)
    config_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name in names:
        lines = [f"name = {name}"] + [f"{key} = {value}" for key, value in RUNS[name].items()]
        path = config_dir / f"{name}.cfg"
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
    return paths


def preset(name: str) -> str:
    """The --preset a RUNS entry runs under."""
    return PRESETS.get(name, "desk")


def run_set(out: Path, name: str) -> int:
    """Run the "full" or the "pinned" set into out in this process, through
    collapsekit.cli.main; returns the first failing command's exit code, or 0."""
    from collapsekit.cli import main

    pinned = name == "pinned"
    runs, grams = (PINNED_RUNS, PINNED_EXPORT_GRAM) if pinned else (RUNS, EXPORT_GRAM)
    commands = [["run", path, "--out", out / path.stem, "--quiet", "--preset", preset(path.stem)]
                for path in write_configs(out / "configs", runs)]
    commands += [["export-gram", out / name, "--quiet"] for name in grams]
    if pinned:
        write_configs(out / "sweep-configs", PINNED_SWEEP)
        commands.append(["sweep", out / "sweep-configs", "--workers", 2, "--out", out / "sweep",
                         "--quiet"])
    else:
        grid = ["sweep", out / "grid-configs", "--seed", GRID_SEED, "--quiet"]
        commands += [grid + ["--write-grid", "--workers", 2, "--out", out / "grid"],
                     grid + ["--workers", 1, "--out", out / "grid-serial"]]
    for command in commands:
        command = [str(arg) for arg in command]
        print("collapsekit", *command, flush=True)
        code = main(command)
        if code:
            return code
    return 0


def _child(out: Path, name: str) -> int:
    """Run the named set into the directory out in one child process;
    returns its exit code."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    command = [sys.executable, TOOL, "--child", name, out]
    return subprocess.run(command, cwd=out, env=env).returncode


def environment() -> dict:
    """The Python, numpy and BLAS build that output bytes depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def digests(out: Path) -> dict:
    """Run the pinned set into the empty directory out and return its
    manifest: environment and files (relative path -> sha256)."""
    code = _child(out, "pinned")
    if code:
        raise RuntimeError(f"the pinned set exited {code}")
    return {"environment": environment(), "files": compare_outputs.tree_digests(out)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, nargs="?", help="output directory (created; must be empty)")
    parser.add_argument("--pin", type=Path, metavar="MANIFEST",
                        help="run the pinned set and write its digests to MANIFEST")
    parser.add_argument("--child", choices=("full", "pinned"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return run_set(args.out, args.child)
    if args.pin:
        with tempfile.TemporaryDirectory() as tmp:
            manifest = digests(Path(tmp))
        args.pin.parent.mkdir(parents=True, exist_ok=True)
        args.pin.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        print(f"{args.pin}: {len(manifest['files'])} files")
        return 0
    if args.out is None:
        parser.error("give OUT or --pin MANIFEST")
    out = args.out.resolve()
    if out.is_dir() and any(out.iterdir()):
        print(f"{out} is not empty; give a fresh directory", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    return _child(out, "full")


if __name__ == "__main__":
    sys.exit(main())
