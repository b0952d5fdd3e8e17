"""Write and run the standard output-identity set of collapsekit runs.

    python tools/reference_runs.py OUT

Each entry of RUNS becomes OUT/configs/<name>.cfg and runs into OUT/<name>
under its preset (PRESETS, else desk), and `export-gram --quiet` then
writes the sample Grams of the runs in EXPORT_GRAM. Then `sweep --write-grid --seed 6`
writes the nine imbalance-grid configs to OUT/grid-configs and runs their
head jobs on a two-worker pool into OUT/grid, and the same grid runs again
in-process (`--workers 1`) into OUT/grid-serial. Every command runs with
OPENBLAS_NUM_THREADS=1, so its outputs are reproducible bit for bit, and
uses the collapsekit under src/ next to this tools/ directory. Run it at two
revisions into two fresh directories and compare the trees with

    python tools/compare_outputs.py OUT_A OUT_B

An OUT that already holds files is refused (exit 2) before anything is
written: a file left by an earlier revision would be compared as if this
one had written it. Else exits with the first failing command's exit code,
or 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

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


def write_configs(config_dir) -> list:
    """Write one <name>.cfg per RUNS entry; returns their paths."""
    config_dir = Path(config_dir)
    config_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, keys in RUNS.items():
        lines = [f"name = {name}"] + [f"{key} = {value}" for key, value in keys.items()]
        path = config_dir / f"{name}.cfg"
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
    return paths


def preset(name: str) -> str:
    """The --preset a RUNS entry runs under."""
    return PRESETS.get(name, "desk")


def _collapsekit(*args, cwd: Path) -> int:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    command = [sys.executable, "-m", "collapsekit", *map(str, args)]
    print(" ".join(command[1:]), flush=True)
    return subprocess.run(command, cwd=cwd, env=env).returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="output directory (created; must be empty)")
    out = parser.parse_args(argv).out.resolve()
    if out.is_dir() and any(out.iterdir()):
        print(f"{out} is not empty; give a fresh directory", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    for path in write_configs(out / "configs"):
        code = _collapsekit("run", path, "--out", out / path.stem, "--quiet",
                            "--preset", preset(path.stem), cwd=out)
        if code:
            return code
    for name in EXPORT_GRAM:
        code = _collapsekit("export-gram", out / name, "--quiet", cwd=out)
        if code:
            return code
    code = _collapsekit("sweep", out / "grid-configs", "--write-grid", "--seed", GRID_SEED,
                        "--workers", 2, "--out", out / "grid", "--quiet", cwd=out)
    if code:
        return code
    return _collapsekit("sweep", out / "grid-configs", "--seed", GRID_SEED, "--workers", 1,
                        "--out", out / "grid-serial", "--quiet", cwd=out)


if __name__ == "__main__":
    sys.exit(main())
