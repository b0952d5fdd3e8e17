"""The benchmark's four workloads: inputs made from the seed, and the specs
the checker holds the outputs to.

Every round of a workload runs the same commands on inputs drawn from the
run's --seed and the round's index. The configs written here (and the grid that
`sweep --write-grid` writes) are the program's only input.
"""

from __future__ import annotations

import os
from pathlib import Path

METRIC_CUTOFF = 1e-10   # the config default

HEAD_COMPARE = {
    # criterion 08's imbalanced comparison, sparse snapshots
    "head": "both", "k": 4, "d0": 16, "d": 16,
    "k_a": 2, "k_b": 2, "n_a": 100, "r": 50,
    "learning_rate": 0.05, "momentum": 0.9, "steps": 8000,
    "e_w": 1.0, "e_h": 0.5, "feature_budget": 0.5, "log_every": 2000,
}

DENSE_TRACE = {
    # balanced, a snapshot every other step
    "head": "both", "k": 10, "d0": 16, "d": 16, "balanced_n": 20,
    "learning_rate": 0.05, "momentum": 0.9, "steps": 2000,
    "e_w": 1.0, "e_h": 1.0, "feature_budget": 1.0, "log_every": 2,
}

WIDE_IMBALANCE = {
    # 3 majority classes x 500, 7 minority classes x 5: N = 1535
    "head": "explicit", "k": 10, "d0": 16, "d": 16,
    "k_a": 3, "k_b": 7, "n_a": 500, "r": 100,
    "learning_rate": 0.05, "momentum": 0.9, "steps": 2000,
    "e_w": 1.0, "e_h": 1.0, "feature_budget": 1.0, "log_every": 500,
}

# What `collapsekit sweep --write-grid` must write: (k_a, k_b) x r at n_a = 100,
# 3000 steps, snapshots every 500, e_h = feature_budget = 0.5, desk e_w = 1.
GRID_LAYOUTS = ((3, 7), (5, 5), (7, 3))
GRID_RATIOS = (10, 50, 100)
GRID_BASE = {
    "head": "both", "k": 10, "n_a": 100, "steps": 3000, "log_every": 500,
    "e_w": 1.0, "e_h": 0.5, "feature_budget": 0.5,
}


def round_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def class_counts(params: dict) -> tuple:
    if "balanced_n" in params:
        return (params["balanced_n"],) * params["k"]
    n_b = params["n_a"] // params["r"]
    return (params["n_a"],) * params["k_a"] + (n_b,) * params["k_b"]


def spec_for(name: str, params: dict, **flags) -> dict:
    """The checker's view of one config."""
    spec = {
        "name": name,
        "head": params["head"],
        "k": params["k"],
        "counts": class_counts(params),
        "steps": params["steps"],
        "log_every": params["log_every"],
        "e_w": params["e_w"],
        "e_h": params["e_h"],
        "feature_budget": params["feature_budget"],
        "metric_cutoff": METRIC_CUTOFF,
        "k_a": params.get("k_a"),
    }
    spec.update(flags)
    return spec


def write_config(path: Path, name: str, params: dict, seed: int) -> None:
    lines = [f"name = {name}"] + [f"{key} = {value}" for key, value in params.items()]
    lines.append(f"seed = {seed}")
    path.write_text("\n".join(lines) + "\n")


class Workload:
    """One workload: what a round runs and what its outputs are held to.

    A round is `commands` closed-loop commands; command j of round i trains
    on seed round_seed(seed, i) * 10 + j.
    """

    def __init__(self, name, params=None, flags=None, sweep=False, commands=1):
        self.name = name
        self.params = params
        self.flags = flags or {}
        self.sweep = sweep
        self.commands = commands

    def specs(self) -> list:
        """Checker specs of the configs one command trains."""
        if not self.sweep:
            return [spec_for(self.name, self.params, **self.flags)]
        specs = []
        for k_a, k_b in GRID_LAYOUTS:
            for ratio in GRID_RATIOS:
                params = dict(GRID_BASE, k_a=k_a, k_b=k_b, r=ratio)
                specs.append(spec_for(f"imb_ka{k_a}_r{ratio}", params, **self.flags))
        return specs

    def sample_steps(self) -> int:
        """Sum over the heads one round trains of N x steps."""
        total = 0
        for spec in self.specs():
            heads = 2 if spec["head"] == "both" else 1
            total += heads * sum(spec["counts"]) * spec["steps"]
        return self.commands * total

    def prepare(self, round_dir: Path, seed: int) -> list:
        """Write one round's inputs. Returns (collapsekit arguments, output
        directory) per command."""
        commands = []
        for j in range(self.commands):
            out = round_dir / f"out{j}"
            if self.sweep:
                args = ["sweep", str(round_dir / f"grid{j}"), "--write-grid",
                        "--seed", str(seed * 10 + j), "--workers", str(sweep_workers())]
            else:
                cfg = round_dir / f"{self.name}-{j}.cfg"
                write_config(cfg, self.name, self.params, seed * 10 + j)
                args = ["run", str(cfg)]
            commands.append((args + ["--out", str(out), "--quiet"], out))
        return commands

    def probe_args(self, setup_dir: Path, seed: int) -> list:
        """Arguments of setup_probe.py for this workload's inputs."""
        if self.sweep:
            return ["--grid", str(setup_dir / "grid"), str(seed)]
        cfg = setup_dir / f"{self.name}.cfg"
        write_config(cfg, self.name, self.params, seed)
        return [str(cfg)]


def sweep_workers() -> int:
    """Pool size for grid-sweep: two workers, fewer on a one-core machine.
    Each command runs with one BLAS thread, so workers x threads <= nproc."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


WORKLOADS = {
    "head-compare": Workload("head-compare", HEAD_COMPARE, {"comparison": True}, commands=2),
    "dense-trace": Workload("dense-trace", DENSE_TRACE, {"floors": True}, commands=2),
    "wide-imbalance": Workload(
        "wide-imbalance", WIDE_IMBALANCE, {"grams": True, "minority": True}
    ),
    "grid-sweep": Workload("grid-sweep", flags={"comparison": True}, sweep=True),
}
