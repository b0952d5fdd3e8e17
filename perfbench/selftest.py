"""Self-test of the checker: each planted corruption must be caught.

    python3 perfbench/selftest.py

Trains one small imbalanced `head = both` config through `collapsekit run`,
checks that the clean artifacts pass, then feeds the checker copies with one
corruption each:
    a classifier row pushed past e_w, a perturbed sample-Gram entry,
    a shifted final loss in report.json, and a dropped trace.csv row.
Prints one PASS/FAIL line per case and exits 1 if any case is not caught
(or the clean run does not pass).
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import check
from run import WORK, command_env, run_timed
from workloads import spec_for, write_config

PARAMS = {
    "head": "both", "k": 4, "d0": 16, "d": 16,
    "k_a": 2, "k_b": 2, "n_a": 20, "r": 10,
    "learning_rate": 0.05, "momentum": 0.9, "steps": 300,
    "e_w": 1.0, "e_h": 0.5, "feature_budget": 0.5, "log_every": 100,
}
SPEC = spec_for("selftest", PARAMS, comparison=True, grams=True)


def push_row_past_budget(run: Path) -> None:
    path = run / "explicit/state_explicit.npz"
    with np.load(path) as npz:
        state = dict(npz)
    w = state["w"]
    # grow row 0 until the mean-square budget is exceeded by 1%
    excess = 1.01 * SPEC["e_w"] * w.shape[0] - float(np.sum(w * w)) + float(w[0] @ w[0])
    w[0] *= np.sqrt(excess / float(w[0] @ w[0]))
    np.savez(path, **state)


def perturb_gram_entry(run: Path) -> None:
    path = run / "explicit/gram_samples.csv"
    rows = list(csv.reader(path.open(newline="")))
    rows[4][6] = repr(float(rows[4][6]) * (1.0 + 1e-6))
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def shift_loss(run: Path) -> None:
    path = run / "report.json"
    report = json.loads(path.read_text())
    report["heads"]["explicit"]["final_loss"] += 1e-6
    path.write_text(json.dumps(report))


def drop_trace_row(run: Path) -> None:
    path = run / "deq/trace.csv"
    lines = path.read_text().splitlines(keepends=True)
    del lines[2]
    path.write_text("".join(lines))


CASES = (
    ("row pushed past e_w", push_row_past_budget, "explicit", "classifier mean square"),
    ("perturbed Gram entry", perturb_gram_entry, "explicit", "gram_samples.csv differs"),
    ("shifted loss", shift_loss, "explicit", "re-derived loss"),
    ("dropped trace row", drop_trace_row, "deq", "trace steps"),
)


def main() -> int:
    work = WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ok = True
    try:
        cfg = work / "selftest.cfg"
        write_config(cfg, "selftest", PARAMS, seed=5)
        clean = work / "clean"
        argv = [sys.executable, "-m", "collapsekit", "run", str(cfg), "--out", str(clean), "--quiet"]
        code, _, _ = run_timed(argv, command_env(), work / "run.log")
        if code != 0:
            print(f"FAIL - collapsekit run exited {code}")
            return 1
        problems, _ = check.check_run(clean, SPEC)
        clean_ok = not any(problems.values())
        ok = ok and clean_ok
        print(f"{'PASS' if clean_ok else 'FAIL'} - clean artifacts pass the checker {problems}")
        for label, corrupt, head, expected in CASES:
            copy = work / label.replace(" ", "-")
            shutil.copytree(clean, copy)
            corrupt(copy)
            problems, _ = check.check_run(copy, SPEC)
            caught = any(expected in p for p in problems[head])
            ok = ok and caught
            found = problems[head][:2]
            print(f"{'PASS' if caught else 'FAIL'} - {label} is caught: {found}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
