"""collapsekit benchmark: four workloads through the real `collapsekit run` and
`collapsekit sweep` entry points, with every output checked independently.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: head-compare, dense-trace, wide-imbalance, grid-sweep, or `all`
to run each in turn. The benchmark is a closed loop: one process drives the
commands, each starting when the previous one ended. A run repeats whole
rounds for about --seconds: it stops before a round that would end more than
half a round after it. Each round first times
set-up probes (setup_s is their median over the run), then writes fresh
inputs from the seed and the round index, runs the workload's commands as
child processes, records their wall time, peak RSS and bytes written, and
checks every trained head. A fixed reference job (reference.py) is timed
before the first command and after every command; the time metrics are given
at the reference speed (see adjusted).

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced rounds and reports the per-layer metrics from the traced ones. The
last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
where attempted counts trained heads and failed counts heads whose command
exited non-zero or whose check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import layers
import tracer
from workloads import WORKLOADS, round_seed, sweep_workers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MB = layers.MB

# reference.py's typical wall time on the machine of the README's figures,
# for one copy and for two at once alike.
REF_NOMINAL_S = 0.6
SETUP_PROBES_FIRST = 4       # set-up probes before the first round
SETUP_PROBES_PER_ROUND = 1   # and before every later one; setup_s is their median
# Commands still running this many seconds after a workload starts are
# killed, so a run exits within 180 s even when a command hangs.
RUN_LIMIT = 165.0
_deadline = [float("inf")]   # perf_counter() value at which commands are killed

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sample_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
}


def command_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one BLAS thread per process: sweep workers x threads stays <= nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except OSError:
        pass


def run_timed(argv, env, log_path) -> tuple:
    """Run argv to completion in its own process group. Returns (exit code,
    wall seconds, peak RSS in MB of the largest process in its tree)."""
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timeout = min(RUN_LIMIT, max(0.0, _deadline[0] - time.perf_counter()))
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / MB


def tree_bytes(path: Path) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def _log_tail(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return " | ".join(lines[-3:])


def setup_probes(workload, seed: int, count: int, env, work: Path) -> list:
    """Wall times of `count` set-up probes on the workload's inputs."""
    setup_dir = work / "setup"
    setup_dir.mkdir()
    argv = [sys.executable, str(HERE / "setup_probe.py")] + workload.probe_args(setup_dir, seed)
    log = setup_dir / "probe.log"
    times = []
    for _ in range(count):
        code, wall, _ = run_timed(argv, env, log)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: {_log_tail(log)}")
        times.append(wall)
    shutil.rmtree(setup_dir)
    return times


def reference_time(copies: int, env, work: Path) -> float:
    """Mean wall time of `copies` reference jobs started at once: one per
    process the workload runs at a time, so the gauge loads the host as it
    does. No other child of this process runs meanwhile, so waiting for any
    child gives each copy's exit time."""
    argv = [sys.executable, str(HERE / "reference.py")]
    log_path = work / "reference.log"
    with open(log_path, "w") as log:
        start = time.perf_counter()
        procs = {}
        for _ in range(copies):
            proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            procs[proc.pid] = proc
        timeout = min(RUN_LIMIT, max(0.0, _deadline[0] - time.perf_counter()))
        timer = threading.Timer(timeout, lambda: [_kill_group(pid) for pid in procs])
        timer.start()
        walls = []
        try:
            while len(walls) < copies:
                pid, status, _ = os.wait4(-1, 0)
                walls.append(time.perf_counter() - start)
                procs[pid].returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            for proc in procs.values():
                _kill_group(proc.pid)
                proc.wait()
            raise
        finally:
            timer.cancel()
    codes = [proc.returncode for proc in procs.values()]
    if any(codes):
        raise RuntimeError(f"reference job exited {codes}: {_log_tail(log_path)}")
    return statistics.fmean(walls)


def adjusted(seconds: float, ref_before: float, ref_after: float) -> float:
    """A time measured between two reference jobs, as it would read with the
    host at the speed where the reference job takes REF_NOMINAL_S. On a shared
    host the CPU speed a process gets drifts by tens of percent over minutes;
    the reference jobs on either side of a command see the same drift."""
    return seconds * 2.0 * REF_NOMINAL_S / (ref_before + ref_after)


def run_round(workload, index: int, seed: int, traced: bool, env, work: Path,
              ref: float) -> dict:
    """Run and check one round: the workload's commands, one after another,
    each followed by a reference job. `ref` is the reference time just before
    the round's first command."""
    round_dir = work / f"round-{index}"
    round_dir.mkdir()
    span_dir = round_dir / "spans"
    span_dir.mkdir()
    result = {"traced": traced, "wall": 0.0, "adj_wall": 0.0, "refs": [ref],
              "rss_mb": 0.0, "artifact_mb": 0.0,
              "run_s": 0.0, "verdicts": [], "problems": {}, "heads": 0, "failed": 0,
              "wrong": False}
    specs = workload.specs()
    for j, (args, out) in enumerate(workload.prepare(round_dir, seed)):
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(span_dir),
                    f"{workload.name}-{index}-{j}"] + args
        else:
            argv = [sys.executable, "-m", "collapsekit"] + args
        log = round_dir / f"command{j}.log"
        code, wall, rss = run_timed(argv, env, log)
        result["refs"].append(reference_time(workers(workload), env, work))
        result["wall"] += wall
        result["adj_wall"] += adjusted(wall, *result["refs"][-2:])
        result["rss_mb"] = max(result["rss_mb"], rss)
        result["artifact_mb"] += tree_bytes(out) / MB

        if code != 0:
            reason = f"exit code {code}: {_log_tail(log)}"
            problems = {(s["name"], h): [reason] for s in specs for h in check.head_dirs(out, s)}
        elif workload.sweep:
            by_run, verdicts = check.check_sweep(out, specs)
            result["verdicts"] += verdicts
            problems = {(name, h): p for name, heads in by_run.items() for h, p in heads.items()}
        else:
            heads, verdict = check.check_run(out, specs[0])
            result["verdicts"].append(verdict)
            problems = {(specs[0]["name"], h): p for h, p in heads.items()}
        if code == 0:
            for report in out.rglob("report.json"):
                result["run_s"] += json.loads(report.read_text())["duration_s"]
        result["heads"] += len(problems)
        result["failed"] += sum(1 for p in problems.values() if p)
        for (name, head), p in problems.items():
            if p:
                result["problems"][f"{name}-{j}/{head}"] = p
        result["wrong"] |= code == 0 and any(problems.values())
        shutil.rmtree(out, ignore_errors=True)
    if traced:
        result["layers"] = layers.round_totals(tracer.read_spans(span_dir))
    shutil.rmtree(round_dir)
    return result


def run_workload(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set-up probes and whole rounds for about `seconds`. In trace mode
    rounds alternate untraced/traced, in pairs."""
    env = command_env()
    copies = workers(workload)
    _deadline[0] = time.perf_counter() + RUN_LIMIT
    setup_probes(workload, seed, 1, env, work)   # warms the file and bytecode caches
    reference_time(copies, env, work)            # and the reference job's
    setup_times, rounds = [], []
    start = time.perf_counter()
    ref = reference_time(copies, env, work)
    while True:
        began = time.perf_counter()
        index = len(rounds)
        count = SETUP_PROBES_PER_ROUND if index else SETUP_PROBES_FIRST
        probes = setup_probes(workload, seed, count, env, work)
        traced = trace and index % 2 == 1
        rounds.append(run_round(workload, index, round_seed(seed, index), traced, env, work, ref))
        ref = rounds[-1]["refs"][-1]
        # the probes ran just before the round's first command, so they take
        # its reference jobs
        setup_times += [adjusted(t, *rounds[-1]["refs"][:2]) for t in probes]
        now = time.perf_counter()
        # stop before a round that would end more than half a round after
        # `seconds`, so a run measures about `seconds` on average
        if now - start + (now - began) / 2 > seconds and (not trace or len(rounds) % 2 == 0):
            break

    attempted = sum(r["heads"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    correct = not any(r["wrong"] for r in rounds)
    for r in rounds:
        for key, problems in r["problems"].items():
            print(f"FAILED {workload.name} {key}: {'; '.join(problems[:3])}", file=sys.stderr)

    plain = [r for r in rounds if not r["traced"]]
    if trace:
        traced_rounds = [r["layers"] for r in rounds if r["traced"]]
        metrics = layers.layer_metrics(
            traced_rounds,
            traced_walls=[r["adj_wall"] for r in rounds if r["traced"]],
            plain_walls=[r["adj_wall"] for r in plain],
            busy_ratios=[r["run_s"] / (r["wall"] * copies) for r in plain],
        )
        shares = layers.share_table(layers.merge(traced_rounds))
    else:
        shares = []
        steps = workload.sample_steps()
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(r["adj_wall"] for r in plain),
            "sample_steps_per_s": statistics.median(steps / r["adj_wall"] for r in plain),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
            "artifact_mb": statistics.median(r["artifact_mb"] for r in plain),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    verdicts = [v for r in rounds for v in r["verdicts"] if v is not None]
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "rounds": len(rounds),
        "walls": [r["wall"] for r in plain],
        "refs": [rounds[0]["refs"][0]] + [t for r in rounds for t in r["refs"][1:]],
        "verdicts": verdicts,
        "shares": shares,
    }


def workers(workload) -> int:
    return sweep_workers() if workload.sweep else 1


def _print_summary(name: str, result: dict) -> None:
    print(f"{name}: {result['rounds']} rounds, {result['attempted']} heads attempted, "
          f"{result['failed']} failed, outputs correct: {result['correct']}")
    print("  untraced round walls as measured: " + " ".join(f"{w:.3f}" for w in result["walls"]) + " s")
    print("  reference job times: " + " ".join(f"{t:.3f}" for t in result["refs"]) + " s")
    for key, metric in result["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    if result["shares"]:
        print("  self time by span (traced rounds):")
        for span, seconds, share in result["shares"][:8]:
            print(f"    {span:36s} {seconds:9.4f} s {100 * share:5.1f}%")
    if result["verdicts"]:
        closer = sum(result["verdicts"])
        print(f"  deq closer to the ETF than explicit (recorded, not asserted): "
              f"{closer} of {len(result['verdicts'])} comparisons")


def _terminate(signum, frame):
    # unwinds through run_timed, which kills the running command's group
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "collapsekit" / "__init__.py").is_file():
        print(f"collapsekit sources not found under {SRC}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        work = WORK / f"{name}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                         bool(args.trace), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                WORK.rmdir()
            except OSError:
                pass
        _print_summary(name, results[name])

    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{key}": metric for name, result in results.items()
                   for key, metric in result["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
