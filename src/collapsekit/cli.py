"""Command-line entry points.

Subcommands:
    run <config>          train the configured head(s), write run artifacts
    sweep <config-dir>    run every *.cfg concurrently, merge a summary
    etf-check             construct a frame and print its invariant residuals
    bound-check           print the balanced loss floors for both heads
    lemma-fuzz            random search for violations of the log-share bound
    export-gram <run-dir> write the sample and class-mean Gram CSVs from
                          saved state (runs write only the class-mean Gram);
                          --quiet leaves out the list of written files

Exit codes: 0 success, 1 check failed, 2 config error (a bad config file or
command-line value), 3 training divergence, 4 solver non-convergence under
an error policy, 5 artifact write or self-validation failure (OSError),
6 linear-algebra failure (SingularMatrixError or numpy.linalg.LinAlgError).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import bounds, etf, harness
from .errors import (
    ConfigError,
    DivergenceError,
    SingularMatrixError,
    SolverConvergenceError,
)
from .linalg import make_rng


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collapsekit",
        description="Layer-peeled collapse experiments with explicit and equilibrium heads",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment config")
    run.add_argument("config", help="path to a key = value config file")
    _common_flags(run)

    sweep = sub.add_parser("sweep", help="run every *.cfg in a directory")
    sweep.add_argument("config_dir")
    sweep.add_argument(
        "--write-grid",
        action="store_true",
        help="first write the standard imbalance grid configs into the directory",
    )
    sweep.add_argument("--workers", type=int, default=None,
                       help="head jobs run at once (default: the usable CPUs)")
    _common_flags(sweep)

    etf_check = sub.add_parser("etf-check", help="verify a constructed frame")
    etf_check.add_argument("--k", type=int, required=True)
    etf_check.add_argument("--d", type=int, required=True)
    etf_check.add_argument("--alpha", type=float, default=1.0)
    etf_check.add_argument("--seed", type=int, default=0)

    bound = sub.add_parser("bound-check", help="balanced loss floors for both heads")
    bound.add_argument("--k", type=int, required=True)
    bound.add_argument("--ew", type=float, required=True)
    bound.add_argument("--eh", type=float, required=True)
    bound.add_argument(
        "--ratio",
        type=float,
        default=None,
        help="constant ratio c2/c1 (default: the tight ratio at the collapsed optimum)",
    )

    fuzz = sub.add_parser("lemma-fuzz", help="fuzz the log-share bound")
    fuzz.add_argument("--draws", type=int, default=10000)
    fuzz.add_argument("--seed", type=int, default=0)

    export = sub.add_parser(
        "export-gram", help="write the sample and class-mean Gram CSVs from saved state"
    )
    export.add_argument("run_dir")
    export.add_argument("--quiet", action="store_true", help="do not print the written paths")
    return parser


def _common_flags(sub_parser) -> None:
    sub_parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub_parser.add_argument("--out", default=None, help="output directory override")
    sub_parser.add_argument("--quiet", action="store_true")
    sub_parser.add_argument("--preset", choices=sorted(harness.PRESETS), default="desk")


def _require(ok: bool, message: str) -> None:
    if not ok:  # an out-of-range command-line value exits 2
        raise ConfigError(message)


def _cmd_run(args) -> int:
    cfg = harness.load_config(args.config, preset=args.preset, seed=args.seed)
    record = harness.run_experiment(cfg, out_dir=args.out)
    if not args.quiet:
        print(f"run {record['name']}: hash {record['config_hash'][:12]} "
              f"({record['duration_s']:.2f} s)")
        for head, summary in record["heads"].items():
            rep = summary["final_report"]
            print(
                f"  {head}: loss {summary['final_loss']:.6f} acc {rep['accuracy']:.4f} "
                f"nc1 {rep['nc1']:.4g} nc2 {rep['nc2']:.4g} nc3 {rep['nc3']:.4g}"
            )
        cr = record["condition_report"]
        if cr is not None:
            ratio = cr["nc3_cosine_ratio"]
            ratio_text = "undefined" if ratio is None else f"{ratio:.4g}"
            print(
                f"  conditions: nc2 holds={cr['nc2_condition_holds']} "
                f"(margin {cr['nc2_margin']:.4g}), nc3 holds={cr['nc3_condition_holds']}; "
                f"nc2 dist ex={cr['nc2_distance_explicit']:.4g} "
                f"deq={cr['nc2_distance_deq']:.4g}, cos ratio {ratio_text}"
            )
        if record["condition_note"] is not None:
            print(f"  conditions: {record['condition_note']}")
    return 0


def _cmd_sweep(args) -> int:
    _require(args.workers is None or args.workers >= 1, "--workers must be at least 1")
    if args.write_grid:
        written = harness.write_imbalance_grid(args.config_dir, seed=args.seed or 0)
        if not args.quiet:
            print(f"wrote {len(written)} grid configs to {args.config_dir}")
    merged = harness.run_sweep(
        args.config_dir,
        preset=args.preset,
        out_root=args.out,
        seed=args.seed,
        max_workers=args.workers,
    )
    if not args.quiet:
        print(f"sweep finished: {len(merged)} runs merged into sweep_summary.json")
    return 0


def _cmd_etf_check(args) -> int:
    try:
        frame = etf.make_etf(args.k, args.d, args.alpha, make_rng(args.seed))
    except ValueError as exc:  # make_etf validates k, d and alpha
        raise ConfigError(str(exc)) from exc
    p_residual = np.linalg.norm(frame.p.T @ frame.p - np.eye(args.k))
    gram_residual = np.linalg.norm(frame.gram() - etf.etf_gram(args.k, args.alpha))
    colsum_residual = np.linalg.norm(frame.s.sum(axis=1))
    print(f"P^T P residual:      {p_residual:.3e}")
    print(f"Gram residual:       {gram_residual:.3e}")
    print(f"column-sum residual: {colsum_residual:.3e}")
    # a NaN residual is not below tolerance, so it fails the check too
    ok = all(r < 1e-10 for r in (p_residual, gram_residual, colsum_residual))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_bound_check(args) -> int:
    _require(args.k >= 2, "--k must be at least 2")
    for flag, value in (("--ew", args.ew), ("--eh", args.eh), ("--ratio", args.ratio)):
        _require(value is None or 0.0 < value < math.inf, f"{flag} must be positive and finite")
    if args.ratio is not None:
        ratio = args.ratio
    else:  # the log gap at the collapsed optimum
        ratio = bounds.ratio_at_gap(bounds.collapsed_term(args.ew, args.eh, args.k), args.k)
    try:
        consts = bounds.BoundConstants.from_ratio(ratio, args.k)
    except ValueError as exc:  # the ratio under- or overflows the constants
        raise ConfigError(f"bound constants for c2/c1 = {ratio:.6g}: {exc}") from exc
    deq_floor, explicit_floor = bounds.balanced_loss_floor(args.ew, args.eh, args.k, consts)
    print(f"constants: c2/c1 = {ratio:.6g}  m1 = {consts.m1:.6g}  m2 = {consts.m2:.6g}")
    print(f"explicit-head loss floor: {explicit_floor:.10f}")
    print(f"equilibrium-head loss floor: {deq_floor:.10f}")
    print(f"ordering deq <= explicit: {deq_floor <= explicit_floor}")
    return 0


def _cmd_lemma_fuzz(args) -> int:
    _require(args.draws >= 1, "--draws must be at least 1")
    violations, worst = bounds.fuzz_log_bound(args.draws, args.seed)
    print(f"draws: {args.draws}  violations: {violations}  worst lhs-rhs: {worst:.3e}")
    print("PASS" if violations == 0 else "FAIL")
    return 0 if violations == 0 else 1


def _cmd_export_gram(args) -> int:
    written = harness.reexport_grams(args.run_dir)
    if not args.quiet:
        for path in written:
            print(path)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "etf-check": _cmd_etf_check,
        "bound-check": _cmd_bound_check,
        "lemma-fuzz": _cmd_lemma_fuzz,
        "export-gram": _cmd_export_gram,
    }
    try:
        # one check for every --seed, before a command writes anything
        _require(getattr(args, "seed", None) is None or args.seed >= 0,
                 "--seed must be non-negative")
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 4
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return 5
    except (SingularMatrixError, np.linalg.LinAlgError) as exc:
        print(f"linear algebra error: {exc}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
