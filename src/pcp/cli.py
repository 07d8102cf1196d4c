"""Command line interface: generate instances, solve, certify, sweep.

Subcommands:
  pcp gen      write a synthetic low-rank + sparse instance to PCPM files
  pcp solve    run the pursuit solver on a data matrix
  pcp certify  build and verify a dual certificate for a ground-truth pair
  pcp sweep    run (or resume) a phase-transition experiment grid
"""

import argparse
import json
import os
import sys
import traceback
from pathlib import Path
from typing import get_args

import numpy as np

from . import pcpm
from .certificate import certify_instance
from .harness import (
    SweepConfig,
    SweepResult,
    emit_csv,
    emit_heatmap,
    load_done,
    run_sweep,
    write_sidecar,
)
from .linalg import ConvergenceError
from .problems import SupportModel, lambda_from_spec, make_instance
from .solver import SolverConfig, pcp_solve

LAMBDA_HELP = "classic | dense:<rho>,<C1> | fixed:<v> | <v>"


def _cmd_gen(args) -> int:
    _check_writable(args.out_l0, args.out_s0, args.out_d, args.out_d + ".json")
    inst = make_instance(args.n, args.r, args.rho, args.seed, args.model)
    pcpm.save_matrix(inst.L0, args.out_l0)
    pcpm.save_matrix(inst.S0, args.out_s0)
    pcpm.save_matrix(inst.D, args.out_d)
    sidecar = {
        "n": args.n, "r": args.r, "rho": args.rho, "seed": args.seed,
        "support_model": args.model, "nnz_S0": int(np.count_nonzero(inst.S0)),
        "out_l0": str(args.out_l0), "out_s0": str(args.out_s0),
        "out_d": str(args.out_d),
    }
    Path(str(args.out_d) + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")
    return 0


def _cmd_solve(args) -> int:
    _check_writable(args.out_l, args.out_s, args.report)
    D = pcpm.load_matrix(args.d)
    lam = lambda_from_spec(getattr(args, "lambda"), D.shape[0])
    cfg = SolverConfig(tol_feasibility=args.tol, max_iters=args.max_iters)
    result = pcp_solve(D, lam, cfg)
    if args.out_l:
        pcpm.save_matrix(result.L_hat, args.out_l)
    if args.out_s:
        pcpm.save_matrix(result.S_hat, args.out_s)
    report = {
        "lambda": lam,
        "iterations": result.iterations,
        "feasibility_residual": result.feasibility_residual,
        "objective": result.objective,
        "converged": result.converged,
    }
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report))
    return 0 if result.converged else 1


def _cmd_certify(args) -> int:
    j0 = _parse_j0(args.j0)
    _check_writable(args.report)
    L0 = pcpm.load_matrix(args.l0)
    S0 = pcpm.load_matrix(args.s0)
    lam = lambda_from_spec(getattr(args, "lambda"), L0.shape[0])
    report, _ = certify_instance(L0, S0, lam, j0=j0, seed=args.seed)
    payload = report.to_dict()
    if args.report:
        Path(args.report).write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload))
    return 0 if report.passed else 1


def _parse_j0(text: str):
    """``--j0``: None for 'auto' (sized from n once it is known), else an integer >= 1."""
    if text == "auto":
        return None
    try:
        j0 = int(text)
    except ValueError:
        j0 = 0
    if j0 < 1:
        raise ValueError(f"--j0 must be 'auto' or an integer >= 1, got {text!r}")
    return j0


def _check_writable(*paths) -> None:
    """Reject an output file that could not be written, before any work;
    paths left unset (None) are skipped."""
    for path in filter(None, paths):
        target = Path(path)
        if target.is_dir():
            raise ValueError(f"cannot write {path}: it is a directory")
        if not target.parent.is_dir():
            raise ValueError(f"cannot write {path}: no directory {target.parent}")
        if not os.access(target if target.exists() else target.parent, os.W_OK):
            raise ValueError(f"cannot write {path}: permission denied")


def _cmd_sweep(args) -> int:
    # everything that can reject the input runs before the first cell
    cfg = SweepConfig.from_dict(json.loads(Path(args.config).read_text()))
    jobs = args.jobs
    if jobs is None:
        text = os.environ.get("PCP_JOBS", "1")
        try:
            jobs = int(text)
        except ValueError:
            raise ValueError(f"PCP_JOBS must be an integer >= 1, got {text!r}") from None
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    _check_writable(args.out_csv, args.out_csv + ".json", args.out_pgm)
    done = load_done(cfg, args.resume) if args.resume else {}
    stopped = None
    try:
        run_sweep(cfg, jobs=jobs, done=done)  # fills done as cells finish
    except (Exception, KeyboardInterrupt) as exc:
        if not isinstance(exc, KeyboardInterrupt):
            traceback.print_exc()
        stopped = exc
    result = SweepResult(config=cfg, records=list(done.values()))
    emit_csv(result, args.out_csv)
    write_sidecar(result, args.out_csv)
    if stopped is not None:
        print(f"sweep stopped ({stopped!r}); {len(result.records)} finished rows "
              f"flushed to {args.out_csv}", file=sys.stderr)
        return 2
    if args.out_pgm:
        emit_heatmap(result, args.out_pgm)
    print(f"sweep complete: {len(result.records)} records")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pcp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic instance")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--r", type=int, required=True)
    gen.add_argument("--rho", type=float, required=True)
    gen.add_argument("--model", choices=get_args(SupportModel), default="exact")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out-l0", required=True)
    gen.add_argument("--out-s0", required=True)
    gen.add_argument("--out-d", required=True)
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="run the pursuit solver")
    solve.add_argument("--d", required=True)
    solve.add_argument("--lambda", required=True, help=LAMBDA_HELP)
    solve.add_argument("--tol", type=float, default=SolverConfig.tol_feasibility)
    solve.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)
    solve.add_argument("--out-l")
    solve.add_argument("--out-s")
    solve.add_argument("--report")
    solve.set_defaults(func=_cmd_solve)

    certify = sub.add_parser("certify", help="build and verify a dual certificate")
    certify.add_argument("--l0", required=True)
    certify.add_argument("--s0", required=True)
    certify.add_argument("--lambda", required=True, help=LAMBDA_HELP)
    certify.add_argument("--j0", default="auto",
                         help="golfing batch count, integer or 'auto'")
    certify.add_argument("--seed", type=int, default=0)
    certify.add_argument("--report")
    certify.set_defaults(func=_cmd_certify)

    sweep = sub.add_parser("sweep", help="run a phase-transition sweep")
    sweep.add_argument("--config", required=True, help="JSON sweep configuration")
    sweep.add_argument("--out-csv", required=True)
    sweep.add_argument("--out-pgm")
    sweep.add_argument("--resume", help="existing CSV to complete")
    sweep.add_argument("--jobs", type=int, default=None,
                       help="parallel workers (default: PCP_JOBS, else 1)")
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
