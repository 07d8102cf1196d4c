"""Layered benchmark for the ``pcp`` package.

    python3 perfbench/run.py [--workload solve|sweep|certify|all] [--seed N]
                             [--seconds S] [--trace 0|1] [--quick]

Run from a checkout of the repository: the package is imported from
``src/`` next to this directory. Each workload sets up its inputs from the
seed, then runs whole passes over a fixed set of operations until
``--seconds`` have gone by, checking every output. With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` passes alternate between untraced and traced, and the
metrics are the per-layer ones taken from the spans of the traced passes.
``--quick`` runs one pass of every check at small sizes. Results, spans
and the environment are written under ``perfbench/results/``. See
``perfbench/README.md`` for what each metric means.
"""

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

SETUP_REPEATS = 5

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import pcp; print(time.perf_counter() - t)"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=("solve", "sweep", "certify", "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--quick", action="store_true",
                   help="small sizes, one pass (two when tracing), every check")
    return p.parse_args(argv)


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, as found; None if unknown."""
    try:
        maps = Path("/proc/self/maps").read_text().split()
    except OSError:
        return None
    for path in sorted({m for m in maps if "openblas" in Path(m).name.lower()}):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np, nproc):
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "PCP_JOBS")
    return {
        "nproc": nproc,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in thread_vars if k in os.environ},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def import_seconds():
    """Time to import pcp (and numpy) in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def peak_rss_mb(workload, self_kb) -> float:
    """``self_kb`` plus, for the sweep, jobs x the largest child's peak (pool
    workers are forked, so shared pages count in each: an upper bound)."""
    kb = self_kb
    if workload.name == "sweep":
        kb += workload.pool_jobs * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def run_workload(cls, args, workloads):
    """Set up, measure and check one workload; returns the result record."""
    workdir = RESULTS / f"work-{cls.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(cls, args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@dataclass
class Counts:
    attempted: int = 0
    failed: int = 0


def run_ops(operations, counts, workloads) -> list:
    """Time each operation; one that raises counts as failed, the rest go on."""
    ops = []
    for label, units, call in operations:
        counts.attempted += units
        started = time.perf_counter()
        try:
            output = call()
        except Exception:
            traceback.print_exc()
            counts.failed += units
            continue
        ops.append(workloads.Op(label, time.perf_counter() - started, units, output))
    return ops


def _measure(cls, args, workloads, workdir):
    repeats = 1 if args.quick else SETUP_REPEATS
    imports = [import_seconds() for _ in range(repeats)]
    builds = []
    for _ in range(repeats):
        started = time.perf_counter()
        workload = cls(args.seed, args.quick, workdir, bool(args.trace))
        builds.append(time.perf_counter() - started)
    setup_s = statistics.median(imports) + statistics.median(builds)

    tracer = spans.Tracer()
    counts = Counts()
    passes = []  # (traced, wall seconds, completed ops)
    errors = []
    first_digest = None
    min_passes = 2 if args.trace else 1
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.perf_counter()
        with spans.instrument(tracer) if traced else contextlib.nullcontext():
            ops = run_ops(workload.operations(), counts, workloads)
        passes.append((traced, time.perf_counter() - t0, ops))
        if len(passes) == 1:  # before any check allocates
            self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # same inputs, so a pass reproducing the first one's outputs passes
        # its checks; only the first pass and any that differ are checked
        digest = workload.digest(ops)
        if digest != first_digest:
            errors.extend(workload.check(ops))
            first_digest = first_digest or digest
        elapsed = time.perf_counter() - started
        if len(passes) >= min_passes and (args.quick or elapsed >= args.seconds):
            break
    probe_ops = run_ops(workload.probe_operations(), counts, workloads)
    if probe_ops:
        errors.extend(workload.check(probe_ops + passes[-1][2]))
    return Outcome(workload, setup_s, self_kb, passes, probe_ops, errors, counts, tracer)


class Outcome(NamedTuple):
    workload: object
    setup_s: float
    self_kb: int  # peak RSS of this process after set-up and the first pass
    passes: list
    probe_ops: list
    errors: list
    counts: Counts
    tracer: object


def layer_metrics(outcome) -> dict:
    """Per-layer figures per traced pass, from the spans of the traced passes."""
    traced = [(wall, ops) for is_traced, wall, ops in outcome.passes if is_traced]
    plain = [wall for is_traced, wall, _ in outcome.passes if not is_traced]
    k = len(traced)
    recorded = outcome.tracer.spans
    by_id = {s.id: s for s in recorded}

    def ms(*names):
        return 1000.0 * sum(s.duration for s in recorded if s.name in names) / k

    def calls(name, parent=None):
        return sum(1 for s in recorded if s.name == name and (
            parent is None or (s.parent in by_id and by_id[s.parent].name == parent))) / k

    solve_ms = ms("solver.pcp_solve")
    svt_in_solve = 1000.0 * sum(
        s.duration for s in recorded if s.name == "linalg.svt"
        and s.parent in by_id and by_id[s.parent].name == "solver.pcp_solve") / k
    metrics = {
        "linalg.svt_ms": (ms("linalg.svt"), "ms"),
        "linalg.svt_calls": (calls("linalg.svt"), "count"),
        "linalg.svt_share": (svt_in_solve / solve_ms if solve_ms else 0.0, "share"),
        "linalg.soft_threshold_ms": (ms("linalg.soft_threshold"), "ms"),
        "linalg.spectral_norm_ms": (ms("linalg.spectral_norm"), "ms"),
        "linalg.spectral_norm_calls": (calls("linalg.spectral_norm"), "count"),
        "solver.pcp_solve_ms": (solve_ms, "ms"),
        "solver.iterations": (sum(s.count for s in recorded if s.name == "solver.pcp_solve") / k,
                              "count"),
        "solver.outside_prox_ms": (1000.0 * spans.self_time(recorded, "solver.pcp_solve") / k,
                                   "ms"),
        "pcpm.load_ms": (ms("pcpm.load_matrix"), "ms"),
        "pcpm.save_ms": (ms("pcpm.save_matrix"), "ms"),
        "problems.make_instance_ms": (ms("problems.make_instance"), "ms"),
        "certificate.opnorm_ms": (ms("certificate.opnorm_support_tangent"), "ms"),
        "certificate.opnorm_steps": (
            calls("certificate.project_support", "certificate.opnorm_support_tangent"), "count"),
        "certificate.project_support_ms": (ms("certificate.project_support"), "ms"),
        "certificate.project_tangent_ms": (ms("certificate.project_tangent"), "ms"),
        "certificate.partition_ms": (ms("certificate.partition_support_complement"), "ms"),
        "certificate.golfing_ms": (ms("certificate.golfing_component"), "ms"),
        "certificate.neumann_ms": (ms("certificate.neumann_component"), "ms"),
        "certificate.neumann_terms": (
            calls("certificate.project_support", "certificate.neumann_component"), "count"),
        "certificate.verify_ms": (ms("certificate.verify_certificate",
                                     "certificate.check_golfing_bounds",
                                     "certificate.check_sign_bounds"), "ms"),
        "harness.cell_ms_serial_p50": (0.0, "ms"),
        "harness.cell_ms_parallel_p50": (0.0, "ms"),
        "harness.idle_s": (0.0, "s"),
        "harness.emit_ms": (ms("harness.emit_csv", "harness.emit_heatmap",
                               "harness.write_sidecar"), "ms"),
        "trace.overhead_share": (
            statistics.median(w for w, _ in traced) / statistics.median(plain) - 1.0, "share"),
    }
    extras = outcome.workload.layer_extras([op for _, ops in traced for op in ops],
                                           outcome.probe_ops)
    for name, value in extras.items():
        metrics[name] = (value, metrics[name][1])
    return metrics


def report(args, env, outcome) -> dict:
    name = outcome.workload.name
    counts, errors = outcome.counts, outcome.errors
    plain = [(wall, ops) for traced, wall, ops in outcome.passes if not traced]
    figures = outcome.workload.figures([ops for _, ops in plain], outcome.probe_ops)
    if args.trace:
        metrics = layer_metrics(outcome)
    else:
        metrics = {
            "setup_s": (outcome.setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(outcome.workload, outcome.self_kb), "MB"),
            "pass_s": (statistics.median(wall for wall, _ in plain), "s"),
        }
    result = {
        "correct": not errors,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"{name}: {len(outcome.passes)} passes, attempted={counts.attempted} "
          f"failed={counts.failed} correct={str(not errors).lower()} "
          f"(seed {args.seed}, trace {args.trace})")
    for err in errors:
        print(f"  CHECK FAILED {err}")
    for key, (value, unit) in {**figures, **metrics}.items():
        print(f"  {key} = {value:.6g} {unit}")

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "quick": args.quick, "environment": env, **result,
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        "errors": errors,
        "passes": [{"traced": t, "wall_s": w, "ops": [[op.label, op.seconds] for op in ops]}
                   for t, w, ops in outcome.passes],
        "probe_ops": [[op.label, op.seconds] for op in outcome.probe_ops],
    }
    Path(f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        outcome.tracer.write(f"{stem}.spans.jsonl")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pcp" / "__init__.py").is_file():
        print(f"error: no pcp package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import workloads

    env = environment(np, workloads.NPROC)
    print("environment: " + json.dumps(env, sort_keys=True))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        outcome = run_workload(workloads.WORKLOADS[name], args, workloads)
        results[name] = report(args, env, outcome)
        print(json.dumps(results[name]), flush=True)
    if len(results) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    ok = all(r["correct"] and not r["failed"] for r in results.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
