"""Phase-transition sweep harness: run, persist, resume, render.

A sweep solves the pursuit program over a grid of (dimension, corruption
density) cells, ``trials`` independent instances per cell, and records the
recovery outcome per trial. Output is a CSV (one row per trial) plus an
optional PGM heatmap of per-cell success fractions. Every cell derives its
own seed from (base_seed, n, rho_index, trial), so results are a pure
function of the configuration regardless of execution order or parallelism,
and interrupted sweeps can be resumed bit-compatibly.
"""

import hashlib
import json
import math
import numbers
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional, get_args

import numpy as np

from .problems import SupportModel, lambda_from_spec, make_instance
from .rng import mix_seed
from .solver import SolverConfig, SolveResult, pcp_solve

CSV_HEADER = "n,rho,r,C1,lambda,trial,seed,rel_err_L,success,iterations,converged,runtime_ms"


@dataclass
class SweepConfig:
    """A sweep grid and how each of its cells is solved and scored.

    Construction validates everything a cell would otherwise find later, so
    a config that builds runs every cell of its grid.
    """

    n_list: list
    rho_grid: list
    r: int = 1
    C1: float = 0.8
    lambda_mode: str = "dense"       # any spelling of problems.lambda_from_spec
    trials: int = 10
    base_seed: int = 0
    support_model: str = "exact"
    solver: SolverConfig = field(default_factory=SolverConfig)
    success_threshold: float = 0.01
    record_runtime: bool = False     # wall time is not reproducible; opt-in

    def __post_init__(self):
        for name in ("n_list", "rho_grid"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"{name} must be a nonempty list, got {values!r}")
        for n in self.n_list:
            _check_int("n_list entries", n)
        for name in ("r", "trials", "base_seed"):
            _check_int(name, getattr(self, name))
        if len(set(self.n_list)) != len(self.n_list):
            raise ValueError(f"n_list repeats a dimension: {self.n_list}")
        if not 1 <= self.r <= min(self.n_list):
            raise ValueError(f"r must satisfy 1 <= r <= min(n_list) = {min(self.n_list)}, "
                             f"got {self.r}")
        for i, rho in enumerate(self.rho_grid):
            if not (_is_real(rho) and 0.0 < rho < 1.0):
                raise ValueError(f"rho grid values must lie in (0, 1), got {rho!r}")
            if _rho_index(self, rho) != i:
                raise ValueError(f"rho_grid repeats a density: {self.rho_grid}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.support_model not in get_args(SupportModel):
            raise ValueError(f"unknown support model {self.support_model!r}")
        for name in ("C1", "success_threshold"):
            value = getattr(self, name)
            if not (_is_real(value) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not isinstance(self.record_runtime, bool):
            raise ValueError(f"record_runtime must be true or false, got {self.record_runtime!r}")
        for n in self.n_list:
            for rho in self.rho_grid:
                lambda_from_spec(self.lambda_mode, n, rho, self.C1)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["solver"] = asdict(self.solver)
        return d

    @classmethod
    def from_dict(cls, d) -> "SweepConfig":
        """Config from parsed JSON; a non-object or an unknown key is rejected."""
        d = dict(_known_keys(d, cls, "sweep config"))
        solver = d.pop("solver", None)
        solver = _known_keys({} if solver is None else solver, SolverConfig, "solver")
        return cls(solver=SolverConfig(**solver), **d)


def _known_keys(d, cls, where: str) -> dict:
    """d, checked to be a dict that names only fields of cls and every field
    of cls that has no default."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(d).__name__}")
    names = {f.name for f in fields(cls)}
    unknown = sorted(set(d) - names)
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(unknown)}")
    missing = [f.name for f in fields(cls) if f.name not in d
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"{where} lacks required key(s): {', '.join(missing)}")
    return d


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _check_int(name: str, x) -> None:
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {x!r}")


@dataclass
class SweepRecord:
    n: int
    rho: float
    r: int
    C1: float
    lam: float
    trial: int
    seed: int
    rel_err_L: float
    success: bool
    iterations: int
    converged: bool
    runtime_ms: float


@dataclass
class SweepResult:
    """Records of a sweep, kept in grid order: by n, then rho_grid index,
    then trial, whatever order they were made in."""

    config: SweepConfig
    records: list

    def __post_init__(self):
        self.records = sorted(
            self.records,
            key=lambda rec: (rec.n, _rho_index(self.config, rec.rho), rec.trial),
        )

    def success_fraction(self, n: int, rho: float) -> float:
        hits = [
            rec for rec in self.records
            if rec.n == n and _close(rec.rho, rho)
        ]
        if not hits:
            raise KeyError(f"no records for cell (n={n}, rho={rho})")
        return sum(1 for rec in hits if rec.success) / len(hits)


def cell_seed(base_seed: int, n: int, rho_idx: int, trial: int) -> int:
    """Per-trial seed: splitmix64 mix of (base_seed, n, rho_index, trial)."""
    return mix_seed(base_seed, n, rho_idx, trial)


def config_hash(cfg: SweepConfig) -> str:
    """Hash of every config field; each one affects the results."""
    canon = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def _run_cell(args) -> SweepRecord:
    cfg, n, rho_idx, trial = args
    rho = cfg.rho_grid[rho_idx]
    seed = cell_seed(cfg.base_seed, n, rho_idx, trial)
    lam = lambda_from_spec(cfg.lambda_mode, n, rho, cfg.C1)
    started = time.perf_counter()
    inst = make_instance(n, cfg.r, rho, seed, cfg.support_model)
    try:
        result: SolveResult = pcp_solve(inst.D, lam, cfg.solver)
        rel_err = float(
            np.linalg.norm(inst.L0 - result.L_hat) / np.linalg.norm(inst.L0)
        )
        iterations = result.iterations
        converged = result.converged
    except np.linalg.LinAlgError:
        rel_err = math.inf
        iterations = 0
        converged = False
    runtime_ms = (time.perf_counter() - started) * 1000.0 if cfg.record_runtime else 0.0
    return SweepRecord(
        n=n, rho=rho, r=cfg.r, C1=cfg.C1, lam=lam, trial=trial, seed=seed,
        rel_err_L=rel_err, success=rel_err < cfg.success_threshold,
        iterations=iterations, converged=converged, runtime_ms=runtime_ms,
    )


def _all_cells(cfg: SweepConfig) -> list:
    return [
        (n, rho_idx, trial)
        for n in cfg.n_list
        for rho_idx in range(len(cfg.rho_grid))
        for trial in range(cfg.trials)
    ]


def run_sweep(
    cfg: SweepConfig,
    jobs: int = 1,
    done: Optional[dict] = None,
    collector: Optional[list] = None,
) -> SweepResult:
    """Execute (or complete) a sweep and return all records in grid order.

    ``jobs`` worker processes run the cells. ``done`` maps
    (n, rho_idx, trial) to already-computed records (see load_done).
    ``collector``, when given, receives those records and then each new one
    as it completes, so a caller can flush the finished cells if the run
    stops on an exception.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    done = done or {}
    collector = collector if collector is not None else []
    collector.extend(done.values())

    todo = [cell for cell in _all_cells(cfg) if cell not in done]
    tasks = [(cfg, n, rho_idx, trial) for (n, rho_idx, trial) in todo]
    if jobs == 1 or len(tasks) <= 1:
        for task in tasks:
            collector.append(_run_cell(task))
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            waiting = {pool.submit(_run_cell, task) for task in tasks}
            try:
                for future in as_completed(list(waiting)):
                    waiting.remove(future)
                    collector.append(future.result())
            except BaseException:
                # start no further cell; keep those that finish while shutting down
                pool.shutdown(cancel_futures=True)
                collector.extend(f.result() for f in waiting
                                 if not f.cancelled() and f.exception() is None)
                raise
    return SweepResult(config=cfg, records=collector)


def _rho_index(cfg: SweepConfig, rho: float) -> int:
    for i, value in enumerate(cfg.rho_grid):
        if _close(value, rho):
            return i
    raise ValueError(f"rho={rho} is not on the configured grid")


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def emit_csv(result: SweepResult, path) -> None:
    """One row per trial, floats at 9 significant digits, booleans as 0/1."""
    lines = [CSV_HEADER]
    for rec in result.records:
        lines.append(
            f"{rec.n},{_fmt(rec.rho)},{rec.r},{_fmt(rec.C1)},{_fmt(rec.lam)},"
            f"{rec.trial},{rec.seed},{_fmt(rec.rel_err_L)},{1 if rec.success else 0},"
            f"{rec.iterations},{1 if rec.converged else 0},{_fmt(rec.runtime_ms)}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_sidecar(result: SweepResult, csv_path) -> None:
    """Config snapshot and hash stored beside the CSV for resume checks."""
    sidecar = {
        "config_hash": config_hash(result.config),
        "config": result.config.to_dict(),
    }
    Path(str(csv_path) + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_csv(path) -> list:
    """Parse an emitted CSV back into SweepRecord objects."""
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: missing or unexpected CSV header")
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 12:
            raise ValueError(f"{path}: malformed row {ln!r}")
        records.append(
            SweepRecord(
                n=int(parts[0]), rho=float(parts[1]), r=int(parts[2]),
                C1=float(parts[3]), lam=float(parts[4]), trial=int(parts[5]),
                seed=int(parts[6]), rel_err_L=float(parts[7]),
                success=parts[8] == "1", iterations=int(parts[9]),
                converged=parts[10] == "1", runtime_ms=float(parts[11]),
            )
        )
    return records


def load_done(cfg: SweepConfig, existing_csv) -> dict:
    """Finished records of an earlier run of cfg, keyed by (n, rho_idx, trial).

    The existing CSV must have been produced by an identical configuration,
    verified against the config hash in the sidecar JSON next to it, and
    hold each cell of the grid at most once.
    """
    sidecar_path = Path(str(existing_csv) + ".json")
    if not sidecar_path.exists():
        raise ValueError(f"missing sidecar {sidecar_path}; cannot verify config")
    sidecar = json.loads(sidecar_path.read_text())
    found = sidecar.get("config_hash") if isinstance(sidecar, dict) else None
    expected = config_hash(cfg)
    if found != expected:
        raise ValueError(
            "config mismatch: existing CSV was produced by a different "
            f"configuration (hash {found!r} != {expected!r})"
        )
    cells = set(_all_cells(cfg))
    done = {}
    for rec in load_csv(existing_csv):
        key = (rec.n, _rho_index(cfg, rec.rho), rec.trial)
        if key not in cells or key in done:
            raise ValueError(f"{existing_csv}: row for n={rec.n}, rho={rec.rho}, "
                             f"trial={rec.trial} is off the grid or repeated")
        done[key] = rec
    return done


def resume_sweep(cfg: SweepConfig, existing_csv, jobs: int = 1) -> SweepResult:
    """Complete the missing cells of an interrupted sweep (see load_done).

    The merged result is identical to an uninterrupted run.
    """
    return run_sweep(cfg, jobs=jobs, done=load_done(cfg, existing_csv))


def emit_heatmap(result: SweepResult, path) -> None:
    """Binary PGM of success fractions on the (n, rho) lattice.

    Width is the rho grid size, height the number of dimensions (rows in
    ascending n); pixel = round-half-up of 255 * success_fraction, so white
    means every trial recovered. The grid must be complete.
    """
    cfg = result.config
    counts = {}
    successes = {}
    for rec in result.records:
        key = (rec.n, _rho_index(cfg, rec.rho))
        counts[key] = counts.get(key, 0) + 1
        successes[key] = successes.get(key, 0) + (1 if rec.success else 0)
    n_rows = sorted(set(cfg.n_list))
    missing = []
    for n in n_rows:
        for rho_idx in range(len(cfg.rho_grid)):
            if counts.get((n, rho_idx), 0) != cfg.trials:
                missing.append((n, cfg.rho_grid[rho_idx]))
    if missing:
        raise ValueError(f"incomplete grid, missing/partial cells: {missing}")
    width = len(cfg.rho_grid)
    height = len(n_rows)
    pixels = bytearray()
    for n in n_rows:
        for rho_idx in range(width):
            frac = successes[(n, rho_idx)] / cfg.trials
            pixels.append(int(math.floor(255.0 * frac + 0.5)))
    header = f"P5\n{width} {height}\n255\n".encode()
    Path(path).write_bytes(header + bytes(pixels))
