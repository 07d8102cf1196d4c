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
from itertools import product
from pathlib import Path
from typing import Optional, get_args

import numpy as np

from .problems import SupportModel, lambda_from_spec, make_instance
from .rng import mix_seed
from .solver import SolverConfig, SolveResult, pcp_solve


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
        return asdict(self)

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
    """One trial of a sweep; the fields, in order, are the CSV columns."""

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


_COLUMNS = fields(SweepRecord)
CSV_HEADER = ",".join("lambda" if f.name == "lam" else f.name for f in _COLUMNS)


def _parse_flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"a flag must be 0 or 1, got {text!r}")
    return text == "1"


# by declared field type: CSV text of a value, and the value of a CSV text
_FORMAT = {int: str, float: "{:.9g}".format, bool: lambda flag: "1" if flag else "0"}
_PARSE = {int: int, float: float, bool: _parse_flag}


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

    def _tally(self) -> dict:
        """(n, rho_idx) -> (successes, records) of each cell that has records."""
        tally = {}
        for rec in self.records:
            key = (rec.n, _rho_index(self.config, rec.rho))
            hits, trials = tally.get(key, (0, 0))
            tally[key] = (hits + rec.success, trials + 1)
        return tally

    def success_fraction(self, n: int, rho: float) -> float:
        hits, trials = self._tally().get((n, _rho_index(self.config, rho)), (0, 0))
        if not trials:
            raise KeyError(f"no records for cell (n={n}, rho={rho})")
        return hits / trials


def cell_seed(base_seed: int, n: int, rho_idx: int, trial: int) -> int:
    """Per-trial seed: splitmix64 mix of (base_seed, n, rho_index, trial)."""
    return mix_seed(base_seed, n, rho_idx, trial)


def config_hash(cfg: SweepConfig) -> str:
    """Hash of every config field; each one affects the results."""
    canon = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


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
    """Every (n, rho_idx, trial) cell of the grid."""
    return list(product(cfg.n_list, range(len(cfg.rho_grid)), range(cfg.trials)))


def run_sweep(cfg: SweepConfig, jobs: int = 1, done: Optional[dict] = None) -> SweepResult:
    """Execute (or complete) a sweep and return all records in grid order.

    ``jobs`` worker processes run the cells. ``done`` maps
    (n, rho_idx, trial) to already-computed records (see load_done); the
    cells it lacks are run and each finished record is added to it in place,
    also when the run stops on an exception, so a caller that passed the
    dict still holds every finished cell.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    done = {} if done is None else done
    todo = [cell for cell in _all_cells(cfg) if cell not in done]
    if jobs == 1 or len(todo) <= 1:
        for cell in todo:
            done[cell] = _run_cell((cfg, *cell))
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            waiting = {pool.submit(_run_cell, (cfg, *cell)): cell for cell in todo}
            try:
                for future in as_completed(list(waiting)):
                    cell = waiting.pop(future)
                    done[cell] = future.result()
            except BaseException:
                # start no further cell; keep those that finish while shutting down
                pool.shutdown(cancel_futures=True)
                done.update((cell, f.result()) for f, cell in waiting.items()
                            if not f.cancelled() and f.exception() is None)
                raise
    return SweepResult(config=cfg, records=list(done.values()))


def _rho_index(cfg: SweepConfig, rho: float) -> int:
    for i, value in enumerate(cfg.rho_grid):
        if abs(value - rho) <= 1e-9 * max(1.0, abs(value), abs(rho)):
            return i
    raise ValueError(f"rho={rho} is not on the configured grid")


def emit_csv(result: SweepResult, path) -> None:
    """One row per trial, floats at 9 significant digits, booleans as 0/1."""
    rows = [",".join(_FORMAT[f.type](getattr(rec, f.name)) for f in _COLUMNS)
            for rec in result.records]
    Path(path).write_text("\n".join([CSV_HEADER, *rows]) + "\n")


def write_sidecar(result: SweepResult, csv_path) -> None:
    """Config snapshot and hash stored beside the CSV for resume checks."""
    sidecar = {
        "config_hash": config_hash(result.config),
        "config": result.config.to_dict(),
    }
    Path(str(csv_path) + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_csv(path) -> list:
    """Parse an emitted CSV back into SweepRecord objects; each value must
    parse as its field's type, and a flag must read 0 or 1."""
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: missing or unexpected CSV header")
    records = []
    for row, ln in enumerate(lines[1:], start=1):
        values = ln.split(",")
        try:
            if len(values) != len(_COLUMNS):
                raise ValueError(f"{len(values)} values for {len(_COLUMNS)} columns")
            records.append(SweepRecord(*(_PARSE[f.type](v) for f, v in zip(_COLUMNS, values))))
        except ValueError as exc:
            raise ValueError(f"{path}: malformed row {row} {ln!r}: {exc}") from None
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
    tally = result._tally()
    width, height = len(cfg.rho_grid), len(cfg.n_list)
    cells = [(n, rho_idx) for n in sorted(cfg.n_list) for rho_idx in range(width)]
    missing = [(n, cfg.rho_grid[rho_idx]) for n, rho_idx in cells
               if tally.get((n, rho_idx), (0, 0))[1] != cfg.trials]
    if missing:
        raise ValueError(f"incomplete grid, missing/partial cells: {missing}")
    pixels = bytes(int(math.floor(255.0 * (hits / trials) + 0.5))
                   for hits, trials in (tally[cell] for cell in cells))
    header = f"P5\n{width} {height}\n255\n".encode()
    Path(path).write_bytes(header + pixels)
