import json

import numpy as np
import pytest

from pcp.harness import (
    CSV_HEADER,
    SweepConfig,
    SweepRecord,
    SweepResult,
    cell_seed,
    config_hash,
    emit_csv,
    emit_heatmap,
    load_csv,
    resume_sweep,
    run_sweep,
    write_sidecar,
)
from pcp.solver import SolverConfig


def tiny_config(**overrides):
    base = dict(
        n_list=[20, 30],
        rho_grid=[0.1, 0.3],
        r=1,
        C1=0.8,
        lambda_mode="classic",
        trials=2,
        base_seed=7,
        support_model="exact",
        solver=SolverConfig(max_iters=300),
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_cell_seed_is_stable_and_distinct():
    s = cell_seed(7, 100, 2, 3)
    assert s == cell_seed(7, 100, 2, 3)
    assert s != cell_seed(7, 100, 2, 4)
    assert s != cell_seed(7, 200, 2, 3)


def test_run_sweep_grid_shape_and_order():
    cfg = tiny_config()
    result = run_sweep(cfg)
    assert len(result.records) == 2 * 2 * 2
    keys = [(rec.n, rec.rho, rec.trial) for rec in result.records]
    assert keys == sorted(keys)


def test_run_sweep_deterministic():
    cfg = tiny_config()
    a, b = run_sweep(cfg), run_sweep(cfg)
    assert [r.__dict__ for r in a.records] == [r.__dict__ for r in b.records]


def test_run_sweep_parallel_matches_serial(tmp_path):
    cfg = tiny_config()
    serial = run_sweep(cfg, jobs=1)
    parallel = run_sweep(cfg, jobs=2)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(serial, p1)
    emit_csv(parallel, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_low_corruption_recovers():
    cfg = tiny_config(n_list=[60], rho_grid=[0.05], trials=2, lambda_mode="dense")
    result = run_sweep(cfg)
    assert result.success_fraction(60, 0.05) == 1.0


def test_extreme_corruption_fails():
    cfg = tiny_config(n_list=[40], rho_grid=[0.99], trials=3, lambda_mode="dense")
    result = run_sweep(cfg)
    assert result.success_fraction(40, 0.99) == 0.0


# ------------------------------------------------------------------- csv

def test_emit_csv_empty(tmp_path):
    result = SweepResult(config=tiny_config(), records=[])
    p = tmp_path / "empty.csv"
    emit_csv(result, p)
    assert p.read_text() == CSV_HEADER + "\n"


def test_emit_csv_row_count(tmp_path):
    cfg = tiny_config(n_list=[20], rho_grid=[0.1], trials=2)
    result = run_sweep(cfg)
    p = tmp_path / "one.csv"
    emit_csv(result, p)
    lines = p.read_text().splitlines()
    assert len(lines) == 1 + 2  # header + trials


def test_csv_round_trip_success_fraction(tmp_path):
    cfg = tiny_config()
    result = run_sweep(cfg)
    p = tmp_path / "rt.csv"
    emit_csv(result, p)
    parsed = SweepResult(config=cfg, records=load_csv(p))
    for n in cfg.n_list:
        for rho in cfg.rho_grid:
            assert parsed.success_fraction(n, rho) == result.success_fraction(n, rho)


def test_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("nope\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        load_csv(p)


def test_csv_header_is_pinned():
    assert CSV_HEADER == (
        "n,rho,r,C1,lambda,trial,seed,rel_err_L,success,iterations,converged,runtime_ms"
    )


def test_csv_formats_are_stable(tmp_path):
    rec = SweepRecord(
        n=100, rho=0.1, r=1, C1=0.8, lam=0.0123456789, trial=0, seed=12345,
        rel_err_L=1.23456789e-5, success=True, iterations=17, converged=True,
        runtime_ms=0.0,
    )
    result = SweepResult(config=tiny_config(), records=[rec])
    p = tmp_path / "fmt.csv"
    emit_csv(result, p)
    row = p.read_text().splitlines()[1]
    assert row == "100,0.1,1,0.8,0.0123456789,0,12345,1.23456789e-05,1,17,1,0"


# --------------------------------------------------------------- heatmap

def _fraction_result(fracs, trials=4):
    # single n row, len(fracs) rho cells
    cfg = tiny_config(
        n_list=[50], rho_grid=[0.1 * (i + 1) for i in range(len(fracs))],
        trials=trials,
    )
    records = []
    for idx, frac in enumerate(fracs):
        wins = round(frac * trials)
        for t in range(trials):
            records.append(
                SweepRecord(
                    n=50, rho=cfg.rho_grid[idx], r=1, C1=0.8, lam=0.1, trial=t,
                    seed=0, rel_err_L=0.0 if t < wins else 1.0,
                    success=t < wins, iterations=1, converged=True, runtime_ms=0.0,
                )
            )
    return cfg, SweepResult(config=cfg, records=records)


def test_heatmap_all_success(tmp_path):
    _, result = _fraction_result([1.0, 1.0, 1.0])
    p = tmp_path / "w.pgm"
    emit_heatmap(result, p)
    raw = p.read_bytes()
    assert raw.startswith(b"P5\n3 1\n255\n")
    assert raw[-3:] == b"\xff\xff\xff"


def test_heatmap_all_failures(tmp_path):
    _, result = _fraction_result([0.0, 0.0])
    p = tmp_path / "b.pgm"
    emit_heatmap(result, p)
    assert p.read_bytes()[-2:] == b"\x00\x00"


def test_heatmap_half_rounds_up(tmp_path):
    _, result = _fraction_result([0.5], trials=4)
    p = tmp_path / "h.pgm"
    emit_heatmap(result, p)
    assert p.read_bytes()[-1] == 128  # round-half-up of 127.5


def test_heatmap_rows_ascend_in_n(tmp_path):
    cfg = tiny_config(n_list=[30, 20], rho_grid=[0.1], trials=1)
    records = [
        SweepRecord(n=20, rho=0.1, r=1, C1=0.8, lam=0.1, trial=0, seed=0,
                    rel_err_L=0.0, success=True, iterations=1, converged=True,
                    runtime_ms=0.0),
        SweepRecord(n=30, rho=0.1, r=1, C1=0.8, lam=0.1, trial=0, seed=0,
                    rel_err_L=1.0, success=False, iterations=1, converged=True,
                    runtime_ms=0.0),
    ]
    p = tmp_path / "rows.pgm"
    emit_heatmap(SweepResult(config=cfg, records=records), p)
    raw = p.read_bytes()
    assert raw[-2:] == bytes([255, 0])  # n=20 row first, then n=30


def test_heatmap_incomplete_grid_lists_cells(tmp_path):
    cfg = tiny_config(n_list=[20], rho_grid=[0.1, 0.2], trials=2)
    records = [
        SweepRecord(n=20, rho=0.1, r=1, C1=0.8, lam=0.1, trial=t, seed=0,
                    rel_err_L=0.0, success=True, iterations=1, converged=True,
                    runtime_ms=0.0)
        for t in range(2)
    ]
    with pytest.raises(ValueError, match=r"0\.2"):
        emit_heatmap(SweepResult(config=cfg, records=records), tmp_path / "x.pgm")


# ---------------------------------------------------------------- resume

def test_resume_complete_csv_is_identity(tmp_path):
    cfg = tiny_config()
    result = run_sweep(cfg)
    p = tmp_path / "full.csv"
    emit_csv(result, p)
    write_sidecar(result, p)
    resumed = resume_sweep(cfg, p)
    q = tmp_path / "resumed.csv"
    emit_csv(resumed, q)
    assert q.read_bytes() == p.read_bytes()


def test_resume_empty_csv_runs_everything(tmp_path):
    cfg = tiny_config()
    p = tmp_path / "empty.csv"
    p.write_text(CSV_HEADER + "\n")
    write_sidecar(SweepResult(config=cfg, records=[]), p)
    resumed = resume_sweep(cfg, p)
    fresh = run_sweep(cfg)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(resumed, a)
    emit_csv(fresh, b)
    assert a.read_bytes() == b.read_bytes()


def test_resume_half_complete_matches_fresh(tmp_path):
    cfg = tiny_config()
    fresh = run_sweep(cfg)
    half = SweepResult(config=cfg, records=fresh.records[: len(fresh.records) // 2])
    p = tmp_path / "half.csv"
    emit_csv(half, p)
    write_sidecar(half, p)
    resumed = resume_sweep(cfg, p)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(resumed, a)
    emit_csv(fresh, b)
    assert a.read_bytes() == b.read_bytes()


def test_resume_refuses_config_mismatch(tmp_path):
    cfg = tiny_config()
    result = run_sweep(cfg)
    p = tmp_path / "full.csv"
    emit_csv(result, p)
    write_sidecar(result, p)
    other = tiny_config(base_seed=8)
    with pytest.raises(ValueError, match="config mismatch"):
        resume_sweep(other, p)


def test_resume_requires_sidecar(tmp_path):
    cfg = tiny_config()
    p = tmp_path / "nosidecar.csv"
    p.write_text(CSV_HEADER + "\n")
    with pytest.raises(ValueError, match="sidecar"):
        resume_sweep(cfg, p)


# ----------------------------------------------------------------- config

def test_config_hash_golden_pins():
    """Hashes of configs written before the config was validated up front
    (C10's, and the README example's) do not move, so their sidecars still
    verify on --resume."""
    c10 = SweepConfig(
        n_list=[30, 40], rho_grid=[0.1, 0.5], r=1, C1=0.8,
        lambda_mode="dense", trials=3, base_seed=99, support_model="exact",
        solver=SolverConfig(max_iters=400),
    )
    assert config_hash(c10) == "d0b3e673407c610ed6cd6d9adb62943c5ad39232bc67de14d4b3c3ef7999bdd9"
    readme = SweepConfig.from_dict({
        "n_list": [400],
        "rho_grid": [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4],
        "r": 1, "C1": 0.8, "lambda_mode": "dense", "trials": 10,
        "base_seed": 2024, "support_model": "exact",
        "solver": {"tol_feasibility": 1e-7, "max_iters": 1000},
    })
    assert config_hash(readme) == "87ccb183bff6b75b68a794df3a24a9a44ad986c48a0d0c8996ce72c36f9167db"
    assert config_hash(tiny_config()) != config_hash(tiny_config(base_seed=99))


def test_config_json_round_trip():
    cfg = tiny_config()
    back = SweepConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert config_hash(back) == config_hash(cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(rho_grid=[])
    with pytest.raises(ValueError):
        tiny_config(rho_grid=[1.5])
    with pytest.raises(ValueError):
        tiny_config(trials=0)
    with pytest.raises(ValueError):
        tiny_config(lambda_mode="bogus")
    with pytest.raises(ValueError):
        tiny_config(lambda_mode="fixed:-2")
    for bad in (
        dict(n_list=[20, 3], r=4),          # r above the smallest n
        dict(n_list=[20, 20]),
        dict(rho_grid=[0.1, 0.3, 0.1]),
        dict(trials=True),
        dict(trials=2.0),
        dict(r="1"),
        dict(support_model="uniform"),
        dict(C1=float("nan")),
        dict(record_runtime="yes"),
    ):
        with pytest.raises(ValueError):
            tiny_config(**bad)
    with pytest.raises(ValueError, match="unknown"):
        SweepConfig.from_dict({"n_list": [20], "rho_grid": [0.1], "parallelism": 2})
    with pytest.raises(ValueError, match="lacks"):
        SweepConfig.from_dict({"n_list": [20]})


def test_statistical_monotonicity_in_dimension():
    """Success fraction for fixed rho is nondecreasing in n across
    {200, 400, 800} (up to one grid-cell violation)."""
    cfg = SweepConfig(
        n_list=[200, 400, 800],
        rho_grid=[0.15],
        r=1,
        C1=0.8,
        lambda_mode="dense",
        trials=4,
        base_seed=3,
        support_model="exact",
        solver=SolverConfig(),
    )
    result = run_sweep(cfg, jobs=4)
    fracs = [result.success_fraction(n, 0.15) for n in cfg.n_list]
    violations = sum(1 for a, b in zip(fracs, fracs[1:]) if b < a)
    assert violations <= 1, fracs
