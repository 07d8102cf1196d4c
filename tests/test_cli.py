import json
import subprocess
import sys

import numpy as np
import pytest

from pcp.pcpm import load_matrix


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "pcp", *args],
        capture_output=True, text=True, env=env,
    )


def test_gen_writes_instance_and_sidecar(tmp_path):
    out = {k: tmp_path / f"{k}.pcpm" for k in ("l0", "s0", "d")}
    proc = run_cli(
        "gen", "--n", "30", "--r", "2", "--rho", "0.2", "--seed", "5",
        "--model", "exact",
        "--out-l0", str(out["l0"]), "--out-s0", str(out["s0"]),
        "--out-d", str(out["d"]),
    )
    assert proc.returncode == 0, proc.stderr
    L0, S0, D = (load_matrix(out[k]) for k in ("l0", "s0", "d"))
    np.testing.assert_array_equal(D, L0 + S0)
    assert np.count_nonzero(S0) == int(0.2 * 900)
    sidecar = json.loads((tmp_path / "d.pcpm.json").read_text())
    assert sidecar["n"] == 30 and sidecar["rho"] == 0.2 and sidecar["seed"] == 5


def test_gen_is_deterministic(tmp_path):
    args = ["gen", "--n", "20", "--r", "1", "--rho", "0.3", "--seed", "9"]
    a = tmp_path / "a.pcpm"
    b = tmp_path / "b.pcpm"
    for out in (a, b):
        proc = run_cli(
            *args, "--out-l0", str(tmp_path / "l.pcpm"),
            "--out-s0", str(tmp_path / "s.pcpm"), "--out-d", str(out),
        )
        assert proc.returncode == 0, proc.stderr
    assert a.read_bytes() == b.read_bytes()


def test_solve_round_trip(tmp_path):
    d = tmp_path / "d.pcpm"
    proc = run_cli(
        "gen", "--n", "40", "--r", "1", "--rho", "0.1", "--seed", "3",
        "--out-l0", str(tmp_path / "l0.pcpm"),
        "--out-s0", str(tmp_path / "s0.pcpm"), "--out-d", str(d),
    )
    assert proc.returncode == 0, proc.stderr
    report = tmp_path / "report.json"
    proc = run_cli(
        "solve", "--d", str(d), "--lambda", "classic",
        "--out-l", str(tmp_path / "lhat.pcpm"),
        "--out-s", str(tmp_path / "shat.pcpm"), "--report", str(report),
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(report.read_text())
    assert payload["converged"]
    assert payload["feasibility_residual"] <= 1e-7
    L_hat = load_matrix(tmp_path / "lhat.pcpm")
    S_hat = load_matrix(tmp_path / "shat.pcpm")
    D = load_matrix(d)
    rel = np.linalg.norm(D - L_hat - S_hat) / np.linalg.norm(D)
    assert rel <= 1e-6
    L0 = load_matrix(tmp_path / "l0.pcpm")
    assert np.linalg.norm(L0 - L_hat) / np.linalg.norm(L0) < 0.01


def test_certify_reports_fields(tmp_path):
    # flat target: writes a certifiable instance by hand
    from pcp.pcpm import save_matrix
    from pcp.problems import generate_sign_corruption, random_signs_on

    n = 60
    L0 = np.ones((n, n)) / n
    _, omega = generate_sign_corruption(n, 0.02, "exact", 11)
    S0 = random_signs_on(omega, 12)
    save_matrix(L0, tmp_path / "l0.pcpm")
    save_matrix(S0, tmp_path / "s0.pcpm")
    report = tmp_path / "cert.json"
    proc = run_cli(
        "certify", "--l0", str(tmp_path / "l0.pcpm"),
        "--s0", str(tmp_path / "s0.pcpm"),
        "--lambda", "dense:0.02,0.8", "--seed", "4", "--report", str(report),
    )
    assert proc.returncode in (0, 1), proc.stderr
    payload = json.loads(report.read_text())
    for key in (
        "pt_w_norm", "w_spectral", "omega_residual", "omega_perp_inf",
        "alpha", "epsilon", "lambda", "passed", "wl_checks", "ws_checks",
    ):
        assert key in payload
    assert proc.returncode == (0 if payload["passed"] else 1)


def sweep_config_file(tmp_path, **overrides):
    cfg = dict(
        n_list=[20, 30], rho_grid=[0.1, 0.3], r=1, C1=0.8,
        lambda_mode="classic", trials=2, base_seed=7, support_model="exact",
        solver={"max_iters": 300},
    )
    cfg.update(overrides)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    return path


def test_sweep_runs_and_reruns_identically(tmp_path):
    cfg_path = sweep_config_file(tmp_path)
    outputs = []
    for tag, jobs in (("one", "1"), ("two", "2")):
        csv = tmp_path / f"{tag}.csv"
        pgm = tmp_path / f"{tag}.pgm"
        proc = run_cli(
            "sweep", "--config", str(cfg_path), "--out-csv", str(csv),
            "--out-pgm", str(pgm), "--jobs", jobs,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((csv.read_bytes(), pgm.read_bytes()))
    assert outputs[0] == outputs[1]


def test_sweep_resume_from_partial(tmp_path):
    cfg_path = sweep_config_file(tmp_path)
    full_csv = tmp_path / "full.csv"
    proc = run_cli("sweep", "--config", str(cfg_path), "--out-csv", str(full_csv))
    assert proc.returncode == 0, proc.stderr

    # truncate to a partial CSV with matching sidecar, then resume
    import shutil

    lines = full_csv.read_text().splitlines()
    partial_csv = tmp_path / "partial.csv"
    partial_csv.write_text("\n".join(lines[:4]) + "\n")
    shutil.copy(str(full_csv) + ".json", str(partial_csv) + ".json")
    resumed_csv = tmp_path / "resumed.csv"
    proc = run_cli(
        "sweep", "--config", str(cfg_path), "--resume", str(partial_csv),
        "--out-csv", str(resumed_csv),
    )
    assert proc.returncode == 0, proc.stderr
    assert resumed_csv.read_bytes() == full_csv.read_bytes()


def test_sweep_jobs_env_default(tmp_path, monkeypatch):
    import os

    cfg_path = sweep_config_file(tmp_path, n_list=[20], rho_grid=[0.1], trials=1)
    csv = tmp_path / "env.csv"
    env = dict(os.environ, PCP_JOBS="2")
    proc = run_cli(
        "sweep", "--config", str(cfg_path), "--out-csv", str(csv), env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert csv.exists()


def test_cli_error_on_missing_file():
    proc = run_cli("solve", "--d", "/nonexistent.pcpm", "--lambda", "classic")
    assert proc.returncode == 1
    assert "error" in proc.stderr.lower()


def test_sweep_interrupt_flushes_partial_and_exits_2(tmp_path):
    """SIGINT mid-sweep: exit code 2 with whatever completed flushed."""
    import os
    import signal
    import time

    cfg_path = sweep_config_file(
        tmp_path, n_list=[300], rho_grid=[0.1, 0.2, 0.3, 0.4], trials=8,
        solver={"max_iters": 1000},
    )
    csv = tmp_path / "partial.csv"
    proc = subprocess.Popen(
        [sys.executable, "-m", "pcp", "sweep", "--config", str(cfg_path),
         "--out-csv", str(csv), "--jobs", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    time.sleep(4.0)
    proc.send_signal(signal.SIGINT)
    proc.wait(timeout=60)
    assert proc.returncode == 2
    assert csv.exists()
    text = csv.read_text().splitlines()
    assert text[0].startswith("n,rho,")
    assert (tmp_path / "partial.csv.json").exists()


def test_sweep_interrupt_flush_keeps_grid_order(tmp_path, monkeypatch):
    """Partial CSV rows follow the rho grid's order, as a full run's do."""
    import pcp.cli
    from pcp.harness import SweepRecord

    cfg_path = sweep_config_file(tmp_path, n_list=[20], rho_grid=[0.3, 0.1])

    def interrupted(cfg, jobs=None, done=None):
        for rho, trial in ((0.1, 0), (0.3, 1), (0.3, 0)):  # completion order
            done[(20, cfg.rho_grid.index(rho), trial)] = SweepRecord(
                n=20, rho=rho, r=1, C1=0.8, lam=0.2, trial=trial, seed=trial,
                rel_err_L=0.0, success=True, iterations=1, converged=True,
                runtime_ms=0.0,
            )
        raise KeyboardInterrupt

    monkeypatch.setattr(pcp.cli, "run_sweep", interrupted)
    csv = tmp_path / "partial.csv"
    assert pcp.cli.main(["sweep", "--config", str(cfg_path), "--out-csv", str(csv)]) == 2
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    assert [(float(row[1]), int(row[5])) for row in rows] == [(0.3, 0), (0.3, 1), (0.1, 0)]


BAD_SWEEP_CONFIGS = [
    pytest.param(dict(bogus=1), id="unknown-top-level-key"),
    pytest.param(dict(solver={"solvr": {"max_iters": 300}}), id="unknown-solver-key"),
    pytest.param(dict(trials="2"), id="string-trials"),
    pytest.param(dict(n_list=[20, 3], r=4), id="rank-above-smallest-n"),
    pytest.param(dict(rho_grid=[0.1, 0.3, 0.1]), id="repeated-rho"),
    pytest.param(dict(lambda_mode="fixed:nan"), id="nan-lambda"),
    pytest.param(None, id="json-list"),
]


def bad_config_file(tmp_path, overrides):
    if overrides is None:
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps([{"n_list": [20], "rho_grid": [0.1]}]))
        return path
    return sweep_config_file(tmp_path, **overrides)


@pytest.mark.parametrize("overrides", BAD_SWEEP_CONFIGS)
def test_sweep_rejects_bad_config_with_one_line(tmp_path, overrides):
    csv = tmp_path / "out.csv"
    proc = run_cli(
        "sweep", "--config", str(bad_config_file(tmp_path, overrides)),
        "--out-csv", str(csv),
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert not csv.exists()


@pytest.mark.parametrize("overrides", BAD_SWEEP_CONFIGS)
def test_sweep_rejects_bad_config_before_any_cell(tmp_path, monkeypatch, overrides):
    import pcp.cli
    import pcp.harness

    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran for a config that should be rejected")

    monkeypatch.setattr(pcp.harness, "make_instance", no_cell)
    csv = tmp_path / "out.csv"
    argv = ["sweep", "--config", str(bad_config_file(tmp_path, overrides)), "--out-csv", str(csv)]
    assert pcp.cli.main(argv) == 1
    assert not csv.exists()


@pytest.mark.parametrize("outputs", [
    pytest.param(("missing/out.csv", None), id="missing-csv-dir"),
    pytest.param(("out.csv", "missing/out.pgm"), id="missing-pgm-dir"),
    pytest.param(("csvdir", None), id="csv-path-is-a-directory"),
])
def test_sweep_rejects_unwritable_output_before_any_cell(tmp_path, monkeypatch, capsys, outputs):
    import pcp.cli
    import pcp.harness

    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran although an output cannot be written")

    monkeypatch.setattr(pcp.harness, "make_instance", no_cell)
    cfg_path = sweep_config_file(tmp_path)
    (tmp_path / "csvdir").mkdir()
    before = sorted(tmp_path.rglob("*"))
    csv, pgm = outputs
    argv = ["sweep", "--config", str(cfg_path), "--out-csv", str(tmp_path / csv)]
    if pgm:
        argv += ["--out-pgm", str(tmp_path / pgm)]
    assert pcp.cli.main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert sorted(tmp_path.rglob("*")) == before


def test_sweep_error_in_a_cell_flushes_finished_rows(tmp_path, monkeypatch):
    """Any exception while cells run keeps the finished rows and exits 2."""
    import pcp.cli
    import pcp.harness

    run_cell = pcp.harness._run_cell
    calls = []

    def third_cell_fails(task):
        calls.append(task)
        if len(calls) == 3:
            raise RuntimeError("cell failed")
        return run_cell(task)

    monkeypatch.setattr(pcp.harness, "_run_cell", third_cell_fails)
    cfg_path = sweep_config_file(tmp_path, n_list=[20], rho_grid=[0.3, 0.1], trials=2)
    csv = tmp_path / "partial.csv"
    argv = ["sweep", "--config", str(cfg_path), "--out-csv", str(csv), "--jobs", "1"]
    assert pcp.cli.main(argv) == 2
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    assert [(float(row[1]), int(row[5])) for row in rows] == [(0.3, 0), (0.3, 1)]
    assert (tmp_path / "partial.csv.json").exists()


def test_sweep_rejected_resume_leaves_csv_untouched(tmp_path):
    """--resume x.csv --out-csv x.csv with a mismatched config exits 1
    without writing x.csv or its sidecar."""
    import pcp.cli
    from pcp.harness import SweepConfig, SweepResult, emit_csv, load_csv, write_sidecar

    existing = tmp_path / "x.csv"
    earlier = SweepConfig.from_dict(json.loads(sweep_config_file(tmp_path).read_text()))
    emit_csv(SweepResult(config=earlier, records=[]), existing)
    write_sidecar(SweepResult(config=earlier, records=[]), existing)
    existing.write_text(existing.read_text() + "20,0.1,1,0.8,0.2,0,1,0,1,3,1,0\n")
    assert len(load_csv(existing)) == 1
    before = existing.read_bytes(), (tmp_path / "x.csv.json").read_bytes()

    cfg_path = sweep_config_file(tmp_path, base_seed=8)
    argv = ["sweep", "--config", str(cfg_path), "--resume", str(existing),
            "--out-csv", str(existing)]
    assert pcp.cli.main(argv) == 1
    assert (existing.read_bytes(), (tmp_path / "x.csv.json").read_bytes()) == before


@pytest.mark.parametrize("argv, compute", [
    pytest.param(["gen", "--n", "20", "--r", "1", "--rho", "0.1", "--out-l0", "l0.pcpm",
                  "--out-s0", "s0.pcpm", "--out-d", "missing/d.pcpm"],
                 "make_instance", id="gen"),
    pytest.param(["solve", "--d", "d.pcpm", "--lambda", "classic", "--out-l", "L.pcpm",
                  "--out-s", "missing/S.pcpm"],
                 "pcp_solve", id="solve"),
    pytest.param(["certify", "--l0", "d.pcpm", "--s0", "d.pcpm", "--lambda", "classic",
                  "--report", "missing/cert.json"],
                 "certify_instance", id="certify"),
])
def test_unwritable_output_fails_before_compute(tmp_path, monkeypatch, capsys, argv, compute):
    """gen, solve and certify check every output path before any work and
    write nothing when one cannot be written."""
    import pcp.cli
    from pcp.pcpm import save_matrix

    def no_compute(*args, **kwargs):
        raise AssertionError(f"{compute} ran although an output cannot be written")

    monkeypatch.setattr(pcp.cli, compute, no_compute)
    monkeypatch.chdir(tmp_path)
    save_matrix(np.eye(20), tmp_path / "d.pcpm")
    before = sorted(tmp_path.rglob("*"))
    assert pcp.cli.main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("j0", ["x", "2.5", "0"])
def test_certify_rejects_bad_j0_before_loading(tmp_path, monkeypatch, capsys, j0):
    """A --j0 other than 'auto' or an integer >= 1 exits 1 with one error
    line naming --j0, before either matrix is read."""
    import pcp.cli

    def no_load(*args, **kwargs):
        raise AssertionError("a matrix was loaded although --j0 is invalid")

    monkeypatch.setattr(pcp.cli.pcpm, "load_matrix", no_load)
    argv = ["certify", "--l0", str(tmp_path / "l0.pcpm"), "--s0", str(tmp_path / "s0.pcpm"),
            "--lambda", "classic", "--j0", j0]
    assert pcp.cli.main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: --j0 must be 'auto' or an integer >= 1, got {j0!r}"]


def test_sweep_rejects_non_integer_pcp_jobs(tmp_path, monkeypatch, capsys):
    import pcp.cli

    monkeypatch.setenv("PCP_JOBS", "two")
    csv = tmp_path / "out.csv"
    argv = ["sweep", "--config", str(sweep_config_file(tmp_path)), "--out-csv", str(csv)]
    assert pcp.cli.main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: PCP_JOBS must be an integer >= 1, got 'two'"]
    assert not csv.exists()


@pytest.mark.parametrize("row", [
    pytest.param("20,0.1,1,0.8,0.2,0,1,0,true,3,1,0", id="success-true"),
    pytest.param("20,0.1,1,0.8,0.2,0,1.5,0,1,3,1,0", id="seed-not-integer"),
])
def test_sweep_resume_rejects_malformed_row(tmp_path, monkeypatch, capsys, row):
    """A --resume CSV row that does not parse exits 1 naming the file, before
    any cell runs, and leaves the CSV and its sidecar untouched."""
    import pcp.cli
    import pcp.harness
    from pcp.harness import SweepConfig, SweepResult, emit_csv, write_sidecar

    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran although the resume CSV is malformed")

    monkeypatch.setattr(pcp.harness, "make_instance", no_cell)
    cfg_path = sweep_config_file(tmp_path)
    existing = tmp_path / "x.csv"
    empty = SweepResult(config=SweepConfig.from_dict(json.loads(cfg_path.read_text())),
                        records=[])
    emit_csv(empty, existing)
    write_sidecar(empty, existing)
    existing.write_text(existing.read_text() + row + "\n")
    before = existing.read_bytes(), (tmp_path / "x.csv.json").read_bytes()

    argv = ["sweep", "--config", str(cfg_path), "--resume", str(existing),
            "--out-csv", str(existing)]
    assert pcp.cli.main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert str(existing) in lines[0]
    assert (existing.read_bytes(), (tmp_path / "x.csv.json").read_bytes()) == before


def test_certify_convergence_error_is_one_error_line(tmp_path, monkeypatch, capsys):
    """A Neumann solve that hits its application cap ends `pcp certify`
    with one error line and exit status 1, not a traceback."""
    import pcp.certificate
    import pcp.cli

    paths = {k: str(tmp_path / f"{k}.pcpm") for k in ("l0", "s0", "d")}
    assert pcp.cli.main(["gen", "--n", "60", "--r", "2", "--rho", "0.2", "--seed", "1",
                         "--out-l0", paths["l0"], "--out-s0", paths["s0"],
                         "--out-d", paths["d"]]) == 0
    monkeypatch.setattr(pcp.certificate, "NEUMANN_MAX_TERMS", 1)
    argv = ["certify", "--l0", paths["l0"], "--s0", paths["s0"], "--lambda", "classic"]
    assert pcp.cli.main(argv) == 1
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: Neumann solve"), lines
    assert "Traceback" not in err


def test_solve_defaults_are_solver_config_defaults():
    from pcp.cli import build_parser
    from pcp.solver import SolverConfig

    args = build_parser().parse_args(["solve", "--d", "d.pcpm", "--lambda", "classic"])
    defaults = SolverConfig()
    assert (args.tol, args.max_iters) == (defaults.tol_feasibility, defaults.max_iters)
