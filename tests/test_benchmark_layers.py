"""The traced benchmark rebinds the functions named in perfbench/spans.py,
its workloads call the package by its public names, and its sweep workload
reads back the CSV the harness writes; these tests keep the package in step
with all three without running the benchmark."""

import ast
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np

import pcp
from pcp.harness import SweepConfig, SweepRecord, SweepResult, emit_csv, load_csv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS_PATH = PERFBENCH / "spans.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_spans():
    return _load("perfbench_spans", SPANS_PATH)


def test_layer_functions_resolve_in_pcp():
    spans = _load_spans()
    assert spans.LAYER_FUNCTIONS
    for name, (home, attr) in spans.LAYER_FUNCTIONS.items():
        module = importlib.import_module(home)
        assert callable(getattr(module, attr, None)), f"{name}: {home}.{attr} is gone"


def test_workload_names_resolve_in_pcp():
    # every pcp.<name> that perfbench/workloads.py reads must stay exported
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    names = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "pcp"
    }
    assert {"resume_sweep", "load_csv", "lambda_dense", "SolverConfig"} <= names
    missing = sorted(name for name in names if not hasattr(pcp, name))
    assert not missing, f"perfbench/workloads.py uses pcp.{missing} that the package lacks"


def test_tap_sees_the_neumann_part_of_certify_instance():
    # the certify workload reads W_S by tapping the module-level function
    spans = _load_spans()
    n = 30
    S0 = np.zeros((n, n))
    S0[0, 1], S0[4, 2] = 1.0, -1.0
    with spans.tap("pcp.certificate", "neumann_component", []) as sink:
        _, W = pcp.certify_instance(np.ones((n, n)) / n, S0, 0.1, seed=0)
    assert len(sink) == 1 and sink[0].shape == W.shape


def test_sweep_workload_reads_the_csv_back_to_its_records(tmp_path, monkeypatch):
    # the sweep workload checks load_csv(emit_csv(result)) against the
    # records with its _csv_row; loaded by path, with perfbench/ importable
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = _load("perfbench_workloads", PERFBENCH / "workloads.py")
    cfg = SweepConfig(n_list=[20], rho_grid=[0.3, 0.1], C1=4, lambda_mode="dense", trials=1)
    records = [
        SweepRecord(n=20, rho=0.1, r=1, C1=4, lam=0.123456789123, trial=0, seed=2**63 + 5,
                    rel_err_L=1.23456789e-5, success=True, iterations=17, converged=True,
                    runtime_ms=12.3456789012),
        SweepRecord(n=20, rho=0.3, r=1, C1=4, lam=0.0712345678901, trial=0, seed=3,
                    rel_err_L=math.inf, success=False, iterations=0, converged=False,
                    runtime_ms=0.5),
    ]
    result = SweepResult(config=cfg, records=records)
    csv = tmp_path / "sweep.csv"
    emit_csv(result, csv)
    rows = [workloads._csv_row(rec) for rec in result.records]
    assert [workloads._csv_row(rec) for rec in load_csv(csv)] == rows
    assert rows[0][3] == 4 and rows[0][7] == math.inf
