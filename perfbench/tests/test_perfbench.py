"""Tests of the benchmark itself, on its quick mode.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_quick_runs_every_workload_and_check():
    out = run_bench("--quick", "--seed", "5")
    assert out.returncode == 0, out.stdout + out.stderr
    lines = [json.loads(ln) for ln in out.stdout.splitlines() if ln.startswith("{")]
    assert len(lines) == 4  # one per workload, then the combined line
    expected = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for result in lines[:3]:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == expected
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "environment:" in out.stdout and "blas_threads" in out.stdout


def test_traced_quick_counts_repeat_exactly():
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    runs = [last_json(run_bench("--quick", "--workload", "certify", "--trace", "1").stdout)
            for _ in range(2)]
    for result in runs:
        assert result["correct"] and set(result["metrics"]) == names
    counts = ("certificate.opnorm_steps", "certificate.neumann_terms",
              "linalg.spectral_norm_calls")
    for key in counts:
        assert runs[0]["metrics"][key]["value"] > 0
        assert runs[0]["metrics"][key] == runs[1]["metrics"][key]
    assert runs[0]["metrics"]["solver.iterations"]["value"] == 0  # no solver on certify


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = run_bench("--workload", "solve", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert not any(ln.startswith("{") for ln in out.stdout.splitlines())


def test_instrument_records_nested_spans_and_restores():
    import pcp
    import pcp.solver

    original = pcp.solver.svt
    tracer = spans.Tracer()
    D = pcp.make_instance(30, 1, 0.1, 3).D
    with spans.instrument(tracer):
        result = pcp.pcp_solve(D, pcp.lambda_dense(30, 0.1, 0.8))
    assert pcp.solver.svt is original and pcp.pcp_solve.__module__ == "pcp.solver"
    solves = [s for s in tracer.spans if s.name == "solver.pcp_solve"]
    svts = [s for s in tracer.spans if s.name == "linalg.svt"]
    assert len(solves) == 1 and solves[0].count == result.iterations
    assert len(svts) == result.iterations and all(s.parent == solves[0].id for s in svts)
    inner = sum(s.duration for s in tracer.spans if s.parent == solves[0].id)
    assert abs(spans.self_time(tracer.spans, "solver.pcp_solve")
               - (solves[0].duration - inner)) < 1e-12
