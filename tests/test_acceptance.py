"""Acceptance suite: one test per release criterion, each printing a
single [C## PASS/FAIL] line with the measured quantities.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines. Beside C04 and C06, two unnumbered tests check the finite-size
explanations in their docstrings. The whole test suite takes about 7
minutes on 2 cores (OpenBLAS), about 345 s of it in the two full n=400
sweeps shared by criteria 7 and 8.
Those two are marked ``slow``; `pytest -m "not slow"` leaves them out and
takes about 80 s.
"""

import math
import time

import numpy as np
import pytest

from pcp.certificate import (
    TangentSubspace,
    default_j0,
    golfing_component,
    neumann_component,
    opnorm_support_tangent,
    project_support,
    project_tangent,
    verify_certificate,
)
from pcp.harness import SweepConfig, emit_csv, emit_heatmap, run_sweep, write_sidecar
from pcp.linalg import soft_threshold, spectral_norm, svd, svt
from pcp.problems import (
    generate_low_rank,
    generate_sign_corruption,
    lambda_classic,
    lambda_dense,
    make_instance,
    random_signs_on,
    sample_golfing_partition,
)
from pcp.rng import mix_seed
from pcp.solver import SolverConfig, pca_baseline, pcp_solve
from oracles import dr_solve, scalar_soft_threshold

RHO_GRID = [round(0.05 * k, 2) for k in range(1, 20)]  # 0.05 .. 0.95


def report(num, passed, detail):
    print(f"\n[C{num:02d} {'PASS' if passed else 'FAIL'}] {detail}", flush=True)
    return passed


@pytest.fixture(scope="module")
def sweep_c08():
    cfg = SweepConfig(
        n_list=[400], rho_grid=RHO_GRID, r=1, C1=0.8, lambda_mode="dense",
        trials=10, base_seed=2024, support_model="exact",
        solver=SolverConfig(),
    )
    return run_sweep(cfg)


@pytest.fixture(scope="module")
def sweep_c40():
    cfg = SweepConfig(
        n_list=[400], rho_grid=RHO_GRID, r=1, C1=4.0, lambda_mode="dense",
        trials=10, base_seed=2024, support_model="exact",
        solver=SolverConfig(),
    )
    return run_sweep(cfg)


def test_c01_prox_exactness():
    """1000 random (M, tau): shrinkage matches the scalar formula to 1e-12
    and the thresholded spectrum matches max(sigma-tau, 0) to 1e-9."""
    rng = np.random.default_rng(101)
    worst_soft = 0.0
    worst_svt = 0.0
    started = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 13))
        M = rng.normal(scale=rng.uniform(0.1, 5.0), size=(n, m))
        tau = float(rng.uniform(0.0, 3.0))
        worst_soft = max(
            worst_soft,
            np.abs(soft_threshold(M, tau) - scalar_soft_threshold(M, tau)).max(),
        )
        s_in = svd(M).singular_values
        s_out = svd(svt(M, tau).reconstruct()).singular_values
        worst_svt = max(
            worst_svt, np.abs(s_out - np.maximum(s_in - tau, 0.0)).max()
        )
    elapsed = time.perf_counter() - started
    ok = worst_soft <= 1e-12 and worst_svt <= 1e-9 and elapsed < 60
    assert report(
        1, ok,
        f"prox exactness: soft dev {worst_soft:.2e} (<=1e-12), "
        f"svt spectrum dev {worst_svt:.2e} (<=1e-9), {elapsed:.1f}s",
    )


def test_c02_projector_algebra():
    """Idempotence, self-adjointness, complementarity of both projector
    families on 200 random instances, tolerance 1e-10."""
    rng = np.random.default_rng(202)
    worst = 0.0
    started = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(5, 101))
        r = int(rng.integers(1, min(n // 2, 6) + 1))
        rho = float(rng.uniform(0.05, 0.9))
        T = TangentSubspace.from_low_rank(
            generate_low_rank(n, r, int(rng.integers(2**32))), r
        )
        _, omega = generate_sign_corruption(
            n, rho, "bernoulli", int(rng.integers(2**32))
        )
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        scale = np.linalg.norm(A)
        PA = project_tangent(A, T)
        worst = max(worst, np.linalg.norm(project_tangent(PA, T) - PA) / scale)
        inner_gap = abs(
            np.tensordot(PA, B) - np.tensordot(A, project_tangent(B, T))
        )
        worst = max(worst, inner_gap / (scale * np.linalg.norm(B)))
        worst = max(worst, np.abs(PA + (A - PA) - A).max() / scale)
        SA = project_support(A, omega)
        worst = max(worst, np.linalg.norm(project_support(SA, omega) - SA) / scale)
        worst = max(worst, np.abs(SA + np.where(omega.mask, 0.0, A) - A).max() / scale)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 60
    assert report(
        2, ok, f"projector algebra: worst deviation {worst:.2e} (<=1e-10), {elapsed:.1f}s"
    )


def test_c03_small_instance_oracle_equivalence():
    """50 instances with n <= 15: pursuit objective within 1e-5 relative of
    an independent long-run Douglas-Rachford oracle, feasibility <= 1e-7."""
    tight = SolverConfig(
        tol_feasibility=1e-10, max_iters=60_000, rho_mu=1.02, mu_max_factor=1e14
    )
    cases = []
    for n in (5, 6, 8, 10, 12, 15):
        for r in (1, 2):
            for rho in (0.1, 0.3):
                cases.append((n, min(r, n // 2) or 1, rho))
    cases = (cases * 3)[:50]
    worst_gap = 0.0
    worst_feas = 0.0
    started = time.perf_counter()
    for idx, (n, r, rho) in enumerate(cases):
        inst = make_instance(n, r, rho, mix_seed(303, idx))
        lam = lambda_classic(n) if idx % 2 == 0 else lambda_dense(n, rho, 0.8)
        _, _, obj_oracle, _ = dr_solve(inst.D, lam, max_iters=400_000, tol=1e-12)
        res = pcp_solve(inst.D, lam, tight)
        worst_gap = max(worst_gap, abs(res.objective - obj_oracle) / obj_oracle)
        worst_feas = max(worst_feas, res.feasibility_residual)
    elapsed = time.perf_counter() - started
    ok = worst_gap <= 1e-5 and worst_feas <= 1e-7 and elapsed < 600
    assert report(
        3, ok,
        f"oracle equivalence over 50 instances: worst objective gap "
        f"{worst_gap:.2e} (<=1e-5), worst feasibility {worst_feas:.2e} "
        f"(<=1e-7), {elapsed:.0f}s",
    )


def test_c04_support_tangent_norm_concentration():
    """||P_Omega P_T||^2 within +-0.1 of rho in >=9/10 seeds at n=500, r=5.

    Finite-size note: the top eigenvalue carries a positive offset over
    rho that, measured over n in {125, 250, 500, 1000} with these seed
    streams, tracks c*sqrt(ln(n)/n), c about 1.7-1.9 at rho 0.3 and 0.5 and
    1.3-1.5 at rho 0.7; at n=500 it reads 0.194/0.191/0.159, C04's means
    less rho. So this window is expected to fail until n is about 3000,
    where 1.8*sqrt(ln(n)/n) falls to 0.1; the measurement itself is
    validated against brute-force eigensolves in the unit suite.
    """
    n, r = 500, 5
    started = time.perf_counter()
    lines = []
    all_ok = True
    for rho in (0.3, 0.5, 0.7):
        hits = 0
        values = []
        for seed in range(10):
            L0 = generate_low_rank(n, r, mix_seed(404, seed))
            T = TangentSubspace.from_low_rank(L0, r)
            _, omega = generate_sign_corruption(
                n, rho, "bernoulli", mix_seed(405, seed)
            )
            value = opnorm_support_tangent(omega, T, tol=1e-6) ** 2
            values.append(value)
            hits += abs(value - rho) <= 0.1
        lines.append(f"rho={rho}: {hits}/10 within +-0.1 (mean {np.mean(values):.3f})")
        all_ok = all_ok and hits >= 9
    elapsed = time.perf_counter() - started
    ok = all_ok and elapsed < 900
    assert report(4, ok, "norm concentration: " + "; ".join(lines) + f", {elapsed:.0f}s")


def test_c04_offset_tracks_sqrt_log_n_over_n():
    """The finite-size offset in C04's docstring, checked over n <= 1000.

    Seed 0 of C04's streams, r=5: at each rho the offset
    ||P_Omega P_T||^2 - rho falls strictly as n doubles from 125 to 1000,
    and offset / sqrt(ln(n)/n) stays in [1.2, 2.0] (measured 1.34-1.86).
    """
    r = 5
    for rho in (0.3, 0.5, 0.7):
        offsets, scaled = [], []
        for n in (125, 250, 500, 1000):
            T = TangentSubspace.from_low_rank(generate_low_rank(n, r, mix_seed(404, 0)), r)
            _, omega = generate_sign_corruption(n, rho, "bernoulli", mix_seed(405, 0))
            offset = opnorm_support_tangent(omega, T, tol=1e-6) ** 2 - rho
            offsets.append(offset)
            scaled.append(offset / math.sqrt(math.log(n) / n))
        assert all(a > b for a, b in zip(offsets, offsets[1:])), (rho, offsets)
        assert all(1.2 <= c <= 2.0 for c in scaled), (rho, scaled)


def test_c05_sign_matrix_norm_bound():
    """||E|| <= 4*sqrt(n*rho) over n in {200,400}, rho in {0.3,0.7},
    20 seeds each: 80/80 runs."""
    started = time.perf_counter()
    hits = 0
    total = 0
    worst_ratio = 0.0
    for n in (200, 400):
        for rho in (0.3, 0.7):
            for seed in range(20):
                E, _ = generate_sign_corruption(
                    n, rho, "bernoulli", mix_seed(505, n, int(rho * 10), seed)
                )
                ratio = spectral_norm(E, tol=1e-6) / (4.0 * math.sqrt(n * rho))
                worst_ratio = max(worst_ratio, ratio)
                hits += ratio <= 1.0
                total += 1
    elapsed = time.perf_counter() - started
    ok = hits == total == 80 and elapsed < 300
    assert report(
        5, ok,
        f"sign-matrix bound: {hits}/{total} runs under 4*sqrt(n*rho), "
        f"worst ratio {worst_ratio:.3f}, {elapsed:.0f}s",
    )


def test_c06_certificate_end_to_end():
    """Combined dual certificate at n=200, r=2, rho=0.3 verifies in >=8/10
    seeds; Neumann constraint residuals <= 1e-8 relative throughout.

    Finite-size note: the entrywise condition ||P_Omega_perp(UV^T+W)||_inf
    < lambda/2 cannot hold at this dimension (||UV^T||_inf alone is several
    times lambda/2 for Gaussian factors, and the golfing batches contribute
    1/q-scaled spikes), so the verification half is expected to fail until
    n is of order 10^4-10^5. The residual half holds.
    """
    n, r, rho = 200, 2, 0.3
    lam = lambda_dense(n, rho, 0.8)
    j0 = default_j0(n)
    started = time.perf_counter()
    passes = 0
    residuals_ok = True
    worst_res = 0.0
    for seed in range(10):
        L0 = generate_low_rank(n, r, mix_seed(606, seed, 1))
        T = TangentSubspace.from_low_rank(L0, r)
        omega = sample_golfing_partition(n, rho, j0, mix_seed(606, seed, 2))
        E = random_signs_on(omega, mix_seed(606, seed, 3))
        sigma = opnorm_support_tangent(omega, T)
        W_L, _ = golfing_component(omega, T)
        W_S = neumann_component(omega, T, E, lam, tol=1e-10)
        rep = verify_certificate(
            W_L + W_S, T, omega, E, lam, support_tangent_norm=sigma
        )
        passes += rep.passed
        res = np.linalg.norm(project_support(W_S, omega) - lam * E) / (
            lam * np.linalg.norm(E)
        )
        worst_res = max(worst_res, res)
        residuals_ok = residuals_ok and res <= 1e-8
        tangent_res = np.linalg.norm(project_tangent(W_S, T))
        residuals_ok = residuals_ok and tangent_res <= 1e-8 * np.linalg.norm(W_S)
    elapsed = time.perf_counter() - started
    ok = passes >= 8 and residuals_ok and elapsed < 1200
    assert report(
        6, ok,
        f"certificate end-to-end: verified {passes}/10 (need >=8), Neumann "
        f"residuals ok={residuals_ok} (worst {worst_res:.2e}), {elapsed:.0f}s",
    )


def test_c06_entrywise_ratio_falls_like_sqrt_log_n_over_n():
    """The entrywise obstruction in C06's docstring, checked over n <= 1600.

    C06's L0 stream, 5 seeds, r=2, lambda = lambda_dense(n, 0.3, 0.8): the
    mean ||UV^T||_inf / (lambda/2) falls with n, is at least 5 at C06's
    n=200 (measured 7.10), and over sqrt(ln(n)/n) stays in [40, 55]
    (measured 43.0-49.9), so it nears 1 only at n of order 10^4-10^5.
    """
    r = 2
    means, scaled = {}, []
    for n in (100, 200, 400, 800, 1600):
        lam = lambda_dense(n, 0.3, 0.8)
        ratios = [
            np.abs(TangentSubspace.from_low_rank(
                generate_low_rank(n, r, mix_seed(606, seed, 1)), r
            ).uv()).max() / (lam / 2.0)
            for seed in range(5)
        ]
        means[n] = float(np.mean(ratios))
        scaled.append(means[n] / math.sqrt(math.log(n) / n))
    values = list(means.values())
    assert all(a > b for a, b in zip(values, values[1:])), means
    assert means[200] >= 5.0, means
    assert all(40.0 <= c <= 55.0 for c in scaled), scaled


@pytest.mark.slow
def test_c07_desk_scale_phase_behavior(sweep_c08):
    """n=400, r=1, C1=0.8: success fraction >= 0.9 at rho=0.1 and <= 0.1 at
    rho=0.8 over 10 trials each."""
    low = sweep_c08.success_fraction(400, 0.1)
    high = sweep_c08.success_fraction(400, 0.8)
    ok = low >= 0.9 and high <= 0.1
    assert report(
        7, ok,
        f"phase behavior at n=400: fraction(rho=0.1)={low:.2f} (>=0.9), "
        f"fraction(rho=0.8)={high:.2f} (<=0.1)",
    )


def _breakdown_rho(result):
    last = 0.0
    for rho in RHO_GRID:
        if result.success_fraction(400, rho) >= 0.9:
            last = rho
    return last


@pytest.mark.slow
def test_c08_c1_ordering(sweep_c08, sweep_c40):
    """The largest reliably-recovered corruption fraction under C1=4 is at
    least the one under C1=0.8."""
    b08 = _breakdown_rho(sweep_c08)
    b40 = _breakdown_rho(sweep_c40)
    ok = b40 >= b08
    assert report(
        8, ok,
        f"C1 ordering at n=400: breakdown rho {b40:.2f} (C1=4) >= "
        f"{b08:.2f} (C1=0.8)",
    )


def test_c09_pca_fragility_pcp_robustness():
    """One corrupted entry of magnitude 1e6 at n=100: truncated-SVD error
    > 0.5 while pursuit error < 0.01."""
    n = 100
    L0 = generate_low_rank(n, 1, 42)
    D = L0.copy()
    D[3, 7] += 1e6
    scale = np.linalg.norm(L0)
    pca_err = np.linalg.norm(pca_baseline(D, 1) - L0) / scale
    res = pcp_solve(D, lambda_classic(n))
    pcp_err = np.linalg.norm(res.L_hat - L0) / scale
    ok = pca_err > 0.5 and pcp_err < 0.01
    assert report(
        9, ok,
        f"fragility: baseline err {pca_err:.1f} (>0.5), pursuit err "
        f"{pcp_err:.2e} (<0.01)",
    )


def test_c10_sweep_determinism(tmp_path):
    """A sweep config run twice with different parallelism produces
    byte-identical CSV and PGM outputs."""
    cfg = SweepConfig(
        n_list=[30, 40], rho_grid=[0.1, 0.5], r=1, C1=0.8,
        lambda_mode="dense", trials=3, base_seed=99, support_model="exact",
        solver=SolverConfig(max_iters=400),
    )
    blobs = []
    for tag, jobs in (("a", 1), ("b", 3)):
        result = run_sweep(cfg, jobs=jobs)
        csv = tmp_path / f"{tag}.csv"
        pgm = tmp_path / f"{tag}.pgm"
        emit_csv(result, csv)
        write_sidecar(result, csv)
        emit_heatmap(result, pgm)
        blobs.append((csv.read_bytes(), pgm.read_bytes()))
    ok = blobs[0] == blobs[1]
    assert report(
        10, ok,
        f"determinism: csv {len(blobs[0][0])} bytes and pgm "
        f"{len(blobs[0][1])} bytes identical across jobs=1 and jobs=3: {ok}",
    )
