import numpy as np
import pytest

import pcp.solver
from pcp.linalg import soft_threshold, svd, svt
from pcp.problems import generate_low_rank, lambda_classic, lambda_dense, make_instance
from pcp.solver import SolveResult, SolverConfig, pca_baseline, pcp_solve
from oracles import dr_solve

# high-accuracy schedule for oracle-equivalence checks: slow penalty growth
# keeps the iterate path close to the true optimum
TIGHT = SolverConfig(
    tol_feasibility=1e-10, max_iters=60_000, rho_mu=1.02, mu_max_factor=1e14
)


def test_zero_matrix_fixed_point():
    res = pcp_solve(np.zeros((10, 10)), 0.5)
    assert res.converged
    assert res.objective == 0.0 and res.dual_residual == 0.0
    np.testing.assert_array_equal(res.L_hat, np.zeros((10, 10)))
    np.testing.assert_array_equal(res.S_hat, np.zeros((10, 10)))


@pytest.mark.parametrize("K", [1, 6])
def test_dual_residual_is_last_penalty_times_last_s_step(K):
    """dual_residual = mu_K ||S_K - S_{K-1}||_F / ||D||_F, with
    mu_K = mu0 rho_mu^(K-1) and S_0 = 0; S_K and S_{K-1} are the S_hat of
    solves capped at K and K - 1 iterations."""
    inst = make_instance(40, 2, 0.1, 5)
    lam = lambda_classic(40)

    def capped(iters):
        return pcp_solve(inst.D, lam, SolverConfig(max_iters=iters, mu0=0.05))

    res = capped(K)
    assert res.iterations == K and not res.converged
    S_prev = capped(K - 1).S_hat if K > 1 else np.zeros_like(inst.D)
    expected = 0.05 * 1.5 ** (K - 1) * np.linalg.norm(res.S_hat - S_prev) / np.linalg.norm(inst.D)
    assert res.dual_residual == pytest.approx(expected, rel=1e-12)


def test_dual_residual_tells_optimal_from_merely_feasible_stops():
    """Both solves meet the feasibility tolerance. At C1=0.8 the solve
    recovers L0; at C1=4.0 it stops at a feasible point whose objective is
    above that of (L0, S0), and only the dual residual shows it
    (measured: 2.0e-7 against 1.2e-2)."""
    n, rho = 100, 0.05
    inst = make_instance(n, 1, rho, 0)
    sv_l0 = np.linalg.svd(inst.L0, compute_uv=False).sum()
    duals = []
    for C1, above_truth in ((0.8, False), (4.0, True)):
        lam = lambda_dense(n, rho, C1)
        res = pcp_solve(inst.D, lam)
        assert res.converged and res.feasibility_residual <= 1e-7
        truth = sv_l0 + lam * np.abs(inst.S0).sum()
        assert (res.objective > truth * (1 + 1e-6)) == above_truth
        duals.append(res.dual_residual)
    assert 100 * duals[0] < duals[1]


def test_feasibility_at_convergence():
    inst = make_instance(40, 1, 0.1, 3)
    res = pcp_solve(inst.D, lambda_classic(40))
    assert res.converged
    assert res.feasibility_residual <= 1e-7
    gap = np.linalg.norm(inst.D - res.L_hat - res.S_hat) / np.linalg.norm(inst.D)
    assert abs(gap - res.feasibility_residual) <= 1e-12


def test_norm_estimate_cap_does_not_stop_the_solve(monkeypatch):
    """||D||_2 only scales the schedule: a capped estimate still solves."""
    import pcp.linalg

    inst = make_instance(40, 1, 0.1, 3)
    monkeypatch.setattr(pcp.linalg, "LANCZOS_STEP_CAP", 2)
    res = pcp_solve(inst.D, lambda_classic(40))
    assert res.converged
    assert np.linalg.norm(inst.L0 - res.L_hat) / np.linalg.norm(inst.L0) < 0.01


def test_objective_below_trivial_points():
    inst = make_instance(30, 2, 0.3, 4)
    lam = lambda_classic(30)
    res = pcp_solve(inst.D, lam)
    obj_all_L = np.linalg.norm(inst.D, "nuc")
    obj_all_S = lam * np.abs(inst.D).sum()
    assert res.objective <= obj_all_L + 1e-9
    assert res.objective <= obj_all_S + 1e-9


def test_objective_is_recomputed_nuclear_norm_plus_l1(monkeypatch):
    """The objective comes from the last svt's shrunk values, not a new SVD,
    and the rank guesses let most L steps skip the full SVD."""
    import pcp.linalg

    full_svds = []
    original = pcp.linalg.svd
    monkeypatch.setattr(pcp.linalg, "svd", lambda M: full_svds.append(1) or original(M))
    inst = make_instance(200, 2, 0.1, 9)
    lam = lambda_classic(200)
    res = pcp_solve(inst.D, lam)
    assert res.converged
    assert len(full_svds) < res.iterations / 2
    recomputed = np.linalg.norm(res.L_hat, "nuc") + lam * np.abs(res.S_hat).sum()
    assert abs(res.objective - recomputed) <= 1e-9 * recomputed


def test_single_corruption_objective_matches_oracle():
    # rank-1 ground truth with one corrupted entry, solved nearly exactly
    rng = np.random.default_rng(8)
    u, v = rng.standard_normal(5), rng.standard_normal(5)
    D = np.outer(u, v)
    D[2, 3] += 10.0
    lam = 5 ** (-0.5)
    _, _, obj_oracle, _ = dr_solve(D, lam, max_iters=1_000_000, tol=1e-14)
    res = pcp_solve(D, lam, TIGHT)
    assert abs(res.objective - obj_oracle) / obj_oracle <= 1e-6


def test_oracle_equivalence_small_instances():
    for n, r, rho, seed in [(8, 1, 0.2, 2), (10, 2, 0.3, 3), (15, 3, 0.3, 5)]:
        inst = make_instance(n, r, rho, seed)
        lam = lambda_classic(n)
        _, _, obj_oracle, _ = dr_solve(inst.D, lam, max_iters=1_000_000, tol=1e-14)
        res = pcp_solve(inst.D, lam, TIGHT)
        assert res.converged
        assert abs(res.objective - obj_oracle) / obj_oracle <= 1e-5


def test_small_scale_recovery():
    inst = make_instance(80, 1, 0.1, 12)
    res = pcp_solve(inst.D, lambda_classic(80))
    assert np.linalg.norm(inst.L0 - res.L_hat) / np.linalg.norm(inst.L0) < 0.01


def test_max_iters_reports_nonconverged():
    inst = make_instance(20, 1, 0.3, 6)
    res = pcp_solve(inst.D, lambda_classic(20), SolverConfig(max_iters=2))
    assert not res.converged
    assert res.iterations == 2
    assert res.feasibility_residual > 0


def test_solver_input_validation():
    with pytest.raises(ValueError):
        pcp_solve(np.zeros((3, 4)), 0.1)
    for lam in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lambda"):
            pcp_solve(np.ones((3, 3)), lam)
    with pytest.raises(ValueError):
        SolverConfig(rho_mu=1.0)
    for bad in (dict(tol_feasibility=0.0), dict(max_iters="300"), dict(max_iters=2.5),
                dict(mu0=0.0), dict(mu_max_factor=float("inf"))):
        with pytest.raises(ValueError):
            SolverConfig(**bad)


def _spy_prox_calls(monkeypatch):
    """Record every svt call (its start and result) and soft_threshold call
    the solver makes through its module namespace."""
    svt_calls, shrink_calls = [], []

    def spy_svt(M, tau, rank_guess=None, start=None):
        result = svt(M, tau, rank_guess=rank_guess, start=start)
        svt_calls.append((start, result))
        return result

    def spy_soft_threshold(M, tau):
        shrink_calls.append(tau)
        return soft_threshold(M, tau)

    monkeypatch.setattr(pcp.solver, "svt", spy_svt)
    monkeypatch.setattr(pcp.solver, "soft_threshold", spy_soft_threshold)
    return svt_calls, shrink_calls


def test_one_prox_each_per_iteration_warm_started(monkeypatch):
    """One svt and one soft_threshold call per iteration (the benchmark's
    per-layer spans count them), and each svt after the first starts its
    sketch from the previous L step's kept right singular vectors."""
    svt_calls, shrink_calls = _spy_prox_calls(monkeypatch)
    inst = make_instance(200, 2, 0.1, 9)
    res = pcp_solve(inst.D, lambda_classic(200))
    assert res.converged
    assert len(svt_calls) == len(shrink_calls) == res.iterations
    assert svt_calls[0][0] is None
    for (_, previous), (start, _) in zip(svt_calls, svt_calls[1:]):
        assert start is previous.V


def test_first_l_step_keeping_nothing_starts_next_sketch_empty(monkeypatch):
    """A spike that dominates ||D||_inf / lambda and a small mu0: the first
    L step keeps no triplet, so the next sketch starts from 0 columns."""
    n = 100
    L0 = generate_low_rank(n, 1, 3)
    D = L0.copy()
    D[5, 17] += 100 * np.abs(L0).max()
    svt_calls, _ = _spy_prox_calls(monkeypatch)
    res = pcp_solve(D, lambda_classic(n), SolverConfig(mu0=0.5 / np.linalg.norm(D, 2)))
    assert svt_calls[0][1].singular_values.size == 0
    assert svt_calls[1][0].shape == (n, 0)
    assert res.converged
    assert np.linalg.norm(L0 - res.L_hat) / np.linalg.norm(L0) < 0.01


def test_input_is_only_read():
    """pcp_solve leaves D byte-identical, accepts a read-only D, and returns
    arrays that do not share memory with it."""
    inst = make_instance(100, 2, 0.1, 5)
    lam = lambda_classic(100)
    writable = pcp_solve(inst.D.copy(), lam)
    D = inst.D.copy()
    D.setflags(write=False)
    before = D.tobytes()
    res = pcp_solve(D, lam)
    assert D.tobytes() == before
    assert res.converged
    assert not np.shares_memory(res.L_hat, D) and not np.shares_memory(res.S_hat, D)
    np.testing.assert_array_equal(res.L_hat, writable.L_hat)
    np.testing.assert_array_equal(res.S_hat, writable.S_hat)


# ----------------------------------------------------------- pca_baseline

def test_pca_baseline_diagonal():
    np.testing.assert_allclose(
        pca_baseline(np.diag([3.0, 1.0]), 1), np.diag([3.0, 0.0]), atol=1e-12
    )


def test_pca_baseline_full_rank_is_identity():
    D = np.random.default_rng(10).standard_normal((9, 9))
    np.testing.assert_allclose(pca_baseline(D, 9), D, atol=1e-10)


def test_pca_baseline_eckart_young():
    D = np.random.default_rng(11).standard_normal((12, 12))
    L = pca_baseline(D, 4)
    gap_spectral = svd(D - L).singular_values[0]
    sigma5 = svd(D).singular_values[4]
    assert abs(gap_spectral - sigma5) <= 1e-9


def test_pca_baseline_rank_zero():
    np.testing.assert_array_equal(pca_baseline(np.ones((4, 4)), 0), np.zeros((4, 4)))


def test_pca_baseline_rejects_bad_rank():
    with pytest.raises(ValueError):
        pca_baseline(np.ones((4, 4)), 5)


# --------------------------------------------- fragility vs robustness

def test_pca_fragile_pcp_robust():
    """A single gross corruption breaks the truncated-SVD baseline
    arbitrarily badly while pursuit recovery stays intact."""
    n = 100
    L0 = generate_low_rank(n, 1, 42)
    scale = np.linalg.norm(L0)
    pca_errs = []
    for magnitude in (1e2, 1e4, 1e6):
        D = L0.copy()
        D[3, 7] += magnitude
        pca_err = np.linalg.norm(pca_baseline(D, 1) - L0) / scale
        pca_errs.append(pca_err)
        res = pcp_solve(D, lambda_classic(n))
        pcp_err = np.linalg.norm(res.L_hat - L0) / scale
        assert pcp_err < 0.01
    assert pca_errs[0] < pca_errs[1] < pca_errs[2]
    assert pca_errs[2] > 1.0
