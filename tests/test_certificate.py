import numpy as np
import pytest

import pcp.certificate
from pcp.certificate import (
    TangentSubspace,
    certify_instance,
    check_golfing_bounds,
    check_sign_bounds,
    default_j0,
    golfing_component,
    neumann_component,
    opnorm_support_tangent,
    partition_support_complement,
    project_support,
    project_support_complement,
    project_tangent,
    project_tangent_complement,
    verify_certificate,
)
from pcp.linalg import ConvergenceError, spectral_norm
from pcp.problems import (
    SupportSet,
    generate_low_rank,
    generate_sign_corruption,
    lambda_dense,
    make_instance,
    random_signs_on,
    sample_golfing_partition,
)
from pcp.rng import mix_seed
from pcp.solver import pcp_solve
from oracles import golfing_dense, neumann_series, partition_by_2d_index


def _subspace(n, r, seed):
    return TangentSubspace.from_low_rank(generate_low_rank(n, r, seed), r)


def _random_omega(n, rho, seed):
    _, omega = generate_sign_corruption(n, rho, "bernoulli", seed)
    return omega


def _full_omega(n):
    return SupportSet(mask=np.ones((n, n), dtype=bool))


def _empty_omega(n):
    return SupportSet(mask=np.zeros((n, n), dtype=bool))


# ------------------------------------------------------------- projectors

def test_project_tangent_fixes_members():
    T = _subspace(20, 3, 0)
    X = np.random.default_rng(1).standard_normal((3, 20))
    M = T.U @ X  # of the form U X^T
    np.testing.assert_allclose(project_tangent(M, T), M, atol=1e-10)
    M2 = np.random.default_rng(2).standard_normal((20, 3)) @ T.V.T
    np.testing.assert_allclose(project_tangent(M2, T), M2, atol=1e-10)


@pytest.mark.parametrize("n, r, seed", [(20, 1, 20), (60, 3, 21), (150, 5, 22)])
def test_project_tangent_matches_three_term_formula(n, r, seed):
    T = _subspace(n, r, seed)
    M = np.random.default_rng(seed + 1).standard_normal((n, n))
    UU, VV = T.U @ T.U.T, T.V @ T.V.T
    three_term = UU @ M + M @ VV - UU @ M @ VV
    assert np.abs(project_tangent(M, T) - three_term).max() <= 1e-13 * np.linalg.norm(M)


def test_project_tangent_rank_zero():
    T = TangentSubspace(U=np.zeros((6, 0)), V=np.zeros((6, 0)))
    M = np.random.default_rng(3).standard_normal((6, 6))
    np.testing.assert_array_equal(project_tangent(M, T), np.zeros((6, 6)))


def test_project_tangent_idempotent():
    T = _subspace(15, 2, 4)
    M = np.random.default_rng(5).standard_normal((15, 15))
    once = project_tangent(M, T)
    np.testing.assert_allclose(project_tangent(once, T), once, atol=1e-10)


def test_project_tangent_self_adjoint():
    T = _subspace(12, 2, 6)
    rng = np.random.default_rng(7)
    A, B = rng.standard_normal((12, 12)), rng.standard_normal((12, 12))
    lhs = np.tensordot(project_tangent(A, T), B)
    rhs = np.tensordot(A, project_tangent(B, T))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_tangent_complement_sums_to_identity():
    T = _subspace(10, 2, 8)
    M = np.random.default_rng(9).standard_normal((10, 10))
    # complement is defined as M - P_T M, so the pair reconstructs M up to
    # one rounding of the outer sum
    np.testing.assert_array_equal(
        project_tangent_complement(M, T), M - project_tangent(M, T)
    )
    recon = project_tangent(M, T) + project_tangent_complement(M, T)
    np.testing.assert_allclose(recon, M, atol=1e-14)


def test_project_support_cases():
    M = np.random.default_rng(10).standard_normal((8, 8))
    np.testing.assert_array_equal(project_support(M, _full_omega(8)), M)
    np.testing.assert_array_equal(project_support(M, _empty_omega(8)), np.zeros((8, 8)))
    omega = _random_omega(8, 0.4, 11)
    np.testing.assert_array_equal(
        project_support(M, omega) + project_support_complement(M, omega), M
    )


def test_project_support_self_adjoint():
    omega = _random_omega(9, 0.5, 12)
    rng = np.random.default_rng(13)
    A, B = rng.standard_normal((9, 9)), rng.standard_normal((9, 9))
    lhs = np.tensordot(project_support(A, omega), B)
    rhs = np.tensordot(A, project_support(B, omega))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_tangent_subspace_rejects_nonorthonormal():
    with pytest.raises(ValueError, match="orthonormal"):
        TangentSubspace(U=np.ones((4, 2)), V=np.ones((4, 2)))


def test_from_low_rank_detects_rank():
    L = generate_low_rank(25, 2, 14)
    T = TangentSubspace.from_low_rank(L)
    assert T.r == 2
    with pytest.raises(ValueError, match="numerical rank"):
        TangentSubspace.from_low_rank(L, 1)


# ---------------------------------------------------------------- opnorm

def test_opnorm_full_grid_is_one():
    T = _subspace(15, 2, 15)
    assert abs(opnorm_support_tangent(_full_omega(15), T) - 1.0) <= 1e-8


def test_opnorm_empty_cases():
    T = _subspace(10, 2, 16)
    assert opnorm_support_tangent(_empty_omega(10), T) == 0.0
    T0 = TangentSubspace(U=np.zeros((10, 0)), V=np.zeros((10, 0)))
    assert opnorm_support_tangent(_full_omega(10), T0) == 0.0


def test_opnorm_matches_brute_force():
    """Materialize P_T P_Omega P_T on R^{n^2} and compare eigenvalues."""
    n, r = 20, 2
    T = _subspace(n, r, 17)
    omega = _random_omega(n, 0.3, 18)
    A = np.zeros((n * n, n * n))
    for k in range(n * n):
        Ek = np.zeros((n, n))
        Ek.flat[k] = 1.0
        A[:, k] = project_tangent(
            project_support(project_tangent(Ek, T), omega), T
        ).ravel()
    brute = np.sqrt(max(np.linalg.eigvalsh(0.5 * (A + A.T)).max(), 0.0))
    power = opnorm_support_tangent(omega, T, tol=1e-10)
    assert abs(brute - power) <= 1e-8


def test_opnorm_applies_project_support_once_per_step(monkeypatch):
    """Every Lanczos matvec goes through the module's project_support once."""
    support_calls, per_step = [], []
    original_support = pcp.certificate.project_support
    original_sqrt_top = pcp.certificate.sqrt_top_eigenvalue

    def counting_support(M, omega):
        support_calls.append(1)
        return original_support(M, omega)

    def counting_sqrt_top(matvec, v0, tol):
        def stepped(z):
            before = len(support_calls)
            out = matvec(z)
            per_step.append(len(support_calls) - before)
            return out

        return original_sqrt_top(stepped, v0, tol)

    monkeypatch.setattr(pcp.certificate, "project_support", counting_support)
    monkeypatch.setattr(pcp.certificate, "sqrt_top_eigenvalue", counting_sqrt_top)
    opnorm_support_tangent(_random_omega(40, 0.3, 19), _subspace(40, 3, 20))
    assert len(per_step) > 1
    assert per_step == [1] * len(per_step)
    assert len(support_calls) == len(per_step)


def test_opnorm_steps_ignore_singular_vector_signs(monkeypatch):
    """The Lanczos start is built from T, not from its basis: flipping the
    signs of paired (u_i, v_i) keeps the step count. The instance is the
    certify benchmark's r=2, rho=0.3 one, where a start drawn in tangent
    coordinates took 40 steps with one sign choice and 43 with another."""
    inst = make_instance(500, 2, 0.3, 3000020000063)
    omega = SupportSet(mask=inst.S0 != 0.0)
    T = TangentSubspace.from_low_rank(inst.L0, 2)
    signs = np.array([-1.0, 1.0])
    flipped = TangentSubspace(U=T.U * signs, V=T.V * signs)
    calls = []
    original = pcp.certificate.project_support
    monkeypatch.setattr(pcp.certificate, "project_support",
                        lambda M, o: calls.append(1) or original(M, o))
    steps, norms = [], []
    for subspace in (T, flipped):
        calls.clear()
        norms.append(opnorm_support_tangent(omega, subspace))
        steps.append(len(calls))
    assert steps[0] == steps[1]
    assert abs(norms[0] - norms[1]) <= 1e-12


def test_opnorm_never_exceeds_one():
    for seed in range(5):
        T = _subspace(25, 3, seed)
        omega = _random_omega(25, 0.6, seed + 50)
        assert opnorm_support_tangent(omega, T) <= 1.0


# --------------------------------------------------------------- golfing

def test_golfing_rank_zero():
    T0 = TangentSubspace(U=np.zeros((12, 0)), V=np.zeros((12, 0)))
    omega = sample_golfing_partition(12, 0.3, 4, 19)
    W, trace = golfing_component(omega, T0)
    np.testing.assert_array_equal(W, np.zeros((12, 12)))
    assert all(t == 0.0 for t in trace)


def test_golfing_single_full_batch_is_exact():
    # q = 1 with one batch covering the whole grid corrects the tangent
    # residual in one step
    n = 10
    T = _subspace(n, 2, 20)
    omega = SupportSet(
        mask=np.zeros((n, n), dtype=bool),
        partition=[np.ones((n, n), dtype=bool)],
        q=1.0,
    )
    W, trace = golfing_component(omega, T)
    assert trace[-1] <= 1e-12
    # output is orthogonal to T
    assert np.linalg.norm(project_tangent(W, T)) <= 1e-10


def test_golfing_requires_partition():
    T = _subspace(8, 1, 21)
    with pytest.raises(ValueError, match="partition"):
        golfing_component(_full_omega(8), T)


def test_golfing_trace_decays_geometrically():
    # measured on this generator: every per-step decay factor stays below
    # 0.9 in at least 8 of 10 seeds at n=200, r=2, rho=0.3
    n, r, rho = 200, 2, 0.3
    hits = 0
    for seed in range(10):
        T = _subspace(n, r, mix_seed(seed, 1))
        omega = sample_golfing_partition(n, rho, default_j0(n), mix_seed(seed, 2))
        _, trace = golfing_component(omega, T)
        ratios = [
            trace[j + 1] / trace[j] for j in range(len(trace) - 1) if trace[j] > 0
        ]
        hits += max(ratios) <= 0.9
    assert hits >= 8


def test_golfing_trace_matches_dense_recursion():
    """The residual kept in tangent coordinates, C^T(U V^T - Y), gives the
    trace and W of the recursion run on n x n matrices."""
    n = 60
    T = _subspace(n, 3, 40)
    omega = sample_golfing_partition(n, 0.3, 5, 41)
    W, trace = golfing_component(omega, T)
    W_ref, trace_ref = golfing_dense(omega.partition, omega.q, T.U, T.V)
    np.testing.assert_allclose(trace, trace_ref, rtol=0, atol=1e-12)
    assert np.linalg.norm(W - W_ref) <= 1e-12 * np.linalg.norm(W_ref)


def test_golfing_output_orthogonal_to_tangent():
    n = 30
    T = _subspace(n, 1, 22)
    omega = sample_golfing_partition(n, 0.4, 3, 23)
    W, _ = golfing_component(omega, T)
    assert np.linalg.norm(project_tangent(W, T)) <= 1e-10 * np.linalg.norm(W)


# ---------------------------------------------------------------- neumann

def test_neumann_rank_zero_gives_scaled_signs():
    n = 15
    T0 = TangentSubspace(U=np.zeros((n, 0)), V=np.zeros((n, 0)))
    omega = _random_omega(n, 0.3, 24)
    E = random_signs_on(omega, 25)
    W = neumann_component(omega, T0, E, lam=0.2)
    np.testing.assert_allclose(W, 0.2 * E, atol=1e-14)


def test_neumann_zero_signs():
    T = _subspace(12, 1, 26)
    omega = _random_omega(12, 0.3, 27)
    W = neumann_component(omega, T, np.zeros((12, 12)), lam=0.5)
    np.testing.assert_array_equal(W, np.zeros((12, 12)))


def test_neumann_constraint_residuals():
    n, r, rho = 100, 2, 0.3
    lam = lambda_dense(n, rho, 0.8)
    T = _subspace(n, r, mix_seed(0, 1))
    omega = sample_golfing_partition(n, rho, 10, mix_seed(0, 2))
    E = random_signs_on(omega, mix_seed(0, 3))
    W = neumann_component(omega, T, E, lam, tol=1e-10)
    support_res = np.linalg.norm(project_support(W, omega) - lam * E)
    assert support_res / (lam * np.linalg.norm(E)) <= 1e-8
    assert np.linalg.norm(project_tangent(W, T)) <= 1e-10 * np.linalg.norm(W)


def _neumann_case(n, r, rho, seed, zero_signs=False):
    if r:
        T = _subspace(n, r, mix_seed(seed, 1))
    else:
        T = TangentSubspace(U=np.zeros((n, 0)), V=np.zeros((n, 0)))
    omega = _random_omega(n, rho, mix_seed(seed, 2))
    E = np.zeros((n, n)) if zero_signs else random_signs_on(omega, mix_seed(seed, 3))
    return T, omega, E


@pytest.mark.parametrize("r, rho, zero_signs", [
    (2, 0.5, False), (3, 0.3, False), (0, 0.3, False), (2, 0.3, True),
])
def test_neumann_matches_series_oracle(r, rho, zero_signs):
    n, lam = 60, 0.15
    T, omega, E = _neumann_case(n, r, rho, 42, zero_signs)
    W = neumann_component(omega, T, E, lam)
    ref = neumann_series(omega.mask, T.U, T.V, E, lam)
    assert np.linalg.norm(W - ref) <= 1e-9 * np.linalg.norm(ref)


@pytest.mark.parametrize("tol", [1e-10, 1e-6, 1e-3])
def test_neumann_support_mismatch_within_lambda_tol(tol):
    """P_Omega W - lambda E = -lambda P_Omega C r for the CG residual r, so
    stopping at ||r|| < tol bounds the mismatch by lambda * tol."""
    n, lam = 80, 0.12
    for seed in range(3):
        T, omega, E = _neumann_case(n, 2, 0.4, 43 + seed)
        W = neumann_component(omega, T, E, lam, tol=tol)
        assert np.linalg.norm(project_support(W, omega) - lam * E) <= lam * tol


def test_neumann_step_cap_raises(monkeypatch):
    T, omega, E = _neumann_case(40, 2, 0.3, 44)
    monkeypatch.setattr(pcp.certificate, "NEUMANN_MAX_TERMS", 1)
    with pytest.raises(ConvergenceError, match="after 1 applications") as err:
        neumann_component(omega, T, E, 0.2)
    assert err.value.estimate >= 1e-10


def test_neumann_applies_project_support_once_per_application(monkeypatch):
    """Every application of C^T P_Omega C goes through the module's
    project_support once, and nothing else in neumann_component calls it,
    so the project_support calls count the operator applications."""
    support_calls, per_application = [], []
    original_support = pcp.certificate.project_support
    original_gram = pcp.certificate._support_tangent_gram

    def counting_support(M, omega):
        support_calls.append(1)
        return original_support(M, omega)

    def counting_gram(*args):
        before = len(support_calls)
        out = original_gram(*args)
        per_application.append(len(support_calls) - before)
        return out

    T, omega, E = _neumann_case(60, 3, 0.3, 45)
    monkeypatch.setattr(pcp.certificate, "project_support", counting_support)
    monkeypatch.setattr(pcp.certificate, "_support_tangent_gram", counting_gram)
    neumann_component(omega, T, E, 0.2)
    assert len(per_application) > 1
    assert per_application == [1] * len(per_application)
    assert len(support_calls) == len(per_application)


def test_neumann_rejects_offsupport_signs():
    T = _subspace(10, 1, 28)
    omega = _empty_omega(10)
    E = np.zeros((10, 10))
    E[1, 1] = 1.0
    with pytest.raises(ValueError, match="outside the support"):
        neumann_component(omega, T, E, lam=0.1)


def test_neumann_rejects_divergent_series():
    # full support makes ||P_Omega P_T|| = 1: the first CG curvature
    # ratio (round-off, about 1e-16) proves it, and the series is refused
    n = 12
    T = _subspace(n, 2, 29)
    omega = _full_omega(n)
    E = random_signs_on(omega, 30)
    with pytest.raises(ValueError, match="too close to 1"):
        neumann_component(omega, T, E, lam=0.1)


@pytest.mark.parametrize("case", ["full", "row-in-tangent"])
def test_neumann_curvature_refuses_singular_supports(case):
    """With sigma = 1, a CG curvature ratio d.(I - M)d / d.d falls to at
    most 1 - (1 - 1e-6)^2 and the solve is refused as such, well before
    the application cap; Lanczos agrees that sigma is 1."""
    if case == "full":
        n = 40
        T, omega = _subspace(n, 3, 29), _full_omega(n)
    else:
        # U = e_1 puts all of row 0 in T, so a support holding row 0 gives
        # sigma = 1 although it is far from full
        n = 20
        U = np.zeros((n, 1))
        U[0, 0] = 1.0
        V = generate_low_rank(n, 1, 1)[:1].T
        T = TangentSubspace(U=U, V=V / np.linalg.norm(V))
        mask = _random_omega(n, 0.2, 1).mask.copy()
        mask[0, :] = True
        omega = SupportSet(mask=mask)
    assert opnorm_support_tangent(omega, T) >= 1.0 - 1e-6
    E = random_signs_on(omega, 30)
    with pytest.raises(ValueError, match=r"too close to 1.*diverges"):
        neumann_component(omega, T, E, lam=0.1)


def test_neumann_rejects_noninteger_signs():
    T = _subspace(8, 1, 31)
    omega = _full_omega(8)
    with pytest.raises(ValueError, match="-1, 0, or"):
        neumann_component(omega, T, np.full((8, 8), 0.5), lam=0.1)


def test_support_arguments_must_match_the_support_shape():
    """A matrix argument of another shape than Omega is refused with both
    shapes named, before it is indexed by the support mask."""
    n = 20
    T = _subspace(n, 1, 42)
    omega = _random_omega(n, 0.3, 43)
    sigma = opnorm_support_tangent(omega, T)
    E = random_signs_on(omega, 44)
    W = neumann_component(omega, T, E, lam=0.1)
    big = np.zeros((n + 1, n + 1))
    shapes = r"\(21, 21\) does not match the support shape \(20, 20\)"
    with pytest.raises(ValueError, match="E shape " + shapes):
        neumann_component(omega, T, big, lam=0.1)
    with pytest.raises(ValueError, match="E shape " + shapes):
        verify_certificate(W, T, omega, big, 0.1, support_tangent_norm=sigma)
    with pytest.raises(ValueError, match="W shape " + shapes):
        verify_certificate(big, T, omega, E, 0.1, support_tangent_norm=sigma)
    with pytest.raises(ValueError, match="W_L shape " + shapes):
        check_golfing_bounds(big, T, omega, 0.1, support_tangent_norm=sigma)
    with pytest.raises(ValueError, match="W_S shape " + shapes):
        check_sign_bounds(big, omega, E, 0.1, T)
    with pytest.raises(ValueError, match="E shape " + shapes):
        check_sign_bounds(W, omega, big, 0.1, T)


@pytest.mark.parametrize("value", [0.0, float("nan")])
def test_tol_and_lambda_must_be_positive(value):
    """Zero and NaN are refused alike: the opnorm and Neumann tol, and the
    Neumann and verify lambda."""
    n = 20
    T = _subspace(n, 1, 42)
    omega = _random_omega(n, 0.3, 43)
    sigma = opnorm_support_tangent(omega, T)
    E = random_signs_on(omega, 44)
    W = neumann_component(omega, T, E, lam=0.1)
    with pytest.raises(ValueError, match="tol must be positive"):
        opnorm_support_tangent(omega, T, tol=value)
    with pytest.raises(ValueError, match="tol must be positive"):
        neumann_component(omega, T, E, lam=0.1, tol=value)
    with pytest.raises(ValueError, match="lambda must be positive"):
        neumann_component(omega, T, E, lam=value)
    with pytest.raises(ValueError, match="lambda must be positive"):
        verify_certificate(W, T, omega, E, value, support_tangent_norm=sigma)


# ------------------------------------------------------------- verifier

def test_verify_degenerate_no_corruption_passes():
    # flat rank-1 matrix, no corruption: conditions reduce to the
    # off-support entry bound, which the flat factors satisfy
    n = 100
    lam = 0.05
    L = np.ones((n, n)) / n
    T = TangentSubspace.from_low_rank(L, 1)
    assert np.abs(T.uv()).max() < lam / 2
    omega = _empty_omega(n)
    sigma = opnorm_support_tangent(omega, T)
    report = verify_certificate(
        np.zeros((n, n)), T, omega, np.zeros((n, n)), lam, support_tangent_norm=sigma
    )
    assert report.epsilon == 1.0
    assert report.passed
    assert report.lambda_hypothesis_ok
    assert report.omega_residual == 0.0


def test_verify_rejects_tangent_violation():
    n, r = 30, 2
    T = _subspace(n, r, 32)
    W = T.uv()  # entirely inside T
    omega = _random_omega(n, 0.2, 33)
    E = random_signs_on(omega, 34)
    sigma = opnorm_support_tangent(omega, T)
    report = verify_certificate(W, T, omega, E, lam=0.05, support_tangent_norm=sigma)
    assert not report.passed
    assert not report.tangent_ok
    assert abs(report.pt_w_norm - np.linalg.norm(T.uv())) <= 1e-10


def test_verify_flat_low_corruption_certifies():
    """Maximally incoherent target with 1% corruption: the constructed
    certificate passes all four conditions (frozen from pipeline runs:
    10/10 seeds)."""
    n, rho = 400, 0.01
    lam = lambda_dense(n, rho, 0.8)
    L0 = np.ones((n, n)) / n
    T = TangentSubspace.from_low_rank(L0, 1)
    passes = 0
    for seed in range(3):
        omega = sample_golfing_partition(n, rho, default_j0(n), mix_seed(seed, 2))
        E = random_signs_on(omega, mix_seed(seed, 3))
        sigma = opnorm_support_tangent(omega, T)
        W_L, _ = golfing_component(omega, T)
        W_S = neumann_component(omega, T, E, lam)
        report = verify_certificate(
            W_L + W_S, T, omega, E, lam, support_tangent_norm=sigma
        )
        passes += report.passed
        assert report.lambda_hypothesis_ok
        assert report.opnorm_hypothesis_ok
    assert passes == 3


def test_certificate_implies_recovery():
    """Cross-module consistency: when the certificate verifies and the
    solver converges, the solver's low-rank part matches the target."""
    n, rho = 400, 0.01
    lam = lambda_dense(n, rho, 0.8)
    L0 = np.ones((n, n)) / n
    T = TangentSubspace.from_low_rank(L0, 1)
    omega = sample_golfing_partition(n, rho, default_j0(n), mix_seed(5, 2))
    E = random_signs_on(omega, mix_seed(5, 3))
    sigma = opnorm_support_tangent(omega, T)
    W_L, _ = golfing_component(omega, T)
    W_S = neumann_component(omega, T, E, lam)
    report = verify_certificate(W_L + W_S, T, omega, E, lam, support_tangent_norm=sigma)
    D = L0 + E
    result = pcp_solve(D, lam)
    if report.passed and result.converged:
        assert np.linalg.norm(L0 - result.L_hat) / np.linalg.norm(L0) < 0.01
    else:  # frozen pipeline behavior: this configuration certifies
        pytest.fail(f"expected certificate+convergence, got {report.passed}, {result.converged}")


# ---------------------------------------------------------- bound checks

def test_golfing_bounds_trivial_rank_zero():
    n = 10
    T0 = TangentSubspace(U=np.zeros((n, 0)), V=np.zeros((n, 0)))
    omega = _random_omega(n, 0.3, 35)
    sigma = opnorm_support_tangent(omega, T0)
    res = check_golfing_bounds(np.zeros((n, n)), T0, omega, lam=0.1, support_tangent_norm=sigma)
    assert res.a_ok and res.b_ok and res.c_ok
    assert res.w_l_spectral == 0.0


def test_golfing_bounds_fail_when_scaled():
    n = 40
    T = _subspace(n, 1, 36)
    omega = sample_golfing_partition(n, 0.3, 4, 37)
    W, _ = golfing_component(omega, T)
    sigma = opnorm_support_tangent(omega, T)
    res = check_golfing_bounds(W * 1e6, T, omega, lam=0.05, support_tangent_norm=sigma)
    assert not res.a_ok


def test_golfing_bounds_reject_nan_or_negative_sigma():
    n = 20
    T = _subspace(n, 1, 36)
    omega = _random_omega(n, 0.3, 37)
    for sigma in (float("nan"), -0.5):
        with pytest.raises(ValueError, match="nonnegative"):
            check_golfing_bounds(np.zeros((n, n)), T, omega, lam=0.1, support_tangent_norm=sigma)


@pytest.mark.parametrize("sigma", [1.0, 3.0])
def test_sigma_at_or_above_one_is_refused_alike(sigma):
    """One rule for a given sigma: the golfing bound checks refuse
    sigma >= 1, where their budget lambda (1 - sigma)^2 means nothing, as
    verify_certificate does."""
    n = 20
    T = _subspace(n, 1, 36)
    omega = _random_omega(n, 0.3, 37)
    E = random_signs_on(omega, 38)
    zero = np.zeros((n, n))
    with pytest.raises(ValueError, match="nonnegative number below 1"):
        check_golfing_bounds(zero, T, omega, lam=0.3, support_tangent_norm=sigma)
    with pytest.raises(ValueError, match="nonnegative number below 1"):
        verify_certificate(zero, T, omega, E, 0.3, support_tangent_norm=sigma)


def test_sign_bounds_zero_signs():
    n = 20
    T = _subspace(n, 1, 38)
    omega = _random_omega(n, 0.3, 39)
    res = check_sign_bounds(np.zeros((n, n)), omega, np.zeros((n, n)), 0.1, T)
    assert res.a_ok and res.b_ok and res.e_norm_ok and res.tail_ok
    assert res.w_s_spectral == 0.0 and res.e_spectral == 0.0


def test_sign_bounds_on_pipeline_output():
    # frozen from pipeline runs at n=200, r=2, rho=0.3: the spectral bound
    # (a), the sign-matrix norm bound, and the tail bound all hold; the
    # entrywise off-support bound (b) does not reach its asymptotic level
    # at this dimension
    n, r, rho = 200, 2, 0.3
    lam = lambda_dense(n, rho, 0.8)
    hits_a = hits_e = hits_tail = 0
    seeds = 4
    for seed in range(seeds):
        T = _subspace(n, r, mix_seed(seed, 1))
        omega = sample_golfing_partition(n, rho, default_j0(n), mix_seed(seed, 2))
        E = random_signs_on(omega, mix_seed(seed, 3))
        W_S = neumann_component(omega, T, E, lam)
        res = check_sign_bounds(W_S, omega, E, lam, T)
        hits_a += res.a_ok
        hits_e += res.e_norm_ok
        hits_tail += res.tail_ok
    assert hits_a == seeds
    assert hits_e == seeds
    assert hits_tail == seeds


# ------------------------------------------------- partition conditioning

def test_partition_complement_covers_exactly():
    omega = _random_omega(25, 0.4, 40)
    part = partition_support_complement(omega, j0=5, seed=41)
    union = np.zeros((25, 25), dtype=bool)
    for batch in part.partition:
        union |= batch
        assert not (batch & omega.mask).any()  # batches avoid the support
    np.testing.assert_array_equal(union, ~omega.mask)
    np.testing.assert_array_equal(part.mask, omega.mask)


@pytest.mark.parametrize("n, support, j0, seed", [
    (25, 0.4, 5, 41),
    (60, 0.1, 12, 7),
    (33, 0.7, 3, 2024),
    (50, 0.3, 1, 0),
    (20, "empty", 4, 5),
    (20, "all but one", 6, 6),
])
def test_partition_matches_2d_index_reference(n, support, j0, seed):
    """The batches are byte-identical to a round-by-round 2-D-index draw."""
    if support == "empty":
        omega = _empty_omega(n)
    elif support == "all but one":
        mask = np.ones((n, n), dtype=bool)
        mask[n // 2, n // 3] = False
        omega = SupportSet(mask=mask)
    else:
        omega = _random_omega(n, support, seed + 1)
    part = partition_support_complement(omega, j0, seed)
    reference = partition_by_2d_index(omega.mask, part.q, j0, seed)
    assert len(part.partition) == j0
    for batch, expected in zip(part.partition, reference):
        assert batch.dtype == bool and batch.shape == (n, n)
        assert batch.tobytes() == expected.tobytes()


def test_partition_of_a_full_support_is_refused():
    with pytest.raises(ValueError, match="q must lie"):
        partition_support_complement(_full_omega(10), 3, 0)


def _flat_report(payload, prefix=""):
    for key, value in payload.items():
        if isinstance(value, dict):
            yield from _flat_report(value, prefix + key + ".")
        else:
            yield prefix + key, value


def test_certify_instance_ignores_singular_vector_signs(monkeypatch):
    """Flipping the signs of paired singular vectors (u_i, v_i) leaves T,
    and so every verdict and value of the certificate, unchanged."""
    n, r, rho = 120, 3, 0.2
    lam = lambda_dense(n, rho, 0.8)
    L0 = generate_low_rank(n, r, 46)
    _, omega = generate_sign_corruption(n, rho, "exact", 47)
    S0 = random_signs_on(omega, 48)
    base, W = certify_instance(L0, S0, lam, seed=9)

    original = pcp.certificate.low_rank_factors
    signs = np.array([-1.0, 1.0, -1.0])

    def flipped(L, r=None):
        U, V = original(L, r)
        return U * signs, V * signs

    monkeypatch.setattr(pcp.certificate, "low_rank_factors", flipped)
    other, W_flipped = certify_instance(L0, S0, lam, seed=9)
    a, b = dict(_flat_report(base.to_dict())), dict(_flat_report(other.to_dict()))
    assert list(a) == list(b)
    for key, value in a.items():
        if isinstance(value, bool):
            assert b[key] == value, key
        elif key == "pt_w_norm":
            assert b[key] <= 1e-8 * np.linalg.norm(W_flipped)
        else:
            assert abs(b[key] - value) <= 1e-10 * abs(value), key
    assert np.abs(W_flipped - W).max() <= 1e-10 * np.abs(W).max()


def test_certify_instance_end_to_end():
    n, rho = 100, 0.02
    lam = lambda_dense(n, rho, 0.8)
    L0 = np.ones((n, n)) / n
    _, omega = generate_sign_corruption(n, rho, "exact", 42)
    S0 = random_signs_on(omega, 43)
    report, W = certify_instance(L0, S0, lam, seed=7)
    assert report.wl_checks is not None
    assert report.ws_checks is not None
    assert W.shape == (n, n)
    assert report.pt_w_norm <= 1e-8 * max(np.linalg.norm(W), 1e-300)
    payload = report.to_dict()
    assert set(payload) >= {
        "pt_w_norm", "w_spectral", "omega_residual", "omega_perp_inf",
        "alpha", "epsilon", "lambda", "passed",
    }


REPORT_KEYS = [
    "pt_w_norm", "w_spectral", "omega_residual", "omega_perp_inf", "alpha",
    "epsilon", "lambda", "passed", "tangent_ok", "spectral_ok", "support_ok",
    "off_support_ok", "lambda_hypothesis_ok", "opnorm_hypothesis_ok",
    "support_tangent_norm", "wl_checks", "ws_checks",
]
WL_KEYS = [
    "w_l_spectral", "support_residual", "off_support_inf", "sigma",
    "a_ok", "b_ok", "c_ok",
]
WS_KEYS = [
    "w_s_spectral", "off_support_inf", "e_spectral", "tail_spectral",
    "a_ok", "b_ok", "e_norm_ok", "tail_ok",
]


def test_certificate_json_key_order_is_pinned():
    # the `pcp certify` JSON contract: exact keys, in this order
    n, rho = 40, 0.05
    lam = lambda_dense(n, rho, 0.8)
    _, omega = generate_sign_corruption(n, rho, "exact", 44)
    report, _ = certify_instance(np.ones((n, n)) / n, random_signs_on(omega, 45), lam, seed=3)
    payload = report.to_dict()
    assert list(payload) == REPORT_KEYS
    assert list(payload["wl_checks"]) == WL_KEYS
    assert list(payload["ws_checks"]) == WS_KEYS
    assert payload["alpha"] == 0.9 and payload["lambda"] == lam
    assert payload["wl_checks"]["w_l_spectral"] == report.wl_checks.w_l_spectral
    assert payload["ws_checks"]["w_s_spectral"] == report.ws_checks.w_s_spectral


def test_certificate_json_without_corruption_has_no_sign_checks():
    n = 30
    report, _ = certify_instance(np.ones((n, n)) / n, np.zeros((n, n)), 0.1, seed=0)
    assert report.ws_checks is None
    payload = report.to_dict()
    assert list(payload) == REPORT_KEYS[:-1]
    assert list(payload["wl_checks"]) == WL_KEYS


def test_default_j0():
    assert default_j0(200) == 12  # 2 * ceil(ln 200)
    assert default_j0(400) == 12
    assert default_j0(2) == 2
