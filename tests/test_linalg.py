import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pcp.linalg
from pcp.linalg import (
    ConvergenceError,
    ensure_matrix,
    lanczos_top_eigenvalue,
    soft_threshold,
    spectral_norm,
    svd,
    svt,
)
from oracles import prox_l1_scalar_by_search, scalar_soft_threshold


def _rand(n, m, seed):
    return np.random.default_rng(seed).standard_normal((n, m))


# ---------------------------------------------------------------- svd

def test_svd_diagonal():
    res = svd(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(res.singular_values, [3.0, 1.0])
    np.testing.assert_allclose(np.abs(res.U), np.eye(2), atol=1e-14)
    np.testing.assert_allclose(np.abs(res.V), np.eye(2), atol=1e-14)


def test_svd_zero_matrix():
    res = svd(np.zeros((4, 4)))
    np.testing.assert_array_equal(res.singular_values, np.zeros(4))
    np.testing.assert_allclose(res.U.T @ res.U, np.eye(4), atol=1e-14)
    np.testing.assert_allclose(res.V.T @ res.V, np.eye(4), atol=1e-14)


def test_svd_reconstruction_and_invariants():
    M = _rand(20, 20, 0)
    res = svd(M)
    rel = np.linalg.norm(res.reconstruct() - M) / np.linalg.norm(M)
    assert rel <= 1e-10
    assert np.abs(res.U.T @ res.U - np.eye(20)).max() <= 1e-10
    assert np.abs(res.V.T @ res.V - np.eye(20)).max() <= 1e-10
    s = res.singular_values
    assert np.all(s[:-1] >= s[1:]) and np.all(s >= 0)


def test_svd_deterministic():
    M = _rand(15, 15, 1)
    a, b = svd(M), svd(M.copy())
    np.testing.assert_array_equal(a.U, b.U)
    np.testing.assert_array_equal(a.singular_values, b.singular_values)


def test_svd_degenerate_shapes():
    res = svd(np.zeros((0, 0)))
    assert res.singular_values.size == 0
    res = svd(np.array([[-2.5]]))
    np.testing.assert_allclose(res.singular_values, [2.5])


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


# ------------------------------------------------------- soft_threshold

def test_soft_threshold_example():
    M = np.array([[2.0, -1.0], [0.3, 0.0]])
    expected = np.array([[1.5, -0.5], [0.0, 0.0]])
    np.testing.assert_allclose(soft_threshold(M, 0.5), expected)


def test_soft_threshold_tau_zero_is_identity():
    M = _rand(6, 6, 2)
    np.testing.assert_array_equal(soft_threshold(M, 0.0), M)


def test_soft_threshold_matches_scalar_loop():
    M = _rand(10, 10, 3)
    np.testing.assert_allclose(
        soft_threshold(M, 0.7), scalar_soft_threshold(M, 0.7), atol=1e-15
    )


def test_soft_threshold_rejects_negative_tau():
    """A negative or NaN threshold is refused, by shrinkage and by svt."""
    for tau in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="threshold must be nonnegative"):
            soft_threshold(np.zeros((2, 2)), tau)
        with pytest.raises(ValueError, match="threshold must be nonnegative"):
            svt(np.eye(3), tau)


@st.composite
def _matrix_and_threshold(draw):
    """A threshold and a matrix whose entries include exact zeros and +-tau."""
    tau = draw(st.floats(0, 10))
    entry = st.one_of(st.floats(-50, 50), st.sampled_from([0.0, -0.0, tau, -tau]))
    return draw(arrays(np.float64, (3, 4), elements=entry)), tau


@settings(max_examples=100, deadline=None)
@given(_matrix_and_threshold())
def test_soft_threshold_property(case):
    """Equal, entry for entry, to sgn(m) * max(|m| - tau, 0), and M unchanged."""
    M, tau = case
    before = M.copy()
    got = soft_threshold(M, tau)
    np.testing.assert_array_equal(got, np.sign(M) * np.maximum(np.abs(M) - tau, 0.0))
    np.testing.assert_allclose(got, scalar_soft_threshold(M, tau), atol=1e-12)
    assert M.tobytes() == before.tobytes()


def test_prox_characterization_by_search_oracle():
    """The shrinkage output minimizes tau*|x| + (x-m)^2/2 entrywise."""
    rng = np.random.default_rng(4)
    for _ in range(5):
        M = rng.normal(scale=3.0, size=(3, 3))
        tau = rng.uniform(0.1, 2.0)
        got = soft_threshold(M, tau)
        want = np.vectorize(lambda m: prox_l1_scalar_by_search(m, tau))(M)
        np.testing.assert_allclose(got, want, atol=1e-6)


# ------------------------------------------------------------------ svt

def test_svt_diagonal():
    np.testing.assert_allclose(
        svt(np.diag([3.0, 1.0]), 2.0).reconstruct(), np.diag([1.0, 0.0]), atol=1e-12
    )


def test_svt_tau_zero_is_identity():
    M = _rand(8, 8, 5)
    np.testing.assert_allclose(svt(M, 0.0).reconstruct(), M, atol=1e-10 * np.linalg.norm(M))


def test_svt_spectrum_property():
    M = _rand(15, 15, 6)
    s_in = svd(M).singular_values
    s_out = svd(svt(M, 0.5).reconstruct()).singular_values
    np.testing.assert_allclose(s_out, np.maximum(s_in - 0.5, 0.0), atol=1e-9)


def test_svt_exact_threshold_goes_to_zero():
    M = np.diag([2.0, 1.0])
    out = svt(M, 1.0).reconstruct()
    s = svd(out).singular_values
    assert s[1] == 0.0
    np.testing.assert_allclose(s[0], 1.0, atol=1e-12)


# ---------------------------------------------------------- partial svt

def _planted(values, n, seed):
    """n x n matrix with the given leading singular values and zeros after."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((n, n)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    s = np.zeros(n)
    s[: len(values)] = values
    return (U * s) @ V.T


def _count_full_svds(monkeypatch):
    calls = []
    original = pcp.linalg.svd

    def counting(M):
        calls.append(M.shape)
        return original(M)

    monkeypatch.setattr(pcp.linalg, "svd", counting)
    return calls


def _assert_matches_full_svt(got, M, tau, rtol=1e-9):
    """Kept values and prox within rtol relative of a direct full SVD."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    kept = s[s > tau] - tau
    want = (U[:, : kept.size] * kept) @ Vt[: kept.size]
    assert got.singular_values.size == kept.size
    np.testing.assert_allclose(got.singular_values, kept, rtol=rtol, atol=rtol * s[0])
    assert np.linalg.norm(got.reconstruct() - want) <= rtol * np.linalg.norm(want)


def _top_right_vectors(M, k):
    return np.linalg.svd(M)[2][:k].T


def test_partial_svt_low_rank_plus_noise_bulk(monkeypatch):
    """Noise bulk far below tau: the sketch is accepted, no full SVD runs."""
    n = 200
    M = _planted([10.0, 7.0, 4.0], n, 20)
    M += 0.05 * np.random.default_rng(21).standard_normal((n, n)) / np.sqrt(n)
    calls = _count_full_svds(monkeypatch)
    got = svt(M, 1.0, rank_guess=3)
    assert calls == []
    _assert_matches_full_svt(got, M, 1.0)


def test_partial_svt_rank_above_sketch_falls_back(monkeypatch):
    n = 200
    M = _planted(np.linspace(5.0, 2.0, 30), n, 22)
    calls = _count_full_svds(monkeypatch)
    got = svt(M, 1.0, rank_guess=1)  # a sketch of 9 columns, 30 values above tau
    assert calls == [(n, n)]
    _assert_matches_full_svt(got, M, 1.0)


@pytest.mark.parametrize("n, tau", [(200, 0.0), (50, 1.0)])
def test_partial_svt_zero_tau_or_small_n_takes_full_path(monkeypatch, n, tau):
    M = _planted([3.0, 2.0], n, 23)
    calls = _count_full_svds(monkeypatch)
    got = svt(M, tau, rank_guess=1)  # 9 columns: more than a tenth of n = 50
    assert calls == [(n, n)]
    _assert_matches_full_svt(got, M, tau)


@pytest.mark.parametrize("above, below, start", [
    pytest.param(3, 50, None, id="3-50"),
    pytest.param(15, 15, None, id="15-15"),
    pytest.param(3, 50, "top", id="3-50-top"),
    pytest.param(15, 15, "top", id="15-15-top"),
    pytest.param(3, 50, "random", id="3-50-random"),
    pytest.param(15, 15, "random", id="15-15-random"),
])
def test_partial_svt_cluster_at_tau_falls_back(monkeypatch, above, below, start):
    """Values 0.1% above and below tau: the sketch cannot tell them apart.

    With (3, 50), the sketch's Ritz values all land below tau and its top
    triplet converges, so only the probe bound on the discarded part keeps
    the partial path from dropping the three values above tau. A warm start
    from the top singular vector (as pcp_solve would give after an L step
    that kept one triplet) or from a random block falls back the same way.
    """
    n = 200
    values = np.concatenate([[5.0], np.full(above, 1.001), np.full(below, 0.999)])
    M = _planted(values, n, 24)
    if start == "top":
        start = _top_right_vectors(M, 1)
    elif start == "random":
        start = np.linalg.qr(np.random.default_rng(28).standard_normal((n, 2)))[0]
    calls = _count_full_svds(monkeypatch)
    got = svt(M, 1.0, rank_guess=2, start=start)
    assert calls == [(n, n)]
    _assert_matches_full_svt(got, M, 1.0)


def test_partial_svt_rank_one_tail_below_tau(monkeypatch):
    """One value far above tau and a tail of 60 reaching 0.95 tau: the
    Lanczos bound on the rest proves the tail below tau, no full SVD runs."""
    n = 200
    M = _planted(np.concatenate([[5.0], np.linspace(0.95, 0.5, 60)]), n, 40)
    calls = _count_full_svds(monkeypatch)
    got = svt(M, 1.0, rank_guess=1)
    assert calls == []
    _assert_matches_full_svt(got, M, 1.0)


def test_partial_svt_one_value_above_tau_in_the_rest_falls_back(monkeypatch):
    """A value at 1.02 tau hidden among 50 at 0.99 tau, behind one value the
    sketch finds: over 100 seeded matrices every call falls back."""
    n = 200
    values = np.concatenate([[5.0, 1.02], np.full(50, 0.99)])
    calls = _count_full_svds(monkeypatch)
    for seed in range(100):
        M = _planted(values, n, 1000 + seed)
        got = svt(M, 1.0, rank_guess=1)
        assert len(calls) == seed + 1, f"seed {1000 + seed} accepted the sketch"
        _assert_matches_full_svt(got, M, 1.0)


@pytest.mark.parametrize("kind", ["top", "wide", "orthogonal"])
def test_partial_svt_warm_start_gives_full_svd_triplets(monkeypatch, kind):
    """A start spanning the top right singular vectors, or orthogonal to
    them, changes the power steps, not the triplets. Of a start wider than
    the sketch (20 columns for 3 + 8), the first columns are used."""
    n = 200
    M = _planted([10.0, 7.0, 4.0], n, 20)
    M += 0.05 * np.random.default_rng(21).standard_normal((n, n)) / np.sqrt(n)
    top = _top_right_vectors(M, 3)
    if kind == "top":
        start = top
    elif kind == "wide":
        start = _top_right_vectors(M, 20)
    else:
        block = np.random.default_rng(27).standard_normal((n, 3))
        start = np.linalg.qr(block - top @ (top.T @ block))[0]
        assert np.abs(top.T @ start).max() <= 1e-12
    calls = _count_full_svds(monkeypatch)
    qr_calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda A: qr_calls.append(1) or qr(A))
    got = svt(M, 1.0, rank_guess=3, start=start)
    assert calls == []
    _assert_matches_full_svt(got, M, 1.0, rtol=1e-10)
    if kind != "orthogonal":
        assert len(qr_calls) == 1  # accepted before any power step


def test_partial_svt_empty_start_gives_full_svd_triplets(monkeypatch):
    """A start with 0 columns (a previous L step that kept nothing) is the
    plain Gaussian sketch."""
    n = 200
    M = _planted([6.0, 3.0], n, 25) + 1e-3 * _rand(n, n, 26)
    calls = _count_full_svds(monkeypatch)
    got = svt(M, 0.5, rank_guess=1, start=np.empty((n, 0)))
    assert calls == []
    _assert_matches_full_svt(got, M, 0.5, rtol=1e-10)
    for x, y in zip(got, svt(M, 0.5, rank_guess=1)):
        np.testing.assert_array_equal(x, y)


def test_partial_svt_repeats_bitwise(monkeypatch):
    n = 200
    M = _planted([6.0, 3.0], n, 25) + 1e-3 * _rand(n, n, 26)
    calls = _count_full_svds(monkeypatch)
    a, b = svt(M, 0.5, rank_guess=2), svt(M.copy(), 0.5, rank_guess=2)
    assert calls == []
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_svt_rejects_bad_rank_guess():
    with pytest.raises(ValueError):
        svt(np.eye(3), 0.5, rank_guess=0)


@pytest.mark.parametrize("rank_guess", [None, 1])
def test_svt_rejects_start_with_wrong_row_count(rank_guess):
    M = _rand(200, 150, 29)
    with pytest.raises(ValueError, match="start must have 150 rows"):
        svt(M, 0.5, rank_guess=rank_guess, start=np.ones((200, 2)))


# -------------------------------------------------------- spectral_norm

def test_spectral_norm_diagonal():
    assert abs(spectral_norm(np.diag([5.0, 2.0, 1.0])) - 5.0) <= 5e-8


def test_spectral_norm_zero():
    assert spectral_norm(np.zeros((5, 5))) == 0.0


def test_spectral_norm_matches_svd():
    M = _rand(30, 30, 7)
    top = svd(M).singular_values[0]
    assert abs(spectral_norm(M) - top) / top <= 1e-6


def test_spectral_norm_transpose_symmetry():
    M = _rand(20, 20, 8)
    a = spectral_norm(M, tol=1e-10)
    b = spectral_norm(M.T, tol=1e-10)
    assert abs(a - b) <= 1e-8 * max(1.0, a)


def test_spectral_norm_degenerate_shapes():
    assert spectral_norm(np.zeros((0, 0))) == 0.0
    assert abs(spectral_norm(np.array([[-7.0]])) - 7.0) <= 1e-12


def test_spectral_norm_near_tie():
    M = np.diag([1.0, 1.0 - 1e-3, 0.5])
    assert abs(spectral_norm(M) - 1.0) <= 1e-6


def test_spectral_norm_near_tie_meets_tol():
    """Top singular values 1 and 1 - 1e-5 behind random orthogonal factors."""
    rng = np.random.default_rng(11)
    Q1, _ = np.linalg.qr(rng.standard_normal((200, 200)))
    Q2, _ = np.linalg.qr(rng.standard_normal((200, 200)))
    s = np.concatenate([[1.0, 1.0 - 1e-5], np.linspace(0.9, 0.1, 198)])
    M = (Q1 * s) @ Q2.T
    assert abs(spectral_norm(M, tol=1e-8) - 1.0) <= 1e-8


def test_spectral_norm_cap_error_carries_norm_estimate(monkeypatch):
    monkeypatch.setattr(pcp.linalg, "LANCZOS_STEP_CAP", 2)
    M = _rand(40, 40, 12)
    with pytest.raises(ConvergenceError) as info:
        spectral_norm(M)
    top = svd(M).singular_values[0]
    assert 0.0 < info.value.estimate <= top * (1 + 1e-12)


# ---------------------------------------------------------------- lanczos

def _psd(n, seed):
    A = _rand(n, n, seed)
    return A @ A.T


def test_lanczos_matches_eigvalsh():
    for n, seed in ((5, 30), (40, 31), (120, 32)):
        A = _psd(n, seed)
        v0 = _rand(n, 1, seed + 100).ravel()
        got = lanczos_top_eigenvalue(lambda v: A @ v, v0, tol=1e-10)
        want = np.linalg.eigvalsh(A)[-1]
        assert abs(got - want) <= 1e-10 * want


def test_lanczos_low_rank_operator_exhausts_early():
    """A rank-3 operator spans a Krylov space of dimension at most 4."""
    B = _rand(60, 3, 33)
    A = B @ B.T
    calls = []

    def matvec(v):
        calls.append(1)
        return A @ v

    got = lanczos_top_eigenvalue(matvec, np.ones(60), tol=1e-12)
    assert abs(got - np.linalg.eigvalsh(A)[-1]) <= 1e-12 * got
    assert len(calls) <= 4


def test_lanczos_zero_operator():
    assert lanczos_top_eigenvalue(np.zeros_like, np.ones(7)) == 0.0


def test_lanczos_repeats_bitwise():
    A = _psd(80, 34)
    v0 = _rand(80, 1, 35).ravel()
    runs = [lanczos_top_eigenvalue(lambda v: A @ v, v0.copy()) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_lanczos_cap_raises_with_estimate(monkeypatch):
    monkeypatch.setattr(pcp.linalg, "LANCZOS_STEP_CAP", 3)
    A = _psd(50, 36)
    with pytest.raises(ConvergenceError) as info:
        lanczos_top_eigenvalue(lambda v: A @ v, np.ones(50), tol=1e-12)
    top = np.linalg.eigvalsh(A)[-1]
    assert 0.0 < info.value.estimate <= top * (1 + 1e-12)


def test_lanczos_rejects_bad_arguments():
    with pytest.raises(ValueError):
        lanczos_top_eigenvalue(lambda v: v, np.zeros(4))
    for tol in (0.0, float("nan")):
        with pytest.raises(ValueError, match="tol must be positive"):
            lanczos_top_eigenvalue(lambda v: v, np.ones(4), tol=tol)
        with pytest.raises(ValueError, match="tol must be positive"):
            spectral_norm(np.eye(4), tol=tol)


def test_convergence_error_carries_estimate():
    err = ConvergenceError("cap", estimate=1.25)
    assert err.estimate == 1.25


def test_ensure_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ensure_matrix(np.zeros(3))
    with pytest.raises(ValueError):
        ensure_matrix(np.array([[np.inf, 1.0]]))


def test_operations_are_thread_safe():
    """Pure functions: concurrent calls on shared inputs agree bitwise."""
    from concurrent.futures import ThreadPoolExecutor

    M = _rand(25, 25, 99)
    expected_svt = svt(M, 0.3).reconstruct()
    expected_norm = spectral_norm(M)
    with ThreadPoolExecutor(max_workers=4) as pool:
        svts = list(pool.map(lambda _: svt(M, 0.3).reconstruct(), range(8)))
        specs = list(pool.map(lambda _: spectral_norm(M), range(8)))
    for out in svts:
        np.testing.assert_array_equal(out, expected_svt)
    assert all(s == expected_norm for s in specs)
