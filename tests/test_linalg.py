import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pcp
import pcp.linalg
from pcp.linalg import (
    ConvergenceError,
    ensure_matrix,
    soft_threshold,
    spectral_norm,
    sqrt_top_eigenvalue,
    svd,
    svt,
)
from oracles import eager_rest_at_most, prox_l1_scalar_by_search, scalar_soft_threshold


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


def _count_qr(monkeypatch):
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda A: calls.append(1) or qr(A))
    return calls


def _record_gates(monkeypatch):
    """Verdicts of gate (c), one per call, in call order."""
    verdicts = []
    gate = pcp.linalg._rest_at_most

    def recording(*args):
        verdicts.append(gate(*args))
        return verdicts[-1]

    monkeypatch.setattr(pcp.linalg, "_rest_at_most", recording)
    return verdicts


def _count_lanczos_steps(monkeypatch):
    """Steps of every _lanczos run, one entry per run."""
    steps = []
    lanczos = pcp.linalg._lanczos

    def counting(*args):
        steps.append(0)
        for step in lanczos(*args):
            steps[-1] += 1
            yield step

    monkeypatch.setattr(pcp.linalg, "_lanczos", counting)
    return steps


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
    triplet converges, so only gate (c), the Lanczos bound on the discarded
    part, keeps the partial path from dropping the three values above tau.
    With (15, 15), gate (b)'s residual shrinks too slowly to pass within the
    cap of 10 power steps, and the sketch gives up at its third
    Rayleigh-Ritz step, after 3 QR factorizations (12 when it ran to the
    cap). A warm start from the top singular vector (as pcp_solve would give
    after an L step that kept one triplet) or from a random block falls back
    the same way.
    """
    n = 200
    values = np.concatenate([[5.0], np.full(above, 1.001), np.full(below, 0.999)])
    M = _planted(values, n, 24)
    if start == "top":
        start = _top_right_vectors(M, 1)
    elif start == "random":
        start = np.linalg.qr(np.random.default_rng(28).standard_normal((n, 2)))[0]
    calls = _count_full_svds(monkeypatch)
    gates = _record_gates(monkeypatch)
    qr_calls = _count_qr(monkeypatch)
    got = svt(M, 1.0, rank_guess=2, start=start)
    assert calls == [(n, n)]
    if below == 50:
        assert gates == [False]
    else:
        assert gates == [] and len(qr_calls) == 3
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


def test_partial_svt_value_above_tau_behind_a_small_rest_falls_back(monkeypatch):
    """A value at 1.05 tau behind a rest of at most 0.1 tau, where gate (c)'s
    Chebyshev rule would accept within 6 Lanczos steps. The start block
    holds the top right singular vector and is orthogonal to the hidden
    value's, so the sketch never sees it and gates (a) and (b) pass:
    over 100 seeded matrices gate (c) rejects every time and the call falls
    back."""
    n, values = 200, np.concatenate([[5.0, 1.05], np.linspace(0.1, 0.01, 60)])
    calls = _count_full_svds(monkeypatch)
    gates = _record_gates(monkeypatch)
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        U = np.linalg.qr(rng.standard_normal((n, values.size)))[0]
        V = np.linalg.qr(rng.standard_normal((n, values.size)))[0]
        M = (U * values) @ V.T
        start = rng.standard_normal((n, 9))
        start[:, 0] = V[:, 0]
        start -= np.outer(V[:, 1], V[:, 1] @ start)
        got = svt(M, 1.0, rank_guess=1, start=start)
        assert gates == [False] * (seed + 1), f"seed {3000 + seed} accepted the sketch"
        assert len(calls) == seed + 1
        _assert_matches_full_svt(got, M, 1.0)


def _chebyshev_bound(n, k, a, c):
    """sqrt(2na / (pi (c - a))) / T_{k-1}(2/c - 1), T from numpy's Chebyshev series."""
    t = np.polynomial.chebyshev.chebval(2.0 / c - 1.0, [0.0] * (k - 1) + [1.0])
    return np.sqrt(2 * n * a / (np.pi * (c - a))) / t


@pytest.mark.parametrize("n", [200, 800])
def test_gate_limits_follow_the_two_bounds(n):
    """Gate (c) at step k accepts theta_k <= a_k. Each a_k is the
    Kuczynski-Wozniakowski limit or, where larger, an a that the Chebyshev
    bound proves at the per-step budget p for some c > a of the grid; a 1%
    larger a is proven by no c. a_k grows with k and stays below 1."""
    p = 1.7e-7 / 64
    limits = np.array(pcp.linalg._gate_limits(n))
    k = np.arange(1, 65)
    kw = 1.0 - (np.log(1.648 * np.sqrt(n) / p) / (2 * k - 1)) ** 2
    assert limits.shape == (64,) and limits[-1] < 1.0
    assert np.all(np.diff(limits) > 0) and np.all(limits >= kw)
    grid = [c for c, _ in pcp.linalg._GATE_C]
    for step, a, kw_a in zip(k, limits, kw):
        if a == kw_a:
            continue
        proven = [_chebyshev_bound(n, step, a, c) for c in grid if c > a]
        assert min(proven) <= p * (1 + 1e-9), step
        looser = [_chebyshev_bound(n, step, 1.01 * a, c) for c in grid if c > 1.01 * a]
        assert min(looser) > p, step
    assert 0 < limits[7] < 0.13 and kw[7] < 0  # step 8: only the Chebyshev rule accepts
    # the bound grows with a and falls with k, so each accept set is theta <= a_k
    a = np.linspace(0.01, 0.5, 50)
    assert np.all(np.diff(_chebyshev_bound(n, 8, a, 0.6)) > 0)
    assert np.all(np.diff([_chebyshev_bound(n, s, 0.2, 0.6) for s in range(1, 30)]) < 0)


@pytest.mark.parametrize("top", [0.1, 0.5, 0.9, 0.99, 0.999, 1.001, 1.05, 1.2])
def test_gate_agrees_with_the_eager_reference(monkeypatch, top):
    """Against oracles.eager_rest_at_most (an eigensolve at every step, the
    Kuczynski-Wozniakowski rule alone), over planted rests whose top is
    `top` tau: a flat rest, a linear one, and one value above a rest of
    half of it. Gate (c) gives the same verdict and never takes more
    Lanczos steps. For a rest at most half of tau it takes fewer, except on
    the flat rest, whose two eigenvalues exhaust the Krylov space at step 2
    either way."""
    n = 200
    steps = _count_lanczos_steps(monkeypatch)
    rests = {
        "flat": np.full(60, top),
        "linear": np.linspace(top, 0.0, 120),
        "one": np.concatenate([[top], np.linspace(0.5 * min(top, 1.0), 0.0, 100)]),
    }
    for name, rest in rests.items():
        for seed in range(3):
            rng = np.random.default_rng(4000 + seed)
            U = np.linalg.qr(rng.standard_normal((n, rest.size + 1)))[0]
            V = np.linalg.qr(rng.standard_normal((n, rest.size + 1)))[0]
            M = (U * np.concatenate([[5.0], rest])) @ V.T
            args = (M, U[:, :1], np.array([5.0]), V[:, :1], 1.0, rng.standard_normal((n, 1)))
            want, want_steps = eager_rest_at_most(*args)
            got = pcp.linalg._rest_at_most(*args)
            assert got == want, (name, seed)
            if top <= 0.9 or top > 1.0:  # near-ties reach the 64-step cap: False
                assert got == (top < 1.0), (name, seed)
            assert steps[-1] <= want_steps, (name, seed)
            if top <= 0.5 and name != "flat":
                assert steps[-1] < want_steps, (name, seed)


def test_gate_work_on_a_recoverable_solve(monkeypatch):
    """pcp_solve at n=400, r=1, rho=0.1, C1=0.8 (instance seed 0): gate (c)
    runs on each of the 15 iterations and accepts, in at most 11 Lanczos
    steps and 2 eigensolves a gate and 111 steps in all (13-14 steps a gate,
    each with an eigensolve, and 196 in all, by the Kuczynski-Wozniakowski
    rule alone)."""
    steps = _count_lanczos_steps(monkeypatch)
    gates = _record_gates(monkeypatch)
    solves = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda T: solves.append(len(steps)) or eigvalsh(T))
    inst = pcp.make_instance(400, 1, 0.1, 0)
    result = pcp.pcp_solve(inst.D, pcp.lambda_dense(400, 0.1, 0.8))
    assert result.converged and gates == [True] * result.iterations
    gate_steps = steps[1:]  # the first run is spectral_norm(D)
    assert len(gate_steps) == len(gates)
    assert max(gate_steps) <= 11 and sum(gate_steps) <= 111
    assert max(solves.count(run) for run in range(2, len(steps) + 1)) <= 2


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
    qr_calls = _count_qr(monkeypatch)
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
        got = sqrt_top_eigenvalue(lambda v: A @ v, v0, tol=1e-10) ** 2
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

    got = sqrt_top_eigenvalue(matvec, np.ones(60), tol=1e-12) ** 2
    assert abs(got - np.linalg.eigvalsh(A)[-1]) <= 1e-12 * got
    assert len(calls) <= 4


def test_lanczos_zero_operator():
    assert sqrt_top_eigenvalue(np.zeros_like, np.ones(7)) == 0.0


def test_lanczos_repeats_bitwise():
    A = _psd(80, 34)
    v0 = _rand(80, 1, 35).ravel()
    runs = [sqrt_top_eigenvalue(lambda v: A @ v, v0.copy()) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_lanczos_cap_raises_with_estimate(monkeypatch):
    monkeypatch.setattr(pcp.linalg, "LANCZOS_STEP_CAP", 3)
    A = _psd(50, 36)
    with pytest.raises(ConvergenceError) as info:
        sqrt_top_eigenvalue(lambda v: A @ v, np.ones(50), tol=1e-12)
    top = np.linalg.eigvalsh(A)[-1]
    assert 0.0 < info.value.estimate ** 2 <= top * (1 + 1e-12)


def test_lanczos_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sqrt_top_eigenvalue(lambda v: v, np.zeros(4))
    for tol in (0.0, float("nan")):
        with pytest.raises(ValueError, match="tol must be positive"):
            sqrt_top_eigenvalue(lambda v: v, np.ones(4), tol=tol)
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
