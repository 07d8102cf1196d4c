import math

import numpy as np
import pytest

import pcp.linalg
from pcp.problems import (
    SupportSet,
    generate_low_rank,
    generate_sign_corruption,
    lambda_classic,
    lambda_dense,
    lambda_from_spec,
    low_rank_factors,
    make_instance,
    random_signs_on,
    sample_golfing_partition,
)
from pcp.harness import SweepConfig
from pcp.rng import make_rng, mix_seed, splitmix64


# ------------------------------------------------------------------ rng

def test_splitmix64_is_pure_and_64bit():
    a = splitmix64(12345)
    assert a == splitmix64(12345)
    assert 0 <= a < 2**64
    assert splitmix64(12345) != splitmix64(12346)


def test_mix_seed_sensitivity():
    base = mix_seed(7, 100, 3, 0)
    assert base != mix_seed(7, 100, 3, 1)
    assert base != mix_seed(7, 101, 3, 0)
    assert base != mix_seed(8, 100, 3, 0)


def test_philox_stream_is_reproducible():
    a = make_rng(99).random(8)
    b = make_rng(99).random(8)
    np.testing.assert_array_equal(a, b)


# ----------------------------------------------------- generate_low_rank

def test_low_rank_determinism():
    a = generate_low_rank(50, 1, 7)
    b = generate_low_rank(50, 1, 7)
    np.testing.assert_array_equal(a, b)


def test_low_rank_rank_by_construction():
    L = generate_low_rank(100, 3, 1)
    s = np.linalg.svd(L, compute_uv=False)
    assert s[3] / s[0] <= 1e-10


def test_low_rank_frobenius_scale():
    # E||L0||_F^2 = r * 10^4 for the N(0, 100/n) factor model
    vals = [np.linalg.norm(generate_low_rank(200, 1, s)) ** 2 for s in range(50)]
    assert abs(np.mean(vals) - 1e4) / 1e4 <= 0.15


def test_low_rank_rejects_bad_rank():
    with pytest.raises(ValueError):
        generate_low_rank(10, 11, 0)
    with pytest.raises(ValueError):
        generate_low_rank(10, 0, 0)


# ---------------------------------------------- generate_sign_corruption

def test_exact_count_model():
    S, omega = generate_sign_corruption(40, 0.5, "exact", 3)
    assert np.count_nonzero(S) == 800
    nz = S[S != 0]
    assert set(np.unique(nz)) <= {-1.0, 1.0}
    assert omega.count == 800
    np.testing.assert_array_equal(omega.mask, S != 0)


def test_bernoulli_support_fraction():
    fracs = []
    for seed in range(100):
        S, _ = generate_sign_corruption(100, 0.3, "bernoulli", seed)
        fracs.append(np.count_nonzero(S) / 1e4)
    assert abs(np.mean(fracs) - 0.3) <= 0.02


def test_sign_corruption_determinism():
    a, _ = generate_sign_corruption(30, 0.2, "bernoulli", 11)
    b, _ = generate_sign_corruption(30, 0.2, "bernoulli", 11)
    np.testing.assert_array_equal(a, b)


def test_sign_corruption_rejects_bad_rho():
    for rho in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            generate_sign_corruption(10, rho, "exact", 0)


def test_signs_are_balanced():
    S, _ = generate_sign_corruption(80, 0.5, "exact", 5)
    pos = np.count_nonzero(S > 0)
    neg = np.count_nonzero(S < 0)
    total = pos + neg
    # 4-sigma band for a fair binomial
    assert abs(pos - total / 2) <= 4 * math.sqrt(total) / 2


# ------------------------------------------------ sample_golfing_partition

def test_partition_q_value():
    omega = sample_golfing_partition(50, 0.25, 2, 5)
    assert abs(omega.q - 0.5) <= 1e-15


def test_partition_union_is_complement():
    omega = sample_golfing_partition(60, 0.4, 5, 9)
    union = np.zeros((60, 60), dtype=bool)
    for batch in omega.partition:
        union |= batch
    np.testing.assert_array_equal(union, ~omega.mask)


def test_partition_density_monte_carlo():
    fracs = [
        sample_golfing_partition(200, 0.5, 11, seed).count / 200**2
        for seed in range(50)
    ]
    assert abs(np.mean(fracs) - 0.5) <= 0.02


def test_partition_marginal_law_single_draw():
    # empirical support fraction over the n^2 >= 1e4 entries of one draw
    # stays within 3 binomial standard deviations of rho
    n, rho = 120, 0.35
    omega = sample_golfing_partition(n, rho, 8, 13)
    frac = omega.count / n**2
    assert abs(frac - rho) <= 3 * math.sqrt(rho * (1 - rho)) / n


def test_random_signs_on_support():
    omega = sample_golfing_partition(40, 0.3, 4, 2)
    E = random_signs_on(omega, 17)
    assert np.all(E[~omega.mask] == 0)
    on = E[omega.mask]
    assert set(np.unique(on)) <= {-1.0, 1.0}


# ------------------------------------------------------- low_rank_factors

def _assert_same_subspaces(U, V, L, r):
    Uf, _, Vt = np.linalg.svd(L)
    Uf, Vf = Uf[:, :r], Vt[:r].T
    assert U.shape == V.shape == (L.shape[0], r)
    np.testing.assert_allclose(U @ U.T, Uf @ Uf.T, atol=1e-12)
    np.testing.assert_allclose(V @ V.T, Vf @ Vf.T, atol=1e-12)
    np.testing.assert_allclose(U.T @ U, np.eye(r), atol=1e-12)
    np.testing.assert_allclose(V.T @ V, np.eye(r), atol=1e-12)


@pytest.mark.parametrize("n, r, seed", [(60, 1, 0), (60, 2, 3), (120, 3, 5), (200, 4, 8)])
def test_low_rank_factors_match_full_svd(n, r, seed):
    L = generate_low_rank(n, r, seed)
    U, V = low_rank_factors(L, r)
    _assert_same_subspaces(U, V, L, r)


def test_low_rank_factors_reject_rank_overflow():
    # n=30 is too small for the sketch: the full SVD finds the overflow
    L = generate_low_rank(30, 3, 0)
    with pytest.raises(ValueError, match=r"numerical rank 3 exceeds r=2"):
        low_rank_factors(L, 2)


def test_low_rank_factors_partial_path_needs_no_full_svd(monkeypatch):
    L = generate_low_rank(200, 3, 11)

    def no_full_svd(M):
        raise AssertionError("full SVD called")

    monkeypatch.setattr(pcp.linalg, "svd", no_full_svd)
    for r in (3, None):
        U, V = low_rank_factors(L, r)
        monkeypatch.undo()
        _assert_same_subspaces(U, V, L, 3)
        monkeypatch.setattr(pcp.linalg, "svd", no_full_svd)
    with pytest.raises(ValueError, match=r"numerical rank 3 exceeds r=2 \(sigma_3/sigma_1 = "):
        low_rank_factors(L, 2)


def test_low_rank_factors_fall_back_past_the_sketch(monkeypatch):
    """Rank 12 exceeds the r=None sketch (rank guess 2, 10 columns): every
    Ritz value is above the cutoff, so the full SVD decides."""
    L = generate_low_rank(200, 12, 12)
    full_svds = []
    original = pcp.linalg.svd
    monkeypatch.setattr(pcp.linalg, "svd", lambda M: full_svds.append(1) or original(M))
    U, V = low_rank_factors(L)
    assert full_svds
    _assert_same_subspaces(U, V, L, 12)


def test_low_rank_factors_of_zero_matrix():
    U, V = low_rank_factors(np.zeros((15, 15)))
    assert U.shape == V.shape == (15, 0)


def test_low_rank_factors_keep_r_columns_below_the_rank():
    """A given r above the numerical rank still yields r orthonormal
    columns, those of the full SVD."""
    L = generate_low_rank(40, 1, 13)
    U, V = low_rank_factors(L, 3)
    Uf, _, Vt = np.linalg.svd(L)
    np.testing.assert_allclose(U, Uf[:, :3], atol=1e-12)
    np.testing.assert_allclose(V, Vt[:3].T, atol=1e-12)
    U, V = low_rank_factors(np.zeros((15, 15)), 2)
    np.testing.assert_array_equal(U, np.eye(15)[:, :2])
    np.testing.assert_array_equal(V, np.eye(15)[:, :2])


# ---------------------------------------------------------------- lambda

def test_lambda_dense_frozen_value():
    # independent arithmetic: C1/(4*sqrt(1-rho) + 9/4) * sqrt((1-rho)/(n*rho))
    want = (0.8 / (4.0 * math.sqrt(0.5) + 9.0 / 4.0)) * math.sqrt(0.5 / (400 * 0.5))
    got = lambda_dense(400, 0.5, 0.8)
    assert abs(got - want) <= 1e-15
    assert abs(got - 7.8765e-3) <= 1e-7


def test_lambda_dense_linear_in_c1():
    assert lambda_dense(100, 0.3, 0.0) == 0.0
    ratio = lambda_dense(1600, 0.75, 4.0) / lambda_dense(1600, 0.75, 0.8)
    assert abs(ratio - 5.0) <= 1e-12


def test_lambda_dense_monotone_decreasing_in_rho():
    grid = np.linspace(0.02, 0.98, 49)
    vals = [lambda_dense(500, rho, 0.8) for rho in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_lambda_dense_rejects_endpoint_rho():
    for rho in (0.0, 1.0):
        with pytest.raises(ValueError):
            lambda_dense(100, rho, 0.8)


def test_lambda_classic():
    assert lambda_classic(400) == 0.05
    assert lambda_classic(1) == 1.0
    assert lambda_classic(1600) == 0.025


@pytest.mark.parametrize("spec, n, cell, expected, tol", [
    # spellings of --lambda, which has no cell
    pytest.param("0.05", 100, None, 0.05, 0.0, id="bare"),
    pytest.param("classic", 400, None, 0.05, 0.0, id="classic"),
    pytest.param("dense:0.5,0.8", 400, None, 7.8765e-3, 1e-7, id="dense-literal"),
    pytest.param("nonsense", 10, None, ValueError, None, id="nonsense"),
    pytest.param("dense:0.5", 10, None, ValueError, None, id="dense-one-value"),
    pytest.param("-1.0", 10, None, ValueError, None, id="negative"),
    pytest.param("nan", 10, None, ValueError, None, id="nan"),
    pytest.param("inf", 10, None, ValueError, None, id="inf"),
    pytest.param("dense", 400, None, ValueError, None, id="dense-without-cell"),
    # spellings of lambda_mode, given a sweep cell's (rho, C1)
    pytest.param("fixed:0.125", 100, (0.3, 0.8), 0.125, 0.0, id="fixed"),
    pytest.param("dense", 400, (0.5, 0.8), 7.8765e-3, 1e-7, id="dense-cell"),
    pytest.param("classic", 400, (0.5, 0.8), 0.05, 0.0, id="classic-cell"),
    pytest.param("0.125", 100, (0.3, 0.8), 0.125, 0.0, id="bare-cell"),
    pytest.param("fixed:nan", 100, (0.3, 0.8), ValueError, None, id="fixed-nan"),
    pytest.param("fixed:0", 100, (0.3, 0.8), ValueError, None, id="fixed-zero"),
    pytest.param("dense", 100, (0.3, float("nan")), ValueError, None, id="dense-nan-C1"),
    pytest.param("dense", 100, (0.3, 0.0), ValueError, None, id="dense-zero-C1"),
    pytest.param("dense:0.3,inf", 100, (0.3, 0.8), ValueError, None, id="dense-inf-C1"),
    pytest.param("bogus", 100, (0.3, 0.8), ValueError, None, id="bogus"),
])
def test_lambda_from_spec(spec, n, cell, expected, tol):
    """One grammar for --lambda and lambda_mode; only finite positive values pass."""
    rho, C1 = cell if cell else (None, None)
    if expected is ValueError:
        with pytest.raises(ValueError):
            lambda_from_spec(spec, n, rho, C1)
    else:
        assert abs(lambda_from_spec(spec, n, rho, C1) - expected) <= tol
    if cell:  # a sweep config accepts exactly the specs the grammar accepts
        build = lambda: SweepConfig(n_list=[n], rho_grid=[rho], C1=C1, lambda_mode=spec)
        if expected is ValueError:
            with pytest.raises(ValueError):
                build()
        else:
            build()


# ---------------------------------------------------------- make_instance

def test_instance_composition_is_exact():
    inst = make_instance(30, 2, 0.2, 5)
    np.testing.assert_array_equal(inst.D, inst.L0 + inst.S0)


def test_instance_exact_count():
    inst = make_instance(40, 1, 0.5, 9, "exact")
    assert np.count_nonzero(inst.S0) == 800


def test_instance_determinism():
    a = make_instance(25, 1, 0.3, 7, "bernoulli")
    b = make_instance(25, 1, 0.3, 7, "bernoulli")
    np.testing.assert_array_equal(a.D, b.D)


def test_support_set_requires_square():
    with pytest.raises(ValueError):
        SupportSet(mask=np.zeros((3, 4), dtype=bool))

