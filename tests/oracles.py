"""Independent reference implementations used only to check the library.

These deliberately avoid the code paths they certify: the scalar prox oracle
is a pure-Python loop, the prox characterization uses 1-D ternary search on
the defining objective, and the pursuit oracle is Douglas-Rachford splitting
on the sparse-eliminated form of the program (a different first-order method
than the production solver). The certificate references sum the Neumann series
term by term and run the golfing recursion on full n x n matrices, with the
three-term tangent projector, where the library works in tangent coordinates.
The partial-SVT gate reference runs Lanczos with an eigensolve at every step
and the Kuczynski-Wozniakowski rule alone.
"""

import math

import numpy as np


def scalar_soft_threshold(M, tau):
    """Elementwise shrinkage evaluated with an explicit scalar loop."""
    M = np.asarray(M, dtype=float)
    out = np.zeros_like(M)
    rows, cols = M.shape
    for i in range(rows):
        for j in range(cols):
            m = M[i, j]
            mag = abs(m) - tau
            if mag > 0:
                out[i, j] = math.copysign(mag, m)
    return out


def prox_l1_scalar_by_search(m, tau, iters=200):
    """argmin_x tau*|x| + 0.5*(x-m)^2 located by ternary search.

    The objective is strictly convex in x, so ternary search on a bracket
    that certainly contains the minimizer converges to it.
    """
    lo, hi = -abs(m) - 2.0 * tau - 1.0, abs(m) + 2.0 * tau + 1.0

    def f(x):
        return tau * abs(x) + 0.5 * (x - m) ** 2

    for _ in range(iters):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) <= f(m2):
            hi = m2
        else:
            lo = m1
    return 0.5 * (lo + hi)


def pcp_objective(L, S, lam):
    return np.linalg.svd(L, compute_uv=False).sum() + lam * np.abs(S).sum()


def dr_solve(D, lam, step=None, max_iters=500_000, tol=1e-13):
    """Douglas-Rachford oracle for min ||L||_* + lam*||D-L||_1 over L.

    Eliminating the sparse part (S = D - L) makes the program an
    unconstrained sum of two prox-friendly terms; DR splitting converges to
    a global minimizer. Returns (L, S, objective, iterations).
    """
    D = np.asarray(D, dtype=float)
    if step is None:
        # small fixed step converges far faster than ||D||-scaled choices on
        # these instances, and the minimizer is step-independent
        step = 1.0
    scale = max(np.linalg.norm(D), 1.0)

    def prox_nuclear(X):
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
        return (U * np.maximum(s - step, 0.0)) @ Vt

    def prox_l1_shifted(X):
        # prox of step * lam * ||D - .||_1
        R = D - X
        return D - np.sign(R) * np.maximum(np.abs(R) - step * lam, 0.0)

    Z = np.zeros_like(D)
    iters = max_iters
    for k in range(max_iters):
        X = prox_nuclear(Z)
        Y = prox_l1_shifted(2.0 * X - Z)
        delta = Y - X
        Z = Z + delta
        if np.linalg.norm(delta) <= tol * scale:
            iters = k + 1
            break
    L = prox_nuclear(Z)
    S = D - L
    return L, S, pcp_objective(L, S, lam), iters


def partition_by_2d_index(mask, q, j0, seed):
    """Golfing batches of the support complement, drawn round by round with
    2-D (row, col) indexing and a fresh pending mask per round.

    Each round draws, for batch 1..j0 in turn, one uniform per pending entry
    in row-major order; entries that joined no batch are redrawn next round.
    """
    from pcp.rng import make_rng

    n = mask.shape[0]
    rng = make_rng(seed)
    batches = [np.zeros((n, n), dtype=bool) for _ in range(j0)]
    pending = ~mask
    while pending.any():
        rows, cols = np.nonzero(pending)
        hit_any = np.zeros(rows.size, dtype=bool)
        for b in batches:
            draw = rng.random(rows.size) < q
            b[rows[draw], cols[draw]] = True
            hit_any |= draw
        pending = np.zeros_like(pending)
        pending[rows[~hit_any], cols[~hit_any]] = True
    return batches


def _tangent_projection(M, U, V):
    """U U^T M + M V V^T - U U^T M V V^T."""
    UUtM = U @ (U.T @ M)
    return UUtM + (M - UUtM) @ V @ V.T


def neumann_series(mask, U, V, E, lam, tol=1e-10, max_terms=1000):
    """lam * P_Tperp sum_k (P_Omega P_T P_Omega)^k E, summed term by term up
    to the first term of Frobenius norm below tol, which is left out."""
    term = np.array(E, dtype=float)
    total = np.zeros_like(term)
    for _ in range(max_terms):
        total += term
        term = mask * _tangent_projection(term, U, V)
        if np.linalg.norm(term) < tol:
            return lam * (total - _tangent_projection(total, U, V))
    raise RuntimeError(f"Neumann series not below tol={tol} after {max_terms} terms")


def golfing_dense(batches, q, U, V):
    """Golfing recursion Y_j = Y_{j-1} + (1/q) P_{batch_j} P_T(U V^T - Y_{j-1})
    on n x n matrices; returns (P_Tperp Y_j0, [||P_T(U V^T - Y_j)||_F])."""
    UV = U @ V.T
    Y = np.zeros_like(UV)
    residual = _tangent_projection(UV, U, V)
    trace = [np.linalg.norm(residual)]
    for batch in batches:
        Y = Y + (residual * batch) / q
        residual = _tangent_projection(UV - Y, U, V)
        trace.append(np.linalg.norm(residual))
    return Y - _tangent_projection(Y, U, V), trace


def eager_rest_at_most(M, U, s, V, tau, start, steps=64, failure=1.7e-7 / 64):
    """Gate (c) of the partial SVT as first written: (verdict, Lanczos steps).

    Lanczos on A = R^T R / tau^2, R = M - U diag(s) V^T, with two
    Gram-Schmidt passes and a dense eigh of the whole tridiagonal at every
    step. Step k rejects when theta_k > 1, and accepts when the Krylov space
    is exhausted or (2k - 1) sqrt(1 - theta_k) >= ln(1.648 sqrt(n) / failure).
    """
    def gram(x):
        y = M @ x - U @ (s * (V.T @ x))
        return (M.T @ y - V @ (s * (U.T @ y))) / (tau * tau)

    n = M.shape[1]
    target = math.log(1.648 * math.sqrt(n) / failure)
    basis = [np.ravel(start) / np.linalg.norm(start)]
    alphas, betas = [], []
    for k in range(1, steps + 1):
        w = gram(basis[-1])
        B = np.array(basis)
        h = B @ w
        w = w - B.T @ h
        w = w - B.T @ (B @ w)
        alphas.append(h[-1])
        beta = np.linalg.norm(w)
        T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        ritz = np.linalg.eigh(T)[0]
        theta = ritz[-1]
        scale = max(abs(ritz[0]), abs(theta))
        exhausted = beta <= 64 * np.finfo(float).eps * scale or k == n
        if theta > 1.0:
            return False, k
        if exhausted or (2 * k - 1) * math.sqrt(1.0 - theta) >= target:
            return True, k
        basis.append(w / beta)
        betas.append(beta)
    return False, steps
