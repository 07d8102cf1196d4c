"""Dense linear-algebra primitives: SVD, proximal operators, norms.

Everything operates on plain 2-D float64 numpy arrays. All functions are
pure; none keeps internal state, so concurrent use is safe.
"""

import math
from typing import Callable, NamedTuple

import numpy as np

from .rng import make_rng, mix_seed

# tag decorrelating spectral-norm Lanczos start vectors from other seeded streams
_LANCZOS_SEED_TAG = 0x5BEC712A1

DEFAULT_TOL = 1e-8
LANCZOS_STEP_CAP = 1000
# beta_k below this many ulps of the spectrum's scale: Krylov space exhausted
_EXHAUSTED_FACTOR = 64


class ConvergenceError(RuntimeError):
    """An iterative estimate hit its iteration cap before reaching tolerance.

    The best estimate so far is attached as ``estimate``.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


class SvdResult(NamedTuple):
    U: np.ndarray            # n x k, orthonormal columns
    singular_values: np.ndarray  # length k, nonincreasing, >= 0
    V: np.ndarray            # m x k, orthonormal columns

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.singular_values) @ self.V.T


class MatrixNorms(NamedTuple):
    frobenius: float
    one_norm: float   # entrywise: sum of |m_ij|
    inf_norm: float   # entrywise: max of |m_ij|
    nuclear: float    # sum of singular values


def ensure_matrix(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate a dense real matrix: 2-D, float64, every entry finite."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {M.shape}")
    if M.size and not np.isfinite(M).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return M


def svd(M: np.ndarray) -> SvdResult:
    """Full singular value decomposition M = U diag(s) V^T.

    Deterministic for a fixed input (LAPACK divide-and-conquer underneath).
    Degenerate shapes are supported: the zero matrix yields all-zero singular
    values with canonical-basis U and V, and 0x0 inputs yield empty factors.

    Raises
    ------
    numpy.linalg.LinAlgError
        If the underlying iteration fails to converge (numerical breakdown).
    """
    M = ensure_matrix(M)
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    return SvdResult(U=U, singular_values=s, V=Vt.T)


def soft_threshold(M: np.ndarray, tau: float) -> np.ndarray:
    """Entrywise shrinkage sgn(m) * max(|m| - tau, 0): prox of tau * ||.||_1."""
    M = ensure_matrix(M)
    if tau < 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    return np.sign(M) * np.maximum(np.abs(M) - tau, 0.0)


def svt(M: np.ndarray, tau: float) -> np.ndarray:
    """Singular value thresholding: prox of tau * ||.||_*.

    Shrinks every singular value by tau, clamping at zero; values exactly
    equal to tau map to exactly zero.
    """
    if tau < 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    U, s, V = svd(M)
    s_shrunk = np.maximum(s - tau, 0.0)
    return (U * s_shrunk) @ V.T


def lanczos_top_eigenvalue(
    matvec: Callable[[np.ndarray], np.ndarray],
    v0: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> float:
    """Largest eigenvalue of a symmetric operator by Lanczos iteration.

    ``matvec`` applies the operator to a 1-D vector of the size of ``v0``,
    the nonzero start vector. Every new Lanczos vector is reorthogonalized
    against the whole basis (two Gram-Schmidt passes), so the tridiagonal
    projection stays faithful and no spurious copies of converged Ritz
    values appear. Stops when the Ritz residual bound beta_k * |s_k| (s_k
    the last entry of the top Ritz vector) is at most tol * |theta|, which
    proves an eigenvalue lies within that distance of the returned Ritz
    value theta; or, with the exact value, once the Krylov space is
    exhausted (beta_k ~ 0). Deterministic for fixed inputs.

    Raises
    ------
    ConvergenceError
        After LANCZOS_STEP_CAP steps; carries the best Ritz value.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    v0 = np.asarray(v0, dtype=np.float64).ravel()
    nv = np.linalg.norm(v0)
    if nv == 0.0:
        raise ValueError("start vector must be nonzero")
    dim = v0.size
    steps = min(dim, LANCZOS_STEP_CAP)
    # rows: the Lanczos basis, doubled when full so memory follows the steps taken
    Q = np.empty((32, dim))
    Q[0] = v0 / nv
    alphas, betas = [], []
    theta = 0.0
    for k in range(steps):
        w = np.array(matvec(Q[k]), dtype=np.float64).ravel()  # never a view of Q
        basis = Q[: k + 1]
        h = basis @ w
        w -= basis.T @ h
        w -= basis.T @ (basis @ w)
        alphas.append(float(h[k]))
        beta = float(np.linalg.norm(w))
        tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        ritz, vecs = np.linalg.eigh(tri)
        theta = float(ritz[-1])
        scale = max(abs(ritz[0]), abs(theta))
        if (
            beta * abs(vecs[-1, -1]) <= tol * abs(theta)
            or beta <= _EXHAUSTED_FACTOR * np.finfo(float).eps * scale
            or k + 1 == dim
        ):
            return theta
        if k + 1 == Q.shape[0]:
            Q = np.concatenate([Q, np.empty_like(Q)])
        Q[k + 1] = w / beta
        betas.append(beta)
    raise ConvergenceError(
        f"Lanczos did not reach tol={tol} in {LANCZOS_STEP_CAP} steps",
        estimate=theta,
    )


def sqrt_top_eigenvalue(
    gram_matvec: Callable[[np.ndarray], np.ndarray],
    v0: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> float:
    """Operator norm ||A|| from the matvec of the Gram operator A^T A.

    The square root of lanczos_top_eigenvalue, clamped at 0 against
    round-off; a ConvergenceError carries the square root of its estimate.
    """
    try:
        top = lanczos_top_eigenvalue(gram_matvec, v0, tol)
    except ConvergenceError as err:
        raise ConvergenceError(
            str(err), estimate=math.sqrt(max(err.estimate, 0.0))
        ) from None
    return math.sqrt(max(top, 0.0))


def spectral_norm(M: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Largest singular value: Lanczos on x -> M^T (M x), then a square root.

    The start vector is a fixed pseudo-random vector seeded only from the
    matrix dimensions, so repeated calls on equal inputs return identical
    values. The Lanczos stop (see lanczos_top_eigenvalue) proves an
    eigenvalue of M^T M within relative distance tol of the square of the
    returned value.

    Raises
    ------
    ConvergenceError
        If the step cap is reached; carries the best norm estimate.
    """
    M = ensure_matrix(M)
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    n, m = M.shape
    if n == 0 or m == 0:
        return 0.0
    rng = make_rng(mix_seed(_LANCZOS_SEED_TAG, n, m))
    return sqrt_top_eigenvalue(lambda v: M.T @ (M @ v), rng.random(m) - 0.5, tol)


def norms(M: np.ndarray) -> MatrixNorms:
    """Frobenius, entrywise 1-norm, entrywise max-norm, nuclear norm."""
    M = ensure_matrix(M)
    if M.size == 0:
        return MatrixNorms(0.0, 0.0, 0.0, 0.0)
    s = np.linalg.svd(M, compute_uv=False)
    return MatrixNorms(
        frobenius=float(np.linalg.norm(M)),
        one_norm=float(np.abs(M).sum()),
        inf_norm=float(np.abs(M).max()),
        nuclear=float(s.sum()),
    )
