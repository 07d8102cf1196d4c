"""Dense linear-algebra primitives: SVD, proximal operators, spectral norm.

Everything operates on plain 2-D float64 numpy arrays. All functions are
pure; none keeps internal state, so concurrent use is safe.
"""

import math
from typing import Callable, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .rng import make_rng, mix_seed, normal_matrix

# tag decorrelating spectral-norm Lanczos start vectors from other seeded streams
_LANCZOS_SEED_TAG = 0x5BEC712A1
# tag decorrelating partial-SVT sketch start blocks from other seeded streams
_SVT_SEED_TAG = 0x5B7B10C4

# partial SVT: sketch columns beyond the rank guess, and the residual of the
# kept triplets, relative to max(top value, tau), that accepts the sketch
_SVT_OVERSAMPLE = 8
_SVT_RESIDUAL_TOL = 1e-12
# gate (c): at most 64 Lanczos steps, each accepting wrongly with probability
# at most 1.7e-7 / 64, so an svt call does with at most 1.7e-7 (union bound)
_SVT_GATE_STEPS = 64
_SVT_GATE_FAILURE = 1.7e-7 / _SVT_GATE_STEPS

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

    def reconstruct(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """U diag(s) V^T, written into ``out`` when one is given."""
        return np.matmul(self.U * self.singular_values, self.V.T, out=out)


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
    """Entrywise shrinkage sgn(m) * max(|m| - tau, 0): prox of tau * ||.||_1.

    Built in one new array, copysign(max(|m| - tau, 0), m); M is not changed.
    """
    M = ensure_matrix(M)
    if not tau >= 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    out = np.abs(M)
    out -= tau
    np.maximum(out, 0.0, out=out)
    return np.copysign(out, M, out=out)


def svt(
    M: np.ndarray,
    tau: float,
    rank_guess: Optional[int] = None,
    start: Optional[np.ndarray] = None,
) -> SvdResult:
    """Singular value thresholding: prox of tau * ||.||_*, as its kept triplets.

    Returns the singular triplets of M whose values exceed tau, each value
    shrunk by tau: ``.reconstruct()`` is the prox and ``.singular_values.sum()``
    its nuclear norm. Values at or below tau (exactly equal included) are
    dropped, i.e. map to exactly zero.

    Without ``rank_guess`` the triplets come from a full SVD. A rank guess
    k >= 1 (how many values are expected above tau) allows a partial path
    that computes only the top of the spectrum (Halko, Martinsson & Tropp,
    arXiv 0909.4061): a Gaussian start block of l = k + 8 columns, seeded
    from the shape and l so results are deterministic, gives Q = qr(M Omega);
    each power step replaces Q by qr(M M^T Q), and a Rayleigh-Ritz SVD of
    Q^T M follows the start and every step. The sketch is accepted when

    (a) at least one of the l Ritz values is at most tau, so the first value
        discarded is;
    (b) the kept triplets are singular triplets of M to working precision,
        ||M V_r - U_r S_r||_F <= 1e-12 * max(s_1, tau) (U_r^T M = S_r V_r^T
        holds by construction); and
    (c) a seeded Lanczos run bounds ||R||, R = M - U_r S_r V_r^T the rest, by
        tau (see _rest_at_most): each of its at most 64 steps accepts wrongly
        with probability at most 1.7e-7 / 64 (Kuczynski & Wozniakowski), so a
        call does with probability at most 1.7e-7 (union bound).

    (a) and (b) alone can accept a sketch that missed values above tau: a
    sketch of l columns cannot see a few values just above tau among many
    just below it, and its Ritz values, which never exceed the singular
    values they approximate, all fall below tau. (c) catches that case.

    The full SVD runs instead when (c) fails, when (a) and (b) do not hold
    after min(16, n // (2l)) power steps, and at once when all l Ritz values
    exceed tau (then at least l values do). The partial path is tried only
    when tau > 0 and l <= n / 10, n the smaller dimension.

    ``start``, a block with as many rows as M has columns, warm-starts the
    sketch: its columns (the first l, if it has more) replace the first
    columns of the Gaussian start block, whose seeded columns pad it to l. A
    start close to the top right singular vectors (those of the previous
    iterate, in pcp_solve) needs fewer power steps. Correctness never rests
    on it: gates (a)-(c) alone decide whether the sketch is accepted,
    whatever the start, one with 0 columns included. The full path ignores
    it.
    """
    if not tau >= 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    M = ensure_matrix(M)
    if start is not None:
        start = ensure_matrix(start, "start")
        if start.shape[0] != M.shape[1]:
            raise ValueError(
                f"start must have {M.shape[1]} rows, one per column of M, got {start.shape[0]}"
            )
    if rank_guess is not None:
        if rank_guess < 1:
            raise ValueError(f"rank_guess must be >= 1, got {rank_guess}")
        top = _top_triplets(M, tau, rank_guess + _SVT_OVERSAMPLE, start)
        if top is not None:
            return top
    U, s, V = svd(M)
    r = int(np.count_nonzero(s > tau))
    # copies, so the full factors are not kept alive by the result
    return SvdResult(U=U[:, :r].copy(), singular_values=s[:r] - tau, V=V[:, :r].copy())


def _top_triplets(
    M: np.ndarray, tau: float, width: int, start: Optional[np.ndarray]
) -> Optional[SvdResult]:
    """The partial path of svt: the kept shrunk triplets, or None to fall back."""
    rows, cols = M.shape
    n = min(rows, cols)
    if tau <= 0 or 10 * width > n:
        return None
    rng = make_rng(mix_seed(_SVT_SEED_TAG, rows, cols, width))
    omega = normal_matrix(rng, cols, width, 1.0)
    if start is not None:
        k = min(start.shape[1], width)
        omega[:, :k] = start[:, :k]
    power_cap = min(16, n // (2 * width))
    Q = np.linalg.qr(M @ omega)[0]
    for _ in range(power_cap + 1):
        Ub, s, Vt = np.linalg.svd(Q.T @ M, full_matrices=False)
        if s[-1] > tau:
            return None
        r = int(np.count_nonzero(s > tau))
        MV = M @ Vt.T
        U, V = Q @ Ub[:, :r], Vt[:r].T
        if np.linalg.norm(MV[:, :r] - U * s[:r]) <= _SVT_RESIDUAL_TOL * max(s[0], tau):
            if _rest_at_most(M, U, s[:r], V, tau, normal_matrix(rng, cols, 1, 1.0)):
                return SvdResult(U=U, singular_values=s[:r] - tau, V=V)
            return None
        Q = np.linalg.qr(MV)[0]  # spans M M^T Q: M V spans M B^T with B = Q^T M
    return None


def _rest_at_most(M, U, s, V, tau, start) -> bool:
    """Whether ||R||_2 <= tau for R = M - U diag(s) V^T, up to probability 1.7e-7.

    Runs _lanczos on A = R^T R / tau^2 (R never formed) from ``start``, the
    Gaussian column drawn after the sketch block, so uniform on the sphere in
    direction. For such a start and exact arithmetic, which the full
    reorthogonalization in _lanczos makes a fair model, the top Ritz value
    theta_k of a positive semidefinite A of order n with top eigenvalue lambda obeys
    P(theta_k < (1 - eps) lambda) <= 1.648 sqrt(n) exp(-sqrt(eps) (2k - 1))
    (Kuczynski & Wozniakowski, SIAM J. Matrix Anal. Appl. 13, 1992).

    After step k: theta_k > 1 proves ||R|| > tau (no Ritz value exceeds
    lambda), so False; an exhausted Krylov space gives theta_k = lambda, so
    True; and so does (2k - 1) sqrt(1 - theta_k) >= ln(1.648 sqrt(n) / p),
    p = _SVT_GATE_FAILURE. That is theta_k <= 1 - eps_k for eps_k =
    (ln(1.648 sqrt(n) / p) / (2k - 1))^2, fixed in advance: were lambda > 1,
    theta_k < (1 - eps_k) lambda, of probability at most p. Over at most 64
    steps the union bound gives 64 p; no verdict by then gives False.
    """
    def gram(x):
        y = M @ x - U @ (s * (V.T @ x))
        return (M.T @ y - V @ (s * (U.T @ y))) / (tau * tau)

    target = math.log(1.648 * math.sqrt(M.shape[1]) / _SVT_GATE_FAILURE)
    for k, (theta, _, exhausted) in zip(range(1, _SVT_GATE_STEPS + 1), _lanczos(gram, start)):
        if theta > 1.0:
            return False
        if exhausted or (2 * k - 1) * math.sqrt(1.0 - theta) >= target:
            return True
    return False


def _lanczos(matvec, v0) -> Iterator[Tuple[float, float, bool]]:
    """Lanczos on a symmetric operator: step k yields (theta_k, beta_k |s_k|, exhausted).

    ``matvec`` applies the operator to a 1-D vector of the size of ``v0``,
    the nonzero start. Each new vector is reorthogonalized against the whole
    basis (two Gram-Schmidt passes), so no spurious copies of converged Ritz
    values appear. theta_k is the top Ritz value; beta_k * |s_k| (s_k the
    last entry of its Ritz vector) bounds its distance to an eigenvalue;
    exhausted (beta_k ~ 0, or k the dimension) means theta_k is exact, and
    the iteration ends there. Deterministic for fixed inputs.
    """
    v0 = np.asarray(v0, dtype=np.float64).ravel()
    nv = np.linalg.norm(v0)
    if nv == 0.0:
        raise ValueError("start vector must be nonzero")
    dim = v0.size
    # rows: the Lanczos basis, doubled when full so memory follows the steps
    # taken; copied straight into the larger block, with no temporary half
    Q = np.empty((32, dim))
    Q[0] = v0 / nv
    # the tridiagonal projection, grown with Q; step k reads its (k+1)-block
    tri = np.zeros((32, 32))
    for k in range(dim):
        w = np.array(matvec(Q[k]), dtype=np.float64).ravel()  # never a view of Q
        basis = Q[: k + 1]
        h = basis @ w
        w -= basis.T @ h
        w -= basis.T @ (basis @ w)
        tri[k, k] = h[k]
        beta = float(np.linalg.norm(w))
        ritz, vecs = np.linalg.eigh(tri[: k + 1, : k + 1])
        theta = float(ritz[-1])
        scale = max(abs(ritz[0]), abs(theta))
        exhausted = beta <= _EXHAUSTED_FACTOR * np.finfo(float).eps * scale or k + 1 == dim
        yield theta, beta * abs(vecs[-1, -1]), exhausted
        if exhausted:
            return
        if k + 1 == Q.shape[0]:
            grown = np.empty((2 * (k + 1), dim))
            grown[: k + 1] = Q
            Q = grown
            tri = np.pad(tri, (0, k + 1))
        Q[k + 1] = w / beta
        tri[k, k + 1] = tri[k + 1, k] = beta


def lanczos_top_eigenvalue(
    matvec: Callable[[np.ndarray], np.ndarray],
    v0: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> float:
    """Largest eigenvalue of a symmetric operator by Lanczos iteration.

    Runs _lanczos from ``v0`` until the Ritz residual bound proves an eigenvalue
    within tol * |theta| of the returned theta, or the Krylov space is exhausted.

    Raises
    ------
    ConvergenceError
        After LANCZOS_STEP_CAP steps; carries the best Ritz value.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    theta = 0.0
    for _, (theta, bound, exhausted) in zip(range(LANCZOS_STEP_CAP), _lanczos(matvec, v0)):
        if bound <= tol * abs(theta) or exhausted:
            return theta
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
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    n, m = M.shape
    if n == 0 or m == 0:
        return 0.0
    rng = make_rng(mix_seed(_LANCZOS_SEED_TAG, n, m))
    return sqrt_top_eigenvalue(lambda v: M.T @ (M @ v), rng.random(m) - 0.5, tol)
