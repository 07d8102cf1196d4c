"""Dense linear-algebra primitives: SVD, proximal operators, spectral norm.

Everything operates on plain 2-D float64 numpy arrays; no eigenproblem is
solved for svt's exactness gate. All functions are pure; the only state
kept is gate (c)'s accept limits per matrix size, so concurrent use is safe.
"""

import functools
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
# the c values the Chebyshev rule of gate (c) tries, 2^(-j/16) for j = 1..320,
# each with arccosh(2/c - 1): the best c sits just above the accepted theta,
# and this grid comes within 3.5% of the best a_k at every step from k = 3 on
# (n = 200 and 800)
_GATE_C = tuple((c, math.acosh(2.0 / c - 1.0)) for c in (2.0 ** (-j / 16) for j in range(1, 321)))
# gate (c): beta_k within 64 ulps of T_k's Gershgorin radius, an exhausted Krylov space
_SVT_GATE_EXHAUSTED = 64 * float(np.finfo(float).eps)

DEFAULT_TOL = 1e-8
LANCZOS_STEP_CAP = 1000


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
        tau (see _rest_at_most). Step k accepts when its top Ritz value
        theta_k of R^T R / tau^2 is below a limit fixed in advance, the
        larger of two rules': Kuczynski & Wozniakowski's bound and the
        Chebyshev form it weakens, which accepts a rest well below tau in
        fewer steps. Either way a step accepts wrongly with probability at
        most 1.7e-7 / 64, so one of at most 64 steps does with probability
        at most 1.7e-7 (union bound). No eigenproblem is solved: the signs
        of pivots of the Lanczos tridiagonal decide (Sylvester's law).

    (a) and (b) alone can accept a sketch that missed values above tau: a
    sketch of l columns cannot see a few values just above tau among many
    just below it, and its Ritz values, which never exceed the singular
    values they approximate, all fall below tau. (c) catches that case.

    The full SVD runs instead when (c) fails, when (a) and (b) do not hold
    after min(16, n // (2l)) power steps, and at once when all l Ritz values
    exceed tau (then at least l values do). It also runs once a sketch
    cannot pass (b) in time: from the third Rayleigh-Ritz step on, when the
    residual of (b), shrinking by its last factor at each step left, would
    still exceed its tolerance at the cap. Giving up only routes the call to
    the full SVD. The partial path is tried only when tau > 0 and
    l <= n / 10, n the smaller dimension.

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
    """The partial path of svt: the kept shrunk triplets, or None to fall back.

    None when gate (a) or (c) fails, and when (b) has not held by the power
    cap or provably will not: from the third Rayleigh-Ritz step on, a
    residual that grew, or that shrinking by its last factor f at each of
    the j steps left would still exceed the tolerance (res f^j > tol), gives
    up at once.
    """
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
    previous = math.inf
    for step in range(power_cap + 1):
        Ub, s, Vt = np.linalg.svd(Q.T @ M, full_matrices=False)
        if s[-1] > tau:
            return None
        r = int(np.count_nonzero(s > tau))
        MV = M @ Vt.T
        U, V = Q @ Ub[:, :r], Vt[:r].T
        residual = float(np.linalg.norm(MV[:, :r] - U * s[:r]))
        tol = _SVT_RESIDUAL_TOL * max(s[0], tau)
        if residual <= tol:
            if _rest_at_most(M, U, s[:r], V, tau, normal_matrix(rng, cols, 1, 1.0)):
                return SvdResult(U=U, singular_values=s[:r] - tau, V=V)
            return None
        rate, previous = residual / previous, residual
        if step >= 2 and (rate >= 1.0 or residual * rate ** (power_cap - step) > tol):
            return None
        Q = np.linalg.qr(MV)[0]  # spans M M^T Q: M V spans M B^T with B = Q^T M
    return None


def _rest_at_most(M, U, s, V, tau, start) -> bool:
    """Whether ||R||_2 <= tau for R = M - U diag(s) V^T, up to probability 1.7e-7.

    Runs _lanczos on A = R^T R / tau^2 (R never formed) from ``start``, the
    Gaussian column drawn after the sketch block, so uniform on the sphere in
    direction. A is positive semidefinite of order n (the columns of M), with
    top eigenvalue lambda and top Ritz value theta_k after step k; theta_k
    never decreases in k and never exceeds lambda. The model is exact
    arithmetic, which the full reorthogonalization in _lanczos makes fair.

    Step k decides by the signs of LDL^T pivots of T_k (_all_below), in order:
    - theta_k >= 1 proves ||R|| >= tau: False. Only the last pivot of
      T_k - I is new, so this costs O(1) a step.
    - theta_k < a_k, a_k = _gate_limits(n)[k - 1] fixed in advance: True.
      T_k - a_k I is factored anew, up to its first pivot that is not
      negative, usually the first (alpha_1 is the start's Rayleigh quotient).
    - beta_k within 64 ulps of T_k's Gershgorin radius: the Krylov space is
      exhausted, so theta_k = lambda, and lambda < 1: True.
    The accept is wrong only if lambda > 1 and theta_k < a_k, which has
    probability at most p = _SVT_GATE_FAILURE by either of two bounds:

    - Kuczynski & Wozniakowski (SIAM J. Matrix Anal. Appl. 13, 1992):
      P(theta_k < (1 - eps) lambda) <= 1.648 sqrt(n) exp(-sqrt(eps) (2k - 1)).
      With eps_k = (ln(1.648 sqrt(n) / p) / (2k - 1))^2 the bound is p, and
      theta_k <= 1 - eps_k implies theta_k < (1 - eps_k) lambda.
    - The Chebyshev form it weakens: if lambda > 1, then for c in (0, 1)
      and a < c, P(theta_k <= a) <= sqrt(2na / (pi (c - a))) / T_{k-1}(2/c - 1),
      T_{k-1}(2/c - 1) = cosh(2 (k - 1) artanh sqrt(1 - c)). Proof: with
      b the unit start, x = p_k(A) b, p_k(x) = T_{k-1}(2x/c - 1), lies in
      the Krylov space, so theta_k >= x.Ax / x.x. |p_k| <= 1 on [0, c] and
      p_k >= T_{k-1}(2/c - 1) >= 1 above 1, so with X the part of x.x from
      eigenvalues above c, x.Ax / x.x >= cX / (X + 1) and
      X >= p_k(lambda)^2 beta_1^2 >= T_{k-1}(2/c - 1)^2 beta_1^2, beta_1 the
      start's component along the top eigenvector. So theta_k <= a needs
      beta_1^2 <= a / ((c - a) T_{k-1}(2/c - 1)^2), and beta_1^2, of law
      Beta(1/2, (n - 1)/2), has P(beta_1^2 <= t) <= sqrt(2nt / pi) by
      Wendel's inequality. Solved for a at bound p, each c of _GATE_C gives
      an accepted a < c, and a_k takes the largest.

    a_k is the larger of the two rules' limits, and theta_k < a_k lies in
    one of the two events, so each step accepts wrongly with probability at
    most p. Over at most 64 steps the union bound gives 64 p = 1.7e-7; no
    verdict by then gives False. The pivot recurrence is backward stable
    (Kahan 1966; Demmel, Applied Numerical Linear Algebra, 5.3.4): its signs
    are exact for a tridiagonal a few ulps from T_k. A NaN pivot rejects,
    and a reject only routes the call to the exact full SVD.
    """
    def gram(x):
        y = M @ x - U @ (s * (V.T @ x))
        return (M.T @ y - V @ (s * (U.T @ y))) / (tau * tau)

    diag, off, pivot, radius = [], [0.0], -1.0, 0.0  # T_k as _all_below takes it
    for limit, (alpha, beta, _) in zip(_gate_limits(M.shape[1]), _lanczos(gram, start)):
        diag.append(alpha)
        pivot = alpha - 1.0 - off[-1] * off[-1] / pivot  # the new pivot of T_k - I
        if not pivot < 0.0:
            return False
        radius = max(radius, abs(alpha) + off[-1] + beta)  # at least ||T_k||
        if _all_below(diag, off, limit) or beta <= _SVT_GATE_EXHAUSTED * radius:
            return True
        off.append(beta)
    return False


def _all_below(diag, off, shift) -> bool:
    """Whether every eigenvalue of the symmetric tridiagonal T with diagonal
    ``diag`` and off-diagonal ``off[1:]`` (off[0] = 0) is below ``shift``:
    whether every LDL^T pivot of T - shift I is negative (Sylvester's law of
    inertia). Stops at the first that is not; a NaN one is not negative."""
    pivot = -1.0
    for a, b in zip(diag, off):
        pivot = a - shift - b * b / pivot
        if not pivot < 0.0:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _gate_limits(n: int) -> Tuple[float, ...]:
    """a_1, ..., a_64: gate (c) at step k accepts theta_k < a_k (see _rest_at_most)."""
    target = math.log(1.648 * math.sqrt(n) / _SVT_GATE_FAILURE)
    # Chebyshev rule: bound = p at a = c q / (1 + q), q = pi p^2 T^2 / (2n),
    # T = cosh m, m = (k - 1) arccosh(2/c - 1); log T is taken without
    # forming cosh m, which overflows. Plain floats: numpy's ufuncs would
    # add their code pages to the resident set of every process that gates
    log_scale = 2.0 * math.log(_SVT_GATE_FAILURE / 2.0) + math.log(math.pi / (2 * n))
    limits = []
    for k in range(1, _SVT_GATE_STEPS + 1):
        chebyshev = 0.0
        for c, arccosh in _GATE_C:
            m = (k - 1) * arccosh
            log_q = log_scale + 2.0 * (m + math.log1p(math.exp(-2.0 * m)))
            chebyshev = max(chebyshev, c / (1.0 + math.exp(-log_q)))
        limits.append(max(1.0 - (target / (2 * k - 1)) ** 2, chebyshev))
    return tuple(limits)


def _lanczos(matvec, v0) -> Iterator[Tuple[float, float, np.ndarray]]:
    """Lanczos on a symmetric operator: step k yields (alpha_k, beta_k, T_k).

    ``matvec`` applies the operator to a 1-D vector of the size of ``v0``,
    the nonzero start. Each new vector is reorthogonalized against the whole
    basis (two Gram-Schmidt passes), so no spurious copies of converged Ritz
    values appear. T_k is the k x k tridiagonal projection of the operator
    on the Krylov space, whose eigenvalues are the Ritz values (a view,
    valid until the next step); alpha_k is its last diagonal entry, and
    beta_k the norm of the new residual, T_{k+1}'s next off-diagonal entry.
    At k = dim the space is the whole space and beta_k is reported as 0.
    No eigenproblem is solved here: sqrt_top_eigenvalue solves T_k, and gate
    (c) reads only its inertia. Deterministic for fixed inputs.
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
        alpha = tri[k, k] = h[k]
        beta = float(np.linalg.norm(w)) if k + 1 < dim else 0.0
        yield float(alpha), beta, tri[: k + 1, : k + 1]
        if beta == 0.0:
            return
        if k + 1 == Q.shape[0]:
            grown = np.empty((2 * (k + 1), dim))
            grown[: k + 1] = Q
            Q = grown
            tri = np.pad(tri, (0, k + 1))
        Q[k + 1] = w / beta
        tri[k, k + 1] = tri[k + 1, k] = beta


def sqrt_top_eigenvalue(
    gram_matvec: Callable[[np.ndarray], np.ndarray],
    v0: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> float:
    """Operator norm ||A|| from the matvec of the Gram operator A^T A.

    Runs _lanczos from ``v0``, solving its tridiagonal at every step, until
    the Ritz residual bound beta_k |s_k| proves an eigenvalue of A^T A within
    tol * |theta| of the top Ritz value theta (beta_k ~ 0 on an exhausted
    Krylov space), and returns sqrt(max(theta, 0)), clamped against round-off.

    Raises
    ------
    ConvergenceError
        After LANCZOS_STEP_CAP steps; carries the square root of the best
        Ritz value.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    theta = 0.0
    for _, (_, beta, tri) in zip(range(LANCZOS_STEP_CAP), _lanczos(gram_matvec, v0)):
        ritz, vecs = np.linalg.eigh(tri)
        theta = float(ritz[-1])
        # s_k = vecs[-1, -1], the last entry of theta's Ritz vector
        if beta * abs(vecs[-1, -1]) <= tol * abs(theta):
            return math.sqrt(max(theta, 0.0))
    raise ConvergenceError(
        f"Lanczos did not reach tol={tol} in {LANCZOS_STEP_CAP} steps",
        estimate=math.sqrt(max(theta, 0.0)),
    )


def spectral_norm(M: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Largest singular value: Lanczos on x -> M^T (M x), then a square root.

    The start vector is a fixed pseudo-random vector seeded only from the
    matrix dimensions, so repeated calls on equal inputs return identical
    values. The Lanczos stop (see sqrt_top_eigenvalue) proves an
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
