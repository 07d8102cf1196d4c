"""Dual-certificate machinery: tangent/support projectors, the golfing and
least-squares (Neumann) certificate components, and the optimality-condition
checks.

With L0 = U Sigma V^T of rank r, T is the tangent subspace
{U X^T + Y V^T} and Omega the subspace of matrices supported on the
corruption set. A certificate W with

    P_T W = 0,
    ||W|| < alpha,
    ||P_Omega(U V^T + W - lambda * E)||_F <= lambda * eps^2,
    ||P_Omega_perp(U V^T + W)||_inf < lambda / 2,

where E is the corruption sign matrix, witnesses that the low-rank/sparse
pair is the unique optimum of the pursuit program (given lambda < 1 - alpha
and ||P_Omega P_T|| <= 1 - eps). W is built as a sum of two parts: a golfing
recursion handling the tangent-space conditions, and the least-squares part
matching lambda * E on the support, the limit of a Neumann series.

Every use of P_T goes through one map C and its adjoint: C sends the 2nr
tangent coordinates (X, Y) to U X^T + (I - U U^T) Y V^T, so C C^T = P_T
and ||C^T M|| = ||P_T M||_F. project_tangent is C C^T, the golfing
residual is kept as C^T(U V^T - Y), and verify_certificate measures
||P_T W||_F as ||C^T W||. Both ||P_Omega P_T|| and the least-squares part
run on the operator C^T P_Omega C: Lanczos finds its top eigenvalue, and
conjugate gradients invert I - C^T P_Omega C in place of summing the
series term by term, and prove from their own curvature when sigma =
||P_Omega P_T|| is too close to 1 for that. verify_certificate and
check_golfing_bounds, the only readers of sigma, require 0 <= sigma < 1.
"""

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    ConvergenceError,
    ensure_matrix,
    spectral_norm,
    sqrt_top_eigenvalue,
    svt,
)
from .problems import SupportSet
from .rng import make_rng, mix_seed

# tag for the operator-norm Lanczos start block
_OPNORM_SEED_TAG = 0x0113A7B5

# numerical-rank cutoff: sigma_{r+1} <= RANK_TOL * sigma_1 counts as rank r
RANK_TOL = 1e-8
# spectral level of the certificate: ||W|| < ALPHA, with lambda < 1 - ALPHA
ALPHA = 0.9
# cap on the applications of C^T P_Omega C in neumann_component
NEUMANN_MAX_TERMS = 1000
# a CG curvature ratio d.(I - M)d / d.d this low proves sigma >= 1 - 1e-6
_NEUMANN_MIN_CURVATURE = 1.0 - (1.0 - 1e-6) ** 2


def low_rank_factors(L: np.ndarray, r: Optional[int] = None) -> tuple:
    """Leading singular factors (U_r, V_r) of L, with orthonormal columns.

    The numerical rank is the count of singular values above
    RANK_TOL * sigma_1 (0 for a zero matrix); r=None takes it, and a given
    r must equal it, else ValueError. The triplets above the cutoff come
    from svt at that cutoff with a rank guess of r + 1 (2 when r is None),
    sigma_1 from spectral_norm: svt accepts its partial sketch only when
    its gates prove the rest of the spectrum lies at or below the cutoff
    (wrong with probability at most 1.7e-7), else it runs the exact full
    SVD.
    """
    tau = RANK_TOL * spectral_norm(L)
    top = svt(L, tau, rank_guess=(r or 1) + 1)
    s = top.singular_values + tau
    detected = s.size
    if r is not None and detected > r:
        raise ValueError(
            f"numerical rank {detected} exceeds r={r} "
            f"(sigma_{r + 1}/sigma_1 = {s[r] / s[0]:.3e})"
        )
    if r is not None and detected < r:
        raise ValueError(f"numerical rank {detected} is below r={r}")
    return top.U, top.V


@dataclass
class TangentSubspace:
    """Orthonormal factors (U, V) of the rank-r matrix anchoring T."""

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        self.U = ensure_matrix(self.U, "U")
        self.V = ensure_matrix(self.V, "V")
        if self.U.shape != self.V.shape:
            raise ValueError(
                f"U and V must share a shape, got {self.U.shape} vs {self.V.shape}"
            )
        for name, Q in (("U", self.U), ("V", self.V)):
            if Q.shape[1]:
                gram_err = np.abs(Q.T @ Q - np.eye(Q.shape[1])).max()
                if gram_err > 1e-10:
                    raise ValueError(
                        f"{name} columns are not orthonormal (deviation {gram_err:.3e})"
                    )

    @property
    def r(self) -> int:
        return self.U.shape[1]

    def uv(self) -> np.ndarray:
        """The matrix U V^T entering every certificate condition."""
        return self.U @ self.V.T

    @classmethod
    def from_low_rank(cls, L: np.ndarray, r: Optional[int] = None) -> "TangentSubspace":
        """Tangent subspace at L, from low_rank_factors(L, r): r=None takes
        the numerical rank, a given r must equal it."""
        U, V = low_rank_factors(ensure_matrix(L, "L"), r)
        return cls(U=U, V=V)


def project_tangent(M: np.ndarray, T: TangentSubspace) -> np.ndarray:
    """Orthogonal projection U U^T M + M V V^T - U U^T M V V^T onto T,
    formed as C C^T M (see _tangent_coords and _tangent_matrix)."""
    return _tangent_matrix(_tangent_coords(M, T), T)


def project_tangent_complement(M: np.ndarray, T: TangentSubspace) -> np.ndarray:
    return M - project_tangent(M, T)


def project_support(M: np.ndarray, omega: SupportSet) -> np.ndarray:
    """Zero outside Omega, identity on Omega (zeros may come out as -0.0)."""
    return M * omega.mask


def project_support_complement(M: np.ndarray, omega: SupportSet) -> np.ndarray:
    return M * ~omega.mask


def _support_norms(M: np.ndarray, omega: SupportSet) -> tuple:
    """(||P_Omega M||_F, ||P_Omega_perp M||_inf)."""
    on = float(np.linalg.norm(project_support(M, omega)))
    off = project_support_complement(M, omega)
    return on, float(np.abs(off).max()) if off.size else 0.0


def _check_shape(name: str, M: np.ndarray, omega: SupportSet) -> None:
    if M.shape != omega.mask.shape:
        raise ValueError(
            f"{name} shape {M.shape} does not match the support shape {omega.mask.shape}"
        )


def _check_on_support(E: np.ndarray, omega: SupportSet) -> None:
    _check_shape("E", E, omega)
    if np.any(E[~omega.mask]):
        raise ValueError("E has entries outside the support set")


def _check_sigma(sigma: float) -> float:
    """sigma = ||P_Omega P_T|| as given: a norm (not NaN, not negative) below 1."""
    if not 0.0 <= sigma < 1.0:
        raise ValueError(f"||P_Omega P_T|| must be a nonnegative number below 1, got {sigma}")
    return sigma


def _perp(Y: np.ndarray, U: np.ndarray) -> np.ndarray:
    """(I - U U^T) Y."""
    return Y - U @ (U.T @ Y)


def _tangent_coords(Z: np.ndarray, T: TangentSubspace) -> np.ndarray:
    """C^T Z = (Z^T U, (I - U U^T) Z V), flattened to length 2nr."""
    return np.concatenate([(T.U.T @ Z).T.ravel(), _perp(Z @ T.V, T.U).ravel()])


def _tangent_matrix(
    z: np.ndarray, T: TangentSubspace, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """C z = U X^T + (I - U U^T) Y V^T for z = (X, Y), flattened n x r
    blocks, as one rank-2r product (written into ``out`` when given)."""
    n, r = T.U.shape
    X, Y = z[: n * r].reshape(n, r), z[n * r :].reshape(n, r)
    return np.matmul(np.hstack([T.U, _perp(Y, T.U)]), np.hstack([X, T.V]).T, out=out)


def _support_tangent_gram(
    z: np.ndarray, omega: SupportSet, T: TangentSubspace, buf: np.ndarray
) -> np.ndarray:
    """C^T P_Omega C z, the one operator of opnorm_support_tangent and
    neumann_component: C z is formed in ``buf`` (n x n, overwritten),
    project_support is applied once, and C^T costs two n x r products.
    """
    return _tangent_coords(project_support(_tangent_matrix(z, T, buf), omega), T)


def opnorm_support_tangent(
    omega: SupportSet,
    T: TangentSubspace,
    tol: float = DEFAULT_TOL,
) -> float:
    """||P_Omega P_T|| by Lanczos on C^T P_Omega C in tangent coordinates.

    C^T P_Omega C, acting on vectors of length 2nr, has the nonzero
    spectrum of P_T P_Omega P_T; its top eigenvalue, found to relative
    tolerance tol by sqrt_top_eigenvalue, is the squared norm sought.
    Each step applies project_support once; the Lanczos basis holds vectors
    of length 2nr, never n x n matrices. The start vector is C^T G for an
    n x n block G seeded from (n, r, |Omega|) only: C C^T G = P_T G depends
    on T alone, not on its basis, so the value and the step count are
    functions of (T, Omega).

    Raises ConvergenceError (with the best norm estimate attached) at the
    step cap.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    n, r = omega.n, T.r
    if r == 0 or omega.count == 0:
        return 0.0
    G = make_rng(mix_seed(_OPNORM_SEED_TAG, n, r, omega.count)).random((n, n)) - 0.5
    v0 = _tangent_coords(G, T)
    del G  # n x n, not needed while Lanczos runs
    buf = np.empty((n, n))
    return min(
        sqrt_top_eigenvalue(lambda z: _support_tangent_gram(z, omega, T, buf), v0, tol),
        1.0,
    )


def golfing_component(omega: SupportSet, T: TangentSubspace) -> tuple:
    """Golfing construction of the tangent-handling certificate part.

    Runs Y_j = Y_{j-1} + (1/q) P_{Omega_j} P_T(U V^T - Y_{j-1}) over the
    support-complement batches attached to ``omega`` and returns
    (P_Tperp Y_j0, trace), where trace[j] = ||P_T(U V^T - Y_j)||_F for
    j = 0..j0. The trace exposes the per-step residual decay.

    The residual is carried in tangent coordinates, z = C^T(U V^T - Y),
    from z_0 = (V, 0): each step forms C(z / q), masks it with the batch
    and adds it into Y in place, then sets z = z_0 - C^T Y. As
    ||P_T X||_F = ||C^T X||, trace[j] is ||z||. Y is then projected onto
    T-perp in place.
    """
    if omega.partition is None or omega.q is None:
        raise ValueError(
            "omega must carry a golfing partition "
            "(see sample_golfing_partition or partition_support_complement)"
        )
    z0 = np.concatenate([T.V.ravel(), np.zeros(T.U.size)])
    z = z0
    Y = np.zeros((omega.n, omega.n))
    step = np.empty_like(Y)
    trace = [float(np.linalg.norm(z))]
    for batch in omega.partition:
        _tangent_matrix(z / omega.q, T, step)
        step *= batch
        Y += step
        z = z0 - _tangent_coords(Y, T)
        trace.append(float(np.linalg.norm(z)))
    Y -= project_tangent(Y, T)
    return Y, trace


def neumann_component(
    omega: SupportSet,
    T: TangentSubspace,
    E: np.ndarray,
    lam: float,
    tol: float = 1e-10,
) -> np.ndarray:
    """Least-squares certificate part: the limit of the Neumann series
    lambda * P_Tperp sum_k (P_Omega P_T P_Omega)^k E, by conjugate gradients.

    With P_T = C C^T and M = C^T P_Omega C (see _support_tangent_gram), the
    series sums to E + P_Omega C (I - M)^{-1} C^T E. Conjugate gradients
    solve (I - M) x = C^T E in the 2nr tangent coordinates, one application
    of M per iteration, and the result is
    W = lambda * P_Tperp P_Omega(E + C x), formed once at the end. For the
    CG residual r = C^T E - (I - M) x, P_Omega W - lambda * E =
    -lambda * P_Omega C r, so stopping at the first ||r|| < tol (absolute,
    not scaled by lambda) keeps the support mismatch at most lambda * tol,
    the bound of stopping the series at its first term below tol. Past
    NEUMANN_MAX_TERMS applications of M it raises ConvergenceError carrying
    ||r||. The result satisfies P_T W = 0 up to round-off.

    The series needs sigma = ||P_Omega P_T|| < 1: the least eigenvalue of
    I - M is 1 - sigma^2. Each CG step forms the curvature d.(I - M)d of its
    direction d; d.(I - M)d / d.d, a Rayleigh quotient, bounds 1 - sigma^2
    from above, so once it is at most 1 - (1 - 1e-6)^2 (about 2e-6),
    sigma >= 1 - 1e-6 is proven and ValueError is raised.

    E must be supported on Omega with entries in {-1, 0, +1}.
    """
    E = ensure_matrix(E, "E")
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    _check_on_support(E, omega)
    if not np.all(np.isin(E[omega.mask], (-1.0, 0.0, 1.0))):
        raise ValueError("E entries must be -1, 0, or +1")

    buf = np.empty_like(E)
    residual = _tangent_coords(E, T)
    x = np.zeros_like(residual)
    direction = residual.copy()
    rr = float(residual @ residual)
    applications = 0
    while math.sqrt(rr) >= tol:
        if applications == NEUMANN_MAX_TERMS:
            raise ConvergenceError(
                f"Neumann solve not below tol={tol} after {NEUMANN_MAX_TERMS} "
                f"applications (residual norm {math.sqrt(rr):.3e})",
                estimate=math.sqrt(rr),
            )
        applications += 1
        image = direction - _support_tangent_gram(direction, omega, T, buf)
        curvature, norm2 = float(direction @ image), float(direction @ direction)
        if curvature <= _NEUMANN_MIN_CURVATURE * norm2:
            raise ValueError(f"CG curvature ratio {curvature / norm2:.3e} proves ||P_Omega P_T|| "
                             ">= 1 - 1e-6, too close to 1; Neumann series diverges")
        step = rr / curvature
        x += step * direction
        residual -= step * image
        rr, rr_prev = float(residual @ residual), rr
        direction = residual + (rr / rr_prev) * direction
    # E lies on Omega, so E + P_Omega C x = P_Omega(E + C x); formed in buf
    W = _tangent_matrix(x, T, buf)
    W += E
    W *= omega.mask
    W -= project_tangent(W, T)
    W *= lam
    return W


@dataclass
class GolfingBounds:
    """Measured values and pass flags of the golfing-part bound checks."""

    w_l_spectral: float
    support_residual: float
    off_support_inf: float
    sigma: float
    a_ok: bool
    b_ok: bool
    c_ok: bool


@dataclass
class SignBounds:
    """Measured values and pass flags of the sign (Neumann) part checks."""

    w_s_spectral: float
    off_support_inf: float
    e_spectral: float
    tail_spectral: float
    a_ok: bool
    b_ok: bool
    e_norm_ok: bool
    tail_ok: bool


@dataclass
class CertificateReport:
    """Numerical evaluation of the four optimality conditions for W.

    Fields are the keys of the JSON report, in its order, except ``lam``,
    written as ``lambda`` (a Python keyword); a part check that was not run
    (None) is left out of it.
    """

    pt_w_norm: float
    w_spectral: float
    omega_residual: float
    omega_perp_inf: float
    alpha: float
    epsilon: float
    lam: float
    passed: bool
    tangent_ok: bool
    spectral_ok: bool
    support_ok: bool
    off_support_ok: bool
    lambda_hypothesis_ok: bool
    opnorm_hypothesis_ok: bool
    support_tangent_norm: float
    wl_checks: Optional[GolfingBounds] = None
    ws_checks: Optional[SignBounds] = None

    def to_dict(self) -> dict:
        return {"lambda" if key == "lam" else key: value
                for key, value in dataclasses.asdict(self).items() if value is not None}


def verify_certificate(
    W: np.ndarray,
    T: TangentSubspace,
    omega: SupportSet,
    E: np.ndarray,
    lam: float,
    *,
    support_tangent_norm: float,
) -> CertificateReport:
    """Evaluate the four certificate conditions and the two hypotheses.

    ``passed`` reflects the four conditions only (tangent annihilation is
    tested as ||P_T W||_F <= 1e-8 * ||W||_F; alpha is ALPHA); the hypothesis
    flags lambda < 1 - alpha and ||P_Omega P_T|| <= 1 - eps are reported
    separately. ``support_tangent_norm`` is sigma = ||P_Omega P_T||, the
    caller's one opnorm_support_tangent value, with 0 <= sigma < 1, and eps
    is 1 - sigma, the loosest admissible choice, so the second flag holds by
    construction.
    W and E must have the support's shape, and E, the corruption sign
    matrix, must be supported on Omega.
    """
    W = ensure_matrix(W, "W")
    E = ensure_matrix(E, "E")
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    _check_shape("W", W, omega)
    _check_on_support(E, omega)

    sigma = _check_sigma(support_tangent_norm)
    eps = 1.0 - sigma

    w_fro = float(np.linalg.norm(W))
    pt_w_norm = float(np.linalg.norm(_tangent_coords(W, T)))
    w_spectral = spectral_norm(W)
    # E vanishes off Omega, so the off-support part of G - lam E is that of G
    omega_residual, omega_perp_inf = _support_norms(T.uv() + W - lam * E, omega)

    tangent_ok = pt_w_norm <= 1e-8 * w_fro if w_fro > 0 else True
    spectral_ok = w_spectral < ALPHA
    support_ok = omega_residual <= lam * eps**2
    off_support_ok = omega_perp_inf < lam / 2.0
    return CertificateReport(
        pt_w_norm=pt_w_norm,
        w_spectral=w_spectral,
        omega_residual=omega_residual,
        omega_perp_inf=omega_perp_inf,
        alpha=ALPHA,
        epsilon=eps,
        lam=lam,
        passed=tangent_ok and spectral_ok and support_ok and off_support_ok,
        tangent_ok=tangent_ok,
        spectral_ok=spectral_ok,
        support_ok=support_ok,
        off_support_ok=off_support_ok,
        lambda_hypothesis_ok=lam < 1.0 - ALPHA,
        opnorm_hypothesis_ok=sigma <= 1.0 - eps + 1e-12,
        support_tangent_norm=sigma,
    )


def check_golfing_bounds(
    W_L: np.ndarray,
    T: TangentSubspace,
    omega: SupportSet,
    lam: float,
    *,
    support_tangent_norm: float,
) -> GolfingBounds:
    """Bound checks on the golfing part: spectral norm below 1/10, support
    residual below lambda*(1-sigma)^2, off-support entries below lambda/4.

    ``support_tangent_norm`` is sigma, the caller's one
    opnorm_support_tangent value: the measured ||P_Omega P_T||, not an
    assumed concentration value, so the checks certify the instance at hand;
    as in verify_certificate, it must satisfy 0 <= sigma < 1.
    """
    W_L = ensure_matrix(W_L, "W_L")
    _check_shape("W_L", W_L, omega)
    sigma = _check_sigma(support_tangent_norm)
    w_spec = spectral_norm(W_L)
    support_residual, off_inf = _support_norms(T.uv() + W_L, omega)
    return GolfingBounds(
        w_l_spectral=w_spec, support_residual=support_residual,
        off_support_inf=off_inf, sigma=sigma, a_ok=w_spec < 0.1,
        b_ok=support_residual < lam * (1.0 - sigma) ** 2, c_ok=off_inf < lam / 4.0,
    )


def check_sign_bounds(
    W_S: np.ndarray,
    omega: SupportSet,
    E: np.ndarray,
    lam: float,
    T: TangentSubspace,
) -> SignBounds:
    """Bound checks on the sign part and its ingredients.

    Checks ||W_S|| < 8/10 and off-support entries below lambda/4, plus the
    two norm bounds feeding them: ||E|| <= 4*sqrt(n*rho) for the sign matrix
    and ||W_S/lambda - P_Tperp E|| <= (9/4)*sqrt(rho*n/(1-rho)) for the
    series tail beyond its leading term. n and the density rho = |Omega|/n^2
    are read off omega. W_S must come from neumann_component for the tail
    identity to hold.
    """
    W_S = ensure_matrix(W_S, "W_S")
    E = ensure_matrix(E, "E")
    _check_shape("W_S", W_S, omega)
    _check_shape("E", E, omega)
    n = omega.n
    rho = omega.count / float(n * n)
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie strictly in (0, 1), got {rho}")
    w_spec = spectral_norm(W_S)
    _, off_inf = _support_norms(W_S, omega)
    e_spec = spectral_norm(E)
    tail_spec = spectral_norm(W_S / lam - project_tangent_complement(E, T))
    return SignBounds(
        w_s_spectral=w_spec, off_support_inf=off_inf, e_spectral=e_spec,
        tail_spectral=tail_spec, a_ok=w_spec < 0.8, b_ok=off_inf < lam / 4.0,
        e_norm_ok=e_spec <= 4.0 * math.sqrt(n * rho),
        tail_ok=tail_spec <= 2.25 * math.sqrt(rho * n / (1.0 - rho)),
    )


def partition_support_complement(omega: SupportSet, j0: int, seed: int) -> SupportSet:
    """Attach a golfing partition to an existing support set.

    Every complement entry joins each of the j0 batches independently with
    probability q, conditioned on joining at least one, which reproduces the
    law of batches sampled Bernoulli(q) given their union. q is
    1 - (|Omega|/n^2)^(1/j0), matching the empirical density.

    The entries still in no batch are redrawn in rounds: each round draws,
    for batch 1..j0 in turn, one uniform per pending entry in row-major
    order, so the batches are fixed by (mask, j0, seed).
    """
    if j0 < 1:
        raise ValueError(f"j0 must be >= 1, got {j0}")
    n = omega.n
    # an empty support gives q = 1: unconditioned batches cover everything
    q = 1.0 - (omega.count / float(n * n)) ** (1.0 / j0)
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q}")
    rng = make_rng(seed)
    batches = [np.zeros((n, n), dtype=bool) for _ in range(j0)]
    flat_batches = [b.reshape(-1) for b in batches]
    # flat (row-major) indices of the entries still in no batch, redrawn
    # until each joins one: conditioning Ber(q)^j0 on at least one success
    pending = np.flatnonzero(~omega.mask)
    while pending.size:
        hit_any = np.zeros(pending.size, dtype=bool)
        for b in flat_batches:
            draw = rng.random(pending.size) < q
            b[pending[draw]] = True
            hit_any |= draw
        pending = pending[~hit_any]
    return SupportSet(mask=omega.mask.copy(), partition=batches, q=q)


def default_j0(n: int) -> int:
    """Standard batch count for the golfing recursion: 2 * ceil(ln n)."""
    if n < 2:
        return 1
    return 2 * math.ceil(math.log(n))


def certify_instance(
    L0: np.ndarray,
    S0: np.ndarray,
    lam: float,
    j0: Optional[int] = None,
    seed: int = 0,
) -> tuple:
    """End-to-end certificate construction and verification for (L0, S0).

    Builds T from L0, reads Omega and E off S0, attaches a golfing
    partition to the support complement (seeded), constructs
    W = W_golfing + W_neumann, and returns (report, W) where the report
    carries the combined verification plus the per-part bound checks.
    The rank of L0 is its numerical rank.
    """
    L0 = ensure_matrix(L0, "L0")
    S0 = ensure_matrix(S0, "S0")
    n = L0.shape[0]
    if L0.shape != S0.shape or L0.shape[0] != L0.shape[1]:
        raise ValueError("L0 and S0 must be square matrices of equal shape")
    T = TangentSubspace.from_low_rank(L0)
    omega = SupportSet(mask=S0 != 0.0)
    E = np.sign(S0)
    rho = omega.count / float(n * n)
    if j0 is None:
        j0 = default_j0(n)
    omega_part = partition_support_complement(omega, j0, seed)
    sigma = opnorm_support_tangent(omega_part, T)
    W_L, _ = golfing_component(omega_part, T)
    W_S = neumann_component(omega_part, T, E, lam)
    W = W_L + W_S
    report = verify_certificate(W, T, omega_part, E, lam, support_tangent_norm=sigma)
    report.wl_checks = check_golfing_bounds(
        W_L, T, omega_part, lam, support_tangent_norm=sigma
    )
    if 0.0 < rho < 1.0:
        report.ws_checks = check_sign_bounds(W_S, omega_part, E, lam, T)
    return report, W
