"""Solvers: principal component pursuit via inexact augmented Lagrangian,
plus the truncated-SVD baseline it is compared against.

The pursuit program is min ||L||_* + lambda*||S||_1 subject to L + S = D.
Each outer iteration alternates a singular value thresholding step on L and
an entrywise shrinkage step on S against the running multiplier Y, then
grows the penalty:

    L <- svt_{1/mu}(D - S + Y/mu)
    S <- shrink_{lambda/mu}(D - L + Y/mu)
    Y <- Y + mu * (D - L - S)
    mu <- min(rho_mu * mu, mu_max)

with Y0 = D / max(||D||_2, ||D||_inf / lambda) and mu0 = 1.25/||D||_2,
stopping on the relative feasibility residual ||D - L - S||_F / ||D||_F.
At the stop it also reports the dual residual mu ||S_K - S_{K-1}||_F /
||D||_F of the last iteration, which says whether the feasible point it
stopped at is also near optimal.

Each iteration forms Z = D + Y/mu once, in a buffer allocated before the
loop. The L-step input Z - S goes to a scratch buffer, L is reconstructed
into its own buffer, Z - L (the S-step input) overwrites Z, and the gap and
the Y update reuse the scratch buffer, so an iteration allocates only S
and what ``svt`` returns. After the loop the dual residual's S_K - S_{K-1}
and the objective's |S| reuse the scratch buffer too. D is only read.

The L step predicts its rank from the previous iterate, as in the inexact
ALM of Lin, Chen & Ma (arXiv 1009.5055): ``svt`` is given the guess
k = rank(L) + 1 (k = 1 on the first iteration) and computes only the top
singular triplets, with a sketch of k + 8 columns, when that is at most a
tenth of n. The sketch is warm-started: its first columns are the previous
L step's kept right singular vectors, padded with seeded Gaussian columns
(Halko, Martinsson & Tropp, arXiv 0909.4061). It is accepted only when it
passes the exactness gate of ``linalg.svt``: its first discarded value is
at most 1/mu, the kept triplets are exact to working precision, and a
seeded Lanczos run bounds the rest by 1/mu (wrong with probability at most
1.7e-7 per call). Otherwise that iteration uses the full SVD, as it does
at once when the sketch's residual shows it cannot become exact within
its power-step cap. The reported objective is the sum of the last L step's
shrunk singular values, which is ||L||_*, plus lambda * ||S||_1.
"""

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .linalg import ConvergenceError, ensure_matrix, soft_threshold, spectral_norm, svd, svt


@dataclass
class SolverConfig:
    tol_feasibility: float = 1e-7
    max_iters: int = 1000
    mu0: Optional[float] = None       # None: 1.25 / ||D||_2
    rho_mu: float = 1.5
    mu_max_factor: float = 1e7        # mu_max = factor * mu0

    def __post_init__(self):
        numeric = ["tol_feasibility", "rho_mu", "mu_max_factor"]
        for name in numeric + (["mu0"] if self.mu0 is not None else []):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral) \
                or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        self.max_iters = int(self.max_iters)  # a numpy integer would not reach JSON
        if self.rho_mu <= 1.0:
            raise ValueError("rho_mu must be > 1")


@dataclass
class SolveResult:
    """The last iterate and how the solve stopped.

    ``feasibility_residual`` is the primal residual ||D - L - S||_F / ||D||_F
    and ``dual_residual`` the dual one, mu ||S_K - S_{K-1}||_F / ||D||_F at
    the last iteration K with its penalty mu (Boyd et al. 2011, section
    3.3); both are 0.0 when D = 0. A small primal residual with a large dual
    one marks a feasible point that is not yet optimal.
    """

    L_hat: np.ndarray = field(repr=False)
    S_hat: np.ndarray = field(repr=False)
    iterations: int
    feasibility_residual: float
    objective: float
    converged: bool
    dual_residual: float


def pcp_solve(D: np.ndarray, lam: float, cfg: Optional[SolverConfig] = None) -> SolveResult:
    """Decompose D into low-rank and sparse parts by pursuit.

    Parameters
    ----------
    D : square data matrix
    lam : finite positive weight on the sparse term
    cfg : a SolverConfig of schedule constants, sized by default for
          desk-scale matrices; anything else raises ValueError at once

    Returns the final iterate, with converged=False when the feasibility
    tolerance was not met within cfg.max_iters; its primal and dual
    residuals and objective are reported either way (see SolveResult).
    """
    D = ensure_matrix(D, "D")
    if D.shape[0] != D.shape[1]:
        raise ValueError(f"D must be square, got {D.shape}")
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be finite and positive, got {lam}")
    if cfg is None:
        cfg = SolverConfig()
    elif not isinstance(cfg, SolverConfig):
        raise ValueError(f"cfg must be a SolverConfig, got {type(cfg).__name__}")

    d_fro = float(np.linalg.norm(D))
    if d_fro == 0.0:
        zero = np.zeros_like(D)
        return SolveResult(
            L_hat=zero, S_hat=zero.copy(), iterations=0,
            feasibility_residual=0.0, objective=0.0, converged=True, dual_residual=0.0,
        )

    try:
        d_spec = spectral_norm(D)
    except ConvergenceError as err:  # the schedule needs only the scale of ||D||_2
        d_spec = err.estimate
    d_inf = float(np.abs(D).max())
    Y = D / max(d_spec, d_inf / lam)
    mu = cfg.mu0 if cfg.mu0 is not None else 1.25 / d_spec
    mu_max = cfg.mu_max_factor * mu

    # Y is a fresh array; Z, L and work are the loop's buffers. None of
    # them aliases D, which is only read.
    S = np.zeros_like(D)
    L = np.empty_like(D)
    Z = np.empty_like(D)
    work = np.empty_like(D)
    rank = 0
    start = None
    for iterations in range(1, cfg.max_iters + 1):
        np.divide(Y, mu, out=Z)
        Z += D                                    # Z = D + Y / mu
        np.subtract(Z, S, out=work)
        shrunk = svt(work, 1.0 / mu, rank_guess=rank + 1, start=start)
        rank, start = shrunk.singular_values.size, shrunk.V
        shrunk.reconstruct(out=L)
        Z -= L
        S_prev, S = S, soft_threshold(Z, lam / mu)
        np.subtract(D, L, out=work)
        work -= S                                 # the gap D - L - S
        residual = float(np.linalg.norm(work)) / d_fro
        work *= mu
        Y += work
        converged = residual <= cfg.tol_feasibility
        if converged or iterations == cfg.max_iters:
            break
        del S_prev  # the next svt runs without it
        mu = min(cfg.rho_mu * mu, mu_max)

    np.subtract(S, S_prev, out=work)
    dual_residual = mu * float(np.linalg.norm(work)) / d_fro
    objective = float(shrunk.singular_values.sum() + lam * np.abs(S, out=work).sum())
    return SolveResult(
        L_hat=L, S_hat=S, iterations=iterations, feasibility_residual=residual,
        objective=objective, converged=converged, dual_residual=dual_residual,
    )


def pca_baseline(D: np.ndarray, r: int) -> np.ndarray:
    """Best rank-r approximation of D in spectral norm (truncated SVD)."""
    D = ensure_matrix(D, "D")
    n = min(D.shape)
    if not 0 <= r <= n:
        raise ValueError(f"rank must satisfy 0 <= r <= {n}, got {r}")
    if r == 0:
        return np.zeros_like(D)
    U, s, V = svd(D)
    return (U[:, :r] * s[:r]) @ V[:, :r].T

