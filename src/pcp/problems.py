"""Synthetic low-rank + sparse problem generation and model parameters.

Ground truth follows the standard random model: L0 is a product of two
n x r Gaussian factors with entry variance 100/n, S0 carries +/-1 signs on a
random support of density rho (Bernoulli or exact-count), and D = L0 + S0.
Also provides golfing support partitions, the rank-r singular factors of a
low-rank matrix with its numerical-rank check (low_rank_factors), and the
weighting parameters for the pursuit program with their one grammar of
spellings (lambda_from_spec).
"""

import math
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from .linalg import spectral_norm, svd, svt
from .rng import make_rng, mix_seed, normal_matrix

SupportModel = Literal["bernoulli", "exact"]

# sub-stream tags within one instance seed
_TAG_LOWRANK = 1
_TAG_SUPPORT = 2

# numerical-rank cutoff: sigma_{r+1} <= RANK_TOL * sigma_1 counts as rank r
RANK_TOL = 1e-8


@dataclass
class SupportSet:
    """Corruption support Omega as a boolean mask, with an optional partition.

    When ``partition`` is present it lists j0 boolean masks Omega_1..Omega_j0
    whose union is exactly the complement of ``mask`` (the golfing batches).
    From sample_golfing_partition each batch is sampled Bernoulli(q); from
    certificate.partition_support_complement the batches are Bernoulli(q)
    conditioned on covering the complement of a given mask.
    """

    mask: np.ndarray
    partition: Optional[list] = None
    q: Optional[float] = None

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.ndim != 2 or self.mask.shape[0] != self.mask.shape[1]:
            raise ValueError(f"support mask must be square, got {self.mask.shape}")

    @property
    def n(self) -> int:
        return self.mask.shape[0]

    @property
    def count(self) -> int:
        return int(self.mask.sum())


@dataclass
class ProblemInstance:
    """One synthetic test case D = L0 + S0 with its generation metadata."""

    L0: np.ndarray
    S0: np.ndarray
    D: np.ndarray
    n: int
    r: int
    rho: float
    seed: int
    support_model: SupportModel


def generate_low_rank(n: int, r: int, seed: int) -> np.ndarray:
    """Rank-r ground truth R1 @ R2^T with i.i.d. N(0, 100/n) factor entries."""
    if not 1 <= r <= n:
        raise ValueError(f"rank must satisfy 1 <= r <= n, got r={r}, n={n}")
    rng = make_rng(seed)
    std = math.sqrt(100.0 / n)
    R1 = normal_matrix(rng, n, r, std)
    R2 = normal_matrix(rng, n, r, std)
    return R1 @ R2.T


def generate_sign_corruption(
    n: int, rho: float, model: SupportModel, seed: int
) -> tuple:
    """Sparse +/-1 corruption matrix and its support.

    model="bernoulli": each entry is nonzero independently with probability
    rho. model="exact": the support is uniform among all subsets of size
    floor(rho * n^2), sampled by a seeded shuffle of the linear indices.
    Nonzero entries are +1 or -1 with equal probability either way.
    """
    _check_rho(rho)
    if model not in ("bernoulli", "exact"):
        raise ValueError(f"unknown support model {model!r}")
    rng = make_rng(seed)
    S = np.zeros((n, n))
    if model == "bernoulli":
        mask = rng.random((n, n)) < rho
        signs = np.where(rng.random((n, n)) < 0.5, 1.0, -1.0)
        S[mask] = signs[mask]
    else:
        k = int(math.floor(rho * n * n))
        order = rng.permutation(n * n)
        chosen = order[:k]
        signs = np.where(rng.random(k) < 0.5, 1.0, -1.0)
        S.flat[chosen] = signs
        mask = S != 0.0
    return S, SupportSet(mask=mask)


def sample_golfing_partition(n: int, rho: float, j0: int, seed: int) -> SupportSet:
    """Support of density rho built from j0 independent Bernoulli(q) batches.

    q solves (1-q)^j0 = rho, so the complement of the union of the batches
    is entrywise Bernoulli(rho). The batches are attached as the partition,
    ready for the golfing construction of the dual certificate.
    """
    _check_rho(rho)
    if j0 < 1:
        raise ValueError(f"j0 must be >= 1, got {j0}")
    q = 1.0 - rho ** (1.0 / j0)
    rng = make_rng(seed)
    batches = [rng.random((n, n)) < q for _ in range(j0)]
    union = np.zeros((n, n), dtype=bool)
    for b in batches:
        union |= b
    return SupportSet(mask=~union, partition=batches, q=q)


def random_signs_on(omega: SupportSet, seed: int) -> np.ndarray:
    """+/-1 matrix supported exactly on omega, signs i.i.d. equiprobable."""
    rng = make_rng(seed)
    signs = np.where(rng.random((omega.n, omega.n)) < 0.5, 1.0, -1.0)
    E = np.zeros((omega.n, omega.n))
    E[omega.mask] = signs[omega.mask]
    return E


def make_instance(
    n: int,
    r: int,
    rho: float,
    seed: int,
    support_model: SupportModel = "exact",
) -> ProblemInstance:
    """Full synthetic instance; L0 and S0 use decorrelated sub-streams."""
    L0 = generate_low_rank(n, r, mix_seed(seed, _TAG_LOWRANK))
    S0, _ = generate_sign_corruption(n, rho, support_model, mix_seed(seed, _TAG_SUPPORT))
    D = L0 + S0
    return ProblemInstance(
        L0=L0, S0=S0, D=D, n=n, r=r, rho=rho, seed=seed, support_model=support_model,
    )


def low_rank_factors(L: np.ndarray, r: Optional[int] = None) -> tuple:
    """Leading singular factors (U_r, V_r) of L, with orthonormal columns.

    r=None takes the numerical rank: the count of singular values above
    RANK_TOL * sigma_1 (0 for a zero matrix). A given r is checked against
    it: ValueError when sigma_{r+1} > RANK_TOL * sigma_1.

    The triplets above the cutoff come from svt at that cutoff with a rank
    guess of r + 1 (2 when r is None), sigma_1 from spectral_norm. svt's
    partial path is accepted only when its gates prove the rest of the
    spectrum lies at or below the cutoff, so the detected rank is wrong
    with probability at most 1.7e-7; when they do not, svt falls back to
    the exact full SVD. A given r above the numerical rank takes its
    columns from the full SVD too: the ones past the rank span part of the
    near-null space, which the sketch does not compute.
    """
    tau = RANK_TOL * spectral_norm(L)
    top = svt(L, tau, rank_guess=(r or 1) + 1)
    s = top.singular_values + tau
    detected = s.size
    if r is None:
        r = detected
    elif detected > r:
        raise ValueError(
            f"numerical rank {detected} exceeds r={r} "
            f"(sigma_{r + 1}/sigma_1 = {s[r] / s[0]:.3e})"
        )
    elif detected < r:
        top = svd(L)
    return top.U[:, :r], top.V[:, :r]


def lambda_dense(n: int, rho: float, C1: float) -> float:
    """Corruption-aware weighting parameter for the pursuit program.

    lambda = C1 * (4*sqrt(1-rho) + 9/4)^(-1) * sqrt((1-rho) / (n*rho)).
    Strictly decreasing in rho; singular at rho in {0, 1}, which are
    rejected.
    """
    _check_rho(rho)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= C1 < math.inf:
        raise ValueError(f"C1 must be finite and nonnegative, got {C1}")
    return C1 / (4.0 * math.sqrt(1.0 - rho) + 2.25) * math.sqrt((1.0 - rho) / (n * rho))


def lambda_classic(n: int) -> float:
    """The classical weighting 1/sqrt(n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 1.0 / math.sqrt(n)


def lambda_from_spec(
    spec: str, n: int, rho: Optional[float] = None, C1: Optional[float] = None
) -> float:
    """Weighting parameter from its spelling, the one lambda grammar.

    ``classic`` is 1/sqrt(n); ``dense`` is lambda_dense at the given rho and
    C1 (a sweep cell's); ``dense:<rho>,<C1>`` is lambda_dense at those
    values; ``fixed:<v>`` and a bare ``<v>`` are the value v. Only finite
    positive values are accepted.
    """
    if not isinstance(spec, str):
        raise ValueError(f"lambda spec must be a string, got {spec!r}")
    if spec == "classic":
        return lambda_classic(n)
    if spec == "dense":
        if rho is None or C1 is None:
            raise ValueError("lambda spec 'dense' needs a cell's rho and C1; "
                             "give them as dense:<rho>,<C1>")
        value = lambda_dense(n, rho, C1)
    elif spec.startswith("dense:"):
        try:
            rho_str, c1_str = spec[len("dense:"):].split(",")
            value = lambda_dense(n, float(rho_str), float(c1_str))
        except ValueError as exc:
            raise ValueError(f"bad lambda spec {spec!r}: {exc}; "
                             "expected dense:<rho>,<C1>") from exc
    else:
        try:
            value = float(spec[len("fixed:"):] if spec.startswith("fixed:") else spec)
        except ValueError as exc:
            raise ValueError(f"bad lambda spec {spec!r}; expected classic, dense, "
                             "dense:<rho>,<C1>, fixed:<v> or <v>") from exc
    if not 0 < value < math.inf:
        raise ValueError(f"lambda must be finite and positive, got {value} from {spec!r}")
    return value


def _check_rho(rho: float) -> None:
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie strictly in (0, 1), got {rho}")
