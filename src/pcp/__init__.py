"""Principal Component Pursuit: robust recovery of low-rank matrices whose
entries are densely corrupted by errors of arbitrary magnitude and random
sign, with dual-certificate verification and phase-transition experiments.
"""

from .linalg import (
    ConvergenceError,
    SvdResult,
    soft_threshold,
    spectral_norm,
    svd,
    svt,
)
from .pcpm import load_matrix, save_matrix
from .problems import (
    ProblemInstance,
    SupportSet,
    generate_low_rank,
    generate_sign_corruption,
    lambda_classic,
    lambda_dense,
    lambda_from_spec,
    make_instance,
    random_signs_on,
    sample_golfing_partition,
)
from .solver import SolveResult, SolverConfig, pca_baseline, pcp_solve
from .certificate import (
    CertificateReport,
    GolfingBounds,
    SignBounds,
    TangentSubspace,
    certify_instance,
    check_golfing_bounds,
    check_sign_bounds,
    default_j0,
    golfing_component,
    neumann_component,
    opnorm_support_tangent,
    partition_support_complement,
    project_support,
    project_support_complement,
    project_tangent,
    project_tangent_complement,
    verify_certificate,
)
from .harness import (
    SweepConfig,
    SweepRecord,
    SweepResult,
    cell_seed,
    config_hash,
    emit_csv,
    emit_heatmap,
    load_csv,
    load_done,
    resume_sweep,
    run_sweep,
    write_sidecar,
)

__version__ = "0.1.0"
