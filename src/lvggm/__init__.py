"""Estimation of the low-rank latent component of a Gaussian graphical
model precision matrix by non-convex projected gradient descent."""

from .baseline import AdmmConfig, AdmmTrace, admm_lvglasso, soft_threshold, svt
from .datagen import SyntheticModel, gen_model, load_dataset, sample_covariance
from .linalg import (
    CholeskyFactor,
    NotPositiveDefiniteError,
    cholesky_logdet,
    effective_rank,
    sym_evd,
    symmetrize,
)
from .matio import MatrixParseError, read_matrix, write_matrix
from .objective import (
    GradientOperator,
    ModelContext,
    gradient,
    nll,
)
from .projections import ProjectionConfig, Subspace, head_project
from .solvers import (
    PGD_ALGORITHMS,
    DivergedError,
    InsufficientDataError,
    LowRankEstimate,
    SolverConfig,
    Trace,
    ap_lvm,
    auto_step_size,
    contraction_estimate,
    ep_lvm,
    fit_pgd,
    psd_finalize,
)

__version__ = "0.1.0"
