"""ADMM comparator for sparse-plus-low-rank regularized maximum likelihood.

Solves::

    min_{Theta, S, L}  -log det(Theta) + <Theta, C>
                       + alpha * ||S||_1,off + beta * ||L||_*
    s.t.  Theta = S + L,  L PSD

by three-block ADMM: a spectral prox for the log-det term, elementwise
soft-thresholding for ``S`` (diagonal left unpenalized), PSD
singular-value soft-thresholding for ``L``, then a dual ascent step.  This
is a best-effort comparator: convex-relaxation output typically has rank
well above the true number of latent variables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import check_finite_symmetric, symmetrize
from .solvers import Trace, is_integer

# Tolerance on the primal and dual residuals, relative to max(1, ||Theta||_F).
_TOL = 1e-5


@dataclass
class AdmmConfig:
    l1_weight: float = 0.1
    nuclear_weight: float = 0.1
    rho: float = 1.0
    max_iters: int = 500

    def __post_init__(self):
        # chained comparisons are false for NaN, so NaN is rejected too
        if not (0 <= self.l1_weight < np.inf and 0 <= self.nuclear_weight < np.inf):
            raise ValueError("penalty weights must be finite and >= 0")
        if not 0 < self.rho < np.inf:
            raise ValueError("rho must be finite and > 0")
        if not is_integer(self.max_iters):
            raise ValueError("max_iters must be an integer")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class AdmmTrace:
    """Per-iteration primal residuals and seconds of one ADMM run."""

    primal_residual: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    converged: bool = False

    iterations = property(lambda self: len(self.seconds))
    mean_iter_seconds = Trace.mean_iter_seconds


def soft_threshold(x, tau):
    """Elementwise shrinkage ``sign(x) * max(|x| - tau, 0)``."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


def svt(A, tau):
    """PSD singular-value soft-threshold of a symmetric matrix.

    Eigenvalues are shrunk by ``tau`` and clamped at zero, which is the prox
    of ``tau * ||.||_* + indicator(PSD)``.
    """
    A = check_finite_symmetric(A)
    w, V = np.linalg.eigh(A)
    w = np.maximum(w - tau, 0.0)
    return symmetrize((V * w) @ V.T)


def _logdet_prox(M, C, rho):
    """argmin_Theta -logdet(Theta) + <Theta, C> + rho/2 ||Theta - M||_F^2."""
    w, V = np.linalg.eigh(symmetrize(M - C / rho))
    theta_eigs = (w + np.sqrt(w**2 + 4.0 / rho)) / 2.0
    return symmetrize((V * theta_eigs) @ V.T)


def admm_lvglasso(C, cfg):
    """Run the ADMM comparator on a sample covariance.

    Returns ``(S_hat, L_hat, AdmmTrace)``.  When the residuals do not both
    meet ``_TOL`` within ``max_iters`` the best (final) iterate is returned
    with ``converged=False``.
    """
    C = check_finite_symmetric(C, "C")
    p = C.shape[0]
    rho = cfg.rho
    off_mask = ~np.eye(p, dtype=bool)

    S = np.diag(np.diag(C) + 1.0)
    L = np.zeros((p, p))
    Y = np.zeros((p, p))
    trace = AdmmTrace()
    prev_sum = S + L
    for _ in range(cfg.max_iters):
        tic = time.perf_counter()
        theta = _logdet_prox(S + L - Y, C, rho)

        target_s = theta - L + Y
        S = np.where(off_mask, soft_threshold(target_s, cfg.l1_weight / rho), target_s)
        S = symmetrize(S)

        L = svt(theta - S + Y, cfg.nuclear_weight / rho)

        gap = theta - S - L
        Y = Y + gap

        cur_sum = S + L
        primal = float(np.linalg.norm(gap, "fro"))
        dual = rho * float(np.linalg.norm(cur_sum - prev_sum, "fro"))
        prev_sum = cur_sum
        trace.primal_residual.append(primal)

        scale = max(1.0, float(np.linalg.norm(theta, "fro")))
        trace.converged = primal <= _TOL * scale and dual <= _TOL * scale
        trace.seconds.append(time.perf_counter() - tic)
        if trace.converged:
            break
    return S, L, trace


def admm_objective(C, S, L, cfg):
    """Regularized ADMM objective at ``theta = S + L`` (reporting only)."""
    theta = symmetrize(S + L)
    w = np.linalg.eigvalsh(theta)
    if w[0] <= 0:
        return float("inf")
    off_mask = ~np.eye(theta.shape[0], dtype=bool)
    return (
        -float(np.sum(np.log(w)))
        + float(np.sum(theta * C))
        + cfg.l1_weight * float(np.abs(S[off_mask]).sum())
        + cfg.nuclear_weight * float(np.abs(np.linalg.eigvalsh(symmetrize(L))).sum())
    )
