"""Negative log-likelihood of the latent-variable model and its gradient.

With a known positive definite sparse part ``S`` and sample covariance ``C``,
the objective over the low-rank component ``L`` is::

    F(L) = -log det(S + L) + <S + L, C>

whose gradient is ``-(S + L)^{-1} + C``.  The inverse is evaluated through
the Woodbury identity against the cached factorization of ``S``: with
``M = S^-1 V`` for an eigenform ``L = V diag(d) V^T``,

    grad F(L) = (C - S^-1) + M K M^T,    K = diag(d) (I + V^T M diag(d))^-1.

Every ``S^-1`` product goes through :meth:`CholeskyFactor.solve`, which is
an elementwise division when ``S`` is diagonal and a GEMM against the cached
dense inverse otherwise.  For eigenform input the gradient is returned as a
:class:`GradientOperator` that applies this expression to a block of
vectors in ``O(p^2 k)`` without forming the ``p x p`` matrix; callers that
need the matrix (the exact projection's eigendecomposition) call
:meth:`GradientOperator.dense`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .linalg import (
    CholeskyFactor,
    NotPositiveDefiniteError,
    check_finite_symmetric,
    cholesky_logdet,
    symmetrize,
    woodbury_core_eig,
)


@dataclass
class ModelContext:
    """Immutable problem data: sparse part, its factorization, covariance."""

    S_star: np.ndarray
    C: np.ndarray
    S_chol: CholeskyFactor
    logdet_S: float
    _residual0: np.ndarray | None = field(default=None, repr=False)
    _trace_SC: float | None = field(default=None, repr=False)

    @property
    def p(self):
        return self.S_star.shape[0]

    @property
    def residual0(self):
        """Gradient at ``L = 0``: ``C - S^-1`` (cached; constant per fit)."""
        if self._residual0 is None:
            self._residual0 = self.S_chol.subtract_inverse(self.C)
        return self._residual0

    @property
    def trace_SC(self):
        """Cached ``<S, C>`` term of the objective."""
        if self._trace_SC is None:
            self._trace_SC = float(np.sum(self.S_star * self.C))
        return self._trace_SC

    @classmethod
    def create(cls, S_star, C, validate_psd=True):
        """Build a context, validating that ``S*`` is PD and ``C`` symmetric PSD."""
        S_star = check_finite_symmetric(S_star, "S_star")
        C = check_finite_symmetric(C, "C")
        if S_star.shape != C.shape:
            raise ValueError(
                f"dimension mismatch: S_star {S_star.shape} vs C {C.shape}"
            )
        S_chol, logdet_S = cholesky_logdet(S_star)  # raises if not PD
        if validate_psd:
            lo = float(np.linalg.eigvalsh(C)[0])
            if lo < -1e-8 * max(1.0, float(np.abs(C).max())):
                raise ValueError(f"C is not PSD (min eigenvalue {lo:.3e})")
        return cls(S_star=S_star, C=C, S_chol=S_chol, logdet_S=logdet_S)


def materialize(L, p):
    """Dense symmetric matrix from a dense ``(p, p)`` input, a ``(p, r)``
    PSD factor ``U`` (giving ``U @ U.T``), or an eigenform tuple ``(V, d)``."""
    if isinstance(L, tuple):
        V, d = L
        V = np.asarray(V, dtype=np.float64)
        d = np.asarray(d, dtype=np.float64)
        return symmetrize((V * d) @ V.T)
    L = np.asarray(L, dtype=np.float64)
    if L.ndim != 2 or L.shape[0] != p:
        raise ValueError(f"estimate shape {L.shape} incompatible with p={p}")
    if L.shape[1] == p:
        return symmetrize(L)
    return L @ L.T


def _nll_eig(ctx, V, d):
    """Determinant-lemma evaluation of the NLL for an eigenform estimate.

    ``log det(S + V diag(d) V^T) = log det S + sum_i log(1 + mu_i)`` where
    the ``mu_i`` are the eigenvalues of ``R diag(d) R^T`` with
    ``R^T R = V^T S^-1 V``; positive definiteness of ``S + L`` is exactly
    ``min_i mu_i > -1``.  Identical value to the dense Cholesky route at
    ``O(p^2 r)`` cost.
    """
    if V.shape[1] == 0:
        return -ctx.logdet_S + ctx.trace_SC
    M = ctx.S_chol.solve(V)
    G = symmetrize(V.T @ M)
    try:
        Lc = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("degenerate eigenform basis") from exc
    mu = np.linalg.eigvalsh(symmetrize((Lc.T * d[np.newaxis, :]) @ Lc))
    if mu[0] <= -1.0 + 1e-14:
        raise NotPositiveDefiniteError(
            f"S + L leaves the PD cone (shifted eigenvalue {mu[0]:.6e})"
        )
    logdet = ctx.logdet_S + float(np.sum(np.log1p(mu)))
    CV = ctx.C @ V
    trace_term = ctx.trace_SC + float(np.dot(d, np.sum(V * CV, axis=0)))
    return -logdet + trace_term


def nll(ctx, L):
    """Negative log-likelihood ``-log det(S + L) + <S + L, C>``.

    ``L`` may be dense ``(p, p)``, a PSD factor ``(p, r)``, or an eigenform
    tuple ``(V, d)``.  Dense input goes through a Cholesky factorization of
    the materialized ``p x p`` matrix; factored inputs use an equivalent
    determinant-lemma evaluation at ``O(p^2 r)``.  Raises
    :class:`NotPositiveDefiniteError` when ``S + L`` leaves the PD cone;
    solvers use that as the backtracking signal.
    """
    if isinstance(L, tuple):
        V, d = L
        return _nll_eig(
            ctx, np.asarray(V, dtype=np.float64), np.asarray(d, dtype=np.float64)
        )
    L = np.asarray(L, dtype=np.float64)
    if L.ndim == 2 and L.shape[0] == ctx.p and L.shape[1] != ctx.p:
        # PSD factor: S + U U^T is PD whenever S is; determinant lemma with
        # the SPD inner matrix I + U^T S^-1 U.
        X = ctx.S_chol.solve(L)
        K = symmetrize(np.eye(L.shape[1]) + L.T @ X)
        try:
            kc, _ = scipy.linalg.cho_factor(K, lower=True, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError("inner system not PD") from exc
        logdet = ctx.logdet_S + 2.0 * float(np.sum(np.log(np.diag(kc))))
        CU = ctx.C @ L
        return -logdet + ctx.trace_SC + float(np.sum(L * CU))
    theta = symmetrize(ctx.S_star + materialize(L, ctx.p))
    try:
        c, _ = scipy.linalg.cho_factor(theta, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    logdet = 2.0 * float(np.sum(np.log(np.diag(c))))
    return -logdet + float(np.sum(theta * ctx.C))


class GradientOperator:
    """Symmetric gradient ``residual0 + M K M^T`` of an eigenform estimate.

    Applies the gradient to a ``p x k`` block as
    ``G X = residual0 X + M (K (M^T X))`` at ``O(p^2 k)`` cost, so Krylov
    head projections never form the ``p x p`` matrix.  :meth:`dense` (also
    reached by ``np.asarray``) materializes it for callers that need every
    entry.
    """

    def __init__(self, residual0, M, K):
        self._residual0 = residual0
        self._M = M
        self._K = K

    @property
    def shape(self):
        return self._residual0.shape

    def __matmul__(self, X):
        out = self._residual0 @ X
        if self._M.shape[1]:
            out += self._M @ (self._K @ (self._M.T @ X))
        return out

    def dense(self):
        """The gradient as a ``p x p`` symmetric array."""
        if not self._M.shape[1]:
            return self._residual0.copy()
        return symmetrize(self._residual0 + (self._M @ self._K) @ self._M.T)

    def __array__(self, dtype=None, copy=None):
        G = self.dense()
        return G if dtype is None else G.astype(dtype, copy=False)


def _gradient_eig(ctx, V, d):
    d = np.asarray(d, dtype=np.float64)
    if V.shape[1] == 0:
        return GradientOperator(ctx.residual0, V, np.zeros((0, 0)))
    K, M = woodbury_core_eig(ctx.S_chol, V, d)
    return GradientOperator(ctx.residual0, M, K)


def gradient(ctx, L):
    """Gradient ``C - (S + L)^{-1}``.

    An eigenform ``(V, d)`` (what the solvers pass) gives a symmetric
    :class:`GradientOperator` at ``O(p^2 r)`` set-up cost.  A PSD factor
    ``U`` or a dense ``L`` gives a dense symmetric matrix, through the
    Woodbury identity against the cached ``C - S^-1`` residual; a dense
    ``L`` is eigendecomposed first (``O(p^3)``).
    """
    if isinstance(L, tuple):
        V, d = L
        return _gradient_eig(ctx, np.asarray(V, dtype=np.float64), d)
    L = np.asarray(L, dtype=np.float64)
    if L.ndim != 2:
        raise ValueError("L must be 2-d")
    if L.shape == (ctx.p, ctx.p):
        w, V = np.linalg.eigh(symmetrize(L))
        keep = np.abs(w) > 1e-12 * max(1.0, float(np.abs(w).max()))
        return _gradient_eig(ctx, np.ascontiguousarray(V[:, keep]), w[keep]).dense()
    if L.shape[0] == ctx.p:
        # PSD factor: L = U U^T has eigenform (Q, eigs of R R^T)
        X = ctx.S_chol.solve(L)
        K = np.eye(L.shape[1]) + L.T @ X
        try:
            kc = scipy.linalg.cho_factor(symmetrize(K), lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError("inner Woodbury system not PD") from exc
        corr = X @ scipy.linalg.cho_solve(kc, X.T, check_finite=False)
        return symmetrize(ctx.residual0 + corr)
    raise ValueError(f"estimate shape {L.shape} incompatible with p={ctx.p}")


@dataclass
class RscRssBounds:
    """Restricted strong convexity/smoothness bounds from the spectrum of
    ``theta``: the objective Hessian is ``theta^-1 (x) theta^-1``, so its
    eigenvalues lie in ``[1/lambda_max^2, 1/lambda_min^2]``."""

    m_lower: float
    M_upper: float
    lambda_max_theta: float
    lambda_min_theta: float


def rsc_rss_bounds(theta):
    """Curvature bounds ``m = 1/lambda_1(theta)^2``, ``M = 1/lambda_p(theta)^2``.

    Raises
    ------
    NotPositiveDefiniteError
        If ``theta`` is not positive definite.
    """
    theta = check_finite_symmetric(theta, "theta")
    w = np.linalg.eigvalsh(theta)
    lo, hi = float(w[0]), float(w[-1])
    if lo <= 0.0:
        raise NotPositiveDefiniteError(f"theta has min eigenvalue {lo:.3e}")
    return RscRssBounds(
        m_lower=1.0 / hi**2,
        M_upper=1.0 / lo**2,
        lambda_max_theta=hi,
        lambda_min_theta=lo,
    )


def projected_gradient_norm(ctx, L_star, subspace_rank):
    """Upper-bound surrogate ``sqrt(3 r) * ||grad F(L*)||_2``.

    Used for the empirical sampling-error scaling test: across sampled
    covariances this quantity scales as ``sqrt(r p / n)``.
    """
    G = gradient(ctx, L_star)
    spec_norm = float(np.abs(np.linalg.eigvalsh(G)).max())
    return float(np.sqrt(3.0 * subspace_rank) * spec_norm)
