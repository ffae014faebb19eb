"""Negative log-likelihood of the latent-variable model and its gradient.

With a known positive definite sparse part ``S`` and sample covariance ``C``,
the objective over the low-rank component ``L`` is::

    F(L) = -log det(S + L) + <S + L, C>

whose gradient is ``-(S + L)^{-1} + C``.

Every estimate is normalized once, by :func:`as_eigenform`, to an eigenform
``L = V diag(d) V^T``: an eigenform tuple passes through, a dense ``(p, p)``
matrix is eigendecomposed and a ``(p, k)`` PSD factor is compressed.  The
NLL of an eigenform comes from the determinant lemma and its gradient from
the Woodbury identity against the cached factorization of ``S``: with
``M = S^-1 V``,

    grad F(L) = (C - S^-1) + M K M^T,    K = diag(d) (I + V^T M diag(d))^-1.

Every ``S^-1`` product goes through :meth:`CholeskyFactor.solve`, whose
route is fixed when ``S`` is factored: a band triangular solve when ``S`` is
banded (bandwidth ``b`` with ``32 b <= p``, a diagonal ``S`` included at
``b = 0``) and a GEMM against the cached dense inverse otherwise.  For
eigenform input the gradient is returned as a :class:`GradientOperator`
that applies this expression to a block of vectors in ``O(p^2 k)`` without
forming the ``p x p`` matrix; EP builds its step matrix from ``residual0``
and the Woodbury factors :attr:`GradientOperator.woodbury`.  A caller that
already holds ``S^-1 V`` and ``C V`` (AP carries them from one iterate to
the next) passes them to :func:`gradient` and :func:`nll`, which then skip
their ``O(p^2 r)`` products.  EP's secant step takes
``<L1 - L0, G1 - G0>`` from two operators' Woodbury factors
(:func:`secant_curvature`), in which ``residual0`` cancels.  Only a dense
``L`` keeps a second NLL route, a Cholesky factorization of ``S + L``: it
is the reference the eigenform route is checked against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrf

from .linalg import (
    CholeskyFactor,
    NotPositiveDefiniteError,
    _factor,
    check_finite_symmetric,
    symmetrize,
    woodbury_core_eig,
)


@dataclass
class ModelContext:
    """Immutable problem data: sparse part, its factorization, covariance."""

    S_star: np.ndarray
    C: np.ndarray
    S_chol: CholeskyFactor

    @property
    def p(self):
        return self.S_star.shape[0]

    @functools.cached_property
    def residual0(self):
        """Gradient at ``L = 0``: ``C - S^-1`` (built on first read, then cached)."""
        return self.S_chol.subtract_inverse(self.C)

    @functools.cached_property
    def trace_SC(self):
        """``<S, C>`` term of the objective."""
        return float(np.sum(self.S_star * self.C))

    @classmethod
    def create(cls, S_star, C):
        """Build a context, validating that ``S*`` is PD and ``C`` symmetric PSD."""
        S_star = check_finite_symmetric(S_star, "S_star")
        C = check_finite_symmetric(C, "C")
        if S_star.shape != C.shape:
            raise ValueError(
                f"dimension mismatch: S_star {S_star.shape} vs C {C.shape}"
            )
        S_chol = _factor(S_star)  # raises if not PD
        # PSD up to tau: C + tau I (one copy, factored in place through its
        # transpose) has a Cholesky factor; the eigenvalue only reports.
        tau = 1e-8 * max(1.0, float(C.max()), -float(C.min()))
        shifted = C.copy()
        shifted.flat[:: C.shape[0] + 1] += tau
        if dpotrf(shifted.T, lower=1, clean=0, overwrite_a=1)[1] != 0:
            lo = float(np.linalg.eigvalsh(C)[0])
            raise ValueError(f"C is not PSD (min eigenvalue {lo:.3e})")
        return cls(S_star=S_star, C=C, S_chol=S_chol)


def as_eigenform(L, p=None):
    """Normalize an estimate to eigenform ``(V, d)`` with V orthonormal.

    ``L`` is an eigenform tuple ``(V, d)`` (a ``LowRankEstimate`` is one), a
    dense symmetric ``(p, p)`` matrix or a ``(p, k)`` PSD factor ``U`` giving
    ``U @ U.T``.  ``p``, when given, must match the estimate's row count.
    Eigenvalues that are zero up to roundoff are dropped.
    """
    if isinstance(L, tuple):
        V, d = L
        return np.asarray(V, dtype=np.float64), np.asarray(d, dtype=np.float64)
    L = np.asarray(L, dtype=np.float64)
    if L.ndim != 2 or (p is not None and L.shape[0] != p):
        raise ValueError(f"estimate shape {L.shape} incompatible with p={p}")
    if L.shape[0] == L.shape[1]:
        w, V = np.linalg.eigh(symmetrize(L))
        keep = np.abs(w) > 1e-12 * max(1.0, float(np.abs(w).max()))
        return np.ascontiguousarray(V[:, keep]), w[keep]
    # PSD factor U: L = U U^T = Q (R R^T) Q^T
    Q, R = np.linalg.qr(L)
    w, E = np.linalg.eigh(symmetrize(R @ R.T))
    keep = w > 1e-14 * max(1.0, float(np.abs(w).max()))
    return Q @ E[:, keep], w[keep]


def _lemma_eigenvalues(ctx, V, d, M=None):
    """Eigenvalues ``mu`` (ascending) of ``R diag(d) R^T``, ``R^T R = V^T S^-1 V``.

    They are the nonzero eigenvalues of ``S^-1/2 L S^-1/2`` for
    ``L = V diag(d) V^T``, at ``O(p^2 r)`` cost (``O(p r^2)`` when
    ``M = S^-1 V`` is given).
    """
    if M is None:
        M = ctx.S_chol.solve(V)
    G = symmetrize(V.T @ M)
    try:
        Lc = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("degenerate eigenform basis") from exc
    return np.linalg.eigvalsh(symmetrize((Lc.T * d[np.newaxis, :]) @ Lc))


def pd_margin(ctx, L):
    """Smallest eigenvalue of ``S^-1/2 (S + L) S^-1/2``: ``S + L`` is PD
    exactly when it is positive.  ``L`` is any form :func:`as_eigenform`
    takes."""
    V, d = as_eigenform(L, ctx.p)
    mu = _lemma_eigenvalues(ctx, V, d)
    if V.shape[1] < ctx.p:
        mu = np.append(mu, 0.0)  # S^-1/2 L S^-1/2 is singular
    return 1.0 + float(mu.min())


def _nll_eig(ctx, V, d, products=None):
    """Determinant-lemma evaluation of the NLL for an eigenform estimate.

    ``log det(S + V diag(d) V^T) = log det S + sum_i log(1 + mu_i)`` with
    the ``mu_i`` of :func:`_lemma_eigenvalues`; positive definiteness of
    ``S + L`` is exactly ``min_i mu_i > -1``.  Identical value to the dense
    Cholesky route at ``O(p^2 r)`` cost, or ``O(p r^2)`` when ``products``
    gives ``(C V, S^-1 V)``.
    """
    CV, M = (None, None) if products is None else products
    mu = _lemma_eigenvalues(ctx, V, d, M)
    if mu.size and mu[0] <= -1.0 + 1e-14:
        raise NotPositiveDefiniteError(
            f"S + L leaves the PD cone (shifted eigenvalue {mu[0]:.6e})"
        )
    logdet = ctx.S_chol.logdet + float(np.sum(np.log1p(mu)))
    if CV is None:
        CV = ctx.C @ V
    trace_term = ctx.trace_SC + float(np.dot(d, np.sum(V * CV, axis=0)))
    return -logdet + trace_term


def nll(ctx, L, products=None):
    """Negative log-likelihood ``-log det(S + L) + <S + L, C>``.

    ``L`` is any form :func:`as_eigenform` takes.  A dense ``(p, p)`` matrix
    goes through a Cholesky factorization of ``S + L``; every other input is
    normalized to eigenform and evaluated by the determinant lemma at
    ``O(p^2 r)``.  For an eigenform tuple ``(V, d)``, ``products`` may give
    the precomputed ``(C V, S^-1 V)``, which drops the cost to ``O(p r^2)``.
    Raises :class:`NotPositiveDefiniteError` when ``S + L`` leaves the PD
    cone; solvers use that as the backtracking signal.
    """
    if not isinstance(L, tuple):
        L = np.asarray(L, dtype=np.float64)
        if L.shape == (ctx.p, ctx.p):
            theta = symmetrize(ctx.S_star + L)
            try:
                c, _ = scipy.linalg.cho_factor(theta, lower=True, check_finite=False)
            except scipy.linalg.LinAlgError as exc:
                raise NotPositiveDefiniteError(str(exc)) from exc
            logdet = 2.0 * float(np.sum(np.log(np.diag(c))))
            return -logdet + float(np.sum(theta * ctx.C))
    return _nll_eig(ctx, *as_eigenform(L, ctx.p), products)


class GradientOperator:
    """Symmetric gradient ``residual0 + M K M^T`` of an eigenform estimate.

    Applies the gradient to a ``p x k`` block as
    ``G X = residual0 X + M (K (M^T X))`` at ``O(p^2 k)`` cost, so Krylov
    head projections never form the ``p x p`` matrix.  :meth:`dense` (also
    reached by ``np.asarray``) materializes it for callers that need every
    entry.  :attr:`gram` is ``V^T M`` of the estimate ``V diag(d) V^T``.
    """

    def __init__(self, residual0, M, K, gram):
        self._residual0 = residual0
        self._M = M
        self._K = K
        self.gram = gram

    @property
    def shape(self):
        return self._residual0.shape

    def __matmul__(self, X):
        out = self._residual0 @ X
        out += self.low_rank(X)
        return out

    @property
    def woodbury(self):
        """``(M, K)`` of the term ``M K M^T``: ``p x 0`` and ``0 x 0`` at ``L = 0``."""
        return self._M, self._K

    def low_rank(self, X):
        """The Woodbury term ``M K M^T X`` alone, at ``O(p r k)``."""
        return self._M @ (self._K @ (self._M.T @ X))

    def dense(self):
        """The gradient as a ``p x p`` symmetric array."""
        return symmetrize(self._residual0 + (self._M @ self._K) @ self._M.T)

    def __array__(self, dtype=None, copy=None):
        G = self.dense()
        return G if dtype is None else G.astype(dtype, copy=False)


def secant_curvature(L0, G0, L1, G1):
    """``<L1 - L0, G1 - G0>_F`` for eigenforms ``L0``, ``L1`` and their
    :class:`GradientOperator` ``G0``, ``G1``, in ``O(p r^2)``.

    ``residual0`` cancels in ``G1 - G0``, which leaves the Woodbury terms
    ``W = M K M^T``; each of the four products
    ``<V_a diag(d_a) V_a^T, W_b> = sum_i d_a,i (P K_b P^T)_ii`` takes
    ``P = V_a^T M_b = V_a^T S^-1 V_b``; ``V_a^T M_a`` is ``G_a.gram`` and
    ``V0^T M1 = (V1^T M0)^T``, so one ``r x r`` product serves all four.
    """
    (V0, d0), (V1, d1) = L0, L1
    (M0, K0), (_, K1) = G0.woodbury, G1.woodbury
    P10 = V1.T @ M0

    def inner(d, P, K):
        return np.dot(d, np.sum((P @ K) * P, axis=1))

    return float(
        inner(d1, G1.gram, K1) - inner(d1, P10, K0)
        - inner(d0, P10.T, K1) + inner(d0, G0.gram, K0)
    )


def gradient(ctx, L, M=None):
    """Gradient ``C - (S + L)^{-1}``.

    ``L`` is any form :func:`as_eigenform` takes.  An eigenform tuple (what
    the solvers pass) gives a symmetric :class:`GradientOperator` at
    ``O(p^2 r)`` set-up cost, or ``O(p r^2)`` when the caller passes the
    precomputed ``M = S^-1 V``; any other input gives its dense symmetric
    matrix (a dense ``L`` is eigendecomposed first, at ``O(p^3)``).
    """
    K, M, gram = woodbury_core_eig(ctx.S_chol, *as_eigenform(L, ctx.p), M)
    G = GradientOperator(ctx.residual0, M, K, gram)
    return G if isinstance(L, tuple) else G.dense()

