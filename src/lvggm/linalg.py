"""Dense symmetric linear algebra foundation.

Symmetric matrices are carried as plain ``(p, p)`` float64 ndarrays; every
routine that constructs one symmetrizes as ``(A + A.T) / 2`` so that iterates
stay exactly in the symmetric cone.  The Woodbury routines take a low-rank
update as a PSD factor ``U`` (:func:`woodbury_inverse`) or in eigenform
``V diag(d) V.T`` (:func:`woodbury_core_eig`).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve


class NotPositiveDefiniteError(Exception):
    """Raised when a Cholesky factorization (or an inner Woodbury solve)
    encounters a matrix that is not positive definite."""


def symmetrize(A):
    """Return ``(A + A.T) / 2`` as a float64 array.

    Applied at every construction site to suppress rounding drift.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return (A + A.T) / 2.0


def check_finite_symmetric(A, name="matrix"):
    """Validate that ``A`` is square, finite and symmetric; return it as float64."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    if not np.array_equal(A, A.T):
        scale = max(1.0, float(np.abs(A).max()))
        if np.abs(A - A.T).max() > 1e-12 * scale:
            raise ValueError(f"{name} is not symmetric")
        A = symmetrize(A)
    return A


class Spectrum:
    """Full eigendecomposition of a symmetric matrix, sorted descending.

    Attributes
    ----------
    eigenvalues : (p,) ndarray, descending order
    eigenvectors : (p, p) ndarray, orthonormal columns, ``A = V diag(w) V.T``
    """

    __slots__ = ("eigenvalues", "eigenvectors")

    def __init__(self, eigenvalues, eigenvectors):
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors


def sym_evd(A):
    """Eigendecomposition of a symmetric matrix with eigenvalues descending.

    Ties between equal eigenvalues keep the earlier index of the descending
    sort, so results are deterministic for a fixed LAPACK backend.
    """
    A = check_finite_symmetric(A)
    w, V = np.linalg.eigh(A)
    return Spectrum(w[::-1].copy(), V[:, ::-1].copy())


def effective_rank(eigenvalues, rel_tol=1e-8):
    """Count of eigenvalues with magnitude above ``rel_tol`` times the largest."""
    w = np.abs(np.asarray(eigenvalues, dtype=np.float64))
    lam1 = float(w.max()) if w.size else 0.0
    return 0 if lam1 == 0.0 else int(np.sum(w > rel_tol * lam1))


def best_rank_r(A, r):
    """Best rank-``r`` approximation of a symmetric matrix in Frobenius norm.

    Keeps the ``r`` eigencomponents of largest magnitude (for symmetric
    matrices the singular values are the absolute eigenvalues).
    """
    A = check_finite_symmetric(A)
    p = A.shape[0]
    if not 1 <= r <= p:
        raise ValueError(f"rank r={r} out of range [1, {p}]")
    spec = sym_evd(A)
    # rank by |eigenvalue|; stable sort keeps the earlier (larger-eigenvalue)
    # index on ties
    order = np.argsort(-np.abs(spec.eigenvalues), kind="stable")[:r]
    w = spec.eigenvalues[order]
    V = spec.eigenvectors[:, order]
    return symmetrize((V * w) @ V.T)


class CholeskyFactor:
    """Opaque handle around a Cholesky factorization of an SPD matrix ``S``.

    Computed once per solver run for the fixed sparse part and reused across
    objective and gradient evaluations, all of which reach ``S^-1`` through
    :meth:`solve`.

    Diagonal fast path: a diagonal ``S`` is recognized from its structure
    when it is factored.  Its solves are then elementwise divisions
    (``O(p k)`` for a ``p x k`` right-hand side) and no dense inverse exists
    unless :attr:`inverse` is read.  For any other ``S`` the dense inverse is
    materialized the first time it is needed and cached, and solves are one
    GEMM against it.
    """

    def __init__(self, factor, lower, diagonal=None):
        self._factor = factor
        self._lower = lower
        self._diagonal = diagonal
        self._inverse = None

    @property
    def dim(self):
        return self._factor.shape[0]

    @property
    def is_diagonal(self):
        return self._diagonal is not None

    def solve(self, b):
        """Solve ``S x = b`` (``b`` a vector or a ``p x k`` block)."""
        b = np.asarray(b, dtype=np.float64)
        if self._diagonal is not None:
            return b / (self._diagonal if b.ndim == 1 else self._diagonal[:, np.newaxis])
        return self.inverse @ b

    def subtract_inverse(self, A):
        """``A - S^-1`` for a symmetric ``A``, symmetric on return."""
        if self._diagonal is None:
            return symmetrize(A - self.inverse)
        out = np.array(A, dtype=np.float64)
        out[np.diag_indices_from(out)] -= 1.0 / self._diagonal
        return out

    @property
    def inverse(self):
        """Dense inverse of the factored matrix (computed once, cached)."""
        if self._inverse is None:
            if self._diagonal is not None:
                self._inverse = np.diag(1.0 / self._diagonal)
            else:
                eye = np.eye(self.dim)
                self._inverse = symmetrize(
                    cho_solve((self._factor, self._lower), eye, check_finite=False)
                )
        return self._inverse

    @property
    def logdet(self):
        if self._diagonal is not None:
            return float(np.sum(np.log(self._diagonal)))
        return 2.0 * float(np.sum(np.log(np.diag(self._factor))))


def cholesky_logdet(A):
    """Cholesky-factor a symmetric matrix and return ``(factor, log det A)``.

    A diagonal ``A`` (no nonzero off-diagonal entry) takes the diagonal fast
    path of :class:`CholeskyFactor`.

    Raises
    ------
    NotPositiveDefiniteError
        If ``A`` is not positive definite.  Solvers use this as the
        backtracking signal for steps that leave the PD cone.
    """
    A = check_finite_symmetric(A)
    diag = np.diag(A).copy()
    if np.count_nonzero(A) == np.count_nonzero(diag):
        if not np.all(diag > 0.0):
            raise NotPositiveDefiniteError(
                f"diagonal matrix has a non-positive entry ({diag.min():.3e})"
            )
        fac = CholeskyFactor(np.sqrt(diag), True, diagonal=diag)
        return fac, fac.logdet
    try:
        c, lower = cho_factor(A, lower=True)
    except LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    fac = CholeskyFactor(c, lower)
    return fac, fac.logdet


def woodbury_inverse(S_chol, U):
    """Inverse of ``S + U @ U.T`` via the Woodbury identity.

    ``S^-1 U`` comes from the factor's :meth:`CholeskyFactor.solve`, so the
    per-call cost is ``O(p^2 r + r^3)``; the dense inverse of the *sum* is
    never formed directly.

    Raises
    ------
    NotPositiveDefiniteError
        If the inner ``r x r`` system ``I + U.T S^-1 U`` is not positive
        definite, which signals ``S + U U.T`` leaving the PD cone.
    """
    U = np.asarray(U, dtype=np.float64)
    if U.ndim != 2 or U.shape[0] != S_chol.dim:
        raise ValueError(f"factor shape {U.shape} incompatible with dim {S_chol.dim}")
    X = S_chol.solve(U)  # S^-1 U, (p, r)
    K = np.eye(U.shape[1]) + U.T @ X
    try:
        kc, klower = cho_factor(symmetrize(K), lower=True)
    except LinAlgError as exc:
        raise NotPositiveDefiniteError("inner Woodbury system not PD") from exc
    correction = X @ cho_solve((kc, klower), X.T, check_finite=False)
    return symmetrize(S_chol.inverse - correction)


def woodbury_core_eig(S_chol, V, d):
    """Inner pieces of the eigenform Woodbury update.

    Returns ``(K, M)`` with ``M = S^-1 V`` and
    ``K = diag(d) (I + V.T M diag(d))^-1`` (symmetric), so that
    ``(S + V diag(d) V.T)^-1 = S^-1 - M K M.T``.
    """
    M = S_chol.solve(V)
    G = V.T @ M  # V.T S^-1 V, SPD
    inner = np.eye(len(d)) + G * d[np.newaxis, :]
    try:
        K = np.linalg.solve(inner.T, np.diag(d)).T  # diag(d) @ inv(inner)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("inner Woodbury system singular") from exc
    return (K + K.T) / 2.0, M
