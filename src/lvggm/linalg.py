"""Dense symmetric linear algebra foundation.

Symmetric matrices are carried as plain ``(p, p)`` float64 ndarrays; every
routine that constructs one symmetrizes as ``(A + A.T) / 2`` so that iterates
stay exactly in the symmetric cone; :func:`sym_evd` reads only the lower
triangle.  :func:`woodbury_core_eig` gives the Woodbury pieces of the
inverse of ``S`` plus a low-rank update in eigenform ``V diag(d) V.T``.
:func:`small_eigh` and :func:`small_cholesky` spare the solvers' ``r x r``
kernels numpy.linalg's per-call overhead.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.linalg
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.lapack import dgesv, dpbtrs, dpotrf, dpttrf, dpttrs, dsyevd


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


def sym_evd(A, k):
    """Eigenform ``(V, w)`` of the ``k`` algebraically largest eigenpairs of
    the symmetric matrix whose lower triangle the finite ``A`` holds: ``w``
    descending and ``A V = V diag(w)`` with ``V`` column-orthonormal.

    ``A`` is not modified and its upper triangle is not read.  LAPACK's
    ``syevr`` driver computes and back-transforms only the requested
    eigenvectors of the tridiagonal form, so ``k << p`` skips the other
    ``p - k``; the ``O(p^3)`` tridiagonal reduction is paid either way.
    Results are deterministic for a fixed LAPACK backend.
    """
    A = np.asarray(A, dtype=np.float64)
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    p = A.shape[0]
    if not 1 <= k <= p:
        raise ValueError(f"eigenpair count k={k} out of range [1, {p}]")
    w, V = scipy.linalg.eigh(
        A, subset_by_index=[p - k, p - 1], driver="evr", check_finite=False
    )
    return V[:, ::-1].copy(), w[::-1].copy()


def small_eigh(A, vectors=True):
    """``np.linalg.eigh`` (``eigvalsh`` without ``vectors``) of the small
    symmetric ``A``'s lower triangle by LAPACK's ``dsyevd``: 3.4 against
    7.9 us at 5 x 5.  Raises numpy's LinAlgError if it does not converge."""
    w, E, info = dsyevd(A, compute_v=int(vectors), lower=1)
    if info:
        raise LinAlgError(f"dsyevd: no convergence (info {info})")
    return (w, E) if vectors else w


def small_cholesky(A):
    """``np.linalg.cholesky`` of the small symmetric ``A``'s lower triangle
    by LAPACK's ``dpotrf``: 0.8 against 4.0 us at 5 x 5.  Raises numpy's
    LinAlgError if ``A`` is not positive definite."""
    R, info = dpotrf(A, lower=1)
    if info:
        raise LinAlgError(f"dpotrf: not positive definite (info {info})")
    return R


def effective_rank(eigenvalues):
    """Count of eigenvalues with magnitude above ``1e-8`` times the largest."""
    w = np.abs(np.asarray(eigenvalues, dtype=np.float64))
    lam1 = float(w.max()) if w.size else 0.0
    return 0 if lam1 == 0.0 else int(np.sum(w > 1e-8 * lam1))


# ``S`` of bandwidth ``b`` takes the banded route when ``_BAND_RATIO * b <= p``.
# Measured crossover of a 20-column solve at p=500, one BLAS thread (Intel
# Xeon, 2 cores): b=16 takes 0.36 ms banded against 0.37 ms for the GEMM
# against the dense inverse, b=32 takes 0.48 against 0.45 ms.
_BAND_RATIO = 32


class CholeskyFactor:
    """Opaque handle around a factor of an SPD matrix ``S``: a lower
    Cholesky factor, or ``L D L^T`` for a tridiagonal ``S``.

    Computed once per solver run for the fixed sparse part and reused across
    objective and gradient evaluations, all of which reach ``S^-1`` through
    :meth:`solve`.  :func:`cholesky_logdet` picks one of two routes from
    the bandwidth ``b`` of ``S`` when it factors it (:attr:`route`):

    * ``"banded"``: ``S`` with ``32 b <= p`` (a diagonal ``S`` is ``b = 0``)
      is factored in lower band form by LAPACK's band Cholesky, and solves
      are band triangular solves at ``O(p (b + 1) k)`` for ``k`` columns.
      A tridiagonal ``S`` (``b = 1``) is factored as ``L D L^T`` by LAPACK's
      ``dpttrf`` instead (``D`` in the first row, ``L``'s subdiagonal in the
      second), whose ``dpttrs`` solves run 2.5x faster at p=500.
    * ``"dense"``: every other ``S`` (and a factor built directly from
      ``scipy.linalg.cho_factor(S, lower=True)`` output).  The dense
      inverse is materialized the first time it is needed and cached, and
      solves are one GEMM against it.

    On the banded route no dense inverse exists unless :attr:`inverse` is
    read; :meth:`subtract_inverse` builds one without keeping it.
    """

    def __init__(self, factor, band=None):
        self._factor = factor
        self._band = band  # lower band form of S on the banded route

    @property
    def route(self):
        """``"banded"`` or ``"dense"``."""
        return "dense" if self._band is None else "banded"

    @property
    def bandwidth(self):
        """Bandwidth the route stores: ``b`` or ``p - 1``."""
        return self.dim - 1 if self._band is None else self._band.shape[0] - 1

    @property
    def dim(self):
        return self._factor.shape[1 if self._band is not None else 0]

    def solve(self, b):
        """Solve ``S x = b`` (``b`` a vector or a ``p x k`` block)."""
        b = np.asarray(b, dtype=np.float64)
        if self._band is not None:
            return self._factor_solve(b)
        return self.inverse @ b

    def _factor_solve(self, b, overwrite=False):
        """Solves against the factor, ``L D L^T`` ones at bandwidth 1; with
        ``overwrite`` the banded route solves a Fortran-order ``b`` in place."""
        if self._band is not None:
            # LAPACK direct: a 5-column solve of a diagonal S at p=100 takes
            # 1.9 us, 6.8 us through cho_solve_banded (one BLAS thread)
            if self.bandwidth == 1:
                x, info = dpttrs(
                    self._factor[0], self._factor[1, :-1], b, overwrite_b=overwrite
                )
            else:
                x, info = dpbtrs(self._factor, b, lower=1, overwrite_b=overwrite)
            if info != 0:
                raise ValueError(f"band solve: illegal value in argument {-info}")
            return x
        return cho_solve((self._factor, True), b, check_finite=False)

    def subtract_inverse(self, A):
        """``A - S^-1`` for an exactly symmetric ``A``; both operands are
        exactly symmetric, so the difference is too.  A diagonal ``S``
        touches the diagonal only.  The banded route keeps no inverse: it
        solves an identity in place and symmetrizes and subtracts it in one
        buffer, with the bits of ``symmetrize(A - inverse)``."""
        if not self.bandwidth:
            out = A.copy()
            out.flat[:: self.dim + 1] -= self._factor_solve(np.ones(self.dim))
            return out
        if self._band is None:
            return A - self.inverse
        X = self._factor_solve(np.eye(self.dim, order="F"), overwrite=True)
        out = X + X.T
        out *= 0.5  # the bits of (X + X.T) / 2
        return np.subtract(A, out, out=out)

    @functools.cached_property
    def inverse(self):
        """Dense inverse of the factored matrix (computed once, cached)."""
        return symmetrize(self._factor_solve(np.eye(self.dim)))

    @property
    def logdet(self):
        if self._band is not None and self.bandwidth == 1:
            return float(np.sum(np.log(self._factor[0])))  # D of L D L^T
        diag = self._factor[0] if self._band is not None else np.diag(self._factor)
        return 2.0 * float(np.sum(np.log(diag)))

    @functools.cached_property
    def min_eigenvalue(self):
        """Smallest eigenvalue of the factored matrix (computed once, cached).

        The banded route takes it from LAPACK's band eigensolver, the dense
        route from the matrix rebuilt from its factor.
        """
        if self._band is not None:
            return float(scipy.linalg.eigvals_banded(
                self._band, lower=True, select="i", select_range=(0, 0),
                check_finite=False,
            )[0])
        T = np.tril(self._factor)
        return float(np.linalg.eigvalsh(T @ T.T)[0])


def cholesky_logdet(A):
    """Cholesky-factor a symmetric matrix and return ``(factor, log det A)``.

    The route of the returned :class:`CholeskyFactor` follows the bandwidth
    ``b`` of ``A``: banded when ``32 b <= p`` (factored in lower band form,
    a tridiagonal ``A`` as ``L D L^T``; a diagonal ``A`` is ``b = 0``),
    dense otherwise.

    Raises
    ------
    NotPositiveDefiniteError
        If ``A`` is not positive definite.
    """
    fac = _factor(check_finite_symmetric(A))
    return fac, fac.logdet


def _factor(A):  # the factor cholesky_logdet returns, of a checked A
    p = A.shape[0]
    # first nonzero column of each row; A is symmetric, so the largest
    # distance to the diagonal is the bandwidth
    b = int(np.max(np.arange(p) - np.argmax(A != 0, axis=1)))
    try:
        if _BAND_RATIO * b <= p:
            band = np.zeros((b + 1, p))
            for k in range(b + 1):
                band[k, : p - k] = np.diagonal(A, -k)
            if b == 1:  # L D L^T: D in the first row, L's subdiagonal in the second
                c = np.zeros_like(band)
                c[0], c[1, :-1], info = dpttrf(band[0], band[1, :-1])
                if info:
                    raise LinAlgError(f"leading minor of order {info} not positive definite")
            else:
                c = scipy.linalg.cholesky_banded(band, lower=True, check_finite=False)
            fac = CholeskyFactor(c, band=band)
        else:
            fac = CholeskyFactor(cho_factor(A, lower=True)[0])
    except LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    return fac


def woodbury_core_eig(S_chol, V, d, M=None):
    """Inner pieces of the eigenform Woodbury update.

    Returns ``(K, M, G)`` with ``M = S^-1 V``, the Gram ``G = V.T M`` and
    ``K = diag(d) (I + G diag(d))^-1`` (symmetric), so that
    ``(S + V diag(d) V.T)^-1 = S^-1 - M K M.T``.  A caller that already
    holds ``S^-1 V`` passes it as ``M`` and skips the solve.  At ``L = 0``
    ``K`` is ``0 x 0``.
    """
    if M is None:
        M = S_chol.solve(V)
    G = V.T @ M  # V.T S^-1 V, SPD
    if not d.size:
        return np.zeros((0, 0)), M, G  # dgesv rejects an empty system
    inner = np.eye(len(d)) + G * d[np.newaxis, :]
    # LAPACK direct: 1.6 us against np.linalg.solve's 5.7 us at 5 x 5
    _, _, Kt, info = dgesv(inner.T, np.diag(d))  # Kt = inv(inner.T) diag(d)
    if info:
        raise NotPositiveDefiniteError(f"inner Woodbury system singular (info {info})")
    return (Kt + Kt.T) / 2.0, M, G
