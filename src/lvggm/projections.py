"""Approximate low-rank projections.

The exact rank-r PSD projection is :func:`lvggm.solvers.psd_finalize`.
:func:`head_project`, the solvers' head projection, approximates the
dominant eigenspace of a symmetric matrix or operator, such as the
solvers' gradient, by one Rayleigh-Ritz step on a Krylov basis in its range
and returns the operator's products on it.  One randomized block-Krylov
step (gap-independent; README gives its measured constant) or Lanczos
(convergence depends on spectral gaps) builds the basis.  A degraded head
(fewer Ritz directions with energy than the target) returns the Ritz
vectors it kept, fewer than asked for, and no random directions.
:func:`extend_basis` extends an orthonormal basis for the block-Krylov head
(floor ``1e-10`` of each block's scale) and for AP's step (absolute floor
``solvers._DEFLATION_TOL``).  The paper's reference BK-SVD, at
``max(7, ceil(log2 p))`` steps, whose constants ``c_T = 1.1`` and ``c_H = 0.9``
acceptance criterion 4 checks, is a test oracle (``tests/oracles.py``).

All randomness flows through explicit integer seeds, taken modulo ``2**64``
(so a negative seed names a stream too); no global RNG state is touched.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import check_finite_symmetric, symmetrize

_BACKENDS = ("block-krylov", "lanczos")
_SEED_MASK = 2**64 - 1


@dataclass
class ProjectionConfig:
    """Seed and basis builder (``block-krylov`` or ``lanczos``) of
    :func:`head_project`."""

    seed: int = 0
    backend: str = "block-krylov"

    def __post_init__(self):
        if self.backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}")


@dataclass
class Subspace:
    """Column-orthonormal head basis that :func:`head_project` returns.

    It has at most the requested number of columns; ``degraded`` flags
    fewer than that, from a short Krylov space or from Ritz pairs dropped
    for having no energy.  ``products`` is ``A @ basis``, assembled from the
    Krylov products the backend formed.
    """

    basis: np.ndarray
    degraded: bool
    products: np.ndarray


def rng_for(seed, *salts):
    """Independent deterministic stream for (seed, salts).

    Per-use salting keeps the model, the samples and each iteration's
    projection independent while preserving replay from one master seed.
    """
    return np.random.default_rng([operator.index(seed) & _SEED_MASK, *map(int, salts)])


def derived_seed(seed, *salts):
    """Integer seed derived from ``seed`` and integer ``salts``."""
    ss = np.random.SeedSequence([operator.index(seed) & _SEED_MASK, *map(int, salts)])
    return int(ss.generate_state(1, np.uint64)[0])


def extend_basis(Q, X, floor):
    """``(Y, H, T)`` with ``Y = (X - Q H) T`` orthonormal and orthogonal to
    the orthonormal ``Q`` (which may have no columns), and ``[Q, Y]``
    spanning ``[Q, X]`` up to ``floor``.

    Two block Gram-Schmidt passes give ``X - Q H``; its columns of norm at
    most ``floor`` are dropped (``T`` has zero rows for them), not
    normalized into junk directions.  CholeskyQR2 orthonormalizes the rest
    at GEMM speed.  It squares the conditioning, so roundoff directions give
    first-pass pivots near ``sqrt(eps)``: a first-pass pivot below ``1e-7``,
    or an absolute one (pivot times column norm) at most ``floor``, a Gram
    matrix that is not numerically PD or a result that fails an
    orthonormality check falls back to pivoted QR, which keeps the leading
    pivots above ``max(floor, 1e-10 * first)``.
    """
    H = 0.0
    for _ in range(2):
        C = Q.T @ X
        X, H = X - Q @ C, H + C
    norms = np.linalg.norm(X, axis=0)
    keep = np.flatnonzero(norms > max(floor, 1e-300))
    T = np.zeros((X.shape[1], keep.size))
    if not keep.size:
        return X[:, :0], H, T
    X, norms = X[:, keep], norms[keep]
    try:
        Y, Tk = X / norms, np.diag(1.0 / norms)
        for sweep in range(2):
            # CholeskyQR via explicit triangular inverse: GEMM-bound, which
            # is much faster than TRSM on small-core BLAS builds; the pivot
            # tests and the orthonormality check guard the conditioning loss.
            R = np.linalg.cholesky(Y.T @ Y)
            # the columns have unit norm, so the largest pivot is R[0, 0] = 1
            pivots = R.diagonal()
            if sweep == 0 and (pivots.min() < 1e-7 or (pivots * norms).min() <= floor):
                raise np.linalg.LinAlgError("block is numerically rank-deficient")
            Rinv = scipy.linalg.lapack.dtrtri(R, lower=1)[0]
            Y, Tk = Y @ Rinv.T, Tk @ Rinv.T
        if np.abs(Y.T @ Y - np.eye(Y.shape[1])).max() <= 1e-8:
            T[keep] = Tk
            return np.ascontiguousarray(Y), H, T
    except np.linalg.LinAlgError:
        pass
    Y, R, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    m = int(np.cumprod(np.abs(R.diagonal()) > max(floor, 1e-10 * abs(R[0, 0]))).sum())
    T = T[:, :m]
    T[keep[piv[:m]]] = scipy.linalg.lapack.dtrtri(R[:m, :m])[0]
    return np.ascontiguousarray(Y[:, :m]), H, T


def _largest_eigs(M, k):
    """Eigenpairs ``(w, E)`` of the small symmetric ``M`` with the ``k``
    largest ``|w|`` (all of them if fewer), largest first, ties in order."""
    w, E = np.linalg.eigh(M)
    order = np.argsort(-np.abs(w), kind="stable")[:k]
    return w[order], E[:, order]


def _krylov_basis(A, block, rng):
    """Orthonormal basis of the randomized block-Krylov space
    ``span[A W, A^2 W]`` of the symmetric operator ``A`` (``W`` a Gaussian
    ``block``), and ``A`` on it.

    One Krylov step at every size: a small depth already gives
    gap-independent bounds (Musco & Musco, NeurIPS 2015), and AP fits at
    depth 1 were no slower end to end at any size tried.  Each block joins
    the basis through :func:`extend_basis`, which drops residue of norm at
    most ``1e-10`` of the block's largest column as roundoff, so no final
    wide factorization is needed.

    Returns ``(Q, A @ Q)``.  ``A`` is applied to three blocks, ``W`` and
    each block's new directions, against four when Rayleigh-Ritz recomputes
    ``A @ Q``.
    """
    Q = AQ = np.zeros((A.shape[0], 0))
    K = A @ rng.standard_normal((A.shape[1], block))
    for _ in range(2):
        X = extend_basis(Q, K, 1e-10 * np.linalg.norm(K, axis=0).max(initial=0.0))[0]
        K = A @ X
        Q, AQ = np.hstack([Q, X]), np.hstack([AQ, K])
    return Q, AQ


def _lanczos_basis(A, k, rng):
    """``(Q, A @ Q, Q^T A Q)`` for an orthonormal basis ``Q`` of
    ``span[A v, ..., A^m v]`` (``v`` Gaussian, ``m = min(p, max(2k, k+30))``)
    by single-vector Lanczos with full reorthogonalization.  As in
    :func:`_krylov_basis`, the space lies in range(A) and a new direction of
    norm at most ``1e-10`` of the first one's ends it.  ``Q^T A Q`` comes
    from the reorthogonalization coefficients and the new directions' norms
    (on the subdiagonal), which is cheaper than the product.
    """
    p = A.shape[0]
    steps = min(p, max(2 * k, k + 30))
    Q = np.zeros((p, steps))
    AQ = np.zeros((p, steps))
    H = np.zeros((steps, steps))
    w = A @ rng.standard_normal(p)
    beta = float(np.linalg.norm(w))
    tol = 1e-10 * beta
    m = 0
    while m < steps and beta > tol:
        if m:
            H[m, m - 1] = beta
        Q[:, m] = w / beta
        w = A @ Q[:, m]
        AQ[:, m] = w
        for _ in range(2):
            c = Q[:, : m + 1].T @ w
            H[: m + 1, m] += c
            w -= Q[:, : m + 1] @ c
        m += 1
        beta = float(np.linalg.norm(w))
    return Q[:, :m], AQ[:, :m], H[:m, :m]


def head_project(A, k, cfg):
    """Head subspace ``V`` of the symmetric ``A`` of at most ``k``
    dimensions, with no proved constant (README gives the measured one).

    ``A`` is a symmetric ndarray, or a symmetric linear operator (``shape``
    and ``@``) which neither backend materializes.  A dense ``A`` that is not
    finite and symmetric, or ``k`` outside ``[1, p]``, raises ValueError.
    One Rayleigh-Ritz step on either backend's basis gives the subspace.  It
    keeps the Ritz pairs with ``|theta| > 1e-10 |theta_max|``, since a
    Krylov space can carry a direction at roundoff energy (Lanczos does on
    low-rank gradients with clustered eigenvalues); it carries
    ``A @ basis`` and is degraded with fewer than ``k`` columns.
    """
    if isinstance(A, np.ndarray):
        A = check_finite_symmetric(A)
    p = A.shape[0]
    if not 1 <= k <= p:
        raise ValueError(f"subspace size k={k} out of range [1, {p}]")
    rng = rng_for(cfg.seed, 101, 0)
    if cfg.backend == "lanczos":
        Q, AQ, H = _lanczos_basis(A, k, rng)
    else:
        Q, AQ = _krylov_basis(A, k, rng)
        H = Q.T @ AQ
    w, E = _largest_eigs(symmetrize(H), k)
    E = E[:, np.abs(w) > 1e-10 * np.abs(w).max(initial=0.0)]
    return Subspace(np.ascontiguousarray(Q @ E), E.shape[1] < k, AQ @ E)


def psd_truncate(V, d, r):
    """Rank-``r`` PSD cut of the eigenform ``(V, d)``: the ``r``
    algebraically largest eigenpairs, largest first (ties in order), less
    the ones not above ``1e-12`` of the largest magnitude.  Returns
    ``(V', d')``."""
    order = np.argsort(-d, kind="stable")[:r]
    # eigh returns an exact zero eigenvalue as about +-eps * max|d|, so a cut
    # at 0 would keep it as a direction of roundoff energy; the cut is
    # relative, as as_eigenform's zero rule is, and far above roundoff
    keep = order[d[order] > 1e-12 * np.abs(d).max(initial=0.0)]
    return V[:, keep], d[keep]


def compress_symmetric(U, core, r):
    """Exact projection of ``U @ core @ U.T`` onto the rank-``r`` PSD cone.

    ``U`` is ``p x m`` column-orthonormal with ``m`` small, and ``core`` is
    ``m x m`` symmetric.  Because the Krylov space of a rank-m matrix is
    contained in its range, a randomized tail projection of such a matrix
    resolves to this exact compression, one eigensolve of ``core``; solvers
    use it to keep the per-iteration cost at ``O(p m^2)``.  It cuts and
    clamps the eigenpairs of ``core`` with :func:`psd_truncate`, as
    :func:`lvggm.solvers.psd_finalize` does, so AP's tail projects onto the
    set EP's exact projection does.

    Returns ``(V, d)`` with ``V = U E`` ``p x k`` orthonormal, ``k <= r``,
    and ``d`` the kept positive eigenvalues, largest first, for
    ``V diag(d) V^T``.
    """
    w, E = np.linalg.eigh(core)
    E, w = psd_truncate(E, w, r)
    return U @ E, w
