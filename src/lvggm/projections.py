"""Approximate low-rank projections.

The exact rank-r PSD projection is :func:`lvggm.solvers.psd_finalize`.
The approximate routes here are randomized block-Krylov
(gap-independent) and Lanczos (convergence depends on spectral gaps).
:func:`bk_svd`, at :func:`default_krylov_depth`, carries constant-factor
guarantees: its rank-r residual is within ``c_T = 1.1`` of the best rank-r
residual, and it captures at least ``c_H = 0.9`` of the best rank-r
Frobenius energy.  :func:`head_project`, the solvers' head projection,
takes one block-Krylov step (README gives its measured constant) or Lanczos.
Both backends apply a symmetric operator, such as the solvers' gradient,
only to blocks or vectors and return its products on the basis they find;
block-Krylov runs a non-symmetric ``A`` (as :func:`bk_svd` takes) as ``A A^T``.
A degraded head (a Krylov space short of the target) returns the Ritz
vectors it found, fewer than asked for, and no random directions.

All randomness flows through explicit seeds; no global RNG state is touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import check_finite_symmetric, symmetrize

# Krylov depth of head_project's block-Krylov backend, at every size.  A
# small depth already gives gap-independent bounds (Musco & Musco, NeurIPS
# 2015), and AP fits at depth 1 were no slower end to end at any size tried.
_HEAD_KRYLOV_DEPTH = 1

_BACKENDS = ("block-krylov", "lanczos")


def default_krylov_depth(p):
    """:func:`bk_svd`'s depth ``max(7, ceil(log2 p))``; 7 suffices
    empirically for a tail constant of 1.1 at desk scale."""
    return max(7, int(math.ceil(math.log2(max(p, 2)))))


@dataclass
class ProjectionConfig:
    """Seed and head-projection backend of the approximate projections.

    The block-Krylov block size is the target rank of each call; each
    routine fixes its own depth (see :func:`head_project`, :func:`bk_svd`).
    """

    seed: int = 0
    backend: str = "block-krylov"

    def __post_init__(self):
        if self.backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}")


@dataclass
class Subspace:
    """Column-orthonormal basis returned by head/tail subspace routines.

    It has at most the requested number of columns; ``degraded`` flags a
    shorter Krylov space or a Lanczos breakdown.  ``products`` is
    ``A @ basis``, assembled from the Krylov products the routine formed; it
    is None only for non-symmetric block-Krylov input (as :func:`bk_svd`
    takes).
    """

    basis: np.ndarray
    degraded: bool = False
    products: np.ndarray | None = None


def rng_for(seed, *salts):
    """Independent deterministic stream for (seed, salts).

    Per-use salting keeps randomized projections independent across solver
    iterations while preserving replay from a single master seed.
    """
    return np.random.default_rng([int(seed) & (2**64 - 1), *map(int, salts)])


def _orthonormalize(K, floor=0.0):
    """Column-orthonormal basis of ``K`` with rank trimming.

    ``floor`` is an absolute column-norm threshold below which columns are
    treated as numerically zero (deflation); callers that know the problem
    scale pass it to avoid normalizing roundoff residue into junk directions.

    Fast path: CholeskyQR2, which runs at GEMM speed.  CholeskyQR squares
    the conditioning, so the roundoff directions of a rank-deficient block
    give first-pass pivots near ``sqrt(eps)``, not ``eps``.  A block whose
    first-pass pivots fall below ``1e-7`` of the largest, whose Gram matrix
    is not numerically PD or whose result fails an orthonormality check
    falls back to pivoted QR, which trims columns with pivots below
    ``1e-10`` of the first.
    """
    K = np.asarray(K, dtype=np.float64)
    norms = np.linalg.norm(K, axis=0)
    keep = norms > max(floor, 1e-300)
    if not np.any(keep):
        return K[:, :0]
    K = K[:, keep] / norms[keep]
    try:
        Q = K
        for sweep in range(2):
            # CholeskyQR via explicit triangular inverse: GEMM-bound, which
            # is much faster than TRSM on small-core BLAS builds; the pivot
            # test and the orthonormality check guard the conditioning loss.
            R = np.linalg.cholesky(Q.T @ Q)
            # the columns have unit norm, so the largest pivot is R[0, 0] = 1
            if sweep == 0 and R.diagonal().min() < 1e-7:
                raise np.linalg.LinAlgError("block is numerically rank-deficient")
            Rinv, info = scipy.linalg.lapack.dtrtri(R, lower=1)
            if info != 0:
                raise np.linalg.LinAlgError("triangular inverse failed")
            Q = Q @ Rinv.T
        err = np.abs(Q.T @ Q - np.eye(Q.shape[1])).max()
        if err <= 1e-8:
            return np.ascontiguousarray(Q)
    except np.linalg.LinAlgError:
        pass
    Q, R, _ = scipy.linalg.qr(K, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] == 0.0:
        return K[:, :0]
    ncols = int(np.sum(diag > 1e-10 * diag[0]))
    return np.ascontiguousarray(Q[:, :ncols])


def _largest_eigs(M, k):
    """Eigenpairs ``(w, E)`` of the small symmetric ``M`` with the ``k``
    largest ``|w|`` (all of them if fewer), largest first, ties in order."""
    w, E = np.linalg.eigh(M)
    order = np.argsort(-np.abs(w), kind="stable")[:k]
    return w[order], E[:, order]


def _krylov_basis(A, block, depth, rng):
    """Orthonormal basis of the randomized block-Krylov space of the
    symmetric operator ``A``, and ``A`` on it.

    Blocks are orthogonalized progressively against the accumulated basis
    (two Gram-Schmidt passes, then CholeskyQR within the block), so the
    returned matrix is orthonormal without a final wide factorization.

    Returns ``(Q, A @ Q)``.  The loop already forms ``A @ Q_j`` for every
    block but the last, so only that one is multiplied here
    (``(depth + 2) * block`` columns of products in all, against
    ``(2 depth + 2) * block`` when Rayleigh-Ritz recomputes them).
    """
    first = A @ rng.standard_normal((A.shape[1], block))
    scale = float(np.linalg.norm(first, axis=0).max()) if first.size else 0.0
    floor = 1e-10 * scale
    Q = _orthonormalize(first, floor=floor)
    blocks = [Q]
    products = []
    X = Q
    for _ in range(depth):
        if X.shape[1] == 0:
            break
        X = A @ X
        products.append(X)
        block_scale = float(np.linalg.norm(X, axis=0).max()) if X.size else 0.0
        for _ in range(2):
            X = X - Q @ (Q.T @ X)
        # deflate residue that is pure roundoff relative to the pre-projection
        # block scale; otherwise it would be normalized into junk directions
        X = _orthonormalize(X, floor=1e-10 * block_scale)
        if X.shape[1] == 0:
            break
        blocks.append(X)
        Q = np.hstack([Q, X])
    if len(products) < len(blocks):
        products.append(A @ blocks[-1])
    return Q, np.hstack(products)


class _Gram:
    """The symmetric operator ``X -> A (A^T X)`` of a square array ``A``:
    its dominant eigenspace is the left singular subspace of ``A``."""

    def __init__(self, A):
        self._A, self.shape = A, A.shape

    def __matmul__(self, X):
        return self._A @ (self._A.T @ X)


def _bk_subspace(A, r, depth, seed):
    """Rank-``r`` left singular subspace of a square matrix from ``depth``
    block-Krylov steps.

    ``A`` is a square ndarray, or a symmetric linear operator with ``shape``
    and ``@`` (such as the solvers' gradient operator); a non-symmetric
    array runs as ``A A^T``.  For symmetric input the returned subspace
    carries ``A @ basis``, combined from the Krylov products.  A Krylov
    basis short of ``r`` columns gives its Ritz basis, flagged as degraded.
    """
    if len(A.shape) != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    p = A.shape[0]
    if not 1 <= r <= p:
        raise ValueError(f"rank r={r} out of range [1, {p}]")
    symmetric = not isinstance(A, np.ndarray) or bool(np.array_equal(A, A.T))
    op = A if symmetric else _Gram(A)

    Q, AQ = _krylov_basis(op, r, depth, rng_for(seed, 101, 0))
    # Rayleigh-Ritz on the Krylov basis
    _, E = _largest_eigs(symmetrize(Q.T @ AQ), r)
    return Subspace(
        np.ascontiguousarray(Q @ E), Q.shape[1] < r, AQ @ E if symmetric else None
    )


def bk_svd(A, r, cfg):
    """Randomized block-Krylov SVD: rank-``r`` subspace plus its projection.

    Returns ``(Subspace Z, B)`` with ``Z`` a column-orthonormal basis of at
    most ``r`` columns approximating the top-``r`` left singular subspace and
    ``B = Z @ Z.T @ A``.  It runs :func:`default_krylov_depth` Krylov
    steps, at which the tail bound ``||A - B||_F <= c_T ||A - A_r||_F``
    and the head bound ``||B||_F >= c_H ||A_r||_F`` (``c_T = 1.1``,
    ``c_H = 0.9``) hold on all but a small fraction of random trials.

    If block orthogonalization comes up rank-deficient (Krylov breakdown),
    ``A`` has numerical rank below ``r`` and a fresh random block would span
    the same range, so ``Z`` is the basis found, of that numerical rank, and
    the result is flagged as degraded; ``B`` is still ``A`` up to roundoff.
    """
    A = np.asarray(A, dtype=np.float64)
    sub = _bk_subspace(A, r, default_krylov_depth(A.shape[0]), cfg.seed)
    Z = sub.basis
    B = Z @ (Z.T @ A)
    return sub, B


def lanczos_subspace(A, k, cfg):
    """Dominant ``k``-dimensional eigenspace approximation via Lanczos.

    Single-vector Lanczos with full reorthogonalization over
    ``min(p, max(2k, k + 30))`` steps; convergence depends on spectral gaps.
    ``A`` is a symmetric ndarray, which is validated, or a symmetric linear
    operator with ``shape`` and ``@``, which is only applied to vectors.  The
    subspace carries ``A @ basis``, combined from the products the iteration
    forms.  On breakdown (a residual norm at most ``1e-12 max(1, ||A v_1||)``
    for the random start ``v_1``) the iteration stops after ``m`` steps and
    the subspace, flagged as degraded, holds ``min(k, m)`` Ritz vectors.
    """
    if isinstance(A, np.ndarray):
        A = check_finite_symmetric(A)
    p = A.shape[0]
    if not 1 <= k <= p:
        raise ValueError(f"subspace size k={k} out of range [1, {p}]")
    steps = min(p, max(2 * k, k + 30))
    rng = rng_for(cfg.seed, 211)

    V = np.zeros((p, steps))
    AV = np.zeros((p, steps))
    alphas = []
    betas = []
    v = rng.standard_normal(p)
    v /= np.linalg.norm(v)
    V[:, 0] = v
    degraded = False
    for j in range(steps):
        AV[:, j] = A @ V[:, j]
        if j == 0:
            tol = 1e-12 * max(1.0, float(np.linalg.norm(AV[:, 0])))
        w = AV[:, j].copy()
        alphas.append(float(V[:, j] @ w))
        # full reorthogonalization, two passes
        for _ in range(2):
            w -= V[:, : j + 1] @ (V[:, : j + 1].T @ w)
        beta = float(np.linalg.norm(w))
        if j == steps - 1:
            break
        if beta <= tol:
            degraded = True
            break
        betas.append(beta)
        V[:, j + 1] = w / beta

    m = len(alphas)
    T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    _, E = _largest_eigs(T, k)
    return Subspace(V[:, :m] @ E, degraded, AV[:, :m] @ E)


def head_project(A, k, cfg):
    """Head subspace ``V`` of ``A`` of at most ``k`` dimensions, with no
    proved constant: ``||P_V A||_F >= c_H ||A_k||_F`` is :func:`bk_svd`'s.

    The block-Krylov backend takes one Krylov step at every size.  ``A`` is
    a square ndarray or a symmetric linear operator (``shape`` and ``@``),
    which neither backend materializes; for symmetric ``A`` the subspace
    carries ``A @ basis``.
    """
    if cfg.backend == "lanczos":
        return lanczos_subspace(A, k, cfg)
    return _bk_subspace(A, k, _HEAD_KRYLOV_DEPTH, cfg.seed)


def compress_symmetric(U, core, r):
    """Exact rank-``r`` tail projection of ``U @ core @ U.T``.

    ``U`` is ``p x m`` column-orthonormal with ``m`` small, and ``core`` is
    ``m x m`` symmetric.  Because the Krylov space of a rank-m matrix is
    contained in its range, a randomized tail projection of such a matrix
    resolves to this exact compression, one eigensolve of ``core``; solvers
    use it to keep the per-iteration cost at ``O(p m^2)``.

    Returns ``(V, d)`` with ``V = U E`` ``p x r`` orthonormal, ``d`` the
    retained eigenvalues (largest magnitude first), for ``V diag(d) V^T``.
    """
    w, E = _largest_eigs(core, r)
    return U @ E, w
