"""Approximate low-rank projections.

The exact rank-r PSD projection is :func:`lvggm.solvers.psd_finalize`.
:func:`head_project`, the solvers' head projection, approximates the
dominant eigenspace of a symmetric matrix or operator by one randomized
block-Krylov step (gap-independent; README gives its measured constant) or
by Lanczos (convergence depends on spectral gaps).  Both backends apply the
operator, such as the solvers' gradient, only to blocks or vectors and
return its products on the basis they find.  A degraded head (a Krylov
space short of the target) returns the Ritz vectors it found, fewer than
asked for, and no random directions.  The paper's reference BK-SVD, at
``max(7, ceil(log2 p))`` steps, whose constants ``c_T = 1.1`` and
``c_H = 0.9`` acceptance criterion 4 checks, is a test oracle
(``tests/oracles.py``), not library code.

All randomness flows through explicit seeds; no global RNG state is touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import check_finite_symmetric, symmetrize

_BACKENDS = ("block-krylov", "lanczos")


@dataclass
class ProjectionConfig:
    """Seed and head-projection backend of the approximate projections.

    The block-Krylov backend takes one Krylov step with a block of the
    target rank of each call.
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
    ``A @ basis``, assembled from the Krylov products the routine formed.
    """

    basis: np.ndarray
    degraded: bool
    products: np.ndarray


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


def _krylov_basis(A, block, rng):
    """Orthonormal basis of the randomized block-Krylov space
    ``span[A W, A^2 W]`` of the symmetric operator ``A`` (``W`` a Gaussian
    ``block``), and ``A`` on it.

    One Krylov step at every size: a small depth already gives
    gap-independent bounds (Musco & Musco, NeurIPS 2015), and AP fits at
    depth 1 were no slower end to end at any size tried.  The second block
    is orthogonalized against the first (two Gram-Schmidt passes, then
    CholeskyQR within the block), so the returned matrix is orthonormal
    without a final wide factorization.

    Returns ``(Q, A @ Q)``.  The step already forms ``A`` on the first
    block, so only the second one is multiplied here (three blocks of
    products in all, against four when Rayleigh-Ritz recomputes them).
    """
    first = A @ rng.standard_normal((A.shape[1], block))
    scale = float(np.linalg.norm(first, axis=0).max()) if first.size else 0.0
    Q = _orthonormalize(first, floor=1e-10 * scale)
    AQ = A @ Q
    block_scale = float(np.linalg.norm(AQ, axis=0).max()) if AQ.size else 0.0
    X = AQ
    for _ in range(2):
        X = X - Q @ (Q.T @ X)
    # deflate residue that is pure roundoff relative to the pre-projection
    # block scale; otherwise it would be normalized into junk directions
    X = _orthonormalize(X, floor=1e-10 * block_scale)
    if X.shape[1] == 0:
        return Q, AQ
    return np.hstack([Q, X]), np.hstack([AQ, A @ X])


def lanczos_subspace(A, k, cfg):
    """Dominant ``k``-dimensional eigenspace approximation via Lanczos.

    Single-vector Lanczos with full reorthogonalization over
    ``min(p, max(2k, k + 30))`` steps; convergence depends on spectral gaps.
    ``A`` is a symmetric ndarray or linear operator with ``shape`` and
    ``@``, which is only applied to vectors; :func:`head_project` checks the
    input.  The subspace carries ``A @ basis``, combined from the products
    the iteration forms.  On breakdown (a residual norm at most
    ``1e-12 max(1, ||A v_1||)`` for the random start ``v_1``) the iteration
    stops after ``m`` steps and the subspace, flagged as degraded, holds
    ``min(k, m)`` Ritz vectors.
    """
    p = A.shape[0]
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
    """Head subspace ``V`` of the symmetric ``A`` of at most ``k``
    dimensions, with no proved constant (README gives the measured one).

    ``A`` is a symmetric ndarray, or a symmetric linear operator (``shape``
    and ``@``) which neither backend materializes.  A dense ``A`` that is not
    finite and symmetric, or ``k`` outside ``[1, p]``, raises ValueError.  The block-Krylov backend
    takes one Krylov step at every size; the subspace carries ``A @ basis``.
    """
    if isinstance(A, np.ndarray):
        A = check_finite_symmetric(A)
    p = A.shape[0]
    if not 1 <= k <= p:
        raise ValueError(f"subspace size k={k} out of range [1, {p}]")
    if cfg.backend == "lanczos":
        return lanczos_subspace(A, k, cfg)
    Q, AQ = _krylov_basis(A, k, rng_for(cfg.seed, 101, 0))
    # Rayleigh-Ritz on the Krylov basis
    _, E = _largest_eigs(symmetrize(Q.T @ AQ), k)
    return Subspace(np.ascontiguousarray(Q @ E), Q.shape[1] < k, AQ @ E)


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
