"""Exact and approximate low-rank projections.

The exact route projects onto the rank-r PSD cone through a full
eigendecomposition.  The approximate routes produce head/tail projections in
the sense of constant-factor guarantees: a tail projection returns a rank-r
matrix whose residual is within a factor ``c_T > 1`` of the best rank-r
residual, a head projection returns a subspace capturing at least a fraction
``c_H < 1`` of the best rank-k Frobenius energy.  Both are served by a
randomized block-Krylov solver (gap-independent) or by Lanczos iteration
(cheaper per step, but convergence depends on spectral gaps).

All randomness flows through explicit seeds; no global RNG state is touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import check_finite_symmetric, sym_evd, symmetrize

# Krylov bases wider than this fraction of the ambient dimension degenerate
# toward a full decomposition; the floor keeps small problems uncapped.
_WIDTH_FRACTION = 5
_WIDTH_FLOOR = 96

_BACKENDS = ("block-krylov", "lanczos")


def default_krylov_depth(p):
    """Default depth ``max(7, ceil(log2 p))``; 7 suffices empirically for a
    tail constant of 1.1 at desk scale."""
    return max(7, int(math.ceil(math.log2(max(p, 2)))))


@dataclass
class ProjectionConfig:
    """Knobs for the approximate projections.

    ``krylov_depth=None`` resolves to :func:`default_krylov_depth`.  The
    block-Krylov block size is the target rank of each call.
    """

    krylov_depth: int | None = None
    seed: int = 0
    target_tail_constant: float = 1.1
    target_head_constant: float = 0.9
    backend: str = "block-krylov"

    def __post_init__(self):
        if self.target_tail_constant <= 1.0:
            raise ValueError("target_tail_constant must exceed 1")
        if not 0.0 < self.target_head_constant < 1.0:
            raise ValueError("target_head_constant must lie in (0, 1)")
        if self.backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}")
        if self.krylov_depth is not None and self.krylov_depth < 1:
            raise ValueError("krylov_depth must be >= 1")


@dataclass
class Subspace:
    """Column-orthonormal basis returned by head/tail subspace routines.

    ``ritz`` holds the Rayleigh-Ritz values of the input on the basis, so
    that ``basis.T @ A @ basis`` equals ``diag(ritz)``, when the routine
    computed them from a basis it did not pad; otherwise it is None.
    """

    basis: np.ndarray
    degraded: bool = False
    ritz: np.ndarray | None = None

    @property
    def dim(self):
        return self.basis.shape[0]

    @property
    def k(self):
        return self.basis.shape[1]


def rng_for(seed, *salts):
    """Independent deterministic stream for (seed, salts).

    Per-use salting keeps randomized projections independent across solver
    iterations while preserving replay from a single master seed.
    """
    return np.random.default_rng([int(seed) & (2**64 - 1), *map(int, salts)])


def psd_rank_r_project(A, r):
    """Euclidean projection of a symmetric matrix onto ``{rank <= r, PSD}``.

    Performs an exact eigendecomposition, keeps the ``r`` algebraically
    largest eigenvalues, clamps negatives to zero, and returns the factor
    ``U`` (``p x r``) with ``U @ U.T`` equal to the projection.  Components
    clamped to zero leave zero columns, so the factor always has ``r``
    columns.
    """
    A = check_finite_symmetric(A)
    p = A.shape[0]
    if not 1 <= r <= p:
        raise ValueError(f"rank r={r} out of range [1, {p}]")
    spec = sym_evd(A)
    w = np.maximum(spec.eigenvalues[:r], 0.0)
    return spec.eigenvectors[:, :r] * np.sqrt(w)


def _effective_depth(p, block, depth):
    cap = min(p, max(p // _WIDTH_FRACTION, _WIDTH_FLOOR))
    return max(1, min(depth, cap // block - 1))


def _orthonormalize(K, floor=0.0):
    """Column-orthonormal basis of ``K`` with rank trimming.

    ``floor`` is an absolute column-norm threshold below which columns are
    treated as numerically zero (deflation); callers that know the problem
    scale pass it to avoid normalizing roundoff residue into junk directions.

    Fast path: CholeskyQR2, which runs at GEMM speed.  If the Gram matrix is
    not numerically PD or the result fails an orthonormality check, falls
    back to pivoted QR and trims columns with negligible pivots.
    """
    K = np.asarray(K, dtype=np.float64)
    norms = np.linalg.norm(K, axis=0)
    keep = norms > max(floor, 1e-300)
    if not np.any(keep):
        return K[:, :0]
    K = K[:, keep] / norms[keep]
    try:
        Q = K
        for _ in range(2):
            # CholeskyQR via explicit triangular inverse: GEMM-bound, which
            # is much faster than TRSM on small-core BLAS builds; the
            # orthonormality check below guards the conditioning loss.
            R = np.linalg.cholesky(Q.T @ Q)
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
    ncols = int(np.sum(diag > diag[0] * max(K.shape) * np.finfo(np.float64).eps))
    return np.ascontiguousarray(Q[:, :ncols])


def _complete_basis(Q, p, k, rng):
    """Pad ``Q`` to ``k`` orthonormal columns with random completions."""
    while Q.shape[1] < k:
        extra = rng.standard_normal((p, k - Q.shape[1]))
        if Q.shape[1]:
            extra -= Q @ (Q.T @ extra)
        extra = _orthonormalize(extra)
        if extra.shape[1] == 0:
            raise RuntimeError("unable to complete orthonormal basis")
        Q = np.hstack([Q, extra[:, : k - Q.shape[1]]])
    return Q


def _krylov_basis(A, block, depth, rng, symmetric):
    """Orthonormal basis of the randomized block-Krylov space of ``A``.

    Blocks are orthogonalized progressively against the accumulated basis
    (two Gram-Schmidt passes, then CholeskyQR within the block), so the
    returned matrix is orthonormal without a final wide factorization.

    Returns ``(Q, AQ)``.  For symmetric ``A``, ``AQ`` is ``A @ Q``: the loop
    already forms ``A @ Q_j`` for every block but the last, so only that one
    is multiplied here (``(depth + 2) * block`` columns of products in all,
    against ``(2 depth + 2) * block`` when Rayleigh-Ritz recomputes them).
    ``AQ`` is None for a non-symmetric ``A``.
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
        X = A @ X if symmetric else A @ (A.T @ X)
        if symmetric:
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
    if not symmetric:
        return Q, None
    if len(products) < len(blocks):
        products.append(A @ blocks[-1])
    return Q, np.hstack(products)


def _bk_subspace(A, r, cfg):
    """Block-Krylov rank-``r`` left singular subspace of a square matrix.

    ``A`` is a square ndarray, or a symmetric linear operator with ``shape``
    and ``@`` (such as the solvers' gradient operator).  Symmetric inputs get
    Ritz values on the returned subspace unless its basis had to be padded.
    """
    p = A.shape[0]
    if not 1 <= r <= p:
        raise ValueError(f"rank r={r} out of range [1, {p}]")
    depth = cfg.krylov_depth if cfg.krylov_depth is not None else default_krylov_depth(p)
    depth = _effective_depth(p, r, depth)
    symmetric = not isinstance(A, np.ndarray) or bool(np.array_equal(A, A.T))

    Q = np.zeros((p, 0))
    degraded = False
    for attempt in range(4):
        rng = rng_for(cfg.seed, 101, attempt)
        Q, AQ = _krylov_basis(A, r, depth, rng, symmetric)
        if Q.shape[1] >= r:
            break
    else:
        degraded = True
    if Q.shape[1] < r:
        # Input rank below r: best effort, pad deterministically.
        degraded = True
        Q = _complete_basis(Q, p, r, rng_for(cfg.seed, 103))
        AQ = A @ Q if symmetric else None

    # Rayleigh-Ritz on the Krylov basis
    ritz = None
    if symmetric:
        M = symmetrize(Q.T @ AQ)
        w, E = np.linalg.eigh(M)
        order = np.argsort(-np.abs(w), kind="stable")[:r]
        Z = Q @ E[:, order]
        ritz = w[order]
    else:
        M = Q.T @ A
        U, _, _ = np.linalg.svd(M, full_matrices=False)
        Z = Q @ U[:, :r]
    if Z.shape[1] < r:
        Z = _complete_basis(Z, p, r, rng_for(cfg.seed, 107))
        degraded = True
    return Subspace(
        np.ascontiguousarray(Z), degraded=degraded, ritz=None if degraded else ritz
    )


def bk_svd(A, r, cfg):
    """Randomized block-Krylov SVD: rank-``r`` subspace plus its projection.

    Returns ``(Subspace Z, B)`` with ``Z`` a ``p x r`` column-orthonormal
    basis approximating the top-``r`` left singular subspace and
    ``B = Z @ Z.T @ A``.  With the default depth, the tail bound
    ``||A - B||_F <= c_T ||A - A_r||_F`` and the head bound
    ``||B||_F >= c_H ||A_r||_F`` hold on all but a small fraction of random
    trials.

    If block orthogonalization comes up rank-deficient (Krylov breakdown),
    the iteration retries with a fresh random block up to 3 times, then pads
    the basis and flags the result as degraded.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    sub = _bk_subspace(A, r, cfg)
    Z = sub.basis
    B = Z @ (Z.T @ A)
    return sub, B


def lanczos_subspace(A, k, cfg, steps=None):
    """Dominant ``k``-dimensional eigenspace approximation via Lanczos.

    Single-vector Lanczos with full reorthogonalization; convergence depends
    on spectral gaps, unlike the block-Krylov route.  On breakdown (zero
    residual norm) the iteration terminates early and the basis is padded
    with random orthonormal completions, flagging the subspace as degraded.
    """
    A = check_finite_symmetric(A)
    p = A.shape[0]
    if not 1 <= k <= p:
        raise ValueError(f"subspace size k={k} out of range [1, {p}]")
    if steps is None:
        steps = min(p, max(2 * k, k + 30))
    steps = min(max(steps, k), p)
    rng = rng_for(cfg.seed, 211)
    scale = max(1.0, float(np.linalg.norm(A, "fro")))
    tol = 1e-12 * scale

    V = np.zeros((p, steps))
    alphas = []
    betas = []
    v = rng.standard_normal(p)
    v /= np.linalg.norm(v)
    V[:, 0] = v
    m = 1
    degraded = False
    for j in range(steps):
        w = A @ V[:, j]
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
        m = j + 2

    T = np.diag(np.asarray(alphas))
    if betas:
        off = np.asarray(betas)[: m - 1]
        T += np.diag(off, 1) + np.diag(off, -1)
    ritz, E = np.linalg.eigh(T)
    order = np.argsort(-np.abs(ritz), kind="stable")[: min(k, m)]
    Z = V[:, :m] @ E[:, order]
    Z = _orthonormalize(Z)
    if Z.shape[1] < k:
        Z = _complete_basis(Z, p, k, rng_for(cfg.seed, 223))
        degraded = True
    return Subspace(Z[:, :k], degraded=degraded)


def head_project(A, k, cfg):
    """Subspace ``V`` with ``||P_V A||_F >= c_H ||A_k||_F``.

    Both backends satisfy the bound with high probability.  ``A`` is a
    square ndarray or a symmetric linear operator (``shape``, ``@`` and
    ``__array__``); the block-Krylov backend applies an operator without
    materializing it, the Lanczos backend materializes it.
    """
    operator = not isinstance(A, np.ndarray) and hasattr(A, "__matmul__")
    if cfg.backend == "block-krylov" and operator:
        return _bk_subspace(A, k, cfg)
    A = np.asarray(A, dtype=np.float64)
    if cfg.backend == "lanczos":
        return lanczos_subspace(A, k, cfg)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return _bk_subspace(A, k, cfg)


def compress_symmetric(W, core, r):
    """Exact rank-``r`` tail projection of ``W @ core @ W.T``.

    ``W`` is ``p x m`` (not necessarily orthonormal) with ``m`` small, and
    ``core`` is ``m x m`` symmetric.  Because the Krylov space of a rank-m
    matrix is contained in its range, a randomized tail projection of such a
    matrix resolves to the exact compression computed here; solvers use it to
    keep the per-iteration cost at ``O(p m^2)``.

    Returns ``(V, d)`` with ``V`` ``p x r`` orthonormal, ``d`` the retained
    eigenvalues (largest magnitude first), for ``V @ diag(d) @ V.T``.
    """
    W = np.asarray(W, dtype=np.float64)
    core = np.asarray(core, dtype=np.float64)
    # Fast path: generalized eigensolve against the Gram matrix; eigenpairs
    # (x, lam) of R core R^T with G = R^T R give orthonormal V = W R^-1 x.
    try:
        Lc = np.linalg.cholesky(W.T @ W)  # G = Lc Lc^T, R = Lc^T
        B = symmetrize(Lc.T @ core @ Lc)
        w, E = np.linalg.eigh(B)
        order = np.argsort(-np.abs(w), kind="stable")[: min(r, len(w))]
        Lc_inv, info = scipy.linalg.lapack.dtrtri(Lc, lower=1)
        if info != 0:
            raise np.linalg.LinAlgError("triangular inverse failed")
        V = W @ (Lc_inv.T @ E[:, order])
        if np.abs(V.T @ V - np.eye(V.shape[1])).max() <= 1e-8:
            return V, w[order]
    except np.linalg.LinAlgError:
        pass
    # Rank-deficient W: orthonormalize explicitly and compress.
    Q = _orthonormalize(W)
    if Q.shape[1] == 0:
        return np.zeros((W.shape[0], 0)), np.zeros(0)
    C = Q.T @ W
    T = symmetrize(C @ core @ C.T)
    w, E = np.linalg.eigh(T)
    order = np.argsort(-np.abs(w), kind="stable")[: min(r, len(w))]
    return Q @ E[:, order], w[order]
