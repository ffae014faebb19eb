"""Independent numerical oracles used only by the test suite.

These deliberately avoid the code paths they check: the eigensolver is a
cyclic Jacobi iteration (no LAPACK), the gradient oracle is plain central
finite differences, the Hessian oracle forms the Kronecker product
explicitly, the sampling oracle colours every draw before accumulating, and
the reference BK-SVD is plain numpy (block Gram-Schmidt and SVDs), sharing
nothing with the library's block-Krylov head.
The exceptions are ``allocating_sample_covariance``, which repeats the
sampler's arithmetic without its buffers and thread, so that the two can be
compared bit for bit, and ``dense_step_ep``, which runs the solvers' own
descent loop with the dense EP step, so that only the step differs.
"""

import numpy as np
from scipy.linalg import cholesky
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dtrtri

from lvggm import solvers
from lvggm.linalg import symmetrize
from lvggm.objective import gradient


def jacobi_evd(A, sweeps=100, tol=1e-14):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Returns ``(eigenvalues, eigenvectors)`` sorted descending.  Quadratic
    per sweep, accurate to near machine precision for small matrices.
    """
    A = np.array(A, dtype=np.float64)
    p = A.shape[0]
    V = np.eye(p)
    for _ in range(sweeps):
        off = 0.0
        for i in range(p - 1):
            for j in range(i + 1, p):
                off = max(off, abs(A[i, j]))
                if abs(A[i, j]) <= tol * max(1.0, abs(A[i, i]) + abs(A[j, j])):
                    continue
                # classic 2x2 rotation annihilating A[i, j]
                theta = (A[j, j] - A[i, i]) / (2.0 * A[i, j])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta**2 + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t**2 + 1.0)
                s = t * c
                J = np.eye(p)
                J[i, i] = c
                J[j, j] = c
                J[i, j] = s
                J[j, i] = -s
                A = J.T @ A @ J
                V = V @ J
        if off <= tol:
            break
    w = np.diag(A).copy()
    order = np.argsort(-w, kind="stable")
    return w[order], V[:, order]


def psd_clamp_truncate(A, r):
    """Brute-force EVD-clamp-truncate projection onto rank-r PSD matrices."""
    w, V = np.linalg.eigh((A + A.T) / 2.0)
    w = w[::-1]
    V = V[:, ::-1]
    w = np.maximum(w[:r], 0.0)
    return (V[:, :r] * w) @ V[:, :r].T


def bk_svd(A, k, seed):
    """Reference randomized block-Krylov SVD (Musco & Musco, NeurIPS 2015,
    Algorithm 2), the paper's head/tail projection.

    Builds the Krylov space ``[A W, (A A^T) A W, ..., (A A^T)^q A W]`` of a
    Gaussian ``n x k`` start block ``W`` at depth ``q = max(7, ceil(log2 m))``
    for an ``m x n`` array ``A``.  Each new block is orthogonalized against
    the previous ones (two block Gram-Schmidt passes) and re-orthonormalized
    by an SVD that drops directions below ``1e-10`` of the block's norm
    before the projection, so a space that stops growing ends the iteration.
    Returns ``(Z, Z Z^T A)``, ``Z`` the (at most ``k``) leading left
    singular vectors of ``A`` restricted to that space.
    """
    A = np.asarray(A, dtype=np.float64)
    m, n = A.shape
    depth = max(7, int(np.ceil(np.log2(max(m, 2)))))
    X = A @ np.random.default_rng(seed).standard_normal((n, k))
    blocks = []
    for _ in range(depth + 1):
        scale = np.linalg.norm(X, 2)
        for _ in range(2):
            for Q in blocks:
                X = X - Q @ (Q.T @ X)
        U, s, _ = np.linalg.svd(X, full_matrices=False)
        X = U[:, s > 1e-10 * scale]
        if X.shape[1] == 0:
            break
        blocks.append(X)
        X = A @ (A.T @ X)
    Q = np.hstack(blocks)
    Z = Q @ np.linalg.svd(Q.T @ A, full_matrices=False)[0][:, :k]
    return Z, Z @ (Z.T @ A)


def fd_factor_gradient(nll_fn, U, h=1e-5):
    """Central finite differences of ``nll_fn(U)`` with respect to the
    entries of the low-rank factor ``U`` (chain rule target: ``2 G U``)."""
    U = np.asarray(U, dtype=np.float64)
    out = np.zeros_like(U)
    for i in range(U.shape[0]):
        for j in range(U.shape[1]):
            Up = U.copy()
            Um = U.copy()
            Up[i, j] += h
            Um[i, j] -= h
            out[i, j] = (nll_fn(Up) - nll_fn(Um)) / (2.0 * h)
    return out


def kron_hessian_extremes(theta):
    """Extreme eigenvalues of the explicitly formed Kronecker Hessian
    ``theta^-1 (x) theta^-1``."""
    theta_inv = np.linalg.inv(theta)
    H = np.kron(theta_inv, theta_inv)
    w = np.linalg.eigvalsh((H + H.T) / 2.0)
    return float(w[0]), float(w[-1])


def loglog_slope(xs, ys):
    """Least-squares slope of log(ys) against log(xs)."""
    return float(np.polyfit(np.log(np.asarray(xs, float)),
                            np.log(np.asarray(ys, float)), 1)[0])


def reference_sample_covariance(model, n, seed=0):
    """Sample covariance by colouring each chunk of 8192 draws,
    ``X = Z Lc^T``, then accumulating ``X^T X``: the same draws as
    ``datagen.sample_covariance`` (same generator and order; chunking does
    not change the draws)."""
    Lc = np.linalg.cholesky((model.sigma_star + model.sigma_star.T) / 2.0)
    rng = np.random.default_rng([seed, 0xC0F])
    C = np.zeros((model.p, model.p))
    done = 0
    while done < n:
        m = min(8192, n - done)
        X = rng.standard_normal((m, model.p)) @ Lc.T
        C += X.T @ X
        done += m
    C /= n
    return (C + C.T) / 2.0


def allocating_sample_covariance(model, n, seed=0):
    """``datagen.sample_covariance`` with a fresh draw array per chunk and no
    worker thread: the same factor of the reversed ``theta*``, draws, 4096-row
    Gram blocks and triangular congruence, so the result must match bit for
    bit."""
    R = cholesky(model.theta_star[::-1, ::-1], lower=True)
    Lc = dtrtri(R, lower=1)[0][::-1, ::-1].T
    rng = np.random.default_rng([seed, 0xC0F])
    W = np.zeros((model.p, model.p))
    done = 0
    while done < n:
        m = min(4096, n - done)
        Z = rng.standard_normal((m, model.p))
        W += Z.T @ Z
        done += m
    C = dtrmm(1.0, Lc, dtrmm(1.0 / n, Lc, W, lower=1), side=1, lower=1, trans_a=1)
    return (C + C.T) / 2.0


def dense_step_ep(ctx, cfg, truth=None):
    """EP whose step forms the ``p x p`` gradient ``G`` and the iterate
    ``L`` and projects ``symmetrize(L - eta G)`` with ``psd_finalize``,
    through the solvers' own descent loop.  ``ep_lvm`` builds the same
    matrix from the gradient's Woodbury factors in one buffer."""

    def make_candidate(t, V, d, products):
        G = gradient(ctx, (V, d)).dense()
        base = (V * d) @ V.T

        def candidate(eta):
            V_new, d_new = solvers.psd_finalize(symmetrize(base - eta * G), cfg.rank)
            return V_new, d_new, None

        return candidate, False

    return solvers._descend(ctx, cfg, truth, make_candidate)
