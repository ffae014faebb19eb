"""Independent numerical oracles used only by the test suite.

These deliberately avoid the code paths they check: the eigensolver is a
cyclic Jacobi iteration (no LAPACK), the gradient oracle is plain central
finite differences, the Hessian oracle forms the Kronecker product
explicitly, the sampling oracle rebuilds Bartlett's factor by index and
colours it by a dense root of ``sigma*`` from ``eigh`` (not the library's
thin SVD, LAUUM and rank-2r update), and the reference BK-SVD is
plain numpy (block Gram-Schmidt and SVDs), sharing nothing with the
library's block-Krylov head.
The exception is ``dense_step_ep``, which runs the solvers' own descent loop
with the dense EP step, so that only the step differs.  ``lanczos_rowmajor``
is the Lanczos loop on row-major storage with a general matrix-vector
product per step, which the library's column-major loop replaced.
"""

import numpy as np

from lvggm import solvers
from lvggm.linalg import symmetrize


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


def bartlett_sample_covariance(model, n, seed=0):
    """Wishart(``sigma*``, n) / n from Bartlett's factor, in plain numpy.

    Reads the stream of ``datagen.sample_covariance`` in its documented
    order: ``m = min(n, p)`` chi-square variates with ``n - i`` degrees of
    freedom, then the normals of the strictly lower part of a ``p x m``
    array, column by column, below the chi roots.  Colours it by the
    principal root ``diag(s^-1/2) (I + H H^T)^-1/2`` of ``sigma*``,
    ``H = diag(s^-1/2) L_factor``, built densely from one ``eigh``."""
    p = model.p
    m = min(n, p)
    rng = np.random.default_rng([seed, 0xC0F])
    chi = np.sqrt(rng.chisquare(n - np.arange(m)))
    cols, rows = np.triu_indices(m, 1, p)  # (j, i), i > j, by column j
    A = np.zeros((p, m))
    A[rows, cols] = rng.standard_normal(rows.size)
    A[np.arange(m), np.arange(m)] = chi
    w = model.s_diag**-0.5
    H = w[:, None] * model.L_factor
    lam, V = np.linalg.eigh(H @ H.T)
    X = w[:, None] * ((V * (1.0 + lam) ** -0.5) @ V.T) @ A
    return X @ X.T / n


def dense_step_ep(ctx, cfg, truth=None):
    """EP whose step forms the ``p x p`` gradient ``G`` and the iterate
    ``L`` and projects ``symmetrize(L - eta G)`` with ``psd_finalize``,
    through the solvers' own descent loop and EP's secant step rule.
    ``ep_lvm`` builds the same matrix from the gradient's Woodbury factors
    in one buffer."""

    def make_candidate(t, V, d, products, G):
        G = G.dense()
        base = (V * d) @ V.T

        def candidate(eta):
            V_new, d_new = solvers.psd_finalize(symmetrize(base - eta * G), cfg.rank)
            return V_new, d_new, (None, None)

        return candidate, False

    return solvers._descend(ctx, cfg, truth, make_candidate, secant=True)


def lanczos_rowmajor(A, k, rng):
    """``(Q, A Q, Q^T A Q)`` of ``projections._lanczos_basis`` from a
    row-major ``Q`` and ``A Q`` and a dense ``A @ q`` (numpy's GEMV on an
    operator's :meth:`dense` matrix), the same Krylov space, step count,
    breakdown rule and two reorthogonalization passes."""
    A = np.asarray(A)
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
