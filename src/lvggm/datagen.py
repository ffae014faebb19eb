"""Synthetic ground-truth models, Gaussian sampling, and dataset ingestion.

The synthetic ensemble is fixed: a diagonal sparse part ``S*`` with entries
uniform in ``DIAG_RANGE = (1, 2)`` and a rank-r Gram low-rank part
``L* = G G^T`` rescaled to spectral norm ``SPECTRAL_NORM = 1``.  ``L*`` is
PSD, so ``lambda_min(theta*) >= min(s_diag) >= 1`` and every draw is
positive definite.  Everything is a pure function of its seed (modulo
``2**64``, as :func:`~lvggm.projections.rng_for` takes every seed).

Sampling draws the sample covariance's Wishart law exactly from Bartlett's
factor, coloured by the diagonal-plus-low-rank square root of ``sigma*``
(:func:`_sigma_root`) with one LAUUM and ``O(p^2 r)`` more; its cost does
not depend on ``n``, and ``theta*`` is never factored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsymm, dsyr2k
from scipy.linalg.lapack import dlauum

from .linalg import NotPositiveDefiniteError, symmetrize
from .matio import MatrixParseError, read_matrix
from .projections import rng_for

# The one synthetic ensemble (module docstring).
DIAG_RANGE = (1.0, 2.0)
SPECTRAL_NORM = 1.0


@dataclass
class SyntheticModel:
    """Ground-truth instance ``theta* = S* + L*`` with ``sigma* = theta*^-1``;
    :func:`gen_model` draws it from the ensemble."""

    s_diag: np.ndarray
    L_factor: np.ndarray  # (p, r), L* = L_factor @ L_factor.T

    @property
    def p(self):
        return self.s_diag.shape[0]

    @property
    def r(self):
        return self.L_factor.shape[1]

    @property
    def S_star(self):
        return np.diag(self.s_diag)

    @property
    def L_star(self):
        return self.L_factor @ self.L_factor.T

    @property
    def theta_star(self):
        return symmetrize(self.S_star + self.L_star)

    @property
    def sigma_star(self):
        w, U, gamma = _sigma_root(self)  # sigma* = F F^T
        wU = w[:, None] * U
        K = (wU * (gamma * (gamma - 2.0))) @ wU.T  # from (I - U diag(gamma) U^T)^2
        K.flat[:: self.p + 1] += w * w
        return symmetrize(K)


def gen_model(p, r="auto", seed=0):
    """Draw a model of the ensemble; fully determined by ``(p, r, seed)``.

    ``r="auto"`` resolves to ``ceil(0.05 * p)`` (5% latent variables).
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    if r == "auto":
        r = int(math.ceil(0.05 * p))
    if not 1 <= r < p:
        raise ValueError(f"rank r={r} out of range [1, {p})")
    rng = rng_for(seed, 0xD47A)
    s_diag = rng.uniform(*DIAG_RANGE, size=p)
    G = rng.standard_normal((p, r))
    top_sv = np.linalg.svd(G, compute_uv=False)[0]
    return SyntheticModel(s_diag, G * (math.sqrt(SPECTRAL_NORM) / top_sv))


def _sigma_root(model):
    """Root ``F = diag(w) (I - U diag(gamma) U^T)`` of ``sigma*``, as ``(w, U, gamma)``.

    With ``w = s^-1/2`` and the thin SVD ``U diag(sigma) V^T`` of
    ``H = diag(w) L_factor``, ``theta* = diag(w)^-1 (I + H H^T) diag(w)^-1``,
    and ``gamma = 1 - (1 + sigma^2)^-1/2`` makes ``I - U diag(gamma) U^T`` the
    principal root ``(I + H H^T)^-1/2``, whatever the SVD's signs.  ``O(p r^2)``
    flops.  Every entry of ``s`` must be positive, as in the ensemble.
    """
    i = np.argmin(model.s_diag > 0)  # the first entry that is not positive, or NaN
    if not model.s_diag[i] > 0:
        raise NotPositiveDefiniteError(f"S* is not PD: s_diag[{i}] = {model.s_diag[i]}")
    w = model.s_diag**-0.5
    U, sigma, _ = np.linalg.svd(w[:, None] * model.L_factor, full_matrices=False)
    return w, U, 1.0 - (1.0 + sigma**2) ** -0.5


def sample_covariance(model, n, seed=0):
    """Empirical second-moment matrix of ``n`` draws from ``N(0, sigma*)``.

    The sum of the draws' outer products is Wishart(``sigma*``, n), drawn
    exactly without the samples (Bartlett 1933; Odell & Feiveson, JASA 1966):
    ``C = (F A)(F A)^T / n`` for any root ``F`` of ``sigma*``, here
    :func:`_sigma_root`'s, and ``A`` the ``p x m`` lower-trapezoidal Bartlett
    factor, ``m = min(n, p)``: ``sqrt(chi2(n - i))`` at diagonal entry ``i``,
    standard normals below it; for ``n < p``, ``C`` has rank ``n``.  The
    ``(seed, 0xC0F)`` stream gives the ``m`` chi-square variates, then the
    normals of ``A``'s strictly lower part, column by column, top to bottom.
    ``J A J`` (``J`` the reversal) is upper triangular, so one LAUUM forms the
    upper triangle of ``W = J A A^T J`` in place.  One SYMM, ``Y = W U``, and
    one in-place SYR2K apply ``I - U G U^T``, ``G = diag(gamma)``, reversed,
    on both sides: ``W - Z U^T - U Z^T``, ``Z = Y G - U G (U^T Y) G / 2``.
    Scaled by ``w`` and mirrored, that gives an exactly symmetric ``C``, in
    about ``p^3 / 3 + 4 p^2 r`` flops whatever ``n`` is and two ``p x p`` arrays.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p = model.p
    m = min(n, p)
    w, U, gamma = _sigma_root(model)
    w, U = w[::-1], np.asfortranarray(U[::-1])
    rng = rng_for(seed, 0xC0F)
    W = np.zeros((p, p), order="F")  # J A J, then the upper triangle of W
    W[range(p - m, p), range(p - m, p)] = np.sqrt(rng.chisquare(n - np.arange(m)))[::-1]
    # column by column, J A J's strictly upper part holds A's normals reversed
    upper = np.tri(m, p, k=p - m - 1, dtype=bool)
    W.T[p - m :][upper] = rng.standard_normal(np.count_nonzero(upper))[::-1]
    W = dlauum(W, overwrite_c=1)[0]
    Z = dsymm(1.0, W, U)  # Y = W U
    Z -= U @ (0.5 * gamma[:, None] * (U.T @ Z))
    Z *= gamma
    W = dsyr2k(-1.0 / n, Z, U, beta=1.0 / n, c=W, overwrite_c=1)
    del upper, Z, U  # the draw's peak is W and C alone
    W *= w
    W *= w[:, None]
    T = W[::-1, ::-1]  # the lower triangle of C
    C = np.add(T, T.T, order="C")
    C.flat[:: p + 1] /= 2
    return C


def load_dataset(path, skip_header=0):
    """Load a samples matrix (n rows, p columns; CSV or binary) and return
    ``(C, n, p)`` with ``C`` the column-centered sample covariance
    ``(1/n) sum x_i x_i^T``.
    """
    X = read_matrix(path, skip_header=skip_header)
    if X.ndim != 2 or X.shape[0] < 1:
        raise MatrixParseError(f"{path}: expected an n x p samples matrix")
    n, p = X.shape
    X = X - X.mean(axis=0, keepdims=True)
    C = symmetrize(X.T @ X / n)
    return C, n, p
