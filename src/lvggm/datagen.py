"""Synthetic ground-truth models, Gaussian sampling, and dataset ingestion.

The synthetic ensemble is fixed: a diagonal sparse part ``S*`` with entries
uniform in ``DIAG_RANGE = (1, 2)`` and a rank-r Gram low-rank part
``L* = G G^T`` rescaled to spectral norm ``SPECTRAL_NORM = 1``.  ``L*`` is
PSD, so ``lambda_min(theta*) >= min(s_diag) >= 1`` and every draw is
positive definite.  Everything is a pure function of its seed (modulo
``2**64``, as :func:`~lvggm.projections.rng_for` takes every seed).

Sampling draws the sample covariance's Wishart law exactly from Bartlett's
factor, with one TRSM against the Cholesky factor of ``theta*``, which is
never inverted, and one LAUUM; its cost does not depend on ``n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dlauum, dpotrf

from .linalg import NotPositiveDefiniteError, cholesky_logdet, symmetrize
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
        chol, _ = cholesky_logdet(self.theta_star)
        return chol.inverse


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


def _theta_factor(model):
    """Lower Cholesky factor ``R`` of ``J theta* J``, ``J`` the reversal."""
    R, info = dpotrf(model.theta_star[::-1, ::-1], lower=1, clean=1, overwrite_a=1)
    if info > 0:
        raise NotPositiveDefiniteError(f"theta* is not PD (leading minor {info})")
    return R


def sample_covariance(model, n, seed=0):
    """Empirical second-moment matrix of ``n`` draws from ``N(0, sigma*)``.

    The sum of the draws' outer products is Wishart(``sigma*``, n), and it
    is drawn exactly without drawing the samples (Bartlett 1933; Odell &
    Feiveson, JASA 1966): ``C = (Lc A)(Lc A)^T / n`` with
    ``sigma* = Lc Lc^T`` and ``A`` the ``p x m`` lower-trapezoidal Bartlett
    factor, ``m = min(n, p)``.  ``A`` holds ``sqrt(chi2(n - i))`` at
    diagonal entry ``i`` and standard normals below the diagonal.  For
    ``n < p`` it is the transposed R of a Gaussian QR, and ``C`` has rank
    ``n``.  From the ``(seed, 0xC0F)`` stream the ``m`` chi-square variates
    come first, then ``p * m`` normals fill ``A`` column by column, of
    which the strictly lower part is kept.  Reversed by ``J``, every factor
    is upper triangular: ``Lc = J R^-T J`` (:func:`_theta_factor`), one TRSM
    gives ``B = R^-T J A J / sqrt(n)`` (``J A J`` has ``p - m`` leading zero
    columns) and one LAUUM the upper triangle of ``B B^T``, both in place,
    from which ``C = J B B^T J`` is mirrored, exactly symmetric.  About
    ``5 p^3 / 3`` flops whatever ``n`` is, in about three ``p x p`` arrays.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p = model.p
    m = min(n, p)
    rng = rng_for(seed, 0xC0F)
    chi = np.sqrt(rng.chisquare(n - np.arange(m)))
    B = np.zeros((p, p), order="F")  # J A J
    B[:, p - m :] = np.tril(rng.standard_normal((m, p))[::-1, ::-1], p - m - 1).T
    B[range(p - m, p), range(p - m, p)] = chi[::-1]
    B = dtrsm(n**-0.5, _theta_factor(model), B, lower=1, trans_a=1, overwrite_b=1)
    T = dlauum(B, overwrite_c=1)[0][::-1, ::-1]  # the lower triangle of C
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
