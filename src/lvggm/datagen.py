"""Synthetic ground-truth models, Gaussian sampling, and dataset ingestion.

The synthetic ensemble uses a diagonal positive sparse part (which keeps it
PSD by construction) and a rank-r Gram low-rank part ``L* = G G^T`` rescaled
to a target spectral norm.  Everything is a pure function of its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import cholesky_logdet, symmetrize
from .matio import MatrixParseError, read_matrix

# Rows of standard-normal draws per chunk: bounds the draw buffer, and a fixed
# chunk keeps the Gram's summation order (hence the exact result) stable.
_SAMPLE_CHUNK = 8192


class GenerationError(Exception):
    """Synthetic model parameters produced an infeasible (non-PD) model."""


@dataclass
class GenParams:
    """Ensemble knobs: diagonal entries of ``S*`` are uniform over
    ``diag_range``; ``L*`` is rescaled so its spectral norm equals
    ``spectral_norm``."""

    diag_range: tuple = (1.0, 2.0)
    spectral_norm: float = 1.0


@dataclass
class SyntheticModel:
    """Ground-truth instance ``theta* = S* + L*`` with ``sigma* = theta*^-1``."""

    s_diag: np.ndarray
    L_factor: np.ndarray  # (p, r), L* = L_factor @ L_factor.T
    seed: int
    params: GenParams

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


def gen_model(p, r="auto", seed=0, params=None):
    """Draw a synthetic model; fully determined by ``(p, r, seed, params)``.

    ``r="auto"`` resolves to ``ceil(0.05 * p)`` (5% latent variables).
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    if r == "auto":
        r = int(math.ceil(0.05 * p))
    if not 1 <= r < p:
        raise ValueError(f"rank r={r} out of range [1, {p})")
    params = params or GenParams()
    lo, hi = params.diag_range
    if not (0 < lo <= hi) or params.spectral_norm <= 0:
        raise GenerationError(
            f"infeasible params: diag_range={params.diag_range}, "
            f"spectral_norm={params.spectral_norm}"
        )
    rng = np.random.default_rng([seed, 0xD47A])
    s_diag = rng.uniform(lo, hi, size=p)
    G = rng.standard_normal((p, r))
    top_sv = np.linalg.svd(G, compute_uv=False)[0]
    factor = G * (math.sqrt(params.spectral_norm) / top_sv)
    model = SyntheticModel(s_diag=s_diag, L_factor=factor, seed=seed, params=params)
    # L* is PSD, so lambda_min(theta*) >= min(s_diag): only a small diagonal
    # entry can violate the margin and needs the eigenvalue.
    if s_diag.min() < 0.5:
        lam_min = float(np.linalg.eigvalsh(model.theta_star)[0])
        if lam_min < 0.5:
            raise GenerationError(
                f"theta* PD margin {lam_min:.3e} below 0.5; adjust diag_range"
            )
    return model


def sample_covariance(model, n, seed=0):
    """Empirical second-moment matrix of ``n`` draws from ``N(0, sigma*)``.

    A draw is ``x = Lc z`` with ``sigma* = Lc Lc^T`` and ``z`` standard
    normal, so ``sum x x^T = Lc (Z^T Z) Lc^T``: the standard-normal rows are
    drawn in fixed-size chunks into one reused buffer, only their Gram is
    accumulated (a SYRK per chunk), and one ``p^3`` congruence by ``Lc``
    replaces colouring every draw (``n p^2``).  The draws are those of
    colouring each chunk before accumulating, and the result differs from
    that formula at roundoff only.  The exact floating-point result depends
    only on ``(model, n, seed)``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p = model.p
    Lc = np.linalg.cholesky(symmetrize(model.sigma_star))
    rng = np.random.default_rng([seed, 0xC0F])
    W = np.zeros((p, p))
    buf = np.empty((min(_SAMPLE_CHUNK, n), p))
    done = 0
    while done < n:
        Z = buf[: min(_SAMPLE_CHUNK, n - done)]
        rng.standard_normal(out=Z)
        W += Z.T @ Z
        done += Z.shape[0]
    del buf, Z  # free the draws before the congruence's temporaries
    return symmetrize(Lc @ (W / n) @ Lc.T)


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
