"""Synthetic ground-truth models, Gaussian sampling, and dataset ingestion.

The synthetic ensemble is fixed: a diagonal sparse part ``S*`` with entries
uniform in ``DIAG_RANGE = (1, 2)`` and a rank-r Gram low-rank part
``L* = G G^T`` rescaled to spectral norm ``SPECTRAL_NORM = 1``.  ``L*`` is
PSD, so ``lambda_min(theta*) >= min(s_diag) >= 1`` and every draw is
positive definite.  Everything is a pure function of its seed (modulo
``2**64``, as :func:`~lvggm.projections.rng_for` takes every seed).

Sampling accumulates the Gram of standard-normal draws and colours it once
with the Cholesky factor of ``sigma*``, which is formed from ``theta*``
without inverting it.  When a core is spare, one worker thread draws the
next chunk into one of two buffers while the calling thread adds the
current one to the Gram; otherwise one buffer is drawn and summed in turn.
The result is a pure function of the seed either way.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dpotrf, dtrtri

from .linalg import NotPositiveDefiniteError, cholesky_logdet, symmetrize
from .matio import MatrixParseError, read_matrix
from .projections import rng_for

# Rows of standard-normal draws per chunk.  Two chunk buffers bound the draw
# memory at 2 * 4096 rows, and the fixed chunk keeps the Gram's summation
# order (hence the exact result) stable.
_SAMPLE_CHUNK = 4096

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


def _sigma_factor(model):
    """Lower Cholesky factor ``Lc`` of ``sigma* = theta*^-1``, from ``theta*``.

    With ``J`` the reversal matrix and ``J theta* J = R R^T`` (``R`` lower),
    ``sigma* = (J R^-T J)(J R^-T J)^T`` and ``J R^-T J`` is lower triangular
    with a positive diagonal: one Cholesky and one triangular inverse replace
    forming ``sigma*`` and factoring it.  Returned in Fortran order, the
    layout BLAS reads without a copy.
    """
    R, info = dpotrf(model.theta_star[::-1, ::-1], lower=1, clean=1, overwrite_a=1)
    if info > 0:
        raise NotPositiveDefiniteError(
            f"theta* is not positive definite (leading minor {info})"
        )
    R_inv, _ = dtrtri(R, lower=1, overwrite_c=1)
    return np.asfortranarray(R_inv[::-1, ::-1].T)


def _spare_core():
    """Whether a draw thread can run beside the Gram on a core of its own.

    Not in a process-pool worker (``lvggm bench --workers``), whose sibling
    processes keep the cores busy, nor on one core: there the thread only
    adds hand-offs (p=100, n=40000 on a 2-core Xeon: 11% slower than
    inline with the other core busy, 8% slower on one core).
    """
    if multiprocessing.parent_process() is not None:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def sample_covariance(model, n, seed=0):
    """Empirical second-moment matrix of ``n`` draws from ``N(0, sigma*)``.

    A draw is ``x = Lc z`` with ``sigma* = Lc Lc^T`` and ``z`` standard
    normal, so ``sum x x^T = Lc (Z^T Z) Lc^T``: the standard-normal rows are
    drawn in chunks of 4096, only their Gram is accumulated (a SYRK per
    chunk), and one congruence by the triangular ``Lc`` (two TRMMs) replaces
    colouring every draw (``n p^2``).  ``Lc`` comes from the Cholesky factor
    of the reversed ``theta*`` (:func:`_sigma_factor`), so ``sigma*`` is
    never formed.

    When a core is spare (:func:`_spare_core`), a single worker thread
    draws chunk ``i + 1`` into one of two buffers while the calling thread
    adds chunk ``i``, in the other, to the Gram; the generator releases the
    interpreter lock while it fills, so the two overlap.  Otherwise the
    calling thread draws each chunk before adding it.  Either way the draws
    and the sums run in the same fixed order, so the exact floating-point
    result depends only on ``(model, n, seed)``.  The worker is joined
    before the function returns.  The draws are those of colouring each
    chunk before accumulating, and the result differs from that formula at
    roundoff only.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p = model.p
    Lc = _sigma_factor(model)
    rng = rng_for(seed, 0xC0F)
    W = np.zeros((p, p))
    rows = [min(_SAMPLE_CHUNK, n - start) for start in range(0, n, _SAMPLE_CHUNK)]
    overlap = _spare_core()
    # drawn in place, each chunk needs a buffer only until it is summed
    bufs = [np.empty((rows[0], p)) for _ in rows[: 2 if overlap else 1]]

    def draw(i):  # returns nothing, so no future keeps a buffer alive
        rng.standard_normal(out=bufs[i % len(bufs)][: rows[i]])

    def add(i):
        Z = bufs[i % len(bufs)][: rows[i]]
        W[...] += Z.T @ Z

    if overlap:
        with ThreadPoolExecutor(max_workers=1) as pool:
            pending = pool.submit(draw, 0)
            for i in range(len(rows)):
                pending.result()
                if i + 1 < len(rows):
                    # chunk i - 1's buffer is free: its sum finished last pass
                    pending = pool.submit(draw, i + 1)
                add(i)
    else:
        for i in range(len(rows)):
            draw(i)
            add(i)
    del bufs  # free the draws before the congruence's temporaries
    LcW = dtrmm(1.0 / n, Lc, W, lower=1)
    return symmetrize(dtrmm(1.0, Lc, LcW, side=1, lower=1, trans_a=1, overwrite_b=1))


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
