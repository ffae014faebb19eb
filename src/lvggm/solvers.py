"""Projected-gradient solvers for the low-rank latent component.

Both solvers run one loop, :func:`_descend`: from ``L = 0`` (no spectral
initialization) it iterates ``L <- P(L - eta * grad F(L))`` with
backtracking on the NLL.  The step starts at ``0.5 * lambda_min(S)^2``
(:func:`auto_step_size`) and halves on each rejected trial.  EP's first
trial at each later iteration is a Barzilai-Borwein step from ``r x r``
products, capped at twice the last accepted step, because each of its
rejected trials costs an eigensolve.  AP's step doubles after each
iteration accepted on its first trial with a strict decrease of the NLL and
has no cap: its rejected trial costs ``O(p r^2)``, so probing the doubled
step is nearly free.  The step size and the iterate are locals of the loop,
and each iteration is one row of the returned :class:`Trace`.  The solvers
differ only in ``P`` and that step rule:

* ``ep_lvm`` projects exactly onto the rank-r PSD cone as
  :func:`psd_finalize` does, from the ``r`` leading eigenpairs of a step
  matrix built in one buffer from the gradient's Woodbury factors; the
  eigensolver computes only those, but its tridiagonal reduction keeps the
  per-iteration cost cubic.
* ``ap_lvm`` takes the step on the tangent span ``span[V, G V]`` of the
  iterate's eigenvectors ``V``, followed by a tail projection of the step
  onto the rank-``r`` PSD cone, the set EP projects onto.  Only while the
  iterate has fewer than ``r`` columns (at ``L = 0``, or after the tail
  dropped a non-positive eigenvalue) does it add an approximate head
  projection of the gradient at rank ``2r``, onto a basis ``Z``, and step on
  ``span[V, Z, G V]``.  :func:`~lvggm.projections.extend_basis` builds the
  step's basis (floor ``_DEFLATION_TOL``, absolute) as it builds the
  block-Krylov head's (floor ``1e-10`` of each Krylov block's scale).

Iterates are carried in eigenform ``(V, d)`` with ``V`` column-orthonormal,
which keeps gradient evaluations at ``O(p^2 r)`` through the Woodbury
identity and error tracking against a known truth cheap.  Every candidate
returns its trial with the products ``(C V, S^-1 V)``, which the NLL takes
as they are and the next gradient takes ``S^-1 V`` from.  EP forms them
directly, one product and one solve per trial.  AP never forms the ``p x p``
gradient and forms them from the products on its span: at full rank its
only ``p x p`` products are one gradient-operator application and one
``S^-1`` solve (a band solve for a banded or diagonal ``S``), each on the
``r`` columns of ``G V``; a head adds its basis builder's applications.

:data:`PGD_ALGORITHMS` names the solver and projection backend pairs, and
:func:`fit_pgd` runs one by name for the CLI, the bench harness and the
scripts.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dgemm

from .linalg import NotPositiveDefiniteError, check_finite_symmetric, effective_rank
from .linalg import sym_evd, symmetrize
from .objective import as_eigenform, gradient, nll, secant_curvature
from .projections import ProjectionConfig, compress_symmetric, derived_seed
from .projections import extend_basis, head_project, psd_truncate

# AP drops a new step direction (a head column, or a column of G V scaled to
# unit Frobenius norm) whose residual against the iterate's basis is below
# this norm: it lies in that span up to the tolerance, and normalizing it
# would amplify roundoff into the basis and its carried products.
_DEFLATION_TOL = 1e-4

# Each rejected trial halves the step, at most this many times per
# iteration, before the descent gives up with a DivergedError.
_MAX_HALVINGS = 30

# Projected-gradient algorithm names and the head-projection backend each
# uses; EP projects exactly and never reads its backend.
PGD_ALGORITHMS = {
    "ep": "block-krylov",
    "ap-bk": "block-krylov",
    "ap-lanczos": "lanczos",
}


class DivergedError(Exception):
    """Step left the PD cone (or could not decrease the objective) even after
    exhausting the backtracking budget.  Carries the partial trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class InsufficientDataError(Exception):
    """Trace too short for the requested diagnostic."""


def is_integer(x):
    """Whether ``x`` is an integer that is not a bool (``True`` is no 1)."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


@dataclass
class SolverConfig:
    """Solver knobs; the step always starts at :func:`auto_step_size`."""

    rank: int
    max_iters: int = 600
    nll_tolerance: float = 1e-7
    true_nll_floor: float | None = None
    projection: ProjectionConfig = field(default_factory=ProjectionConfig)

    def __post_init__(self):
        for name in ("rank", "max_iters"):
            value = getattr(self, name)
            if not is_integer(value) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1")
        # chained comparisons are false for NaN, so NaN is rejected too; a
        # tolerance of 0 turns the NLL window off
        if not 0 <= self.nll_tolerance < np.inf:
            raise ValueError("nll_tolerance must be finite and >= 0")
        floor = self.true_nll_floor
        if floor is not None and not np.isfinite(floor):
            raise ValueError("true_nll_floor must be finite")


class LowRankEstimate(NamedTuple):
    """Rank-``k`` symmetric matrix in eigenform ``V @ diag(d) @ V.T``.

    It is an eigenform tuple ``(vectors, values)``, so every function that
    takes an estimate accepts it as is.
    """

    vectors: np.ndarray
    values: np.ndarray

    def dense(self):
        return symmetrize((self.vectors * self.values) @ self.vectors.T)

    def effective_rank(self):
        """Count of eigenvalues with magnitude above ``1e-8`` times the largest."""
        return effective_rank(self.values)


@dataclass
class Trace:
    """Per-iteration solver diagnostics; row ``i`` is iteration ``i``.

    ``rel_error`` entries are NaN when no ground truth was supplied.
    ``rho_hat`` is the fitted per-iteration contraction factor, when the
    trace is long enough to estimate one.
    """

    nll: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    eta: list = field(default_factory=list)
    halvings: list = field(default_factory=list)
    rank: list = field(default_factory=list)
    rel_error: list = field(default_factory=list)
    rho_hat: float | None = None
    status: str = ""
    degraded_projections: int = 0

    CSV_HEADER = "iter,nll,seconds,eta,halvings,rank,rel_error"

    def __len__(self):
        return len(self.nll)

    @property
    def total_halvings(self):
        return sum(self.halvings)

    @property
    def mean_iter_seconds(self):
        """Mean seconds per iteration, without the first unless it is alone
        (:class:`~lvggm.baseline.AdmmTrace` shares this rule)."""
        return float(np.mean(self.seconds[1:] or self.seconds))

    def append(self, nll_value, seconds, eta, halvings, rank, rel_error):
        self.nll.append(float(nll_value))
        self.seconds.append(float(seconds))
        self.eta.append(float(eta))
        self.halvings.append(int(halvings))
        self.rank.append(int(rank))
        self.rel_error.append(float(rel_error))

    def finish(self, status):
        """Set the stop ``status`` and, from 5 rows on, ``rho_hat``; returns
        the trace."""
        self.status = status
        if len(self) >= 5:
            self.rho_hat = contraction_estimate(self)
        return self

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.CSV_HEADER + "\n")
            for i in range(len(self)):
                rel = self.rel_error[i]
                rel_str = "" if np.isnan(rel) else f"{rel:.17g}"
                fh.write(
                    f"{i},{self.nll[i]:.17g},{self.seconds[i]:.9f},"
                    f"{self.eta[i]:.17g},{self.halvings[i]},{self.rank[i]},{rel_str}\n"
                )


def _eig_distance(V1, d1, V2, d2):
    """Frobenius distance between two eigenform matrices in ``O(p k^2)``."""
    cross = 0.0
    if d1.size and d2.size:
        M = V1.T @ V2
        cross = float(np.sum((d1[:, None] * M**2) * d2[None, :]))
    return float(
        np.sqrt(max(0.0, float(np.sum(d1**2)) + float(np.sum(d2**2)) - 2.0 * cross))
    )


def auto_step_size(ctx):
    """Certified conservative step ``0.5 * lambda_min(S*)^2``.

    The smoothness constant over PSD iterates is at most
    ``1 / lambda_min(S*)^2``, so this is a lower bound on ``0.5 / M``.  The
    descent starts here and halves the step on each rejected trial.  AP
    doubles it after each clean, strictly improving iteration, with no cap;
    EP takes a capped secant step, which never falls below this one.
    ``lambda_min`` comes from the context's factor of ``S*``, once per
    factor, by its route: one banded eigenvalue or a dense ``eigvalsh``.
    """
    return 0.5 * ctx.S_chol.min_eigenvalue**2


def _fit_contraction(errors):
    """Least-squares contraction factor from an error (or NLL-gap) series.

    Fits the slope of ``log(e_t - floor)`` against ``t`` over the pre-plateau
    segment (points still above 0.1% of the observed range) and returns
    ``exp(slope)``.  A flat series yields 1.0.
    """
    e = np.asarray(errors, dtype=np.float64)
    e = e[np.isfinite(e)]
    if e.size < 5:
        raise InsufficientDataError(
            f"need >= 5 finite error values, got {e.size}"
        )
    floor = float(e.min())
    shifted = e - floor
    span = float(e.max()) - floor
    if span <= 0.0:
        return 1.0
    keep = shifted > 1e-3 * span
    idx = np.nonzero(keep)[0]
    if idx.size < 2:
        return 1.0
    slope = np.polyfit(idx.astype(float), np.log(shifted[idx]), 1)[0]
    return float(np.exp(slope))


def contraction_estimate(trace):
    """Empirical per-iteration contraction factor ``rho_hat``.

    Accepts a :class:`Trace` (uses relative errors when a truth was supplied
    to the solver, otherwise the NLL series as a gap-to-plateau proxy) or a
    plain error sequence.
    """
    if isinstance(trace, Trace):
        rel = np.asarray(trace.rel_error, dtype=np.float64)
        if np.isfinite(rel).sum() >= 5:
            return _fit_contraction(rel)
        return _fit_contraction(np.asarray(trace.nll, dtype=np.float64))
    return _fit_contraction(trace)


def psd_finalize(L, r):
    """Project an estimate onto the rank-``r`` PSD cone: keep its ``r``
    largest eigenvalues and drop the negative ones.

    This is the exact projection EP steps with.  A dense ``(p, p)`` ``L``
    is checked finite and symmetric, and :func:`~lvggm.linalg.sym_evd`
    computes only its ``min(r, p)`` leading eigenpairs.  Any other form
    :func:`~lvggm.objective.as_eigenform` takes is normalized by it.  The
    eigenform is then sorted, cut and clamped in ``O(p r)`` by
    :func:`~lvggm.projections.psd_truncate`, as AP's tail is.
    """
    shape = () if isinstance(L, tuple) else np.shape(L)
    if len(shape) == 2 and shape[0] == shape[1]:
        L = sym_evd(check_finite_symmetric(L), min(r, shape[0]))
    V, d = psd_truncate(*as_eigenform(L), r)
    return LowRankEstimate(np.ascontiguousarray(V), d)


def _accept(ctx, candidate, current_nll, eta, trace):
    """Backtracking acceptance loop.

    ``candidate(eta)`` produces a trial eigenform ``(V, d)`` for the given
    step size and its products ``(C V, S^-1 V)``.  A trial is rejected when
    ``S + L`` leaves the PD cone (Cholesky failure) or the NLL increases
    beyond a roundoff slack; the step then halves, at most
    ``_MAX_HALVINGS`` times, before a :class:`DivergedError` carries
    ``trace`` finished as ``"diverged"``.
    Returns ``(V, d, products, nll, eta, halvings, improved)`` with the
    accepted step size ``eta``.
    """
    slack = 1e-12 * max(1.0, abs(current_nll))
    halvings = 0
    while True:
        V, d, products = candidate(eta)
        try:
            value = nll(ctx, (V, d), products)
            if value <= current_nll + slack:
                improved = value < current_nll - slack
                return V, d, products, value, eta, halvings, improved
        except NotPositiveDefiniteError:
            pass
        halvings += 1
        if halvings > _MAX_HALVINGS:
            raise DivergedError(
                f"no acceptable step after {_MAX_HALVINGS} halvings",
                trace.finish("diverged"),
            )
        eta *= 0.5


def _stop_status(cfg, nlls, moved, scale):
    """The stop status after an iteration, or None to go on.

    ``nlls`` is the accepted NLL series, ``moved`` the distance the iterate
    moved and ``scale`` the norm of the iterate it moved from.
    """
    if cfg.true_nll_floor is not None and nlls[-1] <= cfg.true_nll_floor:
        return "reached-floor"
    if moved <= 1e-13 * max(1.0, scale):
        return "stationary"
    if cfg.nll_tolerance > 0 and len(nlls) >= 6:
        if abs(nlls[-6] - nlls[-1]) <= cfg.nll_tolerance * max(1.0, abs(nlls[-1])):
            return "nll-window"
    return None


def _descend(ctx, cfg, truth, make_candidate, secant=False):
    """The descent loop ``L <- P(L - eta * grad F(L))`` from ``L = 0``.

    Each iteration takes the gradient ``G`` of its iterate once, from the
    carried ``S^-1 V``.  ``make_candidate(t, V, d, products, G)`` sees
    iteration ``t``'s iterate, the products ``(C V, S^-1 V)`` its candidate
    returned and ``G``, and returns ``(candidate, degraded)``:
    ``candidate(eta)`` gives the projected step as an eigenform with its
    products (see :func:`_accept`), and ``degraded`` flags an approximate
    projection that fell short.

    The step starts at :func:`auto_step_size` and halves on each rejected
    trial.  With ``secant``, each later iteration's first trial is the
    Barzilai-Borwein step of the last iterate and gradient change, clamped
    to ``[auto_step_size, 2 eta]`` for the last accepted ``eta``; otherwise
    the step doubles after each iteration accepted on its first trial with
    a strict decrease.  Returns ``(LowRankEstimate, Trace)``.
    """
    p = ctx.p
    if cfg.rank > p:
        raise ValueError(f"rank {cfg.rank} exceeds dimension {p}")
    eta0 = eta = auto_step_size(ctx)
    if truth is not None:
        truth = as_eigenform(truth, p)
        truth_norm = float(np.sqrt(np.sum(truth[1] ** 2))) or 1.0
    trace = Trace()
    V = np.zeros((p, 0))
    d = np.zeros(0)
    products = (V, V)  # C V and S^-1 V of L = 0
    current_nll = nll(ctx, (V, d), products)
    status = "max-iters"
    for t in range(cfg.max_iters):
        tic = time.perf_counter()
        G = gradient(ctx, (V, d), products[1])
        if secant and t:
            # the Barzilai-Borwein step <s,s>/<s,y> of the last iterate change
            # s (||s|| = moved) and gradient change y, at most twice the last
            # accepted step.  F is convex with curvature at most
            # 1/lambda_min(S)^2 along PSD iterates, so in exact arithmetic
            # <s,y> > 0 and the step is at least lambda_min(S)^2 = 2 eta0: the
            # eta0 floor and keeping eta at <s,y> <= 0 only guard against
            # roundoff in <s,y>, a difference of four terms
            curvature = secant_curvature((V_old, d_old), G_old, (V, d), G)
            if curvature > 0.0:
                eta = min(2.0 * eta, max(eta0, moved**2 / curvature))
        candidate, degraded = make_candidate(t, V, d, products, G)
        trace.degraded_projections += int(degraded)
        V_new, d_new, products, new_nll, eta, halvings, improved = _accept(
            ctx, candidate, current_nll, eta, trace
        )
        seconds = time.perf_counter() - tic
        moved = _eig_distance(V_new, d_new, V, d)
        scale = float(np.sqrt(np.sum(d**2)))
        rel_error = (
            float("nan") if truth is None
            else _eig_distance(V_new, d_new, *truth) / truth_norm
        )
        trace.append(new_nll, seconds, eta, halvings, effective_rank(d_new), rel_error)
        V_old, d_old, G_old = V, d, G
        V, d, current_nll = V_new, d_new, new_nll
        stop = _stop_status(cfg, trace.nll, moved, scale)
        if stop:
            status = stop
            break
        # double only after a step accepted on its first trial with a strict
        # decrease: an overshooting step oscillates near the optimum without
        # decreasing the NLL, so growing it there would only feed halvings
        if not secant and halvings == 0 and improved:
            eta *= 2.0
    return LowRankEstimate(V, d), trace.finish(status)


def ep_lvm(ctx, cfg, truth=None):
    """Exact-projection solver: ``L <- P_r^+(L - eta * grad F(L))``.

    Starts from ``L = 0``.  ``P_r^+`` is :func:`psd_finalize`'s clamp of
    the ``r`` leading eigenpairs of the step matrix :func:`_ep_step`, so
    every iterate is PSD with rank at most ``r``.  Returns
    ``(LowRankEstimate, Trace)``.
    """
    A, r = np.empty((ctx.p, ctx.p), order="F"), cfg.rank

    def make_candidate(t, V, d, products, G):
        def candidate(eta):
            V_new, d_new = psd_finalize(sym_evd(_ep_step(ctx, V, d, G, eta, A), r), r)
            return V_new, d_new, (ctx.C @ V_new, ctx.S_chol.solve(V_new))

        return candidate, False

    return _descend(ctx, cfg, truth, make_candidate, secant=True)


def _ep_step(ctx, V, d, G, eta, out):
    """EP's step ``V diag(d) V^T - eta G``, ``G = residual0 + M K M^T``, in
    the Fortran-order buffer ``out``: ``-eta residual0`` (exactly symmetric,
    so written through ``out.T``) plus ``[V, M] diag(d, -eta K) [V, M]^T``
    by one GEMM in place.  Symmetric up to roundoff; read its lower triangle."""
    np.multiply(ctx.residual0, -eta, out=out.T)
    M, K = G.woodbury
    left = np.hstack([V * d, M @ (-eta * K)])
    dgemm(1.0, left, np.hstack([V, M]), 1.0, out, trans_b=1, overwrite_c=1)
    return out


def _ap_candidate(ctx, cfg, t, V, d, products, G):
    """AP's ``make_candidate`` for :func:`_descend` (see :func:`ap_lvm`).

    The step's span is ``[V, G V]``, with the Krylov head ``Z`` between them
    only while ``d`` has fewer than ``cfg.rank`` entries; ``degraded`` is
    that head's flag, and ``False`` when no head ran.  ``G V`` comes from the
    carried products and is scaled to unit Frobenius norm, so that
    ``_DEFLATION_TOL`` is relative to it.
    """
    CV, M = products
    GV = CV - M + G.low_rank(V)
    scale = np.linalg.norm(GV)
    X = GV / scale if scale else GV
    GX = G @ X
    degraded = False
    if d.size < cfg.rank:
        # the tangent span cannot fill a rank-deficient iterate (L = 0 has
        # no GV at all): the Krylov head of the gradient adds the directions
        pcfg = dataclasses.replace(
            cfg.projection, seed=derived_seed(cfg.projection.seed, 3, t)
        )
        head = head_project(G, min(2 * cfg.rank, ctx.p), pcfg)
        X, GX = np.hstack([head.basis, X]), np.hstack([head.products, GX])
        degraded = head.degraded
    SX = ctx.S_chol.solve(X)
    # products of W = [V, X]; U = [V, Y] = W @ B with Y = (X - V H) T
    W = np.hstack([V, X])
    GW = np.hstack([GV, GX])
    CW = np.hstack([CV, GX + SX - G.low_rank(X)])
    SW = np.hstack([M, SX])
    Y, H, T = extend_basis(V, X, _DEFLATION_TOL)
    U = np.hstack([V, Y])
    k = d.size
    B = np.block([[np.eye(k), -H @ T], [np.zeros((X.shape[1], k)), T]])
    UGU = symmetrize(B.T @ (W.T @ GW) @ B)

    def candidate(eta):
        core = -eta * UGU
        core[:k, :k] += np.diag(d)
        V_new, d_new = compress_symmetric(U, core, cfg.rank)
        F = B @ (U.T @ V_new)
        return V_new, d_new, (CW @ F, SW @ F)

    return candidate, degraded


def ap_lvm(ctx, cfg, truth=None):
    """Approximate-projection solver.

    An iterate with ``r`` columns takes its step on ``U = [V, Y]``, an
    orthonormal basis of the tangent span ``span[V, G V]``:
    :func:`~lvggm.projections.extend_basis` gives ``Y = (X - V H) T`` for
    ``X = G V / ||G V||_F`` and drops the directions within
    ``_DEFLATION_TOL`` of ``span V``.  The candidate is the rank-``r`` PSD
    tail projection of ``(U^T V) diag(d) (U^T V)^T - eta U^T G U`` with
    ``U^T V = [I; 0]``, that is ``T_r(L - eta P_U G P_U)``.  ``P_U G P_U``
    is the tangent-space gradient ``P_V G + G P_V - P_V G P_V`` plus ``G``'s
    block ``Y Y^T G Y Y^T``, so up to that block the step is Riemannian
    gradient descent on the rank-``r`` manifold with the
    truncated-eigendecomposition retraction (Vandereycken, SIAM J. Optim.
    2013; Wei, Cai, Chan & Leung, SIAM J. Matrix Anal. Appl. 2016).  The
    step matrix is explicitly rank ``<= 2r``, so the tail projection is
    :func:`compress_symmetric` of its factored form.

    This departs from the paper, whose step is a head projection of the
    gradient with ``c_H = 0.9``.  ``span[V, G V]`` is not one: on sampled
    instances it keeps a median of 0.40-0.47 of the best rank-``2r``
    gradient energy (desk size; at least 0.96 on a noiseless instance), as
    measured in ROADMAP.md, "Measured at this re-anchor", section B.  The
    energy it misses lies in the normal space, which the rank-``r`` tail
    discards anyway, and the fits end at EP's NLL.

    The head runs only while the iterate has fewer than ``r`` columns: at
    ``L = 0``, or after the PSD tail dropped a non-positive eigenvalue.  It
    head-projects the gradient at rank ``2r`` (randomized block-Krylov or
    Lanczos) onto a basis ``Z``, which a degraded head returns with the
    fewer columns it found, and the span is ``[V, Z, G V]``.  The two-sided
    projection onto a subspace that contains ``Z`` captures at least ``Z``'s
    energy, so that step is a head projection in its own right.  The
    trace's degraded count counts only those heads.

    The only ``p x p`` products are one gradient application ``G (G V)`` and
    one ``S^-1 G V`` solve (a band solve for a banded or diagonal ``S``),
    plus the head's.  ``C V`` and ``M = S^-1 V`` of the accepted iterate are
    carried over, so ``G V = C V - M + M K M^T V``; ``C X = G X + S^-1 X -
    M K M^T X`` for the span's new columns ``X``, whose ``G Z`` comes from
    the head's Krylov products; and each trial ``V_new = U E`` gets
    ``C V_new`` and ``S^-1 V_new`` from the products on ``[V, X]``, which the
    NLL and the next gradient take as they are.
    """
    return _descend(ctx, cfg, truth, functools.partial(_ap_candidate, ctx, cfg))


def fit_pgd(algo, ctx, rank, seed=0, truth=None, **knobs):
    """Fit with the projected-gradient algorithm named ``algo``.

    ``algo`` is a key of :data:`PGD_ALGORITHMS`; ``seed`` seeds the
    randomized projections and ``knobs`` are further
    :class:`SolverConfig` fields.  Returns ``(LowRankEstimate, Trace)``.
    """
    if algo not in PGD_ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; one of {sorted(PGD_ALGORITHMS)}")
    cfg = SolverConfig(
        rank=rank,
        projection=ProjectionConfig(seed=seed, backend=PGD_ALGORITHMS[algo]),
        **knobs,
    )
    solver = ep_lvm if algo == "ep" else ap_lvm
    return solver(ctx, cfg, truth)
