"""Projected-gradient solvers for the low-rank latent component.

Both solvers run one loop, :func:`_descend`: from ``L = 0`` (no spectral
initialization) it iterates ``L <- P(L - eta * grad F(L))`` with
backtracking on the NLL, and differs between solvers only in ``P``:

* ``ep_lvm`` projects exactly onto the rank-r PSD cone through a full
  eigendecomposition per iteration (cubic per-iteration cost).
* ``ap_lvm`` replaces the exact projection with an approximate head
  projection of the gradient at rank ``2r`` followed by an approximate tail
  projection of the step at rank ``r``; iterates may carry small negative
  eigenvalues and are not PSD-finalized unless requested.

Iterates are carried in eigenform ``(V, d)`` with ``V`` column-orthonormal,
which keeps gradient evaluations at ``O(p^2 r)`` through the Woodbury
identity and makes error tracking against a known truth cheap.  AP never
forms the ``p x p`` gradient with the block-Krylov backend: the head
projection applies the gradient operator to blocks, and its Ritz values give
the compressed head step ``Z^T G Z``.

:data:`PGD_ALGORITHMS` names the solver and projection backend pairs, and
:func:`fit_pgd` runs one by name for the CLI, the bench harness and the
scripts.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import NotPositiveDefiniteError, effective_rank, sym_evd, symmetrize
from .objective import as_eigenform, gradient, nll
from .projections import ProjectionConfig, compress_symmetric, head_project

_SEED_MASK = 2**64 - 1

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


@dataclass
class BacktrackingConfig:
    """Each rejected trial halves the step, at most ``max_halvings`` times."""

    max_halvings: int = 30


@dataclass
class SolverConfig:
    """Solver knobs; ``step_size="auto"`` resolves via :func:`auto_step_size`."""

    rank: int
    step_size: float | str = "auto"
    max_iters: int = 600
    nll_tolerance: float = 1e-7
    true_nll_floor: float | None = None
    projection: ProjectionConfig = field(default_factory=ProjectionConfig)
    backtracking: BacktrackingConfig = field(default_factory=BacktrackingConfig)
    trace_every: int = 1

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.step_size != "auto" and not float(self.step_size) > 0:
            raise ValueError("step_size must be positive or 'auto'")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.trace_every < 1:
            raise ValueError("trace_every must be >= 1")


class LowRankEstimate(NamedTuple):
    """Rank-``k`` symmetric matrix in eigenform ``V @ diag(d) @ V.T``.

    It is an eigenform tuple ``(vectors, values)``, so every function that
    takes an estimate accepts it as is.
    """

    vectors: np.ndarray
    values: np.ndarray

    def dense(self):
        return symmetrize((self.vectors * self.values) @ self.vectors.T)

    def effective_rank(self, rel_tol=1e-8):
        """Count of eigenvalues with magnitude above ``rel_tol`` times the largest."""
        return effective_rank(self.values, rel_tol)


@dataclass
class Trace:
    """Per-iteration solver diagnostics.

    ``rel_error`` entries are NaN when no ground truth was supplied.
    ``rho_hat`` is the fitted per-iteration contraction factor, when the
    trace is long enough to estimate one.  ``total_halvings`` and
    ``degraded_projections`` count over every iteration, including those
    that ``trace_every`` leaves out of the rows.
    """

    iters: list = field(default_factory=list)
    nll: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    eta: list = field(default_factory=list)
    halvings: list = field(default_factory=list)
    rank: list = field(default_factory=list)
    rel_error: list = field(default_factory=list)
    rho_hat: float | None = None
    status: str = ""
    degraded_projections: int = 0
    total_halvings: int = 0

    CSV_HEADER = "iter,nll,seconds,eta,halvings,rank,rel_error"

    def __len__(self):
        return len(self.iters)

    def append(self, it, nll_value, seconds, eta, halvings, rank, rel_error):
        self.iters.append(int(it))
        self.nll.append(float(nll_value))
        self.seconds.append(float(seconds))
        self.eta.append(float(eta))
        self.halvings.append(int(halvings))
        self.rank.append(int(rank))
        self.rel_error.append(float(rel_error))

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.CSV_HEADER + "\n")
            for i in range(len(self.iters)):
                rel = self.rel_error[i]
                rel_str = "" if np.isnan(rel) else f"{rel:.17g}"
                fh.write(
                    f"{self.iters[i]},{self.nll[i]:.17g},{self.seconds[i]:.9f},"
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
    ``1 / lambda_min(S*)^2``, so this is a lower bound on ``0.5 / M``;
    backtracking then adapts the step in both directions.
    """
    S = ctx.S_star
    off = S - np.diag(np.diag(S))
    if not off.any():
        lam_min = float(np.diag(S).min())
    else:
        lam_min = float(np.linalg.eigvalsh(S)[0])
    return 0.5 * lam_min**2


def derived_seed(seed, *salts):
    """Integer seed derived from ``seed`` and integer ``salts``."""
    ss = np.random.SeedSequence([int(seed) & _SEED_MASK, *map(int, salts)])
    return int(ss.generate_state(1, np.uint64)[0])


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


def contraction_estimate(trace, truth=None):
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
    """Project an estimate onto the rank-``r`` PSD cone.

    ``L`` is any form :func:`~lvggm.objective.as_eigenform` takes.  For an
    eigenform this is an ``O(p r^2)`` post-processing step (drop negative
    eigenvalues, keep the ``r`` largest), equal to the exact PSD rank-``r``
    projection of the materialized matrix.
    """
    V, d = as_eigenform(L)
    order = np.argsort(-d, kind="stable")[: min(r, d.size)]
    keep = order[d[order] > 0.0]
    return LowRankEstimate(np.ascontiguousarray(V[:, keep]), d[keep].copy())


class _RunState:
    """Iteration bookkeeping of :func:`_descend`."""

    def __init__(self, ctx, cfg, truth):
        self.ctx = ctx
        self.cfg = cfg
        self.eta0 = (
            auto_step_size(ctx) if cfg.step_size == "auto" else float(cfg.step_size)
        )
        self.eta = self.eta0
        self.truth = None
        self.truth_norm = None
        if truth is not None:
            Vt, dt = as_eigenform(truth, ctx.p)
            self.truth = (Vt, dt)
            self.truth_norm = float(np.sqrt(np.sum(dt**2)))
        self.trace = Trace()
        self.nll_history = []
        self.grow_streak = 0

    def rel_error(self, V, d):
        if self.truth is None:
            return float("nan")
        dist = _eig_distance(V, d, *self.truth)
        denom = self.truth_norm if self.truth_norm > 0 else 1.0
        return dist / denom

    def note(self, nll_value):
        self.nll_history.append(nll_value)

    def record(self, t, nll_value, seconds, halvings, V, d, force=False):
        self.trace.total_halvings += halvings
        if force or t % self.cfg.trace_every == 0:
            self.trace.append(
                t, nll_value, seconds, self.eta, halvings,
                effective_rank(d), self.rel_error(V, d),
            )

    def adapt_step(self, halvings, improved):
        # grow only on cleanly improving steps; an overshooting step size
        # oscillates near the optimum without decreasing the NLL
        if halvings == 0 and improved:
            self.grow_streak += 1
            if self.grow_streak >= 3:
                self.eta = min(self.eta * 1.25, self.eta0 * 8.0)
                self.grow_streak = 0
        else:
            self.grow_streak = 0

    def should_stop(self, nll_value, moved, scale):
        cfg = self.cfg
        if cfg.true_nll_floor is not None and nll_value <= cfg.true_nll_floor:
            return "reached-floor"
        if moved <= 1e-13 * max(1.0, scale):
            return "stationary"
        h = self.nll_history
        if cfg.nll_tolerance > 0 and len(h) >= 6:
            if abs(h[-6] - h[-1]) <= cfg.nll_tolerance * max(1.0, abs(h[-1])):
                return "nll-window"
        return None

    def finish(self, status):
        self.trace.status = status
        if len(self.trace) >= 5:
            try:
                self.trace.rho_hat = contraction_estimate(self.trace)
            except InsufficientDataError:
                pass
        return self.trace


def _accept(state, candidate, current_nll):
    """Backtracking acceptance loop; returns (V, d, nll, halvings, improved).

    ``candidate(eta)`` produces a trial eigenform for the given step size.
    A trial is rejected when ``S + L`` leaves the PD cone (Cholesky failure)
    or the NLL increases beyond a roundoff slack; the step then halves.
    """
    max_halvings = state.cfg.backtracking.max_halvings
    slack = 1e-12 * max(1.0, abs(current_nll))
    halvings = 0
    while True:
        V, d = candidate(state.eta)
        try:
            value = nll(state.ctx, (V, d))
            if value <= current_nll + slack:
                return V, d, value, halvings, value < current_nll - slack
        except NotPositiveDefiniteError:
            pass
        halvings += 1
        if halvings > max_halvings:
            raise DivergedError(
                f"no acceptable step after {max_halvings} halvings",
                state.finish("diverged"),
            )
        state.eta *= 0.5


def _descend(ctx, cfg, truth, make_candidate):
    """The descent loop ``L <- P(L - eta * grad F(L))`` from ``L = 0``.

    ``make_candidate(t, V, d)`` sees iteration ``t``'s iterate and returns
    ``(candidate, degraded)``: ``candidate(eta)`` gives the projected step
    as an eigenform, and ``degraded`` flags an approximate projection that
    fell short.  Returns ``(LowRankEstimate, Trace)``.
    """
    p = ctx.p
    if cfg.rank > p:
        raise ValueError(f"rank {cfg.rank} exceeds dimension {p}")
    state = _RunState(ctx, cfg, truth)
    V = np.zeros((p, 0))
    d = np.zeros(0)
    current_nll = nll(ctx, (V, d))
    status = "max-iters"
    for t in range(cfg.max_iters):
        tic = time.perf_counter()
        candidate, degraded = make_candidate(t, V, d)
        state.trace.degraded_projections += int(degraded)
        V_new, d_new, new_nll, halvings, improved = _accept(
            state, candidate, current_nll
        )
        seconds = time.perf_counter() - tic
        moved = _eig_distance(V_new, d_new, V, d)
        scale = float(np.sqrt(np.sum(d**2)))
        state.note(new_nll)
        stop = state.should_stop(new_nll, moved, scale)
        state.record(
            t, new_nll, seconds, halvings, V_new, d_new,
            force=stop is not None or t == cfg.max_iters - 1,
        )
        V, d, current_nll = V_new, d_new, new_nll
        if stop:
            status = stop
            break
        state.adapt_step(halvings, improved)
    return LowRankEstimate(V, d), state.finish(status)


def ep_lvm(ctx, cfg, truth=None):
    """Exact-projection solver: ``L <- P_r^+(L - eta * grad F(L))``.

    Starts from ``L = 0``; every iterate is PSD with rank at most ``r``.
    Returns ``(LowRankEstimate, Trace)``.
    """
    r = cfg.rank

    def make_candidate(t, V, d):
        G = gradient(ctx, (V, d)).dense()
        base = (V * d) @ V.T

        def candidate(eta):
            step = symmetrize(base - eta * G)
            spec = sym_evd(step)
            w = np.maximum(spec.eigenvalues[:r], 0.0)
            keep = w > 0.0
            return (
                np.ascontiguousarray(spec.eigenvectors[:, :r][:, keep]),
                w[keep],
            )

        return candidate, False

    return _descend(ctx, cfg, truth, make_candidate)


def ap_lvm(ctx, cfg, truth=None):
    """Approximate-projection solver.

    Each iteration head-projects the gradient at rank ``2r`` (randomized
    block-Krylov or Lanczos), takes the step, then tail-projects back to rank
    ``r``.  Because the step matrix is explicitly rank ``<= 3r``, the tail
    projection is evaluated as the exact compression of its factored form
    (the Krylov space of a rank-``m`` matrix lies inside its range, so the
    randomized tail resolves to this compression).  Iterates may carry small
    negative eigenvalues; the returned estimate is not PSD-finalized.
    """
    r = cfg.rank
    head_rank = min(2 * r, ctx.p)

    def make_candidate(t, V, d):
        G = gradient(ctx, (V, d))
        pcfg = dataclasses.replace(
            cfg.projection, seed=derived_seed(cfg.projection.seed, 3, t)
        )
        head = head_project(G, head_rank, pcfg)
        Z = head.basis
        if head.ritz is not None:
            T_h = np.diag(head.ritz)
        else:
            T_h = symmetrize(Z.T @ (G @ Z))
        W = np.hstack([V, Z])

        def candidate(eta):
            core = np.zeros((W.shape[1], W.shape[1]))
            core[: d.size, : d.size] = np.diag(d)
            core[d.size :, d.size :] = -eta * T_h
            return compress_symmetric(W, core, r)

        return candidate, head.degraded

    return _descend(ctx, cfg, truth, make_candidate)


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
