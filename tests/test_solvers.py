import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from lvggm import objective, solvers
from lvggm.datagen import gen_model, sample_covariance
from lvggm.linalg import CholeskyFactor, symmetrize
from lvggm.objective import GradientOperator, ModelContext, nll
from lvggm.projections import ProjectionConfig, extend_basis
from lvggm.solvers import (
    DivergedError,
    InsufficientDataError,
    LowRankEstimate,
    SolverConfig,
    Trace,
    ap_lvm,
    auto_step_size,
    contraction_estimate,
    ep_lvm,
    fit_pgd,
    psd_finalize,
)

from .conftest import random_spd, random_symmetric
from .oracles import dense_step_ep, psd_clamp_truncate


def population_ctx(p, r, seed):
    model = gen_model(p, r, seed=seed)
    return model, ModelContext.create(model.S_star, model.sigma_star)


def sampled_ctx(p, r, n, seed):
    model = gen_model(p, r, seed=seed)
    C = sample_covariance(model, n, seed=seed + 1)
    return model, ModelContext.create(model.S_star, C)


class TestAutoStepSize:
    def test_identity(self):
        ctx = ModelContext.create(np.eye(4), np.eye(4))
        assert auto_step_size(ctx) == pytest.approx(0.5)

    def test_scaled_identity(self):
        ctx = ModelContext.create(2.0 * np.eye(4), 0.5 * np.eye(4))
        assert auto_step_size(ctx) == pytest.approx(2.0)

    def test_banded_matches_dense_eigenvalue(self):
        _, ctx = _banded_ctx(200, 5, seed=3)
        assert ctx.S_chol.route == "banded"
        want = 0.5 * np.linalg.eigvalsh(ctx.S_star)[0] ** 2
        assert abs(auto_step_size(ctx) - want) <= 1e-12 * want

    def test_dense_eigenvalue_computed_once_per_context(self, rng, monkeypatch):
        p, r = 30, 2
        S = random_spd(rng, p)
        G = 0.3 * rng.standard_normal((p, r))
        ctx = ModelContext.create(S, np.linalg.inv(S + G @ G.T))
        assert ctx.S_chol.route == "dense"
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(A, *args, **kwargs):
            if np.shape(A) == (p, p):
                calls.append(1)
            return eigvalsh(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        for _ in range(2):
            fit_pgd("ap-bk", ctx, r, max_iters=5)
        assert len(calls) == 1

    def test_auto_step_converges_on_random_diagonal(self, rng):
        p, r = 25, 2
        s = rng.uniform(0.8, 2.5, p)
        G = rng.standard_normal((p, r))
        G *= 1.0 / np.linalg.svd(G, compute_uv=False)[0]
        theta = np.diag(s) + G @ G.T
        ctx = ModelContext.create(np.diag(s), np.linalg.inv(theta))
        est, trace = ep_lvm(
            ctx, SolverConfig(rank=r, max_iters=400, nll_tolerance=0), truth=G
        )
        assert trace.rel_error[-1] < 1e-3


class TestEpLvm:
    def test_stationary_initialization_returns_zero_after_one_iteration(self, rng):
        model, _ = population_ctx(12, 2, seed=3)
        S_inv = np.linalg.inv(model.S_star)
        ctx = ModelContext.create(model.S_star, (S_inv + S_inv.T) / 2)
        est, trace = ep_lvm(ctx, SolverConfig(rank=2))
        assert len(trace) == 1
        assert trace.status == "stationary"
        assert np.linalg.norm(est.values) < 1e-12

    def test_negative_definite_step_gives_empty_candidate(self, monkeypatch):
        # C = 2 S^-1 makes the gradient at L = 0 equal to S^-1 > 0, so every
        # step -eta * S^-1 has an all-negative spectrum
        model, _ = population_ctx(12, 2, seed=3)
        S_inv = np.linalg.inv(model.S_star)
        ctx = ModelContext.create(model.S_star, S_inv + S_inv.T)
        spectra = []

        def recording(A, k):
            spectra.append(sym_evd(A, k))
            return spectra[-1]

        sym_evd = solvers.sym_evd
        monkeypatch.setattr(solvers, "sym_evd", recording)
        est, trace = ep_lvm(ctx, SolverConfig(rank=2))
        assert spectra and all(w.max() < 0 for _, w in spectra)
        assert est.values.size == 0 and est.vectors.shape == (12, 0)
        assert trace.status == "stationary"

    def test_noiseless_recovery(self):
        model, ctx = population_ctx(30, 2, seed=7)
        est, trace = ep_lvm(
            ctx, SolverConfig(rank=2, max_iters=200, nll_tolerance=0),
            truth=model.L_factor,
        )
        assert trace.rel_error[-1] < 1e-4
        assert len(trace) <= 200

    def test_iterates_psd_with_bounded_rank(self):
        model, ctx = sampled_ctx(25, 3, 2000, seed=11)
        est, trace = ep_lvm(ctx, SolverConfig(rank=3, max_iters=50), truth=model.L_factor)
        assert all(rk <= 3 for rk in trace.rank)
        assert est.values.min() >= -1e-12
        w = np.linalg.eigvalsh(est.dense())
        assert w[0] >= -1e-12

    def test_accepted_nll_monotone(self):
        model, ctx = sampled_ctx(20, 2, 1500, seed=13)
        _, trace = ep_lvm(ctx, SolverConfig(rank=2, max_iters=80, nll_tolerance=0))
        nlls = np.asarray(trace.nll)
        slack = 1e-10 * np.maximum(1.0, np.abs(nlls[:-1]))
        assert np.all(np.diff(nlls) <= slack)

    def test_deterministic_replay(self):
        model, ctx = sampled_ctx(15, 2, 800, seed=17)
        cfg = SolverConfig(rank=2, max_iters=40)
        est1, tr1 = ep_lvm(ctx, cfg)
        est2, tr2 = ep_lvm(ctx, cfg)
        assert np.array_equal(est1.dense(), est2.dense())
        assert tr1.nll == tr2.nll

    def test_error_decreases_with_oversampling(self):
        # medians over 5 trials decrease monotonically in n/p
        p, r = 40, 2
        ratios = [25, 50, 100, 200, 400]
        medians = []
        for ratio in ratios:
            errs = []
            for trial in range(5):
                model = gen_model(p, r, seed=100 + trial)
                C = sample_covariance(model, ratio * p, seed=7000 + 13 * ratio + trial)
                ctx = ModelContext.create(model.S_star, C)
                tn = nll(ctx, model.L_factor)
                _, tr = ep_lvm(
                    ctx, SolverConfig(rank=r, true_nll_floor=tn), truth=model.L_factor
                )
                errs.append(tr.rel_error[-1])
            medians.append(float(np.median(errs)))
        assert all(a > b for a, b in zip(medians, medians[1:]))

    def test_divergence_with_exhausted_backtracking(self, monkeypatch):
        model, ctx = sampled_ctx(10, 2, 500, seed=23)
        monkeypatch.setattr(solvers, "auto_step_size", lambda ctx: 1e30)
        cfg = SolverConfig(rank=2)
        for solver in (ep_lvm, ap_lvm):
            with pytest.raises(DivergedError, match="after 30 halvings") as exc_info:
                solver(ctx, cfg)
            assert exc_info.value.trace.status == "diverged"

    def test_rank_exceeding_dimension_rejected(self):
        ctx = ModelContext.create(np.eye(3), np.eye(3))
        with pytest.raises(ValueError):
            ep_lvm(ctx, SolverConfig(rank=4))

    # a bool must not fit rank 1, and a fraction must not fail mid-fit
    @pytest.mark.parametrize(
        "field, value",
        [("rank", True), ("rank", 2.5), ("max_iters", 3.5), ("max_iters", False)],
    )
    def test_non_integer_settings_rejected(self, field, value):
        knobs = {"rank": 2, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            SolverConfig(**knobs)
        ctx = ModelContext.create(np.eye(3), np.eye(3))
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            fit_pgd("ap-bk", ctx, **knobs)


class TestApLvm:
    def test_stationary_initialization(self):
        model, _ = population_ctx(12, 2, seed=3)
        S_inv = np.linalg.inv(model.S_star)
        ctx = ModelContext.create(model.S_star, (S_inv + S_inv.T) / 2)
        est, trace = ap_lvm(ctx, SolverConfig(rank=2))
        assert np.linalg.norm(est.values) < 1e-10
        assert len(trace) == 1

    def test_degraded_projection_flag_propagates(self):
        # identity instance: the gradient at L=0 is exactly the zero matrix,
        # so the head finds no direction and is flagged
        ctx = ModelContext.create(np.eye(10), np.eye(10))
        _, trace = ap_lvm(ctx, SolverConfig(rank=2))
        assert trace.degraded_projections >= 1

    def test_no_degraded_projections_on_regular_run(self):
        model, ctx = sampled_ctx(20, 2, 2000, seed=41)
        _, trace = ap_lvm(
            ctx, SolverConfig(rank=2, max_iters=40, projection=ProjectionConfig(seed=1))
        )
        assert trace.degraded_projections == 0

    def test_noiseless_recovery_block_krylov(self, monkeypatch):
        widths = []
        head_project = solvers.head_project

        def recording(A, k, cfg):
            head = head_project(A, k, cfg)
            widths.append(head.basis.shape[1])
            return head

        monkeypatch.setattr(solvers, "head_project", recording)
        model, ctx = population_ctx(30, 2, seed=7)
        cfg = SolverConfig(
            rank=2, max_iters=300, nll_tolerance=0,
            projection=ProjectionConfig(seed=5),
        )
        _, trace = ap_lvm(ctx, cfg, truth=model.L_factor)
        assert trace.rel_error[-1] < 1e-3
        assert len(trace) <= 300
        # the gradient at L = 0 has rank r = 2, so the first head returns
        # those two directions, not 2r columns
        assert widths[0] == 2

    def test_noiseless_recovery_lanczos(self):
        model, ctx = population_ctx(30, 2, seed=7)
        cfg = SolverConfig(
            rank=2, max_iters=300, nll_tolerance=0,
            projection=ProjectionConfig(seed=5, backend="lanczos"),
        )
        _, trace = ap_lvm(ctx, cfg, truth=model.L_factor)
        assert trace.rel_error[-1] < 1e-3

    def test_requires_randomized_backend(self):
        with pytest.raises(ValueError):
            SolverConfig(rank=2, projection=ProjectionConfig(backend="exact"))

    def test_rank_bounded_and_psd(self):
        model, ctx = sampled_ctx(30, 3, 3000, seed=29)
        cfg = SolverConfig(
            rank=3, max_iters=120, projection=ProjectionConfig(seed=2)
        )
        est, trace = ap_lvm(ctx, cfg, truth=model.L_factor)
        assert all(rk <= 3 for rk in trace.rank)
        assert est.values.size <= 3 and est.values.min() > 0.0

    def test_over_specified_rank_stays_psd_and_matches_ep(self):
        # desk size (p=100, r=5, n=400p) fitted at rank 10: the PSD tail
        # keeps AP on EP's constraint set, so neither reaches a lower NLL
        # off it, and AP's free fit ends within the statistical resolution
        # sqrt(2 df) / n of EP's, with df = p r - r (r - 1) / 2 at the
        # true rank
        p, r, n = 100, 5, 40000
        _, ctx = sampled_ctx(p, r, n, seed=3)
        ep_est, ep_trace = fit_pgd("ep", ctx, 2 * r, seed=1)
        ap_est, ap_trace = fit_pgd("ap-bk", ctx, 2 * r, seed=1)
        assert ap_trace.status != "max-iters"
        assert ap_est.values.min() > 0.0
        assert np.linalg.eigvalsh(ap_est.dense())[0] >= -1e-12
        df = p * r - r * (r - 1) / 2
        gap = ap_trace.nll[-1] - ep_trace.nll[-1]
        print(f"\n  AP-BK at rank {2 * r}: {len(ap_trace)} it, NLL gap to EP {gap:+.2e}")
        assert abs(gap) <= np.sqrt(2 * df) / n

    def test_free_fits_stop_near_ep(self):
        # six desk instances (p=100, r=5, n=400p) with no floor: AP-BK stops
        # on its own within 50 iterations, and ends within the statistical
        # resolution sqrt(2 df) / n of EP's NLL, df = p r - r (r - 1) / 2
        p, r, n = 100, 5, 40000
        df = p * r - r * (r - 1) / 2
        for seed in range(60, 66):
            _, ctx = sampled_ctx(p, r, n, seed=seed)
            _, ep_trace = fit_pgd("ep", ctx, r, seed=1)
            _, ap_trace = fit_pgd("ap-bk", ctx, r, seed=1, max_iters=50)
            gap = ap_trace.nll[-1] - ep_trace.nll[-1]
            print(f"\n  seed {seed}: AP-BK {len(ap_trace)} it, {ap_trace.status},"
                  f" NLL gap to EP {gap:+.2e}")
            assert ap_trace.status != "max-iters", seed
            assert abs(gap) <= np.sqrt(2 * df) / n, seed

    @pytest.mark.parametrize("backend", ["block-krylov", "lanczos"])
    def test_never_materializes_the_gradient(self, backend, monkeypatch):
        def no_dense(self):
            raise AssertionError("p x p gradient materialized")

        monkeypatch.setattr(GradientOperator, "dense", no_dense)
        model, ctx = sampled_ctx(40, 3, 4000, seed=17)
        cfg = SolverConfig(
            rank=3, max_iters=25,
            projection=ProjectionConfig(seed=3, backend=backend),
        )
        est, trace = ap_lvm(ctx, cfg, truth=model.L_factor)
        assert len(trace) > 5
        assert trace.degraded_projections == 0
        assert trace.rel_error[-1] < trace.rel_error[0]

    def test_head_captures_the_best_rank_r_energy(self, monkeypatch):
        # one free desk-size fit (p=100, r=5, n=400p): each head Z of the
        # rank-2r projection captures ||G Z||_F at least the best rank-r
        # energy ||G_r||_F; against the best rank-2r energy it falls short,
        # and the smallest ratio is reported.  The head runs only while the
        # iterate's rank is below r, at L = 0 at least
        ratios = []

        def recorded(G, k, cfg):
            head = real(G, k, cfg)
            w = np.sort(np.abs(np.linalg.eigvalsh(G.dense())))[::-1]
            captured = np.linalg.norm(head.products)
            ratios.append((
                captured / np.sqrt(np.sum(w[: k // 2] ** 2)),
                captured / np.sqrt(np.sum(w[:k] ** 2)),
            ))
            return head

        real = solvers.head_project
        monkeypatch.setattr(solvers, "head_project", recorded)
        _, ctx = sampled_ctx(100, 5, 40000, seed=1)
        _, trace = fit_pgd("ap-bk", ctx, 5, seed=1)
        assert trace.status == "nll-window" and 1 <= len(ratios) < len(trace)
        rank_r, rank_2r = np.array(ratios).T
        assert rank_r.min() >= 1.0
        assert rank_2r.max() <= 1.0 + 1e-12  # Ky Fan: no 2r columns capture more
        print(
            f"\n  {len(ratios)} heads: captured/best rank-r >= {rank_r.min():.3f},"
            f" captured/best rank-2r >= {rank_2r.min():.3f}"
        )

    def test_deterministic_replay(self):
        model, ctx = sampled_ctx(15, 2, 700, seed=31)
        cfg = SolverConfig(rank=2, max_iters=30, projection=ProjectionConfig(seed=9))
        est1, tr1 = ap_lvm(ctx, cfg)
        est2, tr2 = ap_lvm(ctx, cfg)
        assert np.array_equal(est1.dense(), est2.dense())
        assert tr1.nll == tr2.nll


def _banded_ctx(p, r, seed):
    """Tridiagonal ``S`` as in the benchmark's noiseless workload (coupling
    0.2, so ``S^-1`` is dense) and the exact ``C = (S + L*)^-1``."""
    model = gen_model(p, r, seed=seed)
    s = model.s_diag
    off = 0.2 * np.sqrt(s[:-1] * s[1:])
    S = np.diag(s) + np.diag(off, 1) + np.diag(off, -1)
    C = np.linalg.inv(S + model.L_star)
    return model, ModelContext.create(S, (C + C.T) / 2)


class TestBandedFactor:
    """Fits through the banded factor of ``S`` follow fits through a dense
    factor of the same ``S`` up to roundoff."""

    @pytest.mark.parametrize("algo", ["ep", "ap-bk", "ap-lanczos"])
    def test_fit_matches_dense_factor_route(self, algo):
        model, ctx = _banded_ctx(200, 5, seed=3)
        c, _ = scipy.linalg.cho_factor(ctx.S_star, lower=True)
        dense = dataclasses.replace(ctx, S_chol=CholeskyFactor(c))
        assert (ctx.S_chol.route, dense.S_chol.route) == ("banded", "dense")
        floor = nll(dense, model.L_factor)
        knobs = dict(nll_tolerance=0.0, true_nll_floor=floor + 1e-11 * abs(floor))
        _, got = fit_pgd(algo, ctx, 5, seed=2, **knobs)
        _, want = fit_pgd(algo, dense, 5, seed=2, **knobs)
        assert want.status == "reached-floor"
        assert (len(got), got.total_halvings, got.status) == (
            len(want), want.total_halvings, want.status
        )
        assert abs(got.nll[-1] - want.nll[-1]) <= 1e-12 * abs(want.nll[-1])


class TestApStep:
    """AP's step on ``span[V, GV]``, or ``span[V, Z, GV]`` with the head
    ``Z`` below rank ``r``, and the products it carries."""

    @pytest.mark.parametrize(
        "d", [(0.6, 0.3, 0.1), (0.6, -0.15, 0.25), (0.6, 0.3)],
        ids=["d0", "d1", "rank-deficient"],
    )
    def test_candidate_is_the_step_projected_on_the_span(self, d, monkeypatch):
        p, r, eta = 40, 3, 0.7
        _, ctx = sampled_ctx(p, r, 100 * p, seed=19)
        d = np.asarray(d)
        V = np.linalg.qr(np.random.default_rng(3).standard_normal((p, d.size)))[0]
        heads = []

        def recording(*args):
            heads.append(head_project(*args))
            return heads[-1]

        head_project = solvers.head_project
        monkeypatch.setattr(solvers, "head_project", recording)
        cfg = SolverConfig(rank=r, projection=ProjectionConfig(seed=4))
        products = (ctx.C @ V, ctx.S_chol.solve(V))
        G = solvers.gradient(ctx, (V, d), products[1])
        candidate, degraded = solvers._ap_candidate(ctx, cfg, 0, V, d, products, G)
        V_new, d_new, (CV_new, M_new) = candidate(eta)

        # a full-rank iterate makes no head call; a rank-deficient one, one
        assert len(heads) == int(d.size < r)
        L = (V * d) @ V.T
        G = ctx.C - np.linalg.inv(ctx.S_star + L)
        Z = [head.basis for head in heads]
        U = scipy.linalg.orth(np.hstack([V, *Z, G @ V]))
        assert not degraded and U.shape[1] == 2 * d.size + 2 * r * len(heads)
        P_U = U @ U.T
        oracle = psd_clamp_truncate(L - eta * P_U @ G @ P_U, r)
        assert np.abs((V_new * d_new) @ V_new.T - oracle).max() <= 1e-10
        assert np.abs(V_new.T @ V_new - np.eye(d_new.size)).max() <= 1e-10
        assert np.abs(CV_new - ctx.C @ V_new).max() <= 1e-10
        assert np.abs(M_new - np.linalg.solve(ctx.S_star, V_new)).max() <= 1e-10
        for basis in Z:
            P_Z = basis @ basis.T
            assert np.linalg.norm(P_U @ G @ P_U) >= np.linalg.norm(P_Z @ G @ P_Z)

    @pytest.mark.parametrize("case", ["head-near-iterate", "dependent-pair", "no-iterate"])
    def test_basis_deflates_head_directions_in_the_iterate_span(self, rng, case):
        p = 30
        V = np.linalg.qr(rng.standard_normal((p, 3)))[0]
        E = np.linalg.qr(rng.standard_normal((p, 6)))[0]
        if case == "head-near-iterate":
            # the first two head directions lie in span V up to 1e-6, the
            # third up to 1e-3: only the first two are dropped
            Z = np.hstack(
                [V[:, :2] + 1e-6 * E[:, :2], V[:, 2:] + 1e-3 * E[:, 2:3], E[:, 3:]]
            )
            cols = 3 + 4
        elif case == "dependent-pair":
            # two directions far from span V but within 1e-6 of each other:
            # CholeskyQR's relative pivot (1e-6) passes, its absolute pivot
            # does not, and the pivoted QR fallback keeps one of them
            Z = np.hstack([E[:, :1], E[:, :1] + 1e-6 * E[:, 1:2], E[:, 2:]])
            cols = 3 + 5
        else:
            V = V[:, :0]
            Z = E
            cols = 6
        Y, H, T = extend_basis(V, Z, solvers._DEFLATION_TOL)
        U = np.hstack([V, Y])
        assert U.shape == (p, cols)
        assert np.abs(U.T @ U - np.eye(cols)).max() <= 1e-10
        # [V, Z] B = U with B = [[I, -H T], [0, T]]
        assert np.abs((Z - V @ H) @ T - Y).max() <= 1e-12
        residual = Z - U @ (U.T @ Z)
        assert np.linalg.norm(residual, axis=0).max() <= 2e-6

    @pytest.mark.parametrize("banded", [False, True], ids=["diagonal-S", "banded-S"])
    def test_carried_products_match_fresh_ones(self, banded, monkeypatch):
        p, r = 100, 5
        if banded:
            model, ctx = _banded_ctx(p, r, seed=3)
            knobs = dict(nll_tolerance=0.0, max_iters=80)
        else:
            # no floor and a fixed count: F(L*) is reached in a few
            # iterations, and the run on past it also checks rejected trials
            model, ctx = sampled_ctx(p, r, 400 * p, seed=3)
            knobs = dict(nll_tolerance=0.0, max_iters=12)
        assert ctx.S_chol.route == "banded"
        checked = []

        def checking(ctx_, L, products=None):
            V, _ = L
            if V.shape[1]:
                for carried, fresh in zip(products, (ctx.C @ V, ctx.S_chol.solve(V))):
                    scale = np.abs(fresh).max()
                    assert np.abs(carried - fresh).max() <= 1e-10 * scale
                checked.append(V.shape[1])
            return nll(ctx_, L, products)

        monkeypatch.setattr(solvers, "nll", checking)
        for algo in ("ap-bk", "ap-lanczos"):
            checked.clear()
            est, trace = fit_pgd(algo, ctx, r, seed=2, truth=model.L_factor, **knobs)
            # every trial was checked, accepted iterates included
            assert len(checked) >= len(trace) - 1 > 5
            final = nll(ctx, est.dense())
            assert abs(trace.nll[-1] - final) <= 1e-10 * abs(final)
            if banded:
                assert trace.rel_error[-1] < 1e-4


class TestStepRule:
    """Both steps start at ``auto_step_size`` and halve on each rejected
    trial.  AP's step doubles after each iteration accepted on its first
    trial with a strict decrease and has no cap; EP's first trial is the
    secant step, at most twice the last accepted step."""

    def test_ep_first_trial_is_the_capped_secant_step(self, monkeypatch):
        # 12 iterations keep the iterate's change far above roundoff, where
        # <s,y> from eigenforms and from dense matrices agree; near a
        # stationary point both are differences of nearly equal numbers
        _, ctx = sampled_ctx(100, 5, 400 * 100, seed=3)
        iterates = []

        def recording(ctx_, L, M=None):
            V, d = L
            iterates.append((V * d) @ V.T)
            return gradient(ctx_, L, M)

        gradient = solvers.gradient
        monkeypatch.setattr(solvers, "gradient", recording)
        _, trace = fit_pgd("ep", ctx, 5, seed=2, nll_tolerance=0.0, max_iters=12)
        eta, halvings, eta0 = trace.eta, trace.halvings, auto_step_size(ctx)
        assert len(trace) == len(iterates) == 12
        assert eta[0] * 2.0 ** halvings[0] == eta0
        grads = [ctx.C - np.linalg.inv(ctx.S_star + L) for L in iterates]
        capped = []
        for t in range(1, len(trace)):
            s, y = iterates[t] - iterates[t - 1], grads[t] - grads[t - 1]
            curvature = np.sum(s * y)
            assert curvature > 0, t  # F is convex
            want = min(2.0 * eta[t - 1], max(eta0, np.sum(s * s) / curvature))
            first = eta[t] * 2.0 ** halvings[t]
            assert abs(first - want) <= 1e-7 * want, t
            capped.append(first == 2.0 * eta[t - 1])
        # the cap and the secant step both ran, and so did backtracking
        assert any(capped) and not all(capped) and sum(halvings) > 0

    @pytest.mark.parametrize("algo", ["ap-bk"])
    def test_step_doubles_after_clean_iterations(self, algo):
        _, ctx = sampled_ctx(100, 5, 400 * 100, seed=3)
        _, trace = fit_pgd(algo, ctx, 5, seed=2, nll_tolerance=0.0, max_iters=30)
        eta, halvings, nlls = trace.eta, trace.halvings, trace.nll
        assert len(trace) == 30
        growths = []
        for t in range(1, len(trace) - 1):
            slack = 1e-12 * max(1.0, abs(nlls[t - 1]))
            clean = halvings[t] == 0 and nlls[t] < nlls[t - 1] - slack
            growths.append(2.0 if clean else 1.0)
            assert eta[t + 1] == eta[t] * growths[-1] * 0.5 ** halvings[t + 1], t
        # both branches of the rule ran, and so did backtracking
        assert {1.0, 2.0} <= set(growths) and sum(halvings[2:]) > 0

    @pytest.mark.parametrize("algo", ["ep", "ap-bk"])
    def test_step_grows_past_the_old_cap(self, algo):
        _, ctx = _banded_ctx(100, 5, seed=3)
        _, trace = fit_pgd(algo, ctx, 5, seed=2, nll_tolerance=0.0, max_iters=80)
        assert max(trace.eta) > 8.0 * auto_step_size(ctx)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_no_floor_fits_stop_on_the_nll_window(self, seed):
        _, ctx = sampled_ctx(100, 5, 400 * 100, seed=seed)
        for algo in solvers.PGD_ALGORITHMS:
            _, trace = fit_pgd(algo, ctx, 5, seed=2)
            assert trace.status == "nll-window", algo
            assert len(trace) < SolverConfig(rank=5).max_iters, algo


class TestHooks:
    """The benchmark times each layer by replacing the module attribute the
    solvers look up; a solver that routes around one would show that layer
    as zero."""

    HOOKS = (
        (solvers, "gradient"),
        (solvers, "nll"),
        (solvers, "sym_evd"),
        (solvers, "head_project"),
        (solvers, "compress_symmetric"),
        (objective, "woodbury_core_eig"),
    )

    def test_every_solver_reaches_its_hooks(self, monkeypatch):
        calls = dict.fromkeys((name for _, name in self.HOOKS), 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module, name in self.HOOKS:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        _, ctx = sampled_ctx(12, 2, 2000, seed=43)
        shared = {"gradient", "nll", "woodbury_core_eig"}
        for algo, own in (
            ("ep", {"sym_evd"}),
            ("ap-bk", {"head_project", "compress_symmetric"}),
            ("ap-lanczos", {"head_project", "compress_symmetric"}),
        ):
            calls.update(dict.fromkeys(calls, 0))
            _, trace = fit_pgd(algo, ctx, 2, seed=1, max_iters=5)
            assert len(trace) == 5
            assert {name for name, n in calls.items() if n} >= shared | own, algo

    def test_benchmark_hooks_resolve_to_callables(self, monkeypatch):
        # the benchmark wraps these attributes; one renamed away would only
        # show there as an unmeasured hook with its metric zeroed
        monkeypatch.syspath_prepend(Path(__file__).resolve().parents[1] / "perfbench")
        tracing = importlib.import_module("tracing")
        for module_name, attr, _ in tracing.HOOKS:
            module = importlib.import_module(f"lvggm.{module_name}")
            assert callable(getattr(module, attr, None)), (module_name, attr)

    def test_ep_eigensolve_returns_only_the_leading_pairs(self, monkeypatch):
        shapes = []

        def recording(A, *args):
            V, w = sym_evd(A, *args)
            shapes.append((w.shape, V.shape))
            return V, w

        sym_evd = solvers.sym_evd
        monkeypatch.setattr(solvers, "sym_evd", recording)
        _, ctx = sampled_ctx(12, 2, 2000, seed=43)
        fit_pgd("ep", ctx, 2, seed=1, max_iters=5)
        assert shapes and set(shapes) == {((2,), (12, 2))}


class TestEpStep:
    """EP writes its step matrix ``L - eta G`` into one Fortran-order buffer
    from ``residual0`` and the gradient's Woodbury factors; it must follow
    the dense step ``psd_finalize(symmetrize(L - eta G))`` that forms ``G``
    (:func:`tests.oracles.dense_step_ep`)."""

    @pytest.mark.parametrize("dense_s", [False, True])
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_lower_triangle_is_the_dense_step(self, rng, dense_s, k):
        p = 40
        _, ctx = sampled_ctx(p, 3, 4000, seed=21)
        if dense_s:  # the dense factor route
            ctx = ModelContext.create(random_spd(rng, p), ctx.C)
            assert ctx.S_chol.route == "dense"
        V = np.linalg.qr(rng.standard_normal((p, 3)))[0][:, :k]  # k = 0: L = 0
        d = rng.uniform(0.1, 2.0, k)
        G = solvers.gradient(ctx, (V, d))
        out = np.empty((p, p), order="F")
        for eta in (1e-3, 0.5, 20.0):
            assert solvers._ep_step(ctx, V, d, G, eta, out) is out
            want = symmetrize((V * d) @ V.T - eta * G.dense())
            dev = np.abs(np.tril(out) - np.tril(want)).max()
            assert dev <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("case", ["noiseless-p30", "sampled-p60"])
    def test_fit_follows_the_dense_step(self, case):
        if case == "noiseless-p30":
            model, ctx = population_ctx(30, 2, seed=7)
            floor = nll(ctx, model.L_factor)
            cfg = SolverConfig(
                rank=2, nll_tolerance=0, true_nll_floor=floor + 1e-11 * abs(floor)
            )
        else:
            model, ctx = sampled_ctx(60, 3, 6000, seed=17)
            cfg = SolverConfig(rank=3)
        _, got = ep_lvm(ctx, cfg, truth=model.L_factor)
        _, want = dense_step_ep(ctx, cfg, truth=model.L_factor)
        assert len(got) > 5 and got.status == want.status
        assert got.halvings == want.halvings and got.total_halvings > 0
        assert len(got) == len(want)
        dev = np.abs(np.subtract(got.nll, want.nll)) / np.abs(want.nll)
        assert dev.max() <= 1e-10

    @pytest.mark.parametrize("fault", ["infinite-step", "nan-gradient"])
    def test_non_finite_step_raises_as_the_dense_step(self, monkeypatch, fault):
        for fit in (ep_lvm, dense_step_ep):
            _, ctx = sampled_ctx(12, 2, 2000, seed=43)
            if fault == "infinite-step":
                monkeypatch.setattr(solvers, "auto_step_size", lambda ctx: np.inf)
            else:
                ctx.residual0[3, 5] = ctx.residual0[5, 3] = np.nan
            with pytest.raises(ValueError, match="non-finite"):
                fit(ctx, SolverConfig(rank=2))

    def test_one_solve_per_trial_on_a_dense_s(self, rng, monkeypatch):
        # a trial's S^-1 V serves its NLL and, once accepted, the next
        # gradient, so no accepted iterate is solved against twice
        _, ctx = sampled_ctx(40, 3, 4000, seed=21)
        ctx = ModelContext.create(random_spd(rng, 40), ctx.C)
        assert ctx.S_chol.route == "dense"
        calls = []
        solve = CholeskyFactor.solve

        def counting(self, b):
            calls.append(b.shape)
            return solve(self, b)

        monkeypatch.setattr(CholeskyFactor, "solve", counting)
        _, trace = ep_lvm(ctx, SolverConfig(rank=3))
        assert len(trace) > 5 and trace.total_halvings > 0
        assert len(calls) == len(trace) + trace.total_halvings

    def test_buffer_allocated_once_per_fit(self, monkeypatch):
        seen = []

        def recording(A, k):
            seen.append(A)
            return sym_evd(A, k)

        sym_evd = solvers.sym_evd
        monkeypatch.setattr(solvers, "sym_evd", recording)
        _, ctx = sampled_ctx(12, 2, 2000, seed=43)
        _, trace = fit_pgd("ep", ctx, 2, seed=1, max_iters=5)
        assert len(seen) == len(trace) + trace.total_halvings
        assert all(A is seen[0] for A in seen) and seen[0].flags.f_contiguous


class TestPsdFinalize:
    def test_dense_input_validated_and_never_modified(self, rng):
        A = random_symmetric(rng, 10)
        for M in (A, np.asfortranarray(A)):
            before = M.copy()
            psd_finalize(M, 3)
            solvers.sym_evd(M, 3)
            assert np.array_equal(M, before)
        bad = A.copy()
        bad[0, 1] = bad[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            psd_finalize(bad, 3)
        skew = A.copy()
        skew[0, 1] += 1e-3
        with pytest.raises(ValueError, match="not symmetric"):
            psd_finalize(skew, 3)

    def test_psd_input_unchanged(self, rng):
        Q = np.linalg.qr(rng.standard_normal((10, 3)))[0]
        d = np.array([2.0, 1.0, 0.5])
        out = psd_finalize(LowRankEstimate(Q, d), 3)
        assert np.abs(out.dense() - (Q * d) @ Q.T).max() < 1e-12

    def test_negative_component_dropped(self, rng):
        Q = np.linalg.qr(rng.standard_normal((8, 2)))[0]
        d = np.array([1.0, -0.1])
        out = psd_finalize((Q, d), 2)
        assert out.values.min() >= 0
        assert np.abs(out.dense() - np.outer(Q[:, 0], Q[:, 0])).max() < 1e-12

    def test_matches_dense_projection_oracle(self, rng):
        Q = np.linalg.qr(rng.standard_normal((50, 5)))[0]
        d = np.array([3.0, -2.0, 1.5, -0.7, 0.2])
        L = (Q * d) @ Q.T
        out = psd_finalize((Q, d), 5)
        assert np.abs(out.dense() - psd_clamp_truncate(L, 5)).max() < 1e-10

    def test_dense_input_matches_dense_projection_oracle(self, rng):
        A = rng.standard_normal((12, 12))
        A = (A + A.T) / 2
        out = psd_finalize(A, 4)
        assert np.abs(out.dense() - psd_clamp_truncate(A, 4)).max() < 1e-10


class TestContractionEstimate:
    def test_geometric_sequence(self):
        errors = 0.5 ** np.arange(30)
        assert contraction_estimate(errors) == pytest.approx(0.5, abs=1e-6)

    def test_constant_trace(self):
        assert contraction_estimate(np.full(10, 3.0)) == 1.0

    def test_population_run_contracts(self):
        model, ctx = population_ctx(30, 2, seed=7)
        _, trace = ep_lvm(
            ctx, SolverConfig(rank=2, max_iters=200, nll_tolerance=0),
            truth=model.L_factor,
        )
        rho = contraction_estimate(trace)
        assert rho < 0.95
        assert trace.rho_hat == pytest.approx(rho)

    def test_too_short_raises(self):
        with pytest.raises(InsufficientDataError):
            contraction_estimate([1.0, 0.5, 0.25])


class TestTrace:
    def test_csv_schema(self, tmp_path):
        trace = Trace()
        trace.append(-1.5, 0.01, 0.5, 0, 2, float("nan"))
        trace.append(-1.6, 0.01, 0.5, 1, 2, 0.25)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "iter,nll,seconds,eta,halvings,rank,rel_error"
        assert lines[1].endswith(",")  # empty rel_error when truth absent
        assert lines[2].split(",")[-1] == "0.25"
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]  # row index

    def test_mean_iter_seconds_leaves_out_the_first_row(self):
        trace = Trace()
        trace.append(-1.5, 4.0, 0.5, 0, 2, float("nan"))
        assert trace.mean_iter_seconds == 4.0  # the only row counts
        trace.append(-1.6, 1.0, 0.5, 0, 2, float("nan"))
        trace.append(-1.7, 2.0, 0.5, 0, 2, float("nan"))
        assert trace.mean_iter_seconds == 1.5

    def test_solver_trace_well_formed(self):
        model, ctx = sampled_ctx(15, 2, 500, seed=37)
        _, trace = ep_lvm(ctx, SolverConfig(rank=2, max_iters=25))
        assert len(trace) == len(trace.nll) == len(trace.seconds)
        assert all(s >= 0 for s in trace.seconds)
        assert all(np.isnan(x) for x in trace.rel_error)  # no truth given

    def test_max_iters_stop_keeps_one_row_per_iteration(self, monkeypatch):
        # no NLL window and an oversized first step, which forces halvings
        model, ctx = sampled_ctx(15, 2, 500, seed=37)
        monkeypatch.setattr(solvers, "auto_step_size", lambda ctx: 50.0)
        _, trace = ep_lvm(ctx, SolverConfig(rank=2, max_iters=8, nll_tolerance=0))
        assert trace.status == "max-iters"
        assert len(trace) == 8 and len(trace.nll) == len(trace.halvings) == 8
        assert trace.total_halvings == sum(trace.halvings) > 0
