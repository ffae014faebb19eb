import dataclasses

import numpy as np
import pytest
import scipy.linalg

from lvggm.datagen import gen_model, sample_covariance
from lvggm.linalg import (
    CholeskyFactor,
    NotPositiveDefiniteError,
    cholesky_logdet,
    symmetrize,
    woodbury_inverse,
)
from lvggm.objective import (
    GradientOperator,
    ModelContext,
    gradient,
    nll,
    projected_gradient_norm,
    rsc_rss_bounds,
)

from .conftest import random_spd
from .oracles import fd_factor_gradient, kron_hessian_extremes, loglog_slope


def make_ctx(rng, p, r, n=None):
    """Random well-conditioned instance; n=None uses the population covariance."""
    model = gen_model(p, r, seed=int(rng.integers(2**31)))
    if n is None:
        C = model.sigma_star
    else:
        C = sample_covariance(model, n, seed=int(rng.integers(2**31)))
    return model, ModelContext.create(model.S_star, C)


class TestModelContext:
    def test_requires_pd_sparse_part(self, rng):
        S = -np.eye(4)
        with pytest.raises(NotPositiveDefiniteError):
            ModelContext.create(S, np.eye(4))

    def test_rejects_non_psd_covariance(self):
        C = np.diag([1.0, -0.5])
        with pytest.raises(ValueError):
            ModelContext.create(np.eye(2), C)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            ModelContext.create(np.eye(3), np.eye(4))


class TestNll:
    def test_identity_instance(self):
        ctx = ModelContext.create(np.eye(3), np.eye(3))
        assert nll(ctx, np.zeros((3, 3))) == pytest.approx(3.0, abs=1e-12)

    def test_diagonal_closed_form(self):
        ctx = ModelContext.create(2.0 * np.eye(2), 0.5 * np.eye(2))
        expected = -2.0 * np.log(2.0) + 2.0
        assert nll(ctx, np.zeros((2, 2))) == pytest.approx(expected, abs=1e-12)

    def test_matches_spectral_oracle(self, rng):
        model, ctx = make_ctx(rng, 6, 2, n=300)
        L = model.L_star
        theta = symmetrize(model.S_star + L)
        w = np.linalg.eigvalsh(theta)
        trace = 0.0
        for i in range(6):
            for j in range(6):
                trace += theta[i, j] * ctx.C[i, j]
        oracle = -float(np.sum(np.log(w))) + trace
        assert nll(ctx, L) == pytest.approx(oracle, abs=1e-9)

    def test_all_input_forms_agree(self, rng):
        model, ctx = make_ctx(rng, 8, 3, n=200)
        U = model.L_factor
        Q, R = np.linalg.qr(U)
        w, E = np.linalg.eigh(R @ R.T)
        forms = [nll(ctx, U), nll(ctx, U @ U.T), nll(ctx, (Q @ E, w))]
        assert max(forms) - min(forms) < 1e-9

    def test_not_pd_raises(self):
        ctx = ModelContext.create(np.eye(3), np.eye(3))
        with pytest.raises(NotPositiveDefiniteError):
            nll(ctx, -2.0 * np.eye(3))
        v = np.zeros((3, 1))
        v[0] = 1.0
        with pytest.raises(NotPositiveDefiniteError):
            nll(ctx, (v, np.array([-1.5])))


class TestGradient:
    def test_zero_at_stationary_point(self, rng):
        model, ctx = make_ctx(rng, 10, 2)  # population covariance
        G = gradient(ctx, model.L_factor)
        assert np.abs(G).max() < 1e-10

    def test_identity_closed_form(self):
        ctx = ModelContext.create(np.eye(2), 2.0 * np.eye(2))
        G = gradient(ctx, np.zeros((2, 2)))
        assert np.abs(G - np.eye(2)).max() < 1e-12

    def test_matches_finite_differences(self, rng):
        model, ctx = make_ctx(rng, 6, 2, n=100)
        U = model.L_factor * 0.7
        analytic = 2.0 * gradient(ctx, U) @ U
        fd = fd_factor_gradient(lambda X: nll(ctx, X), U, h=1e-5)
        rel = np.linalg.norm(fd - analytic, "fro") / np.linalg.norm(analytic, "fro")
        assert rel < 1e-6

    def test_dense_and_factor_paths_agree(self, rng):
        model, ctx = make_ctx(rng, 7, 2, n=150)
        U = model.L_factor
        oracle = ctx.C - np.linalg.inv(model.S_star + U @ U.T)
        for L in (U, U @ U.T):
            assert np.abs(gradient(ctx, L) - oracle).max() < 1e-10


class TestGradientOperator:
    def test_eigenform_gives_operator_matching_dense_gradient(self, rng):
        model, ctx = make_ctx(rng, 12, 2, n=300)
        V, _ = np.linalg.qr(rng.standard_normal((12, 3)))
        d = np.array([0.8, 0.3, -0.1])
        G = gradient(ctx, (V, d))
        assert isinstance(G, GradientOperator)
        assert G.shape == (12, 12)
        dense = ctx.C - np.linalg.inv(model.S_star + (V * d) @ V.T)
        assert np.array_equal(G.dense(), G.dense().T)
        assert np.abs(G.dense() - dense).max() < 1e-10
        assert np.array_equal(np.asarray(G), G.dense())
        X = rng.standard_normal((12, 4))
        assert np.abs(G @ X - dense @ X).max() < 1e-10

    def test_mixed_sign_eigenform_matches_inverse_oracle(self, rng):
        p = 30
        S = random_spd(rng, p, shift=2.0)
        ctx = ModelContext.create(S, np.eye(p))
        Q = np.linalg.qr(rng.standard_normal((p, 4)))[0]
        d = np.array([0.8, -0.1, 0.5, -0.05])
        for V, w in ((Q, d), (Q[:, :0], d[:0])):
            oracle = ctx.C - np.linalg.inv(S + (V * w) @ V.T)
            assert np.abs(gradient(ctx, (V, w)).dense() - oracle).max() < 1e-10

    def test_singular_update_raises(self):
        ctx = ModelContext.create(np.eye(5), np.eye(5))
        v = np.zeros((5, 1))
        v[0, 0] = 1.0
        with pytest.raises(NotPositiveDefiniteError):
            gradient(ctx, (v, np.array([-1.0])))


class TestDiagonalFastPath:
    """A diagonal ``S`` divides elementwise; the dense-inverse route is the
    reference."""

    def _contexts(self, rng, p=15, r=2):
        model = gen_model(p, r, seed=int(rng.integers(2**31)))
        C = sample_covariance(model, 40 * p, seed=int(rng.integers(2**31)))
        fast = ModelContext.create(model.S_star, C)
        assert fast.S_chol.is_diagonal
        c, lower = scipy.linalg.cho_factor(model.S_star, lower=True)
        slow = dataclasses.replace(fast, S_chol=CholeskyFactor(c, lower))
        assert not slow.S_chol.is_diagonal
        return model, fast, slow

    def test_nll_gradient_and_woodbury_match_dense_inverse_route(self, rng):
        model, fast, slow = self._contexts(rng)
        p = fast.p
        V, _ = np.linalg.qr(rng.standard_normal((p, 3)))
        d = np.array([0.6, 0.2, -0.05])
        U = model.L_factor
        for L in ((V, d), U, U @ U.T):
            assert abs(nll(fast, L) - nll(slow, L)) <= 1e-12 * max(1.0, abs(nll(slow, L)))
        assert np.abs(fast.residual0 - slow.residual0).max() <= 1e-12
        for L in ((V, d), (V[:, :0], d[:0])):
            assert np.abs(
                gradient(fast, L).dense() - gradient(slow, L).dense()
            ).max() <= 1e-12
        for L in (U, U @ U.T):
            assert np.abs(gradient(fast, L) - gradient(slow, L)).max() <= 1e-12
        assert np.abs(
            woodbury_inverse(fast.S_chol, U) - woodbury_inverse(slow.S_chol, U)
        ).max() <= 1e-12

    def test_fast_path_builds_no_dense_inverse(self, rng, monkeypatch):
        def no_inverse(self):
            raise AssertionError("dense S inverse built")

        _, fast, _ = self._contexts(rng)
        monkeypatch.setattr(CholeskyFactor, "inverse", property(no_inverse))
        V, _ = np.linalg.qr(rng.standard_normal((fast.p, 2)))
        d = np.array([0.5, 0.1])
        nll(fast, (V, d))
        gradient(fast, (V, d)) @ V

    def test_tridiagonal_takes_dense_route(self, rng):
        s = rng.uniform(1.0, 2.0, 10)
        S = np.diag(s) + np.diag(0.2 * s[:-1], 1) + np.diag(0.2 * s[:-1], -1)
        fac, logdet = cholesky_logdet(S)
        assert not fac.is_diagonal
        assert abs(logdet - np.linalg.slogdet(S)[1]) < 1e-12
        fac, logdet = cholesky_logdet(np.diag(s))
        assert fac.is_diagonal
        assert abs(logdet - float(np.sum(np.log(s)))) < 1e-12
        b = rng.standard_normal((10, 3))
        assert np.abs(fac.solve(b) - b / s[:, None]).max() < 1e-15

    def test_non_positive_diagonal_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_logdet(np.diag([1.0, 0.0, 2.0]))


class TestRscRssBounds:
    def test_scaled_identity(self):
        b = rsc_rss_bounds(2.0 * np.eye(4))
        assert b.m_lower == pytest.approx(0.25, abs=1e-14)
        assert b.M_upper == pytest.approx(0.25, abs=1e-14)

    def test_identity(self):
        b = rsc_rss_bounds(np.eye(3))
        assert (b.m_lower, b.M_upper) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_matches_kronecker_oracle(self, rng):
        theta = random_spd(rng, 5)
        b = rsc_rss_bounds(theta)
        lo, hi = kron_hessian_extremes(theta)
        assert b.m_lower == pytest.approx(lo, abs=1e-9)
        assert b.M_upper == pytest.approx(hi, abs=1e-9)

    def test_ordering_and_identity_equality(self, rng):
        for _ in range(10):
            theta = random_spd(rng, 6)
            b = rsc_rss_bounds(theta)
            assert 0 < b.m_lower <= b.M_upper
        b = rsc_rss_bounds(3.7 * np.eye(5))
        assert b.m_lower == pytest.approx(b.M_upper, rel=1e-12)

    def test_non_pd_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            rsc_rss_bounds(np.diag([1.0, -1.0]))

    def test_smoothness_bound_along_psd_iterates(self, rng):
        # for PSD L, lambda_min(S + L) >= lambda_min(S)
        model, ctx = make_ctx(rng, 8, 2, n=400)
        bound = 1.0 / np.linalg.eigvalsh(model.S_star)[0] ** 2
        for scale in (0.0, 0.3, 1.0):
            theta = symmetrize(model.S_star + scale * model.L_star)
            assert rsc_rss_bounds(theta).M_upper <= bound + 1e-10

    def test_smoothness_bound_along_ep_trajectory(self, rng):
        from lvggm.solvers import SolverConfig, ep_lvm

        model, ctx = make_ctx(rng, 15, 2, n=1500)
        bound = 1.0 / np.linalg.eigvalsh(model.S_star)[0] ** 2
        est, _ = ep_lvm(ctx, SolverConfig(rank=2, max_iters=60))
        theta = symmetrize(model.S_star + est.dense())
        assert rsc_rss_bounds(theta).M_upper <= bound + 1e-10


class TestProjectedGradientNorm:
    def test_zero_at_population_covariance(self, rng):
        model, ctx = make_ctx(rng, 12, 2)
        assert projected_gradient_norm(ctx, model.L_factor, 2) < 1e-8

    def test_quadrupling_n_halves_the_norm(self, rng):
        p, r, n = 40, 3, 1500
        model = gen_model(p, r, seed=5)
        med = {}
        for factor in (1, 4):
            vals = []
            for trial in range(20):
                C = sample_covariance(model, factor * n, seed=1000 * factor + trial)
                ctx = ModelContext.create(model.S_star, C, validate_psd=False)
                vals.append(projected_gradient_norm(ctx, model.L_factor, r))
            med[factor] = float(np.median(vals))
        ratio = med[1] / med[4]
        assert 1.6 <= ratio <= 2.4

    def test_loglog_slope_versus_n(self, rng):
        p, r = 50, 3
        model = gen_model(p, r, seed=8)
        ns = [500, 1000, 2000, 4000, 8000]
        medians = []
        for n in ns:
            vals = []
            for trial in range(20):
                C = sample_covariance(model, n, seed=77 * n + trial)
                ctx = ModelContext.create(model.S_star, C, validate_psd=False)
                vals.append(projected_gradient_norm(ctx, model.L_factor, r))
            medians.append(float(np.median(vals)))
        slope = loglog_slope(ns, medians)
        assert -0.65 <= slope <= -0.35
