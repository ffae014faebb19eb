import dataclasses

import numpy as np
import pytest
import scipy.linalg

import lvggm.linalg
import lvggm.objective
from lvggm.datagen import gen_model, sample_covariance
from lvggm.linalg import (
    CholeskyFactor,
    NotPositiveDefiniteError,
    cholesky_logdet,
    symmetrize,
    woodbury_core_eig,
)
from lvggm.objective import (
    GradientOperator,
    ModelContext,
    as_eigenform,
    gradient,
    nll,
    pd_margin,
    secant_curvature,
)
from lvggm.solvers import auto_step_size

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

    @pytest.mark.parametrize("scale", [0.5, 100.0])
    def test_psd_tolerance_boundary(self, scale):
        # C = Q diag(lam) Q^T with lam_min = -10 tau or -2 tau (rejected,
        # eigenvalue in the message) or -tau / 2 or -tau / 10 (accepted),
        # tau = 1e-8 max(1, max|C|).
        p = 30
        Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((p, p)))
        lam = scale * np.linspace(0.0, 1.0, p)
        tau = 1e-8 * max(1.0, float(np.abs((Q * lam) @ Q.T).max()))
        for factor, rejected in (
            (-10.0, True), (-2.0, True), (-0.5, False), (-0.1, False),
        ):
            lam[0] = factor * tau
            C = symmetrize((Q * lam) @ Q.T)
            if rejected:
                with pytest.raises(ValueError, match=r"^C is not PSD \(min eigenvalue") as err:
                    ModelContext.create(np.eye(p), C)
                reported = float(str(err.value).split()[-1].rstrip(")"))
                assert reported == pytest.approx(factor * tau, rel=1e-3)
            else:
                ModelContext.create(np.eye(p), C)

    def test_each_input_checked_once(self, rng, monkeypatch):
        checked = []

        def counting(A, name="matrix"):
            checked.append(name)
            return check(A, name)

        check = lvggm.linalg.check_finite_symmetric
        for module in (lvggm.linalg, lvggm.objective):
            monkeypatch.setattr(module, "check_finite_symmetric", counting)
        ModelContext.create(random_spd(rng, 12), np.eye(12))
        assert sorted(checked) == ["C", "S_star"]

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            ModelContext.create(np.eye(3), np.eye(4))

    def test_residual0_is_built_once_on_first_read(self, rng, monkeypatch):
        # the benchmark times S^-1 apart from building the context, and the
        # solvers read (and a test writes NaN into) one array per context
        calls = []
        subtract = CholeskyFactor.subtract_inverse

        def counting(self, A):
            calls.append(None)
            return subtract(self, A)

        monkeypatch.setattr(CholeskyFactor, "subtract_inverse", counting)
        ctx = ModelContext.create(random_spd(rng, 12), np.eye(12))
        assert [f.name for f in dataclasses.fields(ctx)] == ["S_star", "C", "S_chol"]
        assert calls == []
        first = ctx.residual0
        assert ctx.residual0 is first and len(calls) == 1


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
        # the Gram secant_curvature reads, bit for bit the product it replaces
        assert np.array_equal(G.gram, V.T @ G.woodbury[0])

    def test_mixed_sign_eigenform_matches_inverse_oracle(self, rng):
        p = 30
        S = random_spd(rng, p, shift=2.0)
        ctx = ModelContext.create(S, np.eye(p))
        Q = np.linalg.qr(rng.standard_normal((p, 4)))[0]
        d = np.array([0.8, -0.1, 0.5, -0.05])
        for V, w in ((Q, d), (Q[:, :0], d[:0])):
            oracle = ctx.C - np.linalg.inv(S + (V * w) @ V.T)
            assert np.abs(gradient(ctx, (V, w)).dense() - oracle).max() < 1e-10

    def test_empty_iterate_gives_the_bits_of_residual0(self, rng):
        # L = 0 takes the general path: its Woodbury term is p x 0 by 0 x 0
        S = random_spd(rng, 8)
        for S in (np.diag(np.diag(S)), S):  # banded and dense routes
            ctx = ModelContext.create(S, np.eye(8) + 0.1 * S)
            V, d = np.zeros((8, 0)), np.zeros(0)
            G = gradient(ctx, (V, d))
            X = rng.standard_normal((8, 3))
            assert np.array_equal(G.dense(), ctx.residual0)
            assert np.array_equal(G @ X, ctx.residual0 @ X)
            assert np.array_equal(G.low_rank(X), np.zeros((8, 3)))
            expected = -ctx.S_chol.logdet + ctx.trace_SC
            assert nll(ctx, (V, d)) == nll(ctx, (V, d), (V, V)) == expected

    def test_singular_update_raises(self):
        ctx = ModelContext.create(np.eye(5), np.eye(5))
        v = np.zeros((5, 1))
        v[0, 0] = 1.0
        with pytest.raises(NotPositiveDefiniteError):
            gradient(ctx, (v, np.array([-1.0])))


class TestSecantCurvature:
    @pytest.mark.parametrize("k0", [0, 3], ids=["from-zero", "from-rank-3"])
    def test_matches_dense_inner_product(self, rng, k0):
        p = 30
        model, ctx = make_ctx(rng, p, 3, n=3000)
        Q = np.linalg.qr(rng.standard_normal((p, 6)))[0]
        L0 = (Q[:, :k0], rng.uniform(0.1, 1.0, k0))  # k0 = 0: L = 0
        L1 = (Q[:, 3:], np.array([0.9, 0.4, -0.05]))
        G0, G1 = gradient(ctx, L0), gradient(ctx, L1)
        D0, D1 = ((V * d) @ V.T for V, d in (L0, L1))
        # G1 - G0 = (S + L0)^-1 - (S + L1)^-1
        y = np.linalg.inv(model.S_star + D0) - np.linalg.inv(model.S_star + D1)
        want = float(np.sum((D1 - D0) * y))
        assert want > 0
        for got in (
            secant_curvature(L0, G0, L1, G1), secant_curvature(L1, G1, L0, G0)
        ):
            assert abs(got - want) <= 1e-10 * want


class TestDiagonalFastPath:
    """A diagonal ``S`` takes the banded route at bandwidth 0, whose solves
    build no dense inverse; the dense-inverse route is the reference."""

    def _contexts(self, rng, p=15, r=2):
        model = gen_model(p, r, seed=int(rng.integers(2**31)))
        C = sample_covariance(model, 40 * p, seed=int(rng.integers(2**31)))
        fast = ModelContext.create(model.S_star, C)
        assert (fast.S_chol.route, fast.S_chol.bandwidth) == ("banded", 0)
        c, _ = scipy.linalg.cho_factor(model.S_star, lower=True)
        slow = dataclasses.replace(fast, S_chol=CholeskyFactor(c))
        assert slow.S_chol.route == "dense"
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
        VU, dU = as_eigenform(U)
        K_fast, M_fast, _ = woodbury_core_eig(fast.S_chol, VU, dU)
        K_slow, M_slow, _ = woodbury_core_eig(slow.S_chol, VU, dU)
        assert np.abs(K_fast - K_slow).max() <= 1e-12
        assert np.abs(M_fast - M_slow).max() <= 1e-12

    def test_fast_path_builds_no_dense_inverse(self, rng, monkeypatch):
        def no_inverse(self):
            raise AssertionError("dense S inverse built")

        _, fast, _ = self._contexts(rng)
        monkeypatch.setattr(CholeskyFactor, "inverse", property(no_inverse))
        V, _ = np.linalg.qr(rng.standard_normal((fast.p, 2)))
        d = np.array([0.5, 0.1])
        nll(fast, (V, d))
        gradient(fast, (V, d)) @ V

    def test_banded_route_builds_no_dense_inverse(self, rng, monkeypatch):
        def no_inverse(self):
            raise AssertionError("dense S inverse built")

        p = 200
        s = rng.uniform(1.0, 2.0, p)
        off = 0.2 * np.sqrt(s[:-1] * s[1:])
        S = np.diag(s) + np.diag(off, 1) + np.diag(off, -1)
        ctx = ModelContext.create(S, np.eye(p))
        assert ctx.S_chol.route == "banded"
        monkeypatch.setattr(CholeskyFactor, "inverse", property(no_inverse))
        V, _ = np.linalg.qr(rng.standard_normal((p, 2)))
        d = np.array([0.5, 0.1])
        nll(ctx, (V, d))
        gradient(ctx, (V, d)) @ V
        woodbury_core_eig(ctx.S_chol, V, d)
        auto_step_size(ctx)

    def test_tridiagonal_takes_dense_route(self, rng):
        # bandwidth 1 at p=10: the banded route needs 32 b <= p
        s = rng.uniform(1.0, 2.0, 10)
        S = np.diag(s) + np.diag(0.2 * s[:-1], 1) + np.diag(0.2 * s[:-1], -1)
        fac, logdet = cholesky_logdet(S)
        assert fac.route == "dense"
        assert abs(logdet - np.linalg.slogdet(S)[1]) < 1e-12
        fac, logdet = cholesky_logdet(np.diag(s))
        assert (fac.route, fac.bandwidth) == ("banded", 0)
        assert abs(logdet - float(np.sum(np.log(s)))) < 1e-12
        b = rng.standard_normal((10, 3))
        assert np.abs(fac.solve(b) - b / s[:, None]).max() < 1e-15

    def test_non_positive_diagonal_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_logdet(np.diag([1.0, 0.0, 2.0]))


class TestPdMargin:
    """``pd_margin`` is the smallest generalized eigenvalue of ``(S + L, S)``."""

    @pytest.mark.parametrize("banded", [False, True])
    def test_matches_generalized_eigenvalue_oracle(self, rng, banded):
        p = 12
        s = rng.uniform(1.0, 2.0, p)
        S = np.diag(s)
        if banded:
            S += np.diag(0.2 * s[:-1], 1) + np.diag(0.2 * s[:-1], -1)
        ctx = ModelContext.create(S, np.eye(p))
        assert ctx.S_chol.route == ("dense" if banded else "banded")
        lam_min = float(np.linalg.eigvalsh(S)[0])
        Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        for d in (
            np.array([1.5, -0.6 * lam_min, 0.3]),  # mixed sign, S + L PD
            np.array([0.8, 0.2]),  # PSD: the margin is 1
            rng.uniform(0.1, 1.0, p),  # full rank, positive: above 1
        ):
            V = Q[:, : d.size]
            oracle = scipy.linalg.eigh(S + (V * d) @ V.T, S, eigvals_only=True)[0]
            assert abs(pd_margin(ctx, (V, d)) - oracle) <= 1e-10

    def test_zero_estimate(self):
        ctx = ModelContext.create(np.diag([1.0, 2.0, 3.0]), np.eye(3))
        assert pd_margin(ctx, (np.zeros((3, 0)), np.zeros(0))) == 1.0


class TestRscRssBounds:
    """The Hessian of F at ``L`` is ``theta^-1 (x) theta^-1`` with
    ``theta = S + L``, so its curvature lies in
    ``[1/lambda_max(theta)^2, 1/lambda_min(theta)^2]``; the solvers' first
    step :func:`auto_step_size` is ``0.5 / M`` for ``M = 1/lambda_min(S)^2``."""

    @staticmethod
    def smoothness(theta):
        return 1.0 / np.linalg.eigvalsh(symmetrize(theta))[0] ** 2

    def test_matches_kronecker_oracle(self, rng):
        theta = random_spd(rng, 5)
        w = np.linalg.eigvalsh(theta)
        lo, hi = kron_hessian_extremes(theta)
        assert 1.0 / w[-1] ** 2 == pytest.approx(lo, abs=1e-9)
        assert 1.0 / w[0] ** 2 == pytest.approx(hi, abs=1e-9)
        eta = auto_step_size(ModelContext.create(theta, np.eye(5)))
        assert 0.5 / eta == pytest.approx(hi, abs=1e-9)

    def test_smoothness_bound_along_psd_iterates(self, rng):
        # for PSD L, lambda_min(S + L) >= lambda_min(S)
        model, ctx = make_ctx(rng, 8, 2, n=400)
        bound = 0.5 / auto_step_size(ctx)
        for scale in (0.0, 0.3, 1.0):
            theta = model.S_star + scale * model.L_star
            assert self.smoothness(theta) <= bound + 1e-10

    def test_smoothness_bound_along_ep_trajectory(self, rng):
        from lvggm.solvers import SolverConfig, ep_lvm

        model, ctx = make_ctx(rng, 15, 2, n=1500)
        bound = 0.5 / auto_step_size(ctx)
        est, _ = ep_lvm(ctx, SolverConfig(rank=2, max_iters=60))
        assert self.smoothness(model.S_star + est.dense()) <= bound + 1e-10


def gradient_norm_surrogate(ctx, L_factor, r):
    """``sqrt(3 r) ||grad F(L*)||_2``, from the gradient the solvers form."""
    G = gradient(ctx, L_factor)
    return float(np.sqrt(3.0 * r) * np.abs(np.linalg.eigvalsh(G)).max())


class TestProjectedGradientNorm:
    def test_zero_at_population_covariance(self, rng):
        model, ctx = make_ctx(rng, 12, 2)
        assert gradient_norm_surrogate(ctx, model.L_factor, 2) < 1e-8

    def test_quadrupling_n_halves_the_norm(self, rng):
        p, r, n = 40, 3, 1500
        model = gen_model(p, r, seed=5)
        med = {}
        for factor in (1, 4):
            vals = []
            for trial in range(20):
                C = sample_covariance(model, factor * n, seed=1000 * factor + trial)
                ctx = ModelContext.create(model.S_star, C)
                vals.append(gradient_norm_surrogate(ctx, model.L_factor, r))
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
                ctx = ModelContext.create(model.S_star, C)
                vals.append(gradient_norm_surrogate(ctx, model.L_factor, r))
            medians.append(float(np.median(vals)))
        slope = loglog_slope(ns, medians)
        assert -0.65 <= slope <= -0.35
