import numpy as np
import pytest

from lvggm.baseline import AdmmConfig, admm_lvglasso, soft_threshold, svt
from lvggm.datagen import gen_model, sample_covariance
from lvggm.objective import ModelContext, nll
from lvggm.solvers import SolverConfig, ep_lvm


class TestProxOperators:
    def test_svt_closed_form(self):
        out = svt(np.diag([3.0, 1.0, 0.2]), 0.5)
        assert np.allclose(out, np.diag([2.5, 0.5, 0.0]), atol=1e-12)

    def test_svt_clamps_to_psd(self, rng):
        A = rng.standard_normal((6, 6))
        A = (A + A.T) / 2
        out = svt(A, 0.1)
        assert np.linalg.eigvalsh(out)[0] >= -1e-12

    def test_soft_threshold_scalar_forms(self):
        assert soft_threshold(3.0, 0.5) == 2.5
        assert soft_threshold(-3.0, 0.5) == -2.5
        assert soft_threshold(0.3, 0.5) == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmmConfig(l1_weight=-1.0)
        with pytest.raises(ValueError):
            AdmmConfig(rho=0.0)


class TestAdmmLvglasso:
    def test_huge_nuclear_weight_kills_low_rank_part(self):
        model = gen_model(20, 2, seed=3)
        C = sample_covariance(model, 4000, seed=4)
        cfg = AdmmConfig(l1_weight=0.01, nuclear_weight=1e6, max_iters=200)
        _, L_hat, _ = admm_lvglasso(C, cfg)
        assert np.abs(L_hat).max() < 1e-8

    def test_primal_residual_trends_down(self):
        model = gen_model(30, 2, seed=5)
        C = sample_covariance(model, 6000, seed=6)
        cfg = AdmmConfig(l1_weight=0.02, nuclear_weight=0.05, max_iters=120)
        _, _, trace = admm_lvglasso(C, cfg)
        res = np.asarray(trace.primal_residual)
        assert len(res) >= 20
        # windowed minima non-increasing over 10-iteration windows
        mins = [res[i : i + 10].min() for i in range(0, len(res) - 9, 10)]
        assert len(mins) >= 2
        assert all(a >= b - 1e-12 for a, b in zip(mins, mins[1:]))

    def test_converged_flag_and_theta_pd(self):
        model = gen_model(15, 2, seed=7)
        C = sample_covariance(model, 3000, seed=8)
        cfg = AdmmConfig(l1_weight=0.05, nuclear_weight=0.1, max_iters=400)
        S_hat, L_hat, trace = admm_lvglasso(C, cfg)
        assert trace.iterations <= 400
        # L PSD by construction; combined estimate stays invertible
        assert np.linalg.eigvalsh(L_hat)[0] >= -1e-10

    def test_trace_times_every_iteration(self):
        model = gen_model(15, 2, seed=7)
        C = sample_covariance(model, 3000, seed=8)
        _, _, trace = admm_lvglasso(C, AdmmConfig(max_iters=30))
        assert len(trace.seconds) == len(trace.primal_residual) == trace.iterations
        assert all(s > 0.0 for s in trace.seconds)
        # the PGD trace's rule: the first iteration is left out
        assert trace.mean_iter_seconds == float(np.mean(trace.seconds[1:]))

    def test_rank_exceeds_target_and_error_no_better_than_ep(self):
        # qualitative ordering at small scale; the tuned comparison runs in
        # the acceptance suite
        p, r, n = 60, 3, 6000
        model = gen_model(p, r, seed=9)
        C = sample_covariance(model, n, seed=10)
        ctx = ModelContext.create(model.S_star, C, validate_psd=False)
        tn = nll(ctx, model.L_factor)
        _, tr = ep_lvm(ctx, SolverConfig(rank=r, true_nll_floor=tn), truth=model.L_factor)

        base = np.sqrt(np.log(p) / n)
        cfg = AdmmConfig(l1_weight=base, nuclear_weight=np.sqrt(p / n), max_iters=300)
        _, L_hat, _ = admm_lvglasso(C, cfg)
        w = np.abs(np.linalg.eigvalsh(L_hat))
        eff_rank = int(np.sum(w > 1e-8 * w.max()))
        rel = np.linalg.norm(L_hat - model.L_star, "fro") / np.linalg.norm(
            model.L_star, "fro"
        )
        assert eff_rank > r
        assert rel >= tr.rel_error[-1]
