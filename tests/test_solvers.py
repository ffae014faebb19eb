import numpy as np
import pytest

from lvggm import objective, solvers
from lvggm.datagen import gen_model, sample_covariance
from lvggm.objective import GradientOperator, ModelContext, nll
from lvggm.projections import ProjectionConfig, psd_rank_r_project
from lvggm.solvers import (
    BacktrackingConfig,
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

from .oracles import psd_clamp_truncate


def population_ctx(p, r, seed):
    model = gen_model(p, r, seed=seed)
    return model, ModelContext.create(model.S_star, model.sigma_star)


def sampled_ctx(p, r, n, seed):
    model = gen_model(p, r, seed=seed)
    C = sample_covariance(model, n, seed=seed + 1)
    return model, ModelContext.create(model.S_star, C, validate_psd=False)


class TestAutoStepSize:
    def test_identity(self):
        ctx = ModelContext.create(np.eye(4), np.eye(4))
        assert auto_step_size(ctx) == pytest.approx(0.5)

    def test_scaled_identity(self):
        ctx = ModelContext.create(2.0 * np.eye(4), 0.5 * np.eye(4))
        assert auto_step_size(ctx) == pytest.approx(2.0)

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
                ctx = ModelContext.create(model.S_star, C, validate_psd=False)
                tn = nll(ctx, model.L_factor)
                _, tr = ep_lvm(
                    ctx, SolverConfig(rank=r, true_nll_floor=tn), truth=model.L_factor
                )
                errs.append(tr.rel_error[-1])
            medians.append(float(np.median(errs)))
        assert all(a > b for a, b in zip(medians, medians[1:]))

    def test_divergence_with_exhausted_backtracking(self):
        model, ctx = sampled_ctx(10, 2, 500, seed=23)
        cfg = SolverConfig(
            rank=2,
            step_size=1e8,
            backtracking=BacktrackingConfig(max_halvings=0),
        )
        with pytest.raises(DivergedError) as exc_info:
            ep_lvm(ctx, cfg)
        assert exc_info.value.trace is not None

    def test_rank_exceeding_dimension_rejected(self):
        ctx = ModelContext.create(np.eye(3), np.eye(3))
        with pytest.raises(ValueError):
            ep_lvm(ctx, SolverConfig(rank=4))


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
        # so the head basis must be padded and flagged
        ctx = ModelContext.create(np.eye(10), np.eye(10))
        _, trace = ap_lvm(ctx, SolverConfig(rank=2))
        assert trace.degraded_projections >= 1

    def test_no_degraded_projections_on_regular_run(self):
        model, ctx = sampled_ctx(20, 2, 2000, seed=41)
        _, trace = ap_lvm(
            ctx, SolverConfig(rank=2, max_iters=40, projection=ProjectionConfig(seed=1))
        )
        assert trace.degraded_projections == 0

    def test_noiseless_recovery_block_krylov(self):
        model, ctx = population_ctx(30, 2, seed=7)
        cfg = SolverConfig(
            rank=2, max_iters=300, nll_tolerance=0,
            projection=ProjectionConfig(seed=5),
        )
        _, trace = ap_lvm(ctx, cfg, truth=model.L_factor)
        assert trace.rel_error[-1] < 1e-3
        assert len(trace) <= 300

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

    def test_rank_bounded_and_small_negative_eigenvalues(self):
        model, ctx = sampled_ctx(30, 3, 3000, seed=29)
        cfg = SolverConfig(
            rank=3, max_iters=120, projection=ProjectionConfig(seed=2)
        )
        est, trace = ap_lvm(ctx, cfg, truth=model.L_factor)
        assert all(rk <= 3 for rk in trace.rank)
        # indefiniteness bound: |min eigenvalue| stays below
        # ||L*||_2 (1 + sqrt(r)) plus the observed statistical error
        spectral = float(np.abs(np.linalg.eigvalsh(model.L_star)).max())
        margin = trace.rel_error[-1] * np.linalg.norm(model.L_star, "fro")
        bound = spectral * (1.0 + np.sqrt(3)) + margin
        assert est.values.min() >= -bound

    def test_block_krylov_never_materializes_the_gradient(self, monkeypatch):
        def no_dense(self):
            raise AssertionError("p x p gradient materialized")

        monkeypatch.setattr(GradientOperator, "dense", no_dense)
        model, ctx = sampled_ctx(40, 3, 4000, seed=17)
        cfg = SolverConfig(rank=3, max_iters=25, projection=ProjectionConfig(seed=3))
        est, trace = ap_lvm(ctx, cfg, truth=model.L_factor)
        assert len(trace) > 5
        assert trace.degraded_projections == 0
        assert trace.rel_error[-1] < trace.rel_error[0]

    def test_deterministic_replay(self):
        model, ctx = sampled_ctx(15, 2, 700, seed=31)
        cfg = SolverConfig(rank=2, max_iters=30, projection=ProjectionConfig(seed=9))
        est1, tr1 = ap_lvm(ctx, cfg)
        est2, tr2 = ap_lvm(ctx, cfg)
        assert np.array_equal(est1.dense(), est2.dense())
        assert tr1.nll == tr2.nll


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


class TestPsdFinalize:
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

    def test_dense_input_equals_psd_rank_r_project(self, rng):
        A = rng.standard_normal((12, 12))
        A = (A + A.T) / 2
        out = psd_finalize(A, 4)
        U = psd_rank_r_project(A, 4)
        assert np.abs(out.dense() - U @ U.T).max() < 1e-10


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
        trace.append(0, -1.5, 0.01, 0.5, 0, 2, float("nan"))
        trace.append(1, -1.6, 0.01, 0.5, 1, 2, 0.25)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "iter,nll,seconds,eta,halvings,rank,rel_error"
        assert lines[1].endswith(",")  # empty rel_error when truth absent
        assert lines[2].split(",")[-1] == "0.25"

    def test_solver_trace_well_formed(self):
        model, ctx = sampled_ctx(15, 2, 500, seed=37)
        _, trace = ep_lvm(ctx, SolverConfig(rank=2, max_iters=25))
        assert len(trace.nll) == len(trace.seconds) == len(trace.iters)
        assert all(s >= 0 for s in trace.seconds)
        assert all(np.isnan(x) for x in trace.rel_error)  # no truth given

    def test_trace_every_thins_rows(self):
        model, ctx = sampled_ctx(15, 2, 500, seed=37)
        _, trace = ep_lvm(
            ctx, SolverConfig(rank=2, max_iters=20, nll_tolerance=0, trace_every=5)
        )
        assert all(it % 5 == 0 or it == trace.iters[-1] for it in trace.iters)
        assert len(trace) < 20
