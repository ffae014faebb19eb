import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from lvggm.datagen import gen_model, sample_covariance
from lvggm.objective import ModelContext, gradient
from lvggm.projections import (
    ProjectionConfig,
    _krylov_basis,
    bk_svd,
    compress_symmetric,
    default_krylov_depth,
    head_project,
    lanczos_subspace,
    psd_rank_r_project,
)

from .conftest import random_spd, random_symmetric
from .oracles import psd_clamp_truncate


class TestProjectionConfig:
    def test_constant_ranges_enforced(self):
        with pytest.raises(ValueError):
            ProjectionConfig(target_tail_constant=1.0)
        with pytest.raises(ValueError):
            ProjectionConfig(target_head_constant=1.0)
        with pytest.raises(ValueError):
            ProjectionConfig(target_head_constant=0.0)
        with pytest.raises(ValueError):
            ProjectionConfig(backend="qr")

    def test_default_depth(self):
        assert default_krylov_depth(100) == 7
        assert default_krylov_depth(200) == 8
        assert default_krylov_depth(1024) == 10


class TestPsdRankRProject:
    def test_clamps_negative_eigenvalue(self):
        U = psd_rank_r_project(np.diag([3.0, 1.0, -2.0]), 2)
        assert np.abs(U @ U.T - np.diag([3.0, 1.0, 0.0])).max() < 1e-12

    def test_psd_low_rank_fixed_point(self, rng):
        G = rng.standard_normal((6, 2))
        A = G @ G.T
        U = psd_rank_r_project(A, 2)
        assert np.abs(U @ U.T - A).max() < 1e-10

    def test_matches_clamp_truncate_oracle(self, rng):
        A = random_symmetric(rng, 6)
        U = psd_rank_r_project(A, 3)
        assert np.abs(U @ U.T - psd_clamp_truncate(A, 3)).max() < 1e-12

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=5))
    def test_output_psd_and_rank_bounded(self, seed, r):
        A = random_symmetric(np.random.default_rng(seed), 6)
        U = psd_rank_r_project(A, r)
        L = U @ U.T
        w = np.linalg.eigvalsh(L)
        assert w[0] >= -1e-12
        assert np.sum(np.abs(w) > 1e-10 * max(1.0, abs(w[-1]))) <= r

    def test_projection_optimality_sampled(self, rng):
        # closer than 1000 random PSD rank-r candidates
        A = random_symmetric(rng, 6)
        r = 2
        U = psd_rank_r_project(A, r)
        best = np.linalg.norm(A - U @ U.T, "fro")
        for _ in range(1000):
            G = rng.standard_normal((6, r))
            cand = G @ G.T
            cand *= np.linalg.norm(A, "fro") / max(np.linalg.norm(cand, "fro"), 1e-12)
            scale = rng.uniform(0.0, 1.5)
            assert best <= np.linalg.norm(A - scale * cand, "fro") + 1e-12


class TestBkSvd:
    def test_exact_rank_input_zero_tail(self, rng):
        G = rng.standard_normal((40, 3))
        A = G @ G.T
        _, B = bk_svd(A, 3, ProjectionConfig(seed=5))
        assert np.linalg.norm(A - B, "fro") <= 1e-8 * np.linalg.norm(A, "fro")

    def test_separated_spectrum(self):
        A = np.diag([4.0, 2.0, 1.0])
        cfg = ProjectionConfig(seed=1, krylov_depth=10)
        sub, B = bk_svd(A, 2, cfg)
        # basis spans e1, e2
        coords = sub.basis[2, :]
        assert np.abs(coords).max() < 1e-8
        assert np.linalg.norm(A - B, "fro") <= cfg.target_tail_constant * 1.0

    def test_guarantees_small_sample(self, rng):
        # full 100-trial version runs in the acceptance suite
        for i in range(10):
            A = np.random.default_rng([3, i]).standard_normal((100, 100))
            _, B = bk_svd(A, 8, ProjectionConfig(seed=i))
            U, s, Vt = np.linalg.svd(A)
            Ar = (U[:, :8] * s[:8]) @ Vt[:8]
            tail = np.linalg.norm(A - B, "fro") / np.linalg.norm(A - Ar, "fro")
            head = np.linalg.norm(B, "fro") / np.linalg.norm(Ar, "fro")
            assert tail <= 1.1
            assert head >= 0.9

    def test_deterministic_for_fixed_seed(self, rng):
        A = random_symmetric(rng, 50)
        cfg = ProjectionConfig(seed=123)
        sub1, B1 = bk_svd(A, 4, cfg)
        sub2, B2 = bk_svd(A, 4, cfg)
        assert np.array_equal(sub1.basis, sub2.basis)
        assert np.array_equal(B1, B2)

    def test_rank_deficient_input_flags_degraded(self, rng):
        G = rng.standard_normal((30, 2))
        A = G @ G.T  # rank 2 < r = 5
        sub, B = bk_svd(A, 5, ProjectionConfig(seed=9))
        assert sub.degraded
        assert sub.basis.shape == (30, 5)
        assert np.abs(sub.basis.T @ sub.basis - np.eye(5)).max() < 1e-8
        assert np.linalg.norm(A - B, "fro") <= 1e-8 * np.linalg.norm(A, "fro")

    def test_orthonormal_basis_invariant(self, rng):
        A = random_symmetric(rng, 60)
        sub, _ = bk_svd(A, 6, ProjectionConfig(seed=2))
        assert np.abs(sub.basis.T @ sub.basis - np.eye(6)).max() <= 1e-8


class TestTailProject:
    """Tail projections ``Z Z^T A`` on each backend's rank-r subspace."""

    def test_low_rank_fixed_point(self, rng):
        G = rng.standard_normal((25, 3))
        A = G @ G.T
        cfg = ProjectionConfig(seed=4)
        Z = lanczos_subspace(A, 3, cfg).basis
        for out in (bk_svd(A, 3, cfg)[1], Z @ (Z.T @ A)):
            assert np.abs(out - A).max() <= 1e-8 * np.abs(A).max()

    def test_tail_ratio_against_svd_oracle(self, rng):
        A = np.random.default_rng(11).standard_normal((100, 100))
        _, out = bk_svd(A, 5, ProjectionConfig(seed=12))
        U, s, Vt = np.linalg.svd(A)
        Ar = (U[:, :5] * s[:5]) @ Vt[:5]
        ratio = np.linalg.norm(A - out, "fro") / np.linalg.norm(A - Ar, "fro")
        assert ratio <= 1.1


class TestHeadProject:
    def test_low_rank_energy_equality_exact(self, rng):
        G = rng.standard_normal((20, 3))
        A = (G @ G.T)
        sub = head_project(A, 3, ProjectionConfig())
        captured = np.linalg.norm(sub.basis @ (sub.basis.T @ A), "fro")
        assert captured == pytest.approx(np.linalg.norm(A, "fro"), rel=1e-6)

    def test_exact_top2_energy(self):
        A = np.diag([4.0, 2.0, 1.0])
        sub = head_project(A, 2, ProjectionConfig())
        captured = np.linalg.norm(sub.basis @ (sub.basis.T @ A), "fro")
        assert captured == pytest.approx(np.sqrt(20.0), abs=1e-10)

    def test_randomized_head_ratio(self, rng):
        for i in range(10):
            A = np.random.default_rng([7, i]).standard_normal((100, 100))
            sub = head_project(A, 8, ProjectionConfig(seed=100 + i))
            s = np.linalg.svd(A, compute_uv=False)
            captured = np.linalg.norm(sub.basis.T @ A, "fro")
            assert captured >= 0.9 * np.sqrt(np.sum(s[:8] ** 2))


def _gradient_operator(p=80, r=4, seed=5):
    """Gradient operator of a sampled instance at an indefinite iterate."""
    model = gen_model(p, r, seed=seed)
    ctx = ModelContext.create(
        model.S_star, sample_covariance(model, 30 * p, seed=seed + 1)
    )
    V, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((p, r)))
    return gradient(ctx, (V, np.linspace(0.5, -0.1, r)))


class TestOperatorInput:
    def test_operator_and_its_array_span_the_same_subspace(self):
        G = _gradient_operator()
        for seed in range(3):
            cfg = ProjectionConfig(seed=seed)
            on_operator = head_project(G, 8, cfg)
            on_array = head_project(np.asarray(G), 8, cfg)
            angles = scipy.linalg.subspace_angles(on_operator.basis, on_array.basis)
            assert angles.max() <= 1e-8

    def test_ritz_values_are_the_compressed_operator(self):
        G = _gradient_operator()
        sub = head_project(G, 8, ProjectionConfig(seed=4))
        Z = sub.basis
        compressed = Z.T @ (G @ Z)
        assert sub.ritz.shape == (8,)
        assert np.abs(sub.ritz - np.diag(compressed)).max() <= 1e-10
        assert np.abs(np.diag(sub.ritz) - compressed).max() <= 1e-10

    def test_padded_basis_has_no_ritz_values(self, rng):
        U = rng.standard_normal((30, 3))
        sub = head_project(U @ U.T, 5, ProjectionConfig(seed=1))
        assert sub.degraded
        assert sub.ritz is None

    def test_reused_products_equal_recomputed(self, rng):
        U = rng.standard_normal((40, 3))
        cases = (
            (random_symmetric(rng, 40), 4, 3),
            (_gradient_operator(), 6, 2),
            (U @ U.T, 5, 3),  # rank 3 < block 5: blocks deflate
        )
        for A, block, depth in cases:
            Q, AQ = _krylov_basis(
                A, block, depth, np.random.default_rng(2), symmetric=True
            )
            assert AQ.shape == Q.shape
            recomputed = A @ Q
            scale = np.abs(recomputed).max()
            assert np.abs(AQ - recomputed).max() <= 1e-12 * scale
        assert Q.shape[1] == 3


class TestLanczosSubspace:
    def test_dominant_eigenvector(self):
        A = np.diag([10.0] + [1.0] * 9)
        sub = lanczos_subspace(A, 1, ProjectionConfig(seed=3))
        angle_cos = abs(sub.basis[0, 0])
        assert 1.0 - angle_cos < 1e-6

    def test_identity_breakdown_padded(self):
        sub = lanczos_subspace(np.eye(8), 2, ProjectionConfig(seed=4))
        assert sub.degraded
        assert sub.basis.shape == (8, 2)
        captured = np.linalg.norm(sub.basis @ (sub.basis.T @ np.eye(8)), "fro")
        assert captured == pytest.approx(np.sqrt(2.0), abs=1e-10)

    def test_gapped_spectrum_principal_angles(self, rng):
        p, k = 150, 4
        Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
        w = np.concatenate([[40.0, 35.0, 30.0, 25.0], rng.uniform(0.1, 1.0, p - k)])
        A = (Q * w) @ Q.T
        sub = lanczos_subspace((A + A.T) / 2, k, ProjectionConfig(seed=6), steps=30)
        # principal angles against the exact dominant eigenspace
        exact = Q[:, :k]
        s = np.linalg.svd(exact.T @ sub.basis, compute_uv=False)
        max_angle = np.arccos(np.clip(s.min(), -1.0, 1.0))
        assert max_angle < 1e-4

    def test_deterministic(self, rng):
        A = random_spd(rng, 40)
        s1 = lanczos_subspace(A, 3, ProjectionConfig(seed=8))
        s2 = lanczos_subspace(A, 3, ProjectionConfig(seed=8))
        assert np.array_equal(s1.basis, s2.basis)


class TestCompressSymmetric:
    def test_matches_dense_truncation_oracle(self, rng):
        p, m, r = 40, 9, 4
        W = rng.standard_normal((p, m))
        core = random_symmetric(rng, m)
        V, d = compress_symmetric(W, core, r)
        dense = W @ core @ W.T
        w, E = np.linalg.eigh((dense + dense.T) / 2)
        order = np.argsort(-np.abs(w))[:r]
        oracle = (E[:, order] * w[order]) @ E[:, order].T
        assert np.abs((V * d) @ V.T - oracle).max() < 1e-10
        assert np.abs(V.T @ V - np.eye(r)).max() < 1e-8

    def test_rank_deficient_w(self, rng):
        W = np.hstack([rng.standard_normal((20, 3))] * 2)  # rank 3, width 6
        core = np.eye(6)
        V, d = compress_symmetric(W, core, 5)
        dense = W @ W.T
        assert V.shape[1] <= 5
        assert np.abs((V * d) @ V.T - psd_clamp_truncate(dense, 5)).max() < 1e-8
