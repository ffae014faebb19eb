import importlib.util
import sys
from pathlib import Path

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
    _lanczos_basis,
    compress_symmetric,
    derived_seed,
    head_project,
    rng_for,
)
from lvggm.solvers import psd_finalize

from .conftest import random_spd, random_symmetric
from .oracles import bk_svd, lanczos_rowmajor, psd_clamp_truncate

_BACKENDS = ("block-krylov", "lanczos")


class TestDerivedSeed:
    def test_benchmark_copy_derives_the_same_seeds(self, monkeypatch):
        # perfbench keeps its own copy of derived_seed; its instances follow
        # the library's streams only while the two agree
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up while the file runs
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        for seed in (0, -1, 2**64 - 1, 9):
            for salts in ((), (1,), (3, 0), (0xC0F, 7, 2)):
                assert workloads.derived_seed(seed, *salts) == derived_seed(seed, *salts)


class TestProjectionConfig:
    def test_constant_ranges_enforced(self):
        with pytest.raises(ValueError):
            ProjectionConfig(backend="qr")


class TestPsdRankRProject:
    """:func:`psd_finalize` of a dense symmetric matrix is its Euclidean
    projection onto ``{rank <= r, PSD}``."""

    def test_clamps_negative_eigenvalue(self):
        P = psd_finalize(np.diag([3.0, 1.0, -2.0]), 2).dense()
        assert np.abs(P - np.diag([3.0, 1.0, 0.0])).max() < 1e-12

    def test_psd_low_rank_fixed_point(self, rng):
        G = rng.standard_normal((6, 2))
        A = G @ G.T
        P = psd_finalize(A, 2).dense()
        assert np.abs(P - A).max() < 1e-10

    def test_matches_clamp_truncate_oracle(self, rng):
        A = random_symmetric(rng, 6)
        P = psd_finalize(A, 3).dense()
        assert np.abs(P - psd_clamp_truncate(A, 3)).max() < 1e-12

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=5))
    def test_output_psd_and_rank_bounded(self, seed, r):
        A = random_symmetric(np.random.default_rng(seed), 6)
        w = np.linalg.eigvalsh(psd_finalize(A, r).dense())
        assert w[0] >= -1e-12
        assert np.sum(np.abs(w) > 1e-10 * max(1.0, abs(w[-1]))) <= r

    def test_projection_optimality_sampled(self, rng):
        # closer than 1000 random PSD rank-r candidates
        A = random_symmetric(rng, 6)
        r = 2
        best = np.linalg.norm(A - psd_finalize(A, r).dense(), "fro")
        for _ in range(1000):
            G = rng.standard_normal((6, r))
            cand = G @ G.T
            cand *= np.linalg.norm(A, "fro") / max(np.linalg.norm(cand, "fro"), 1e-12)
            scale = rng.uniform(0.0, 1.5)
            assert best <= np.linalg.norm(A - scale * cand, "fro") + 1e-12


class TestBkSvd:
    """The paper's reference BK-SVD (``oracles.bk_svd``), which acceptance
    criterion 4 runs: its tail and head constants."""

    def test_exact_rank_input_zero_tail(self, rng):
        G = rng.standard_normal((40, 3))
        A = G @ G.T
        _, B = bk_svd(A, 3, seed=5)
        assert np.linalg.norm(A - B, "fro") <= 1e-8 * np.linalg.norm(A, "fro")

    def test_separated_spectrum(self):
        A = np.diag([4.0, 2.0, 1.0])
        Z, B = bk_svd(A, 2, seed=1)
        # basis spans e1, e2
        coords = Z[2, :]
        assert np.abs(coords).max() < 1e-8
        assert np.linalg.norm(A - B, "fro") <= 1.1 * 1.0

    def test_guarantees_small_sample(self, rng):
        # full 100-trial version runs in the acceptance suite
        for i in range(10):
            A = np.random.default_rng([3, i]).standard_normal((100, 100))
            _, B = bk_svd(A, 8, seed=i)
            U, s, Vt = np.linalg.svd(A)
            Ar = (U[:, :8] * s[:8]) @ Vt[:8]
            tail = np.linalg.norm(A - B, "fro") / np.linalg.norm(A - Ar, "fro")
            head = np.linalg.norm(B, "fro") / np.linalg.norm(Ar, "fro")
            assert tail <= 1.1
            assert head >= 0.9

    @pytest.mark.parametrize("k", [10, 50])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_advertised_constants_at_solver_size(self, k, symmetric):
        # c_T = 1.1 and c_H = 0.9 at p = 1000, against exact singular values
        p = 1000
        A = np.random.default_rng([1000, k]).standard_normal((p, p))
        if symmetric:
            A = (A + A.T) / 2.0
            s = np.sort(np.abs(np.linalg.eigvalsh(A)))[::-1]
        else:
            s = np.linalg.svd(A, compute_uv=False)
        _, B = bk_svd(A, k, seed=k)
        tail = np.linalg.norm(A - B, "fro") / np.sqrt(np.sum(s[k:] ** 2))
        head = np.linalg.norm(B, "fro") / np.sqrt(np.sum(s[:k] ** 2))
        assert tail <= 1.1
        assert head >= 0.9


class TestTailProject:
    """Tail projections ``Z Z^T A`` on each backend's rank-r subspace."""

    def test_low_rank_fixed_point(self, rng):
        G = rng.standard_normal((25, 3))
        A = G @ G.T
        for backend in _BACKENDS:
            Z = head_project(A, 3, ProjectionConfig(seed=4, backend=backend)).basis
            assert np.abs(Z @ (Z.T @ A) - A).max() <= 1e-8 * np.abs(A).max()

    def test_tail_ratio_against_svd_oracle(self, rng):
        A = np.random.default_rng(11).standard_normal((100, 100))
        U, s, Vt = np.linalg.svd(A)
        Ar = (U[:, :5] * s[:5]) @ Vt[:5]
        for backend in _BACKENDS:
            cfg = ProjectionConfig(seed=12, backend=backend)
            Z = head_project(_Gram(A), 5, cfg).basis
            out = Z @ (Z.T @ A)
            ratio = np.linalg.norm(A - out, "fro") / np.linalg.norm(A - Ar, "fro")
            assert ratio <= 1.1


class _CountingOperator:
    """Symmetric operator that counts the blocks it is applied to."""

    def __init__(self, A):
        self.A = A
        self.shape = A.shape
        self.blocks = 0

    def __matmul__(self, X):
        self.blocks += 1
        return self.A @ X


class _Gram:
    """The symmetric operator ``X -> A (A^T X)`` of a square array ``A``:
    its dominant eigenspace is the left singular subspace of ``A``."""

    def __init__(self, A):
        self.A = A
        self.shape = A.shape

    def __matmul__(self, X):
        return self.A @ (self.A.T @ X)


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

    @pytest.mark.parametrize("p,k", [(100, 10), (500, 20)])
    def test_depth_does_not_follow_dimension(self, p, k):
        # one Krylov step at every size: the start block, one step and the
        # products of the last block
        A = _CountingOperator(random_symmetric(np.random.default_rng(p), p))
        sub = head_project(A, k, ProjectionConfig(seed=1))
        assert not sub.degraded
        assert A.blocks == 3

    def test_rank_deficient_gradient_is_flagged_at_every_seed(self):
        # population instance: the gradient at L = 0 has rank 2, below the
        # head rank 4, so every start block is short of four directions
        model = gen_model(20, 2, seed=11)
        ctx = ModelContext.create(model.S_star, model.sigma_star)
        G = gradient(ctx, (np.zeros((20, 0)), np.zeros(0)))
        unflagged = [
            seed for seed in range(300)
            if not head_project(G, 4, ProjectionConfig(seed=seed)).degraded
        ]
        assert unflagged == []

    def test_randomized_head_ratio(self, rng):
        for i in range(10):
            A = np.random.default_rng([7, i]).standard_normal((100, 100))
            sub = head_project(_Gram(A), 8, ProjectionConfig(seed=100 + i))
            s = np.linalg.svd(A, compute_uv=False)
            captured = np.linalg.norm(sub.basis.T @ A, "fro")
            assert captured >= 0.9 * np.sqrt(np.sum(s[:8] ** 2))

    def test_deterministic_for_fixed_seed(self, rng):
        A = random_symmetric(rng, 50)
        for backend in _BACKENDS:
            cfg = ProjectionConfig(seed=123, backend=backend)
            sub1, sub2 = head_project(A, 4, cfg), head_project(A, 4, cfg)
            assert np.array_equal(sub1.basis, sub2.basis)
            assert np.array_equal(sub1.products, sub2.products)

    def test_orthonormal_basis_invariant(self, rng):
        A = random_symmetric(rng, 60)
        for backend in _BACKENDS:
            sub = head_project(A, 6, ProjectionConfig(seed=2, backend=backend))
            assert np.abs(sub.basis.T @ sub.basis - np.eye(6)).max() <= 1e-8

    @pytest.mark.parametrize("k", [2, 5])
    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_width_and_flag_do_not_follow_scale(self, backend, k):
        # a decaying spectrum, 1 down to 1e-8: deflation is relative to the
        # operator's own scale, so scaling it changes neither the basis
        # width nor the degraded flag
        p = 60
        Q = np.linalg.qr(np.random.default_rng(60).standard_normal((p, p)))[0]
        A = (Q * np.logspace(0, -8, p)) @ Q.T
        A = (A + A.T) / 2
        cfg = ProjectionConfig(seed=7, backend=backend)
        shapes = set()
        for scale in (1e-9, 1e-3, 1.0, 1e3):
            sub = head_project(scale * A, k, cfg)
            shapes.add((sub.basis.shape[1], sub.degraded))
        assert len(shapes) == 1

    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_rejects_invalid_input(self, rng, backend):
        cfg = ProjectionConfig(seed=1, backend=backend)
        A = random_symmetric(rng, 6)
        nonsymmetric = A.copy()
        nonsymmetric[0, 1] += 1.0
        nonfinite = A.copy()
        nonfinite[2, 2] = np.nan
        for bad, k in ((nonsymmetric, 2), (nonfinite, 2), (A, 0), (A, 7)):
            with pytest.raises(ValueError):
                head_project(bad, k, cfg)


def _gradient_operator(p=80, r=4, seed=5):
    """Gradient operator of a sampled instance at an indefinite iterate."""
    model = gen_model(p, r, seed=seed)
    ctx = ModelContext.create(
        model.S_star, sample_covariance(model, 30 * p, seed=seed + 1)
    )
    V, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((p, r)))
    return gradient(ctx, (V, np.linspace(0.5, -0.1, r)))


class TestOperatorInput:
    """Each head-projection backend on the gradient operator and on its
    array."""

    def test_operator_and_its_array_span_the_same_subspace(self):
        G = _gradient_operator()
        for backend in _BACKENDS:
            for seed in range(3):
                cfg = ProjectionConfig(seed=seed, backend=backend)
                on_operator = head_project(G, 8, cfg)
                on_array = head_project(np.asarray(G), 8, cfg)
                angles = scipy.linalg.subspace_angles(
                    on_operator.basis, on_array.basis
                )
                assert angles.max() <= 1e-8

    def test_carried_products_are_the_operator_on_the_basis(self):
        G = _gradient_operator()
        for backend in _BACKENDS:
            sub = head_project(G, 8, ProjectionConfig(seed=4, backend=backend))
            fresh = G @ sub.basis
            assert sub.products.shape == sub.basis.shape == (80, 8)
            assert np.abs(sub.products - fresh).max() <= 1e-10 * np.abs(fresh).max()

    def test_short_basis_carries_the_operator_on_the_basis(self, rng):
        # rank 3 < k = 5: both backends build their space inside range(A),
        # so each finds the range and no direction outside it
        U = rng.standard_normal((30, 3))
        A = U @ U.T
        for backend in _BACKENDS:
            sub = head_project(A, 5, ProjectionConfig(seed=1, backend=backend))
            assert sub.degraded
            assert sub.basis.shape == (30, 3)
            assert np.abs(sub.basis.T @ sub.basis - np.eye(3)).max() <= 1e-10
            fresh = A @ sub.basis
            assert np.abs(sub.products - fresh).max() <= 1e-10 * np.abs(fresh).max()
            residual = A - sub.basis @ (sub.basis.T @ A)
            assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(A)

    def test_noiseless_gradient_gives_no_zero_energy_direction(self):
        # the exact gradient at L = 0 of a noiseless instance with a
        # tridiagonal S has rank r = 3; a Lanczos space with clustered Ritz
        # values can carry a fourth direction at roundoff energy, which the
        # Ritz rule drops for both backends
        model = gen_model(60, 3, seed=0)
        s = model.s_diag
        off = 0.2 * np.sqrt(s[:-1] * s[1:])
        S = np.diag(s) + np.diag(off, 1) + np.diag(off, -1)
        C = np.linalg.inv(S + model.L_star)
        ctx = ModelContext.create(S, (C + C.T) / 2)
        G = gradient(ctx, (np.zeros((60, 0)), np.zeros(0)))
        for backend in _BACKENDS:
            sub = head_project(G, 6, ProjectionConfig(seed=1, backend=backend))
            assert sub.degraded
            assert sub.basis.shape == (60, 3), backend

    def test_reused_products_equal_recomputed(self, rng):
        U = rng.standard_normal((40, 3))
        cases = (
            (random_symmetric(rng, 40), 4),
            (_gradient_operator(), 6),
            (U @ U.T, 5),  # rank 3 < block 5: blocks deflate
        )
        for A, block in cases:
            Q, AQ = _krylov_basis(A, block, np.random.default_rng(2))
            assert AQ.shape == Q.shape
            recomputed = A @ Q
            scale = np.abs(recomputed).max()
            assert np.abs(AQ - recomputed).max() <= 1e-12 * scale
        assert Q.shape[1] == 3


class TestLanczosSubspace:
    """The Lanczos backend of :func:`head_project`."""

    @staticmethod
    def _lanczos(A, k, seed):
        return head_project(A, k, ProjectionConfig(seed=seed, backend="lanczos"))

    def test_dominant_eigenvector(self):
        A = np.diag([10.0] + [1.0] * 9)
        sub = self._lanczos(A, 1, 3)
        angle_cos = abs(sub.basis[0, 0])
        assert 1.0 - angle_cos < 1e-6

    def test_identity_breakdown_returns_the_krylov_basis(self):
        # A v is an eigenvector, so Lanczos stops after one direction and
        # returns it alone
        sub = self._lanczos(np.eye(8), 2, 4)
        assert sub.degraded
        assert sub.basis.shape == (8, 1)
        assert np.abs(sub.basis.T @ sub.basis - 1.0).max() <= 1e-12
        assert np.abs(sub.products - sub.basis).max() <= 1e-12

    def test_gapped_spectrum_principal_angles(self, rng):
        p, k = 150, 4
        Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
        w = np.concatenate([[40.0, 35.0, 30.0, 25.0], rng.uniform(0.1, 1.0, p - k)])
        A = (Q * w) @ Q.T
        sub = self._lanczos((A + A.T) / 2, k, 6)
        # principal angles against the exact dominant eigenspace
        exact = Q[:, :k]
        s = np.linalg.svd(exact.T @ sub.basis, compute_uv=False)
        max_angle = np.arccos(np.clip(s.min(), -1.0, 1.0))
        assert max_angle < 1e-4

    def test_deterministic(self, rng):
        A = random_spd(rng, 40)
        s1 = self._lanczos(A, 3, 8)
        s2 = self._lanczos(A, 3, 8)
        assert np.array_equal(s1.basis, s2.basis)

    @staticmethod
    def _operator(rng, p=200, r=3):
        model = gen_model(p, r, seed=int(rng.integers(2**31)))
        ctx = ModelContext.create(model.S_star, sample_covariance(model, 20 * p, seed=5))
        V = np.linalg.qr(rng.standard_normal((p, r)))[0]
        return gradient(ctx, (V, np.array([0.9, 0.5, -0.05])))

    def test_basis_on_a_gradient_operator(self, rng):
        # the column-major loop with one symmetric matvec per step: an
        # orthonormal basis, its products and Q^T G Q, and the basis of the
        # row-major loop with a dense GEMV it replaced
        G, k = self._operator(rng), 20
        Q, AQ, H = _lanczos_basis(G, k, rng_for(7, 101, 0))
        assert Q.shape == (200, 50) and Q.flags.f_contiguous
        dense = G.dense()
        scale = np.linalg.norm(dense, 2)
        assert np.abs(Q.T @ Q - np.eye(50)).max() <= 1e-12
        assert np.abs(AQ - dense @ Q).max() <= 1e-12 * scale
        assert np.abs(H - Q.T @ dense @ Q).max() <= 1e-12 * scale
        Q0, AQ0, H0 = lanczos_rowmajor(dense, k, rng_for(7, 101, 0))
        assert np.abs(Q - Q0).max() <= 1e-12
        assert np.abs(AQ - AQ0).max() <= 1e-12 * scale
        assert np.abs(H - H0).max() <= 1e-12 * scale

    def test_basis_replays_to_the_bit(self, rng):
        G = self._operator(rng)
        first, second = (_lanczos_basis(G, 20, rng_for(7, 101, 0)) for _ in range(2))
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


class TestCompressSymmetric:
    def test_matches_dense_truncation_oracle(self, rng):
        p, m, r = 40, 9, 4
        U = np.linalg.qr(rng.standard_normal((p, m)))[0]
        core = random_symmetric(rng, m)
        V, d, _ = compress_symmetric(U, core, r)
        # the projection onto the rank-r PSD cone, as EP's psd_finalize
        oracle = psd_clamp_truncate(U @ core @ U.T, r)
        assert np.abs((V * d) @ V.T - oracle).max() < 1e-10
        assert np.abs(V.T @ V - np.eye(d.size)).max() < 1e-8

    def test_returns_the_core_eigenvectors_of_v(self, rng):
        # the step takes the products on V from E: V = U E exactly, E is
        # orthonormal and holds eigenvectors of the core for d
        p, m, r = 40, 9, 4
        U = np.linalg.qr(rng.standard_normal((p, m)))[0]
        core = random_symmetric(rng, m)
        V, d, E = compress_symmetric(U, core, r)
        assert E.shape == (m, d.size) and d.size
        assert np.array_equal(U @ E, V)
        assert np.abs(E.T @ E - np.eye(d.size)).max() <= 1e-14
        assert np.abs(core @ E - E * d).max() <= 1e-12 * np.abs(d).max()

    def test_drops_non_positive_eigenvalues(self, rng):
        # two positive eigenvalues and larger negative ones: the tail
        # keeps the two, not the r largest magnitudes
        p, m, r = 30, 6, 4
        U = np.linalg.qr(rng.standard_normal((p, m)))[0]
        Q = np.linalg.qr(rng.standard_normal((m, m)))[0]
        core = (Q * [3.0, 0.5, -0.2, -1.0, -5.0, -9.0]) @ Q.T
        V, d, _ = compress_symmetric(U, core, r)
        assert np.allclose(d, [3.0, 0.5], rtol=0, atol=1e-12)
        assert V.shape == (p, 2)
        assert np.abs(V.T @ V - np.eye(2)).max() < 1e-12

    def test_drops_an_exact_zero_eigenvalue(self, rng):
        # eigh returns the zero as about +-1e-15, which a cut at 0 kept as a
        # third direction for some rotations
        p, m, r = 30, 6, 4
        U = np.linalg.qr(rng.standard_normal((p, m)))[0]
        for _ in range(20):
            Q = np.linalg.qr(rng.standard_normal((m, m)))[0]
            core = (Q * [3.0, 0.5, 0.0, -1.0, -5.0, -9.0]) @ Q.T
            V, d, _ = compress_symmetric(U, core, r)
            assert V.shape == (p, 2) and np.allclose(d, [3.0, 0.5], rtol=0, atol=1e-12)
