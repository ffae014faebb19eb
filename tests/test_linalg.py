import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lvggm.linalg import (
    NotPositiveDefiniteError,
    best_rank_r,
    cholesky_logdet,
    sym_evd,
    symmetrize,
    woodbury_core_eig,
    woodbury_inverse,
)

from .conftest import random_spd, random_symmetric
from .oracles import jacobi_best_rank_r, jacobi_evd


class TestSymmetrize:
    def test_enforces_exact_symmetry(self, rng):
        A = rng.standard_normal((6, 6))
        S = symmetrize(A)
        assert np.array_equal(S, S.T)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            symmetrize(np.ones((3, 4)))

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
    def test_idempotent(self, p, seed):
        A = np.random.default_rng(seed).standard_normal((p, p))
        S = symmetrize(A)
        assert np.array_equal(symmetrize(S), S)


class TestSymEvd:
    def test_diagonal_sorted_descending(self):
        spec = sym_evd(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(spec.eigenvalues, [3.0, 2.0, 1.0])

    def test_identity(self):
        spec = sym_evd(np.eye(5))
        assert np.allclose(spec.eigenvalues, 1.0)
        assert np.abs(spec.eigenvectors.T @ spec.eigenvectors - np.eye(5)).max() < 1e-12

    def test_matches_jacobi_oracle(self, rng):
        A = random_symmetric(rng, 8)
        spec = sym_evd(A)
        w_oracle, _ = jacobi_evd(A)
        assert np.abs(spec.eigenvalues - w_oracle).max() < 1e-9

    def test_reconstruction_invariant(self, rng):
        for scale in (1e-6, 1.0, 1e6):
            A = random_symmetric(rng, 12, scale=scale)
            spec = sym_evd(A)
            V, w = spec.eigenvectors, spec.eigenvalues
            err = np.linalg.norm(A - (V * w) @ V.T, "fro")
            assert err <= 1e-10 * max(1.0, np.linalg.norm(A, "fro"))

    def test_orthonormality_invariant(self, rng):
        spec = sym_evd(random_symmetric(rng, 15))
        V = spec.eigenvectors
        assert np.abs(V.T @ V - np.eye(15)).max() <= 1e-10

    def test_rejects_nonfinite(self):
        A = np.eye(3)
        A[0, 1] = A[1, 0] = np.nan
        with pytest.raises(ValueError):
            sym_evd(A)


class TestBestRankR:
    def test_diagonal_ordering(self):
        out = best_rank_r(np.diag([4.0, 2.0, 1.0]), 2)
        assert np.allclose(out, np.diag([4.0, 2.0, 0.0]), atol=1e-12)

    def test_low_rank_fixed_point(self, rng):
        U = rng.standard_normal((6, 2))
        A = U @ U.T
        assert np.abs(best_rank_r(A, 2) - A).max() < 1e-10

    def test_matches_truncated_evd_oracle(self, rng):
        A = random_symmetric(rng, 6)
        assert np.abs(best_rank_r(A, 3) - jacobi_best_rank_r(A, 3)).max() < 1e-10

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_idempotent(self, seed):
        A = random_symmetric(np.random.default_rng(seed), 7)
        once = best_rank_r(A, 3)
        twice = best_rank_r(once, 3)
        assert np.abs(once - twice).max() <= 1e-12

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            best_rank_r(np.eye(3), 0)
        with pytest.raises(ValueError):
            best_rank_r(np.eye(3), 4)


class TestCholeskyLogdet:
    def test_identity(self):
        _, ld = cholesky_logdet(np.eye(4))
        assert ld == pytest.approx(0.0, abs=1e-14)

    def test_diagonal(self):
        _, ld = cholesky_logdet(np.diag([2.0, 2.0]))
        assert ld == pytest.approx(2.0 * np.log(2.0), abs=1e-12)

    def test_matches_eigenvalue_oracle(self, rng):
        A = random_spd(rng, 7)
        _, ld = cholesky_logdet(A)
        w, _ = jacobi_evd(A)
        assert ld == pytest.approx(float(np.sum(np.log(w))), abs=1e-9)

    def test_not_pd_raises(self, rng):
        A = random_symmetric(rng, 5)
        A -= (abs(np.linalg.eigvalsh(A)[0]) + 1.0) * np.eye(5)
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_logdet(A)

    def test_succeeds_iff_min_eigenvalue_positive(self, rng):
        # spectra shifted to +-5% of the top eigenvalue around zero
        base = random_spd(rng, 6)
        w, V = np.linalg.eigh(base)
        norm2 = w[-1]
        for shift, expect in ((0.05 * norm2, True), (-0.05 * norm2, False)):
            A = symmetrize((V * (w - w[0] + shift)) @ V.T)
            min_eig = sym_evd(A).eigenvalues[-1]
            try:
                cholesky_logdet(A)
                ok = True
            except NotPositiveDefiniteError:
                ok = False
            assert ok == (min_eig > 1e-10 * norm2) == expect

    def test_factor_reusable_logdet(self, rng):
        A = random_spd(rng, 6)
        fac, ld = cholesky_logdet(A)
        assert fac.logdet == ld
        x = fac.solve(np.ones(6))
        assert np.abs(A @ x - 1.0).max() < 1e-10


class TestWoodburyInverse:
    def test_zero_perturbation(self, rng):
        S = random_spd(rng, 8)
        fac, _ = cholesky_logdet(S)
        out = woodbury_inverse(fac, np.zeros((8, 2)))
        assert np.abs(out - np.linalg.inv(S)).max() < 1e-10

    def test_rank_one_sherman_morrison(self):
        p = 6
        fac, _ = cholesky_logdet(np.eye(p))
        e1 = np.zeros((p, 1))
        e1[0, 0] = 1.0
        out = woodbury_inverse(fac, e1)
        expected = np.eye(p)
        expected[0, 0] = 0.5
        assert np.abs(out - expected).max() < 1e-14

    def test_matches_dense_inverse_oracle(self, rng):
        p, r = 50, 5
        S = random_spd(rng, p)
        U = rng.standard_normal((p, r)) / np.sqrt(p)
        fac, _ = cholesky_logdet(S)
        out = woodbury_inverse(fac, U)
        oracle = np.linalg.inv(S + U @ U.T)
        assert np.abs(out - oracle).max() < 1e-10

    def test_product_is_identity_up_to_p200(self, rng):
        for p in (20, 200):
            S = random_spd(rng, p)
            U = rng.standard_normal((p, 5)) / np.sqrt(p)
            fac, _ = cholesky_logdet(S)
            out = woodbury_inverse(fac, U)
            prod = out @ (S + U @ U.T)
            assert np.abs(prod - np.eye(p)).max() < 1e-8


class TestWoodburyInverseEig:
    """``S^-1 - M K M.T`` from :func:`woodbury_core_eig` is the inverse of
    ``S + V diag(d) V.T``, whatever the signs of ``d``."""

    @staticmethod
    def _inverse(fac, V, d):
        K, M = woodbury_core_eig(fac, V, d)
        return fac.inverse - M @ K @ M.T

    def test_matches_dense_inverse_with_mixed_signs(self, rng):
        p, r = 30, 4
        S = random_spd(rng, p, shift=2.0)
        Q = np.linalg.qr(rng.standard_normal((p, r)))[0]
        d = np.array([0.8, -0.1, 0.5, -0.05])
        fac, _ = cholesky_logdet(S)
        out = self._inverse(fac, Q, d)
        oracle = np.linalg.inv(S + (Q * d) @ Q.T)
        assert np.abs(out - oracle).max() < 1e-10

    def test_singular_update_raises(self):
        p = 5
        fac, _ = cholesky_logdet(np.eye(p))
        v = np.zeros((p, 1))
        v[0, 0] = 1.0
        with pytest.raises(NotPositiveDefiniteError):
            woodbury_core_eig(fac, v, np.array([-1.0]))

    def test_empty_factor_returns_s_inverse(self, rng):
        S = random_spd(rng, 6)
        fac, _ = cholesky_logdet(S)
        out = self._inverse(fac, np.zeros((6, 0)), np.zeros(0))
        assert np.abs(out - np.linalg.inv(S)).max() < 1e-10
