import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import lvggm.linalg
from lvggm.linalg import (
    NotPositiveDefiniteError,
    cholesky_logdet,
    sym_evd,
    symmetrize,
    woodbury_core_eig,
)
from lvggm.objective import as_eigenform

from .conftest import random_spd, random_symmetric
from .oracles import jacobi_evd


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
        _, w = sym_evd(np.diag([3.0, 1.0, 2.0]), 3)
        assert np.allclose(w, [3.0, 2.0, 1.0])

    def test_identity(self):
        V, w = sym_evd(np.eye(5), 5)
        assert np.allclose(w, 1.0)
        assert np.abs(V.T @ V - np.eye(5)).max() < 1e-12

    def test_matches_jacobi_oracle(self, rng):
        A = random_symmetric(rng, 8)
        _, w = sym_evd(A, 8)
        w_oracle, _ = jacobi_evd(A)
        assert np.abs(w - w_oracle).max() < 1e-9

    def test_reconstruction_invariant(self, rng):
        for scale in (1e-6, 1.0, 1e6):
            A = random_symmetric(rng, 12, scale=scale)
            V, w = sym_evd(A, 12)
            err = np.linalg.norm(A - (V * w) @ V.T, "fro")
            assert err <= 1e-10 * max(1.0, np.linalg.norm(A, "fro"))

    def test_orthonormality_invariant(self, rng):
        V, _ = sym_evd(random_symmetric(rng, 15), 15)
        assert np.abs(V.T @ V - np.eye(15)).max() <= 1e-10

    def test_rejects_nonfinite(self):
        A = np.eye(3)
        A[0, 1] = A[1, 0] = np.nan
        with pytest.raises(ValueError):
            sym_evd(A, 3)

    def test_reads_only_the_lower_triangle_and_never_writes(self, rng):
        A = random_symmetric(rng, 20)
        want = sym_evd(A, 4)
        junk = np.tril(A) + np.triu(rng.standard_normal((20, 20)), 1)
        for M in (junk, np.asfortranarray(junk)):
            before = M.copy()
            V, w = sym_evd(M, 4)
            assert np.array_equal(M, before)
            assert np.array_equal(w, want[1])
            assert np.array_equal(V, want[0])

    @pytest.mark.parametrize("p, r", [(100, 5), (500, 10), (1000, 50)])
    def test_leading_pairs_match_full_decomposition(self, p, r):
        A = random_symmetric(np.random.default_rng(p), p)
        V_full, w_full = sym_evd(A, p)
        norm2 = float(np.abs(w_full).max())
        w_ref = np.linalg.eigvalsh(A)[::-1]  # a different LAPACK driver
        assert np.abs(w_full - w_ref).max() <= 1e-10 * norm2
        for k in (1, r, p):
            V, w = sym_evd(A, k)
            assert V.shape == (p, k) and w.shape == (k,)
            assert np.abs(w - w_full[:k]).max() <= 1e-10 * norm2
            assert np.abs(V.T @ V - np.eye(k)).max() <= 1e-10
            gap = w_full[k - 1] - (w_full[k] if k < p else -np.inf)
            if gap > 1e-6 * norm2:
                Vf = V_full[:, :k]
                assert np.abs(V @ V.T - Vf @ Vf.T).max() <= 1e-8

    def test_leading_pairs_of_tied_spectrum(self):
        for k in range(1, 6):
            V, w = sym_evd(np.eye(5), k)
            assert np.array_equal(w, np.ones(k))
            assert np.abs(V.T @ V - np.eye(k)).max() <= 1e-12

    def test_leading_pairs_of_negative_spectrum(self, rng):
        w = -np.arange(1.0, 9.0)
        Q = np.linalg.qr(rng.standard_normal((8, 8)))[0]
        _, top = sym_evd(symmetrize((Q * w) @ Q.T), 3)
        assert np.allclose(top, [-1.0, -2.0, -3.0], atol=1e-12)

    def test_eigenpair_count_out_of_range(self):
        for k in (0, -1, 4):
            with pytest.raises(ValueError):
                sym_evd(np.eye(3), k)


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
            min_eig = sym_evd(A, 6)[1][-1]
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


def banded_spd(rng, p, b):
    """SPD matrix of bandwidth exactly ``b``, diagonally dominant."""
    S = np.diag(rng.uniform(1.0, 2.0, p) * (2 * b + 1))
    for k in range(1, b + 1):
        off = rng.uniform(0.2, 1.0, p - k)
        S += np.diag(off, k) + np.diag(off, -k)
    return S


class TestFactorRoutes:
    """The factor route follows the bandwidth ``b`` of ``S``: banded when
    ``32 b <= p`` (a diagonal ``S`` is ``b = 0``), dense otherwise; both
    routes match a dense oracle."""

    @staticmethod
    def _close(got, want, rel=1e-12):
        return np.abs(got - want).max() <= rel * np.abs(want).max()

    @pytest.mark.parametrize("p", [64, 500])
    @pytest.mark.parametrize("b", [0, 1, 2, 5])
    def test_route_and_dense_oracle(self, rng, p, b):
        S = banded_spd(rng, p, b)
        fac, logdet = cholesky_logdet(S)
        banded = 32 * b <= p  # only p=64, b=5 is too wide
        assert fac.route == ("banded" if banded else "dense")
        assert fac.bandwidth == (b if banded else p - 1)
        assert fac.dim == p
        inv = np.linalg.inv(S)
        for rhs in (rng.standard_normal(p), rng.standard_normal((p, 7))):
            assert self._close(fac.solve(rhs), np.linalg.solve(S, rhs))
        assert abs(logdet - np.linalg.slogdet(S)[1]) <= 1e-12 * abs(logdet)
        A = random_symmetric(rng, p)
        assert self._close(fac.subtract_inverse(A), A - inv)
        # the bits of the dense formula on every route, diagonal included
        assert np.array_equal(fac.subtract_inverse(A), symmetrize(A - fac.inverse))
        assert self._close(fac.inverse, inv)
        lam = np.linalg.eigvalsh(S)[0]
        assert abs(fac.min_eigenvalue - lam) <= 1e-12 * lam

    def test_selection_edges(self, rng):
        fac, _ = cholesky_logdet(np.diag(rng.uniform(1.0, 2.0, 64)))
        assert (fac.route, fac.bandwidth) == ("banded", 0)
        fac, _ = cholesky_logdet(banded_spd(rng, 64, 2))  # 32 b = p
        assert (fac.route, fac.bandwidth) == ("banded", 2)
        fac, _ = cholesky_logdet(banded_spd(rng, 63, 2))  # 32 b > p
        assert fac.route == "dense"
        fac, _ = cholesky_logdet(random_spd(rng, 64))
        assert fac.route == "dense"

    def test_non_pd_tridiagonal_raises(self):
        # eigenvalues 1 + 1.2 cos(k pi / 65): the smallest is near -0.2
        p = 64
        S = np.eye(p) + 0.6 * (np.eye(p, k=1) + np.eye(p, k=-1))
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_logdet(S)

    @pytest.mark.parametrize("row, value", [(5, -0.5), (1, 0.0)])
    def test_non_pd_diagonal_raises_on_band_route(self, monkeypatch, row, value):
        def no_dense_factor(*args, **kwargs):
            raise AssertionError("dense route taken")

        monkeypatch.setattr(lvggm.linalg, "cho_factor", no_dense_factor)
        S = np.ones(64)
        S[row] = value
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_logdet(np.diag(S))


class TestWoodburyInverseEig:
    """``S^-1 - M K M.T`` from :func:`woodbury_core_eig` is the inverse of
    ``S + V diag(d) V.T``, whatever the signs of ``d``, and of ``S + U U.T``
    for a PSD factor ``U`` in eigenform."""

    @staticmethod
    def _inverse(fac, V, d):
        K, M, _ = woodbury_core_eig(fac, V, d)
        return fac.inverse - M @ K @ M.T

    def test_zero_perturbation(self, rng):
        S = random_spd(rng, 8)
        fac, _ = cholesky_logdet(S)
        out = self._inverse(fac, *as_eigenform(np.zeros((8, 2))))
        assert np.abs(out - np.linalg.inv(S)).max() < 1e-10

    def test_rank_one_sherman_morrison(self):
        p = 6
        fac, _ = cholesky_logdet(np.eye(p))
        e1 = np.zeros((p, 1))
        e1[0, 0] = 1.0
        out = self._inverse(fac, *as_eigenform(e1))
        expected = np.eye(p)
        expected[0, 0] = 0.5
        assert np.abs(out - expected).max() < 1e-14

    def test_matches_dense_inverse_oracle(self, rng):
        p, r = 50, 5
        S = random_spd(rng, p)
        U = rng.standard_normal((p, r)) / np.sqrt(p)
        fac, _ = cholesky_logdet(S)
        out = self._inverse(fac, *as_eigenform(U))
        oracle = np.linalg.inv(S + U @ U.T)
        assert np.abs(out - oracle).max() < 1e-10

    def test_product_is_identity_up_to_p200(self, rng):
        for p in (20, 200):
            S = random_spd(rng, p)
            U = rng.standard_normal((p, 5)) / np.sqrt(p)
            fac, _ = cholesky_logdet(S)
            out = self._inverse(fac, *as_eigenform(U))
            prod = out @ (S + U @ U.T)
            assert np.abs(prod - np.eye(p)).max() < 1e-8

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
