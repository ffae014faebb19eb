import tracemalloc

import numpy as np
import pytest
from scipy.stats import wishart

from lvggm import datagen
from lvggm.datagen import SyntheticModel, gen_model, load_dataset, sample_covariance
from lvggm.linalg import NotPositiveDefiniteError
from lvggm.matio import MatrixParseError, write_matrix_binary, write_matrix_csv

from .oracles import bartlett_sample_covariance, loglog_slope


def assert_matches_the_bartlett_rebuild(model, n):
    C = sample_covariance(model, n, seed=n)
    ref = bartlett_sample_covariance(model, n, seed=n)
    assert np.abs(C - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.array_equal(C, C.T)


class TestGenModel:
    def test_auto_rank_is_five_percent(self):
        assert gen_model(100, "auto", seed=1).r == 5
        assert gen_model(1000, "auto", seed=1).r == 50

    def test_invariants_any_seed(self):
        for seed in (0, 1, 12345):
            model = gen_model(40, 3, seed=seed)
            # theta* PD via Cholesky
            np.linalg.cholesky(model.theta_star)
            # rank exactly r by eigenvalue count
            w = np.linalg.eigvalsh(model.L_star)
            assert np.sum(w > 1e-8 * w[-1]) == 3
            # diagonal sparse part with entries in [1, 2)
            assert 1.0 <= model.s_diag.min() and model.s_diag.max() < 2.0
            assert np.abs(model.S_star - np.diag(model.s_diag)).max() == 0
            # L* is PSD, so theta* keeps the diagonal's margin
            assert np.linalg.eigvalsh(model.theta_star)[0] >= 1.0

    def test_spectral_norm_scaling(self):
        model = gen_model(30, 2, seed=9)
        top = np.linalg.eigvalsh(model.L_star)[-1]
        assert top == pytest.approx(1.0, rel=1e-10)

    def test_bitwise_reproducible(self):
        a = gen_model(25, 2, seed=42)
        b = gen_model(25, 2, seed=42)
        assert np.array_equal(a.s_diag, b.s_diag)
        assert np.array_equal(a.L_factor, b.L_factor)

    def test_seed_taken_modulo_2_64(self):
        # the rule of every seed: -1 names the stream of 2**64 - 1
        a = gen_model(20, seed=-1)
        b = gen_model(20, seed=2**64 - 1)
        assert np.array_equal(a.s_diag, b.s_diag)
        assert np.array_equal(a.L_factor, b.L_factor)
        assert np.array_equal(
            sample_covariance(a, 50, seed=-1), sample_covariance(b, 50, seed=2**64 - 1)
        )
        with pytest.raises(TypeError):  # a fraction is not rounded down
            gen_model(20, seed=1.5)

    @pytest.mark.parametrize("p, r", [(35, 3), (300, 15), (300, 299)])
    def test_sigma_star_is_the_dense_inverse(self, p, r):
        model = gen_model(p, r, seed=p + r)
        sigma = model.sigma_star
        ref = np.linalg.inv(model.theta_star)
        assert np.abs(sigma - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(sigma, sigma.T)

    def test_sigma_theta_product_is_identity(self):
        model = gen_model(35, 3, seed=4)
        prod = model.sigma_star @ model.theta_star
        assert np.abs(prod - np.eye(35)).max() < 1e-8

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            gen_model(10, 10, seed=0)
        with pytest.raises(ValueError):
            gen_model(1, 1, seed=0)


class TestSampleCovariance:
    def test_symmetric_psd(self):
        model = gen_model(12, 2, seed=3)
        C = sample_covariance(model, 50, seed=1)
        assert np.array_equal(C, C.T)
        assert np.linalg.eigvalsh(C)[0] >= -1e-10

    def test_law_of_large_numbers(self):
        model = gen_model(5, 1, seed=6)
        C = sample_covariance(model, 10**6, seed=7)
        rel = np.linalg.norm(C - model.sigma_star, "fro") / np.linalg.norm(
            model.sigma_star, "fro"
        )
        assert rel < 0.01

    def test_spectral_deviation_scales_inverse_sqrt_n(self):
        model = gen_model(20, 2, seed=8)
        ns = [250, 500, 1000, 2000, 4000]
        medians = []
        for n in ns:
            devs = []
            for trial in range(15):
                C = sample_covariance(model, n, seed=31 * n + trial)
                devs.append(
                    float(np.abs(np.linalg.eigvalsh(C - model.sigma_star)).max())
                )
            medians.append(float(np.median(devs)))
        slope = loglog_slope(ns, medians)
        assert -0.65 <= slope <= -0.35

    def test_deterministic(self):
        # n = 1000 < 50 * p at p = 50, and n = 20000 draws no more normals
        for p, n in ((10, 1000), (50, 20000)):
            model = gen_model(p, "auto", seed=5)
            assert np.array_equal(
                sample_covariance(model, n, seed=9),
                sample_covariance(model, n, seed=9),
            )

    @pytest.mark.parametrize("p", [12, 100, 300])
    def test_root_squares_to_reversed_sigma(self, p):
        # the draw colours by F = diag(w) (I - U diag(gamma) U^T), reversed
        model = gen_model(p, "auto", seed=p)
        w, U, gamma = datagen._sigma_root(model)
        w, U = w[::-1], U[::-1]
        F = w[:, None] * (np.eye(p) - (U * gamma) @ U.T)
        ref = np.linalg.inv(model.theta_star)[::-1, ::-1]
        assert np.abs(F @ F.T - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize(
        "p, n",
        [
            (12, 50),
            (12, 12),
            (12, 11),
            (12, 5),
            (12, 1),
            (100, 40000),
            (300, 20000),
            (1000, 50000),
            (301, 7),
            (301, 150),
            (301, 301),
            (301, 302),
        ],
    )
    def test_matches_the_bartlett_rebuild(self, p, n):
        # n < p leaves p - n leading zero columns in J A J
        assert_matches_the_bartlett_rebuild(gen_model(p, "auto", seed=p + 1), n)

    @pytest.mark.parametrize(
        "p, r, n, zero_column",
        [(12, 11, 5, False), (12, 3, 5, True), (2, 1, 3, False), (40, 39, 1, False)],
        ids=["full-width-svd", "zero-singular-value", "p2", "n1"],
    )
    def test_matches_the_bartlett_rebuild_at_the_edges(self, p, r, n, zero_column):
        # r = p - 1; sigma = gamma = 0 for a zero column of L_factor
        model = gen_model(p, r, seed=p + r)
        if zero_column:
            model.L_factor[:, 1] = 0.0
        assert_matches_the_bartlett_rebuild(model, n)

    def test_non_positive_s_diag_entry_is_named(self):
        # the root needs S* PD, even where theta* itself would be PD
        for s in (-1.0, 0.0, np.nan):
            model = SyntheticModel(
                np.array([1.0, 1.5, s, 1.2, 1.8]), np.full((5, 1), 0.1)
            )
            for draw in (lambda m: m.sigma_star, lambda m: sample_covariance(m, 50)):
                with pytest.raises(NotPositiveDefiniteError, match=r"s_diag\[2\]"):
                    draw(model)

    def test_moments_are_those_of_the_wishart_law(self):
        # 20000 draws at p = 6, n = 20: every entry's mean within 4 standard
        # errors of sigma*, and every variance within 5% of the Wishart
        # variance (sigma_ij^2 + sigma_ii sigma_jj) / n, about 4 standard
        # errors of a sample variance here
        model = gen_model(6, 1, seed=11)
        n, draws = 20, 20000
        law = wishart(df=n, scale=model.sigma_star / n)
        Cs = np.array([sample_covariance(model, n, seed=s) for s in range(draws)])
        z = (Cs.mean(axis=0) - law.mean()) / np.sqrt(law.var() / draws)
        assert np.abs(z).max() < 4.0
        ratio = Cs.var(axis=0, ddof=1) / law.var()
        assert 0.95 < ratio.min() and ratio.max() < 1.05

    def test_fewer_draws_than_variables_give_rank_n(self):
        model = gen_model(12, 2, seed=3)
        for n in (1, 5, 11):
            C = sample_covariance(model, n, seed=n)
            w = np.linalg.eigvalsh(C)
            assert w[0] >= -1e-12 * w[-1]
            assert np.linalg.matrix_rank(C) == n

    @pytest.mark.parametrize("n", [20000, 10**6])
    def test_memory_does_not_grow_with_n(self, n):
        # J A J, overwritten by its LAUUM and the update, and C: two p x p
        # arrays, and the normals of A, half of one, while J A J is filled
        p = 300
        model = gen_model(p, "auto", seed=4)
        tracemalloc.start()
        try:
            sample_covariance(model, n, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * p * p * 8

    def test_n_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            sample_covariance(gen_model(5, 1, seed=0), 0)


class TestLoadDataset:
    def test_two_sample_centered_covariance(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,0\n0,1\n")
        C, n, p = load_dataset(path)
        assert (n, p) == (2, 2)
        assert np.allclose(C, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)

    def test_ragged_row_error_names_row(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(MatrixParseError, match="row 2"):
            load_dataset(path)

    def test_matches_in_memory_covariance_exactly(self, rng, tmp_path):
        # same data through the file path and the in-memory centered formula
        n, p = 301, 1000
        model = gen_model(p, 5, seed=14)
        Lc = np.linalg.cholesky(model.sigma_star)
        X = rng.standard_normal((n, p)) @ Lc.T
        path = tmp_path / "samples.csv"
        write_matrix_csv(path, X)
        C_loaded, n_out, p_out = load_dataset(path)
        Xc = X - X.mean(axis=0)
        C_mem = Xc.T @ Xc / n
        assert (n_out, p_out) == (n, p)
        assert np.abs(C_loaded - (C_mem + C_mem.T) / 2).max() < 1e-12

    def test_binary_samples(self, rng, tmp_path):
        X = rng.standard_normal((20, 6))
        path = tmp_path / "x.mat"
        write_matrix_binary(path, X)
        C, n, p = load_dataset(path)
        assert (n, p) == (20, 6)
        Xc = X - X.mean(axis=0)
        assert np.abs(C - (Xc.T @ Xc / 20 + (Xc.T @ Xc / 20).T) / 2).max() < 1e-15

    def test_empty_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("")
        with pytest.raises(MatrixParseError):
            load_dataset(path)
