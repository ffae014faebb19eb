import json

import numpy as np
import pytest
import scipy.linalg

import lvggm.bench
import lvggm.cli
from lvggm import solvers
from lvggm.bench import ADMM_L1_GRID
from lvggm.cli import main
from lvggm.datagen import gen_model
from lvggm.linalg import NotPositiveDefiniteError
from lvggm.matio import read_matrix, write_matrix_binary

from .conftest import fixed_admm_seconds


_ADMM_WEIGHTS = "admm takes --l1 and --nuclear together, and --rho only with both"
_NLL_TOL = "nll_tolerance must be finite and >= 0"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_writes_manifest_and_matrices(self, tmp_path, capsys):
        out = tmp_path / "inst"
        code, _, _ = run_cli(
            capsys, "gen", "--p", "20", "--r", "2", "--n", "400",
            "--seed", "7", "--out", str(out),
        )
        assert code == 0
        assert len(list(out.iterdir())) == 5
        for name in ("S.mat", "Ltrue.mat", "C.mat", "Sigmatrue.mat", "model.json"):
            assert (out / name).exists()
        meta = json.loads((out / "model.json").read_text())
        assert meta["p"] == 20 and meta["r"] == 2 and meta["n"] == 400
        assert meta["seed"] == 7
        S = read_matrix(out / "S.mat")
        assert S.shape == (20, 20)

    def test_auto_rank_default(self, tmp_path, capsys):
        out = tmp_path / "inst"
        run_cli(capsys, "gen", "--p", "100", "--n", "500", "--out", str(out))
        meta = json.loads((out / "model.json").read_text())
        assert meta["r"] == 5

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            run_cli(capsys, "gen", "--p", "15", "--r", "2", "--n", "300",
                    "--seed", "3", "--out", str(out))
        for name in ("S.mat", "Ltrue.mat", "C.mat", "Sigmatrue.mat"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_negative_seed_runs(self, tmp_path, capsys):
        # `fit --seed -1` runs, and so does `gen`: seeds are taken modulo 2**64
        for seed in ("-1", str(2**64 - 1)):
            code, _, _ = run_cli(capsys, "gen", "--p", "15", "--r", "2", "--n", "300",
                                 "--seed", seed, "--out", str(tmp_path / seed))
            assert code == 0
        a, b = (tmp_path / seed / "C.mat" for seed in ("-1", str(2**64 - 1)))
        assert a.read_bytes() == b.read_bytes()

    def test_true_nll_consistent_with_eval(self, tmp_path, capsys):
        out = tmp_path / "inst"
        run_cli(capsys, "gen", "--p", "18", "--r", "2", "--n", "360",
                "--seed", "5", "--out", str(out))
        meta = json.loads((out / "model.json").read_text())
        code, stdout, _ = run_cli(
            capsys, "eval", "--estimate", str(out / "Ltrue.mat"),
            "--s", str(out / "S.mat"), "--cov", str(out / "C.mat"),
        )
        report = json.loads(stdout)
        assert abs(report["nll"] - meta["true_nll"]) < 1e-10


class TestFit:
    def _population_instance(self, tmp_path, p=20, r=2, seed=11):
        model = gen_model(p, r, seed=seed)
        write_matrix_binary(tmp_path / "S.mat", model.S_star)
        write_matrix_binary(tmp_path / "C.mat", model.sigma_star)
        write_matrix_binary(tmp_path / "Ltrue.mat", model.L_star)
        return model

    @pytest.mark.parametrize("algo", ["ep", "ap-bk", "ap-lanczos"])
    def test_noiseless_fit_recovers(self, tmp_path, capsys, algo):
        self._population_instance(tmp_path)
        out = tmp_path / "fit"
        code, _, _ = run_cli(
            capsys, "fit", "--s", str(tmp_path / "S.mat"),
            "--cov", str(tmp_path / "C.mat"), "--algo", algo, "--rank", "2",
            "--truth", str(tmp_path / "Ltrue.mat"), "--out", str(out),
            "--max-iters", "300", "--nll-tol", "0",
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        threshold = 1e-4 if algo == "ep" else 1e-3
        assert summary["rel_error"] < threshold
        assert summary["output_rank"] == 2
        assert (out / "Lhat.mat").exists()
        trace_lines = (out / "trace.csv").read_text().strip().split("\n")
        assert trace_lines[0] == "iter,nll,seconds,eta,halvings,rank,rel_error"
        assert summary["iterations"] == len(trace_lines) - 1

    def test_admm_fit_writes_both_estimates(self, tmp_path, capsys):
        model = self._population_instance(tmp_path, p=25, r=2, seed=13)
        out = tmp_path / "fit"
        code, _, _ = run_cli(
            capsys, "fit", "--cov", str(tmp_path / "C.mat"), "--algo", "admm",
            "--l1", "0.05", "--nuclear", "0.1", "--out", str(out),
            "--n-samples", "10000", "--truth", str(tmp_path / "Ltrue.mat"),
        )
        assert code == 0
        assert (out / "Lhat.mat").exists()
        assert (out / "Shat.mat").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert "admm_objective" in summary
        L_hat = read_matrix(out / "Lhat.mat")
        expected = np.linalg.norm(L_hat - model.L_star) / np.linalg.norm(model.L_star)
        assert summary["rel_error"] == pytest.approx(expected, rel=1e-12)

        # without --l1/--nuclear the weights come from the tuned grid, chosen
        # by the regularized objective when no truth is given
        out = tmp_path / "tuned"
        code, _, _ = run_cli(
            capsys, "fit", "--cov", str(tmp_path / "C.mat"), "--algo", "admm",
            "--n-samples", "10000", "--max-iters", "100", "--out", str(out),
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        base_l1 = np.sqrt(np.log(25) / 10000)
        ratio = summary["l1_weight"] / base_l1
        assert any(ratio == pytest.approx(a) for a in ADMM_L1_GRID)
        assert "rel_error" not in summary

    def test_admm_mean_iter_seconds_is_the_fits_own(
        self, tmp_path, capsys, monkeypatch
    ):
        self._population_instance(tmp_path, p=20, r=2, seed=13)
        for module, weights in (
            (lvggm.cli, ["--l1", "0.05", "--nuclear", "0.1"]),
            (lvggm.bench, []),  # the tuned grid
        ):
            fixed_admm_seconds(monkeypatch, module)
            out = tmp_path / f"fit{len(weights)}"
            code, _, _ = run_cli(
                capsys, "fit", "--cov", str(tmp_path / "C.mat"), "--algo", "admm",
                "--n-samples", "10000", "--out", str(out), *weights,
            )
            assert code == 0
            summary = json.loads((out / "summary.json").read_text())
            assert summary["iterations"] > 1
            assert summary["mean_iter_seconds"] == 0.5

    def test_eval_matches_solver_internal_rel_error(self, tmp_path, capsys):
        # sampled covariance: the statistical-error regime the cross-check
        # targets (near-zero errors lose digits to cancellation instead)
        from lvggm.datagen import sample_covariance

        model = gen_model(18, 2, seed=21)
        write_matrix_binary(tmp_path / "S.mat", model.S_star)
        write_matrix_binary(tmp_path / "C.mat", sample_covariance(model, 500, seed=3))
        write_matrix_binary(tmp_path / "Ltrue.mat", model.L_star)
        out = tmp_path / "fit"
        run_cli(
            capsys, "fit", "--s", str(tmp_path / "S.mat"),
            "--cov", str(tmp_path / "C.mat"), "--algo", "ep", "--rank", "2",
            "--truth", str(tmp_path / "Ltrue.mat"), "--out", str(out),
            "--max-iters", "60",
        )
        summary = json.loads((out / "summary.json").read_text())
        _, stdout, _ = run_cli(
            capsys, "eval", "--estimate", str(out / "Lhat.mat"),
            "--reference", str(tmp_path / "Ltrue.mat"),
        )
        report = json.loads(stdout)
        assert abs(report["rel_error"] - summary["rel_error"]) < 1e-12

    def test_summary_reports_halvings_step_size_and_degraded_count(
        self, tmp_path, capsys
    ):
        # the doubling step overshoots and halves on this instance; the
        # gradient at L = 0 of a population instance has rank 2, below the
        # head rank 4, so the first head projection returns its rank-2 basis
        # and is counted as degraded
        self._population_instance(tmp_path)
        out = tmp_path / "fit"
        code, _, _ = run_cli(
            capsys, "fit", "--s", str(tmp_path / "S.mat"),
            "--cov", str(tmp_path / "C.mat"), "--algo", "ap-bk",
            "--rank", "2", "--max-iters", "40", "--out", str(out),
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        rows = (out / "trace.csv").read_text().strip().split("\n")[1:]
        halvings = sum(int(row.split(",")[4]) for row in rows)
        assert halvings > 0
        assert summary["halvings"] == halvings
        assert summary["final_step_size"] == float(rows[-1].split(",")[3])
        assert summary["degraded_projections"] == 1

        # identity instance: the gradient at L=0 is zero, so the head
        # projection finds no direction and is counted as degraded
        write_matrix_binary(tmp_path / "I.mat", np.eye(6))
        out = tmp_path / "fit-identity"
        run_cli(
            capsys, "fit", "--s", str(tmp_path / "I.mat"),
            "--cov", str(tmp_path / "I.mat"), "--algo", "ap-bk", "--rank", "1",
            "--out", str(out),
        )
        summary = json.loads((out / "summary.json").read_text())
        assert summary["degraded_projections"] == 1

    def test_summary_reports_pd_margin(self, tmp_path, capsys):
        model = self._population_instance(tmp_path)
        out = tmp_path / "fit"
        code, _, _ = run_cli(
            capsys, "fit", "--s", str(tmp_path / "S.mat"),
            "--cov", str(tmp_path / "C.mat"), "--algo", "ap-bk", "--rank", "2",
            "--max-iters", "30", "--out", str(out),
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        S, L_hat = model.S_star, read_matrix(out / "Lhat.mat")
        oracle = scipy.linalg.eigh(S + L_hat, S, eigvals_only=True)[0]
        assert abs(summary["pd_margin"] - oracle) <= 1e-10
        trace_lines = (out / "trace.csv").read_text().split("\n")
        assert trace_lines[0] == "iter,nll,seconds,eta,halvings,rank,rel_error"

    def test_non_psd_covariance_fails_before_iterating(self, tmp_path, capsys):
        write_matrix_binary(tmp_path / "S.mat", np.eye(5))
        write_matrix_binary(tmp_path / "C.mat", np.diag([1.0, 1.0, 1.0, 1.0, -0.2]))
        out = tmp_path / "fit"
        code, _, err = run_cli(
            capsys, "fit", "--s", str(tmp_path / "S.mat"),
            "--cov", str(tmp_path / "C.mat"), "--algo", "ep", "--rank", "1",
            "--out", str(out),
        )
        assert code == 1
        payload = json.loads(err.strip())
        assert payload["error"] == "ValueError"
        assert payload["message"].startswith("C is not PSD (min eigenvalue")
        assert not (out / "trace.csv").exists()

    def test_non_pd_sparse_part_fails_before_iterating(self, tmp_path, capsys):
        write_matrix_binary(tmp_path / "S.mat", -np.eye(5))
        write_matrix_binary(tmp_path / "C.mat", np.eye(5))
        code, _, err = run_cli(
            capsys, "fit", "--s", str(tmp_path / "S.mat"),
            "--cov", str(tmp_path / "C.mat"), "--algo", "ep", "--rank", "1",
            "--out", str(tmp_path / "fit"),
        )
        assert code == 1
        payload = json.loads(err.strip())
        assert payload["error"] == "NotPositiveDefiniteError"

    def test_divergence_writes_the_partial_trace(self, tmp_path, capsys, monkeypatch):
        # the NLL passes at L = 0 and on three trials, then fails every trial
        # as non-PD, so the next iteration exhausts its halvings
        real_nll, calls = solvers.nll, []

        def failing_nll(*args, **kwargs):
            calls.append(None)
            if len(calls) > 4:
                raise NotPositiveDefiniteError("injected")
            return real_nll(*args, **kwargs)

        monkeypatch.setattr(solvers, "nll", failing_nll)
        self._population_instance(tmp_path)
        out = tmp_path / "fit"
        code, _, err = run_cli(
            capsys, "fit", "--s", str(tmp_path / "S.mat"),
            "--cov", str(tmp_path / "C.mat"), "--algo", "ep", "--rank", "2",
            "--out", str(out),
        )
        assert code == 1
        assert json.loads(err.strip())["error"] == "DivergedError"
        lines = (out / "trace.csv").read_text().strip().split("\n")
        assert lines[0] == "iter,nll,seconds,eta,halvings,rank,rel_error"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(row[0]) for row in rows] == list(range(len(rows)))
        # every completed iteration spent one accepted trial and its halvings
        assert rows and sum(1 + int(row[4]) for row in rows) == 3

    def test_missing_rank_is_usage_error(self, tmp_path, capsys):
        write_matrix_binary(tmp_path / "S.mat", np.eye(5))
        write_matrix_binary(tmp_path / "C.mat", np.eye(5))
        code, _, err = run_cli(
            capsys, "fit", "--s", str(tmp_path / "S.mat"),
            "--cov", str(tmp_path / "C.mat"), "--algo", "ep",
            "--out", str(tmp_path / "fit"),
        )
        assert code == 1
        assert json.loads(err.strip())["error"] == "ValueError"

        # so is a missing --s
        code, _, err = run_cli(
            capsys, "fit", "--cov", str(tmp_path / "C.mat"), "--algo", "ep",
            "--rank", "1", "--out", str(tmp_path / "fit"),
        )
        assert code == 1
        assert json.loads(err.strip()) == {
            "error": "ValueError", "message": "--s is required for ep/ap solvers",
        }

    @pytest.mark.parametrize(
        "s_diag, c_diag, drop, extra, message",
        [
            ([1.0] * 4, [1.0, 1.0, 1.0, -0.2], (), [], None),  # non-PSD --cov
            ([1.0, 1.0, 1.0, -1.0], [1.0] * 4, (), [], None),  # non-PD --s
            ([1.0] * 4, [1.0] * 4, ("--s",), [], None),
            ([1.0] * 4, [1.0] * 4, ("--rank",), [], None),
            # rejected by the solver, after the inputs were read
            ([1.0] * 4, [1.0] * 4, ("--rank",), ["--rank", "0"], None),
            ([1.0] * 4, [1.0] * 4, ("--rank",), ["--rank", "5"], None),  # rank > p
            ([1.0] * 4, [1.0] * 4, (), ["--max-iters", "0"], None),
            # stop settings that would turn a stop off or trip it at once
            ([1.0] * 4, [1.0] * 4, (), ["--nll-tol", "nan"], _NLL_TOL),
            ([1.0] * 4, [1.0] * 4, (), ["--nll-tol", "-1"], _NLL_TOL),
            ([1.0] * 4, [1.0] * 4, (), ["--nll-tol", "inf"], _NLL_TOL),
            ([1.0] * 4, [1.0] * 4, (), ["--algo", "ap-bk", "--true-nll-floor", "inf"],
             "true_nll_floor must be finite"),
            ([1.0] * 4, [1.0] * 4, (), ["--true-nll-floor", "nan"],
             "true_nll_floor must be finite"),
            ([1.0] * 4, [1.0] * 4, ("--s", "--rank"),
             ["--algo", "admm", "--l1", "0.1", "--nuclear", "0.1", "--rho", "0"],
             "rho must be finite and > 0"),
            ([1.0] * 4, [1.0] * 4, ("--s", "--rank"),
             ["--algo", "admm", "--l1", "0.1", "--nuclear", "0.1", "--rho", "nan"],
             "rho must be finite and > 0"),
            ([1.0] * 4, [1.0] * 4, ("--s", "--rank"),
             ["--algo", "admm", "--max-iters", "0"], "max_iters must be >= 1"),
            ([1.0] * 4, [1.0] * 4, ("--s", "--rank"),
             ["--algo", "admm", "--n-samples", "0"], "--n-samples must be >= 1"),
            # ADMM flags that a tuned fit would otherwise ignore
            ([1.0] * 4, [1.0] * 4, ("--s", "--rank"), ["--algo", "admm", "--l1", "0.5"],
             _ADMM_WEIGHTS),
            ([1.0] * 4, [1.0] * 4, ("--s", "--rank"),
             ["--algo", "admm", "--nuclear", "0.5"], _ADMM_WEIGHTS),
            ([1.0] * 4, [1.0] * 4, ("--s", "--rank"), ["--algo", "admm", "--rho", "2"],
             _ADMM_WEIGHTS),
            # flags of the other solver family
            ([1.0] * 4, [1.0] * 4, (), ["--l1", "0.5"], "ep does not take --l1"),
            ([1.0] * 4, [1.0] * 4, ("--s",), ["--algo", "admm"],
             "admm does not take --rank"),
        ],
        ids=[
            "non-psd-cov", "non-pd-s", "no-s", "no-rank",
            "rank-0", "rank-above-p", "max-iters-0",
            "nll-tol-nan", "nll-tol-negative", "nll-tol-inf", "floor-inf", "floor-nan",
            "admm-rho-0", "admm-rho-nan",
            "admm-max-iters-0", "admm-n-samples-0",
            "admm-l1-alone", "admm-nuclear-alone", "admm-rho-without-weights",
            "ep-with-l1", "admm-with-rank",
        ],
    )
    def test_rejected_fit_leaves_no_output_directory(
        self, tmp_path, capsys, s_diag, c_diag, drop, extra, message
    ):
        write_matrix_binary(tmp_path / "S.mat", np.diag(s_diag))
        write_matrix_binary(tmp_path / "C.mat", np.diag(c_diag))
        out = tmp_path / "fit"
        flags = {"--s": str(tmp_path / "S.mat"), "--rank": "1"}
        for flag in drop:
            del flags[flag]
        args = ["fit", "--cov", str(tmp_path / "C.mat"), "--algo", "ep"]
        for flag, value in flags.items():
            args += [flag, value]
        code, _, err = run_cli(capsys, *args, *extra, "--out", str(out))
        assert code == 1
        assert not out.exists()
        if message is not None:
            assert json.loads(err.strip())["message"] == message

    @pytest.mark.parametrize(
        "algo, extra",
        [
            ("ap-bk", ["--nuclear", "0.5", "--rho", "2", "--n-samples", "9"]),
            ("admm", ["--seed", "3", "--nll-tol", "0", "--true-nll-floor", "1"]),
        ],
    )
    def test_other_family_flags_are_named(self, tmp_path, capsys, algo, extra):
        code, _, err = run_cli(
            capsys, "fit", "--cov", str(tmp_path / "missing.mat"), "--algo", algo,
            *extra, "--out", str(tmp_path / "fit"),
        )
        assert code == 1
        named = ", ".join(flag for flag in extra if flag.startswith("--"))
        assert json.loads(err.strip()) == {
            "error": "ValueError", "message": f"{algo} does not take {named}",
        }


class TestEval:
    def test_exact_match_is_zero(self, tmp_path, capsys, rng):
        A = rng.standard_normal((6, 6))
        A = (A + A.T) / 2
        write_matrix_binary(tmp_path / "a.mat", A)
        code, stdout, _ = run_cli(
            capsys, "eval", "--estimate", str(tmp_path / "a.mat"),
            "--reference", str(tmp_path / "a.mat"), "--out", str(tmp_path / "r.json"),
        )
        report = json.loads(stdout)
        assert report["rel_error"] == 0.0
        assert (tmp_path / "r.json").read_text() == stdout

    def test_zero_estimate_normalization(self, tmp_path, capsys, rng):
        A = rng.standard_normal((5, 5))
        A = (A + A.T) / 2
        write_matrix_binary(tmp_path / "ref.mat", A)
        write_matrix_binary(tmp_path / "zero.mat", np.zeros((5, 5)))
        _, stdout, _ = run_cli(
            capsys, "eval", "--estimate", str(tmp_path / "zero.mat"),
            "--reference", str(tmp_path / "ref.mat"),
        )
        assert json.loads(stdout)["rel_error"] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "flags",
        [
            {"--reference": "b.mat"},
            # the NLL takes --s and --cov together, and a PSD --cov as fit does
            {"--s": "a.mat"},
            {"--cov": "a.mat"},
            {"--s": "a.mat", "--cov": "c.mat"},
        ],
        ids=["dim-mismatch", "s-without-cov", "cov-without-s", "non-psd-cov"],
    )
    def test_dim_mismatch_is_error(self, tmp_path, capsys, flags):
        write_matrix_binary(tmp_path / "a.mat", np.eye(3))
        write_matrix_binary(tmp_path / "b.mat", np.eye(4))
        write_matrix_binary(tmp_path / "c.mat", np.diag([1.0, 1.0, -0.2]))
        args = []
        for flag, name in flags.items():
            args += [flag, str(tmp_path / name)]
        code, stdout, err = run_cli(
            capsys, "eval", "--estimate", str(tmp_path / "a.mat"), *args
        )
        assert code == 1
        assert stdout == ""
        assert json.loads(err.strip())["error"] == "ValueError"


class TestBench:
    def _spec(self, tmp_path, **overrides):
        payload = {
            "dims": [16],
            "oversampling": [10, 25],
            "trials": 2,
            "algorithms": ["ep"],
            "master_seed": 4,
        }
        payload.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        return path

    def test_row_count_and_monotone_medians(self, tmp_path, capsys):
        spec = self._spec(tmp_path)
        out = tmp_path / "bench"
        code, _, _ = run_cli(capsys, "bench", "--spec", str(spec), "--out", str(out))
        assert code == 0
        rows = (out / "results.csv").read_text().strip().split("\n")
        assert len(rows) == 1 + 2 * 2  # header + ratios x trials
        med_rows = (out / "medians.csv").read_text().strip().split("\n")
        assert len(med_rows) == 1 + 2
        # median error decreases as oversampling grows
        meds = [float(line.split(",")[4]) for line in med_rows[1:]]
        assert meds[0] > meds[1]

    def test_rerun_identical_modulo_timing(self, tmp_path, capsys):
        spec = self._spec(tmp_path)
        outs = []
        for name in ("b1", "b2"):
            out = tmp_path / name
            run_cli(capsys, "bench", "--spec", str(spec), "--out", str(out))
            outs.append((out / "results.csv").read_text().strip().split("\n"))
        header = outs[0][0].split(",")
        drop = {header.index("seconds"), header.index("mean_iter_seconds")}
        for r1, r2 in zip(*outs):
            kept1 = [c for i, c in enumerate(r1.split(",")) if i not in drop]
            kept2 = [c for i, c in enumerate(r2.split(",")) if i not in drop]
            assert kept1 == kept2

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_fewer_than_one_worker_rejected(self, tmp_path, capsys, workers):
        spec = self._spec(tmp_path)
        out = tmp_path / "bench"
        code, _, err = run_cli(
            capsys, "bench", "--spec", str(spec), "--workers", workers,
            "--out", str(out),
        )
        assert code == 1
        assert json.loads(err.strip())["error"] == "ValueError"
        assert not out.exists()

    def test_empty_algorithms_rejected(self, tmp_path, capsys):
        spec = self._spec(tmp_path, algorithms=[])
        code, _, err = run_cli(
            capsys, "bench", "--spec", str(spec), "--out", str(tmp_path / "x")
        )
        assert code == 1
        assert json.loads(err.strip())["error"] == "ValueError"


class TestUsageErrors:
    def test_unknown_subcommand_emits_json(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["frobnicate"])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert json.loads(err.strip())["error"] == "UsageError"
