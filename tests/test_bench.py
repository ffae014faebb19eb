import json

import numpy as np
import pytest

import lvggm.bench
from lvggm import solvers
from lvggm.bench import BenchSpec, run_bench, run_single
from lvggm.cli import main
from lvggm.solvers import DivergedError

from .conftest import fixed_admm_seconds


class TestBenchSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            BenchSpec(dims=[], oversampling=[10], algorithms=["ep"])
        with pytest.raises(ValueError):
            BenchSpec(dims=[1], oversampling=[10], algorithms=["ep"])
        with pytest.raises(ValueError):
            BenchSpec(dims=[16], oversampling=[10], trials=0, algorithms=["ep"])
        with pytest.raises(ValueError):
            BenchSpec(dims=[16], oversampling=[10], algorithms=["gd"])
        # a ratio is a finite number above 0, and NaN fails no `<= 0` test
        for bad in ([float("nan")], [float("inf")], [True], [0]):
            with pytest.raises(ValueError, match="^oversampling must"):
                BenchSpec(dims=[16], oversampling=bad, algorithms=["ep"])
        with pytest.raises(ValueError, match="^master_seed must"):
            BenchSpec(dims=[16], oversampling=[10], master_seed=np.float64(2.0))
        # a repeated entry would run its cells twice
        for name, values in (
            ("dims", [16, 16]), ("oversampling", [10, 10.0]),
            ("algorithms", ["ep", "ap-bk", "ep"]),
        ):
            spec = {"dims": [16], "oversampling": [10], "algorithms": ["ep"]}
            spec[name] = values
            with pytest.raises(ValueError, match=f"^{name} must not repeat"):
                BenchSpec(**spec)

    # an old spec naming a removed field must fail by name, not be ignored
    @pytest.mark.parametrize("name", ["bogus", "rank"])
    def test_from_json_rejects_unknown_fields(self, tmp_path, name):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"dims": [16], "oversampling": [10],
                                    "algorithms": ["ep"], name: 1}))
        with pytest.raises(ValueError, match=f"unknown bench spec fields: .*'{name}'"):
            BenchSpec.from_json(path)

    # a fractional size, trial count or seed must not be rounded down, and a
    # string, bool or NaN must not pass for a number only to fail every cell
    @pytest.mark.parametrize(
        "field, value",
        [
            ("dims", [20.7]), ("dims", [16, 20.0]), ("trials", 1.5),
            ("master_seed", 1.5), ("master_seed", "3"), ("master_seed", True),
            ("oversampling", ["10"]), ("oversampling", [10, float("nan")]),
            ("oversampling", [True]),
        ],
    )
    def test_from_json_rejects_non_integers(self, tmp_path, field, value):
        payload = {"dims": [16], "oversampling": [10], "algorithms": ["ep"]}
        payload[field] = value
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"^{field} must"):
            BenchSpec.from_json(path)

    # a bare name would be read letter by letter, and a nested list is not
    # a name; both fail by the field's name, so `lvggm bench` exits 1
    @pytest.mark.parametrize("value", ["ep", [["ep"]]])
    def test_algorithms_must_be_a_list_of_names(self, tmp_path, value):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"dims": [16], "oversampling": [10],
                                    "algorithms": value}))
        with pytest.raises(ValueError, match="^algorithms must"):
            BenchSpec.from_json(path)
        assert main(["bench", "--spec", str(path), "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()


class TestRunSingle:
    def test_failure_becomes_status_row(self, monkeypatch, tmp_path):
        # the harness reports a failed row instead of propagating
        def fail(ctx, cfg, truth=None):
            raise ValueError("injected failure")

        monkeypatch.setattr(solvers, "ep_lvm", fail)
        spec = BenchSpec(dims=[16], oversampling=[10], trials=1, algorithms=["ep"])
        row = run_single(spec, 16, 10.0, "ep", 0)
        assert row["status"] == "failed:ValueError"
        assert row["error"] == "injected failure"
        assert np.isnan(row["rel_error"])

        # a group whose every trial failed keeps its medians row, all NaN
        run_bench(spec, tmp_path)
        medians = (tmp_path / "medians.csv").read_text().split("\n")
        assert medians[1] == "16,10,ep,0,nan,nan,nan,nan"

    def test_divergence_keeps_its_message(self, monkeypatch):
        def diverge(ctx, cfg, truth=None):
            raise DivergedError("no acceptable step after 30 halvings")

        monkeypatch.setattr(solvers, "ep_lvm", diverge)
        spec = BenchSpec(dims=[16], oversampling=[10], trials=1, algorithms=["ep"])
        row = run_single(spec, 16, 10.0, "ep", 0)
        assert row["status"] == "diverged"
        assert row["error"] == "no acceptable step after 30 halvings"

    def test_matched_model_seed_across_sample_sizes(self):
        spec = BenchSpec(dims=[16], oversampling=[10, 20], trials=1,
                         algorithms=["ep"], master_seed=3)
        a = run_single(spec, 16, 10.0, "ep", 0)
        b = run_single(spec, 16, 20.0, "ep", 0)
        # same ground truth, hence identical true NLL dimensionless parts is
        # not guaranteed; instead check the harness derived distinct n
        assert a["status"] == b["status"] == "ok"
        assert a["error"] == b["error"] == ""
        assert a["rel_error"] != b["rel_error"]


class TestWorkerPool:
    def test_parallel_matches_sequential(self, tmp_path):
        spec = BenchSpec(dims=[12], oversampling=[10], trials=2,
                         algorithms=["ep"], master_seed=9)
        seq_results, _ = run_bench(spec, tmp_path / "seq", workers=1)
        par_results, _ = run_bench(spec, tmp_path / "par", workers=2)
        def strip_timing(path):
            lines = open(path).read().strip().split("\n")
            header = lines[0].split(",")
            drop = {header.index("seconds"), header.index("mean_iter_seconds")}
            return [
                [c for i, c in enumerate(line.split(",")) if i not in drop]
                for line in lines
            ]
        assert strip_timing(seq_results) == strip_timing(par_results)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_fewer_than_one_worker_rejected(self, tmp_path, workers):
        spec = BenchSpec(dims=[16], oversampling=[10], trials=1)
        with pytest.raises(ValueError, match="^workers must be >= 1"):
            run_bench(spec, tmp_path / "out", workers=workers)
        assert not (tmp_path / "out").exists()


class TestAdmmRow:
    def test_mean_iter_seconds_is_the_returned_fits_own(self, monkeypatch):
        # the tuned cell runs a 3x3 grid of fits; its mean is the returned
        # fit's seconds per iteration, not the grid's time over its iterations
        fixed_admm_seconds(monkeypatch, lvggm.bench)
        spec = BenchSpec(dims=[16], oversampling=[50], trials=1, algorithms=["admm"])
        row = run_single(spec, 16, 50.0, "admm", 0)
        assert row["status"] == "ok" and row["iterations"] > 1
        assert row["mean_iter_seconds"] == 0.5
