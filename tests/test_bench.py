import json

import numpy as np
import pytest

from lvggm import solvers
from lvggm.bench import BenchSpec, run_bench, run_single
from lvggm.solvers import DivergedError


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

    def test_from_json_rejects_unknown_fields(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"dims": [16], "oversampling": [10],
                                    "algorithms": ["ep"], "bogus": 1}))
        with pytest.raises(ValueError, match="bogus"):
            BenchSpec.from_json(path)


class TestRunSingle:
    def test_failure_becomes_status_row(self):
        # rank exceeding the dimension raises inside the generator; the harness
        # reports a failed row instead of propagating
        spec = BenchSpec(dims=[16], oversampling=[10], trials=1,
                         algorithms=["ep"], rank=99)
        row = run_single(spec, 16, 10.0, "ep", 0)
        assert row["status"].startswith("failed:")
        assert row["error"] == "rank r=99 out of range [1, 16)"
        assert np.isnan(row["rel_error"])

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
                         algorithms=["ep"], master_seed=9, max_iters=50)
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
