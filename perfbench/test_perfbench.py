"""Tests of the benchmark harness at p=24.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lvggm
import lvggm.bench
import lvggm.objective
import lvggm.solvers
import measure
import tracing
from workloads import WORKLOADS, build_instance, solver_config, tiny

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
HOOKED_MODULES = (lvggm.solvers, lvggm.objective, lvggm.bench)


def run_command(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_declared_metric_is_emitted_with_its_unit(trace):
    proc = run_command(
        ROOT, "--workload", "all", "--seed", "3", "--seconds", "0", "--trace", trace,
        "--tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    decls = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    expected = {
        f"{w['name']}.{m['name']}": m["unit"]
        for w in DECLARED["workloads"]
        for m in decls
    }
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())


def test_workloads_match_declaration():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in DECLARED["workloads"]] == [
        w.why for w in WORKLOADS.values()
    ]


def _snapshot():
    return [dict(vars(m)) for m in HOOKED_MODULES]


def _same(before, after):
    return all(
        b.keys() == a.keys() and all(b[k] is a[k] for k in b)
        for b, a in zip(before, after)
    )


def test_traced_run_leaves_modules_as_found():
    before = _snapshot()
    result = measure.run_workload(tiny(WORKLOADS["desk-p100"]), 5, 0, trace=True)
    assert result["failed"] == 0
    assert _same(before, _snapshot())


def test_hooks_are_removed_when_the_traced_call_raises():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with tracing.hooks(tracing.Tracer()):
            assert not _same(before, _snapshot())
            raise RuntimeError("boom")
    assert _same(before, _snapshot())


def _raising_solver(ctx, cfg, truth=None):
    raise RuntimeError("injected: solver gave up")


def _wrong_solver(ctx, cfg, truth=None):
    est, trace = lvggm.solvers.ap_lvm(ctx, cfg, truth)
    return lvggm.LowRankEstimate(est.vectors, 2.0 * est.values), trace


@pytest.mark.parametrize(
    "solver, message",
    [(_raising_solver, "injected: solver gave up"), (_wrong_solver, "dense NLL")],
)
@pytest.mark.parametrize("trace", [False, True])
def test_injected_failure_is_counted_not_raised(monkeypatch, solver, message, trace):
    monkeypatch.setattr(lvggm, "ap_lvm", solver)
    result = measure.run_workload(
        tiny(WORKLOADS["noiseless-banded-p500"]), 2, 0, trace=trace
    )
    # warm-up and timed AP-BK and AP-Lanczos fits fail; EP fits do not
    assert result["failed"] >= 4
    assert result["failed"] < result["attempted"]
    assert all(message in f for f in result["failures"])
    key = "ap_bk.solvers.iterations" if trace else "ap_bk.solve_s"
    assert result["metrics"][key] is None
    ep_key = "ep.solvers.iterations" if trace else "ep.solve_s"
    assert result["metrics"][ep_key] > 0


def _converged_fit(name):
    """A tiny instance and an AP-BK fit run to the library's own stop."""
    instance = build_instance(tiny(WORKLOADS[name]), 4, 1, lambda _, fn, *a: fn(*a))
    cfg = solver_config(instance, "ap_bk")
    cfg.true_nll_floor = None
    cfg.nll_tolerance = 1e-7
    est, trace = lvggm.ap_lvm(instance.ctx, cfg)
    assert trace.status in measure.CONVERGED
    return instance, est, trace


def test_converged_fit_passes_only_within_the_sampling_noise_above_target():
    instance, est, trace = _converged_fit("desk-p100")
    noise = measure.sampling_noise(instance)
    final = trace.nll[-1]
    near = dataclasses.replace(instance, target=final - 0.5 * noise)
    _, above = measure.check_fit(near, "ap_bk", est, trace)
    assert above == pytest.approx(0.5 * noise)
    far = dataclasses.replace(instance, target=final - 2.0 * noise)
    with pytest.raises(measure.FitFailed, match="target not reached"):
        measure.check_fit(far, "ap_bk", est, trace)


def test_noiseless_fit_must_reach_the_target():
    instance, est, trace = _converged_fit("noiseless-banded-p500")
    above_target = dataclasses.replace(instance, target=trace.nll[-1] - 1e-12)
    with pytest.raises(measure.FitFailed, match="target not reached"):
        measure.check_fit(above_target, "ap_bk", est, trace)


def test_missing_hook_is_reported_as_unmeasured(monkeypatch, capsys):
    renamed = tuple(
        (m, "woodbury_renamed" if a == "woodbury_core_eig" else a, s)
        for m, a, s in tracing.HOOKS
    )
    monkeypatch.setattr(tracing, "HOOKS", renamed)
    result = measure.run_workload(tiny(WORKLOADS["desk-p100"]), 1, 0, trace=True)
    assert result["failed"] == 0
    for solver in ("ep", "ap_bk", "ap_lanczos"):
        assert result["metrics"][f"{solver}.linalg.woodbury_s"] == 0.0
        assert result["metrics"][f"{solver}.objective.gradient_s"] > 0.0
    assert "objective.woodbury_renamed" in capsys.readouterr().out


def test_failing_head_observer_is_reported_not_raised(monkeypatch, capsys):
    def broken(self, args, result):
        raise TypeError("operator has no eigvalsh")

    monkeypatch.setattr(measure.HeadObserver, "__call__", broken)
    result = measure.run_workload(tiny(WORKLOADS["desk-p100"]), 1, 0, trace=True)
    assert result["failed"] == 0
    assert result["metrics"]["ap_bk.projections.head_quality_min"] == 0.0
    assert result["metrics"]["ap_bk.projections.head_s"] > 0.0
    out = capsys.readouterr().out
    assert "operator has no eigvalsh" in out
    assert "ap_bk.projections.head_quality_min" in out


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_command(
        tmp_path, "--workload", "desk-p100", "--seed", "1", "--seconds", "1",
        "--trace", "0",
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
