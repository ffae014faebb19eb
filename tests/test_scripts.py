"""Smoke runs of the experiment scripts at small sizes, in process."""

import json
import runpy
import sys
from pathlib import Path

import numpy as np

from lvggm.datagen import gen_model
from lvggm.matio import write_matrix
from lvggm.solvers import PGD_ALGORITHMS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, capsys, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *map(str, args)])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_table_comparison_prints_a_row_per_algorithm(monkeypatch, capsys):
    out = run_script(
        monkeypatch, capsys, "table_comparison.py",
        "--p", 20, "--ratio", 50, "--trials", 1,
    )
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[3:]}
    assert set(rows) == {*PGD_ALGORITHMS, "admm"}
    for algo, cells in rows.items():
        assert len(cells) == 5, f"{algo}: {cells}"
        assert all(np.isfinite(float(c)) for c in cells)


def test_error_vs_oversampling_writes_one_median_per_cell(
    monkeypatch, capsys, tmp_path
):
    out_dir = tmp_path / "sweep"
    run_script(
        monkeypatch, capsys, "error_vs_oversampling.py",
        "--p", 20, "--ratios", 50, 100, "--trials", 1, "--out", out_dir,
    )
    results = (out_dir / "results.csv").read_text().splitlines()
    medians = (out_dir / "medians.csv").read_text().splitlines()
    assert len(results) == len(medians) == 1 + 2 * 2  # 2 ratios x ep, ap-bk
    assert all(",ok," in row for row in results[1:])
    assert all(row.split(",")[3] == "1" for row in medians[1:])


def test_real_data_workflow_fits_every_pgd_algorithm(monkeypatch, capsys, tmp_path):
    model = gen_model(30, 2, seed=4)
    rng = np.random.default_rng(5)
    X = rng.multivariate_normal(np.zeros(30), model.sigma_star, size=900)
    samples = tmp_path / "samples.csv"
    write_matrix(samples, X)
    out_dir = tmp_path / "run"
    run_script(
        monkeypatch, capsys, "real_data_workflow.py",
        "--samples", samples, "--out", out_dir, "--max-iters", 10,
    )
    summary = json.loads((out_dir / "summary.json").read_text())
    assert (summary["n"], summary["p"]) == (900, 30)
    assert (out_dir / "Shat.mat").exists()
    for algo in PGD_ALGORITHMS:
        assert np.isfinite(summary[algo]["final_nll"])
        assert summary[algo]["output_rank"] <= summary["rank"]
        assert (out_dir / f"trace_{algo}.csv").exists()
        assert (out_dir / f"Lhat_{algo}.mat").exists()



def test_bench_pairs_summary_arithmetic():
    # canned results, no benchmark run: pair 1 ties, and pair 3 lost the
    # change's value, so it counts in the parent's quartiles but not as a
    # pair; every run attempted 10 fits, and the change's pair 3 failed 2.
    # A parent median of 0 gives no ratio.  w.solve_s is lower in every
    # pair by more than the parent's IQR, a resolved gain; w.iter_s is
    # lower in every pair by less than it, which is not.  BENCHMARK.json
    # declares setup_s, ap_bk.rel_error (bound 0.25) and peak_rss_mb (bound
    # 0.1), lower better: w.ap_bk.rel_error is 20% worse, inside its bound,
    # and w.peak_rss_mb 12% worse, beyond it; w.setup_s's parent IQR (1.5)
    # is wider than its bound (0.625), so it is unresolved, as are the
    # undeclared rest
    script = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))
    values = {"parent": [1.0, 2.0, 4.0, 3.0], "change": [0.5, 2.0, 5.0, None]}
    solve_s = {"parent": [1.0, 1.5, 2.0, 2.5], "change": [0.5, 0.75, 1.0, 1.25]}
    iter_s = {"parent": [1.0, 2.0, 3.0, 4.0], "change": [0.5, 1.5, 2.5, 3.5]}
    rel_error = {"parent": 0.5, "change": 0.6}
    rss = {"parent": 100.0, "change": 112.0}
    runs = [
        {"pair": i, "seed": 701 + i, "side": side, "result": {
            "attempted": 10, "failed": 2 if value is None else 0, "metrics": {
                "w.setup_s": {"value": value, "unit": "s"},
                "w.solve_s": {"value": solve_s[side][i], "unit": "s"},
                "w.iter_s": {"value": iter_s[side][i], "unit": "s"},
                "w.rel_error": {"value": float("nan"), "unit": "ratio"},
                "w.degraded": {"value": 0.0 if side == "parent" else 1.0, "unit": "count"},
                "w.ap_bk.rel_error": {"value": rel_error[side], "unit": "ratio"},
                "w.peak_rss_mb": {"value": rss[side], "unit": "MB"},
            },
        }}
        for side, side_values in values.items()
        for i, value in enumerate(side_values)
    ]
    summary = script["summarize"](runs)
    ratio = summary["w.degraded"].pop("change_over_parent")
    assert np.isnan(ratio)
    assert summary == {
        "w.setup_s": {
            "parent_median": 2.5, "parent_q1": 1.75, "parent_q3": 3.25,
            "change_median": 2.0, "change_q1": 1.25, "change_q3": 3.5,
            "change_over_parent": 0.8, "pairs_change_lower": 1, "pairs": 3,
            "gain_resolved": False, "worse_beyond_bound": None,
        },
        "w.solve_s": {
            "parent_median": 1.75, "parent_q1": 1.375, "parent_q3": 2.125,
            "change_median": 0.875, "change_q1": 0.6875, "change_q3": 1.0625,
            "change_over_parent": 0.5, "pairs_change_lower": 4, "pairs": 4,
            "gain_resolved": True, "worse_beyond_bound": None,
        },
        "w.iter_s": {
            "parent_median": 2.5, "parent_q1": 1.75, "parent_q3": 3.25,
            "change_median": 2.0, "change_q1": 1.25, "change_q3": 2.75,
            "change_over_parent": 0.8, "pairs_change_lower": 4, "pairs": 4,
            "gain_resolved": False, "worse_beyond_bound": None,
        },
        "w.degraded": {
            "parent_median": 0.0, "parent_q1": 0.0, "parent_q3": 0.0,
            "change_median": 1.0, "change_q1": 1.0, "change_q3": 1.0,
            "pairs_change_lower": 0, "pairs": 4, "gain_resolved": False,
            "worse_beyond_bound": None,
        },
        "w.ap_bk.rel_error": {
            "parent_median": 0.5, "parent_q1": 0.5, "parent_q3": 0.5,
            "change_median": 0.6, "change_q1": 0.6, "change_q3": 0.6,
            "change_over_parent": 1.2, "pairs_change_lower": 0,
            "pairs": 4, "gain_resolved": False, "worse_beyond_bound": False,
        },
        "w.peak_rss_mb": {
            "parent_median": 100.0, "parent_q1": 100.0, "parent_q3": 100.0,
            "change_median": 112.0, "change_q1": 112.0, "change_q3": 112.0,
            "change_over_parent": 1.12, "pairs_change_lower": 0, "pairs": 4,
            "gain_resolved": False, "worse_beyond_bound": True,
        },
        "fits": {
            "parent_attempted": 40, "parent_failed": 0, "parent_failed_share": 0.0,
            "change_attempted": 40, "change_failed": 2, "change_failed_share": 0.05,
        },
    }
