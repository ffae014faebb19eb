"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  The timing comparison (criterion 9) runs in a child process
with the BLAS pool pinned to a single thread, so both solvers are measured
under identical conditions.
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

import lvggm
from lvggm.bench import BenchSpec, run_single
from lvggm.datagen import gen_model, sample_covariance
from lvggm.linalg import cholesky_logdet, woodbury_core_eig
from lvggm.objective import (
    ModelContext,
    as_eigenform,
    gradient,
    nll,
)
from lvggm.projections import ProjectionConfig, bk_svd
from lvggm.solvers import (
    SolverConfig,
    ap_lvm,
    auto_step_size,
    contraction_estimate,
    ep_lvm,
    psd_finalize,
)

from .conftest import random_spd, random_symmetric
from .oracles import (
    fd_factor_gradient,
    kron_hessian_extremes,
    loglog_slope,
    psd_clamp_truncate,
)

MASTER_SEED = 11


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:2d} [{desc}]: FAIL")
        raise
    print(f"\nACCEPTANCE {num:2d} [{desc}]: PASS")


# ---------------------------------------------------------------------------
# shared expensive computations
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def noiseless_p30():
    """EP and AP runs on the population-covariance instance (p=30, r=2)."""
    model = gen_model(30, 2, seed=7)
    ctx = ModelContext.create(model.S_star, model.sigma_star)
    _, ep_trace = ep_lvm(
        ctx, SolverConfig(rank=2, max_iters=200, nll_tolerance=0),
        truth=model.L_factor,
    )
    _, ap_trace = ap_lvm(
        ctx,
        SolverConfig(rank=2, max_iters=300, nll_tolerance=0,
                     projection=ProjectionConfig(seed=5)),
        truth=model.L_factor,
    )
    return ep_trace, ap_trace


@pytest.fixture(scope="module")
def table_p100():
    """Five matched-seed trials at p=100, r=5: EP/AP at n=400p, EP at n=50p,
    and the tuned ADMM comparator at n=400p."""
    spec = BenchSpec(
        dims=[100], oversampling=[50, 400], trials=5,
        algorithms=["ep", "ap-bk", "admm"], master_seed=MASTER_SEED,
    )
    rows = {}
    elapsed = {}
    for algo, ratio in (("ep", 400.0), ("ap-bk", 400.0), ("ep", 50.0), ("admm", 400.0)):
        tic = time.perf_counter()
        rows[(algo, ratio)] = [
            run_single(spec, 100, ratio, algo, trial) for trial in range(5)
        ]
        elapsed[(algo, ratio)] = time.perf_counter() - tic
    return rows, elapsed


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_matches_finite_differences():
    with criterion(1, "gradient vs central finite differences"):
        tic = time.perf_counter()
        master = np.random.default_rng(101)
        for k in range(20):
            rng = np.random.default_rng([101, k])
            p = int(rng.integers(4, 11))
            r = int(rng.integers(1, 4))
            model = gen_model(p, min(r, p - 1), seed=int(master.integers(2**31)))
            C = sample_covariance(model, 50 * p, seed=k)
            ctx = ModelContext.create(model.S_star, C, validate_psd=False)
            U = model.L_factor * 0.8
            analytic = 2.0 * gradient(ctx, U) @ U
            fd = fd_factor_gradient(lambda X: nll(ctx, X), U, h=1e-5)
            rel = np.linalg.norm(fd - analytic, "fro") / np.linalg.norm(
                analytic, "fro"
            )
            assert rel < 1e-6, f"instance {k}: relative error {rel:.3e}"
        elapsed = time.perf_counter() - tic
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s budget"


def test_criterion_02_woodbury_matches_dense_inverse():
    with criterion(2, "Woodbury identity vs dense inverse"):
        tic = time.perf_counter()
        p, r = 50, 5
        for k in range(20):
            rng = np.random.default_rng([202, k])
            S = random_spd(rng, p)
            U = rng.standard_normal((p, r)) / np.sqrt(p)
            fac, _ = cholesky_logdet(S)
            K, M = woodbury_core_eig(fac, *as_eigenform(U))
            out = fac.inverse - M @ K @ M.T
            oracle = np.linalg.inv(S + U @ U.T)
            dev = np.abs(out - oracle).max()
            assert dev < 1e-10, f"instance {k}: max-abs deviation {dev:.3e}"
        elapsed = time.perf_counter() - tic
        assert elapsed < 2.0, f"runtime {elapsed:.2f}s exceeds 2s budget"


def test_criterion_03_psd_projection_oracle_equivalence():
    with criterion(3, "PSD rank-r projection vs EVD-clamp-truncate"):
        for k in range(100):
            rng = np.random.default_rng([303, k])
            A = random_symmetric(rng, 6)
            out = psd_finalize(A, 3).dense()
            dev = np.abs(out - psd_clamp_truncate(A, 3)).max()
            assert dev <= 1e-12, f"instance {k}: deviation {dev:.3e}"


def test_criterion_04_bk_svd_guarantees():
    with criterion(4, "BK-SVD tail<=1.1 and head>=0.9 on >=99/100 trials"):
        tic = time.perf_counter()
        successes = 0
        for k in range(100):
            A = np.random.default_rng([404, k]).standard_normal((200, 200))
            _, B = bk_svd(A, 10, ProjectionConfig(seed=k))
            U, s, Vt = np.linalg.svd(A)
            Ar = (U[:, :10] * s[:10]) @ Vt[:10]
            tail = np.linalg.norm(A - B, "fro") / np.linalg.norm(A - Ar, "fro")
            head = np.linalg.norm(B, "fro") / np.linalg.norm(Ar, "fro")
            if tail <= 1.1 and head >= 0.9:
                successes += 1
        assert successes >= 99, f"only {successes}/100 trials met both bounds"
        elapsed = time.perf_counter() - tic
        assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s budget"


def test_criterion_05_noiseless_recovery(noiseless_p30):
    with criterion(5, "noiseless recovery: EP<1e-4 (200 it), AP<1e-3 (300 it)"):
        ep_trace, ap_trace = noiseless_p30
        assert len(ep_trace.iters) <= 200
        assert ep_trace.rel_error[-1] < 1e-4, f"EP error {ep_trace.rel_error[-1]:.3e}"
        assert len(ap_trace.iters) <= 300
        assert ap_trace.rel_error[-1] < 1e-3, f"AP error {ap_trace.rel_error[-1]:.3e}"


def test_criterion_06_table_band_p100_n400p(table_p100):
    with criterion(6, "p=100 n=400p: EP band [0.15,0.55], AP band [0.2,0.7]"):
        rows, elapsed = table_p100
        ep = rows[("ep", 400.0)]
        ap = rows[("ap-bk", 400.0)]
        assert all(r["status"] == "ok" for r in ep + ap)
        ep_med = float(np.median([r["rel_error"] for r in ep]))
        ap_med = float(np.median([r["rel_error"] for r in ap]))
        assert 0.15 <= ep_med <= 0.55, f"EP median {ep_med:.4f} outside band"
        assert 0.20 <= ap_med <= 0.70, f"AP median {ap_med:.4f} outside band"
        assert all(r["rank"] == 5 for r in ep), "EP output rank != 5"
        assert all(r["rank"] == 5 for r in ap), "AP output rank != 5"
        worst_gap = max(abs(r["nll_gap"]) for r in ep)
        assert worst_gap < 0.05, f"EP NLL gap {worst_gap:.4f} exceeds 0.05"
        runtime = elapsed[("ep", 400.0)] + elapsed[("ap-bk", 400.0)]
        assert runtime < 120.0, f"runtime {runtime:.1f}s exceeds 2min budget"


def test_criterion_07_small_sample_band_p100_n50p(table_p100):
    with criterion(7, "p=100 n=50p: EP band [0.4,1.1], worse than n=400p"):
        rows, _ = table_p100
        ep50 = rows[("ep", 50.0)]
        ep400 = rows[("ep", 400.0)]
        med = float(np.median([r["rel_error"] for r in ep50]))
        assert 0.4 <= med <= 1.1, f"median {med:.4f} outside band"
        for a, b in zip(ep50, ep400):
            assert a["rel_error"] > b["rel_error"], "matched-seed ordering violated"


def test_criterion_08_linear_convergence(noiseless_p30):
    with criterion(8, "linear convergence: rho<0.95, >=90% decreasing steps"):
        ep_trace, _ = noiseless_p30
        rho = contraction_estimate(ep_trace)
        assert rho < 0.95, f"contraction estimate {rho:.4f}"
        errors = np.asarray(ep_trace.rel_error)
        floor = errors.min()
        span = errors.max() - floor
        pre_plateau = np.nonzero(errors - floor > 1e-3 * span)[0]
        steps = [t for t in pre_plateau if t + 1 < len(errors)]
        decreasing = sum(errors[t + 1] < errors[t] for t in steps)
        frac = decreasing / max(len(steps), 1)
        assert frac >= 0.9, f"only {frac:.2%} of pre-plateau steps decrease"


# Criterion 9's timed section.  It runs in a child process so that the BLAS
# pool is pinned to one thread by environment variables read when numpy is
# first imported; prints the mean EP and AP seconds per iteration as JSON.
_CRITERION_09_CHILD = """
import json

import numpy as np

from lvggm.datagen import gen_model, sample_covariance
from lvggm.objective import ModelContext
from lvggm.projections import ProjectionConfig
from lvggm.solvers import SolverConfig, ap_lvm, ep_lvm

p, r = 1000, 50
model = gen_model(p, r, seed=909)
C = sample_covariance(model, 50 * p, seed=910)
ctx = ModelContext.create(model.S_star, C, validate_psd=False)
_, ep_trace = ep_lvm(ctx, SolverConfig(rank=r, max_iters=8, nll_tolerance=0))
_, ap_trace = ap_lvm(
    ctx,
    SolverConfig(rank=r, max_iters=8, nll_tolerance=0,
                 projection=ProjectionConfig(seed=911)),
)
# warm-up iteration excluded
print(json.dumps({
    "ep": float(np.mean(ep_trace.seconds[1:])),
    "ap": float(np.mean(ap_trace.seconds[1:])),
}))
"""


def test_criterion_09_per_iteration_speed_ordering():
    with criterion(9, "p=1000 r=50: AP-LVM(BK) iterations >1.2x faster than EP"):
        tic = time.perf_counter()
        env = dict(os.environ)
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = "1"
        src = os.path.dirname(os.path.dirname(os.path.abspath(lvggm.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _CRITERION_09_CHILD], env=env,
            capture_output=True, text=True, timeout=600, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        means = json.loads(proc.stdout.strip().splitlines()[-1])
        ep_mean, ap_mean = means["ep"], means["ap"]
        ratio = ep_mean / ap_mean
        print(f"\n  EP {ep_mean:.4f}s/it, AP {ap_mean:.4f}s/it, ratio {ratio:.2f}")
        assert ap_mean < ep_mean
        assert ratio > 1.2, f"speed ratio {ratio:.2f} below 1.2"
        elapsed = time.perf_counter() - tic
        assert elapsed < 600.0, f"runtime {elapsed:.1f}s exceeds 10min budget"


def test_criterion_10_gradient_norm_scaling():
    with criterion(10, "projected gradient norm ~ sqrt(rp/n) scaling"):
        p, r = 50, 3
        model = gen_model(p, r, seed=1010)
        ns = [500, 1000, 2000, 4000, 8000]
        medians = []
        for n in ns:
            vals = []
            for trial in range(20):
                C = sample_covariance(model, n, seed=13 * n + trial)
                ctx = ModelContext.create(model.S_star, C, validate_psd=False)
                # the surrogate sqrt(3 r) ||grad F(L*)||_2, from the solvers' gradient
                G = gradient(ctx, model.L_factor)
                spec_norm = float(np.abs(np.linalg.eigvalsh(G)).max())
                vals.append(float(np.sqrt(3.0 * r) * spec_norm))
            medians.append(float(np.median(vals)))
        slope = loglog_slope(ns, medians)
        assert -0.65 <= slope <= -0.35, f"log-log slope {slope:.3f} outside band"


def test_criterion_11_rsc_rss_kronecker_oracle():
    with criterion(11, "RSC/RSS bounds vs explicit Kronecker Hessian"):
        for k in range(20):
            rng = np.random.default_rng([1111, k])
            theta = random_spd(rng, 5)
            w = np.linalg.eigvalsh(theta)
            # the Hessian theta^-1 (x) theta^-1 has its spectrum in
            # [1/lambda_max(theta)^2, 1/lambda_min(theta)^2]
            m_lower, M_upper = 1.0 / float(w[-1]) ** 2, 1.0 / float(w[0]) ** 2
            lo, hi = kron_hessian_extremes(theta)
            assert abs(m_lower - lo) < 1e-9, f"instance {k}: m deviates"
            assert abs(M_upper - hi) < 1e-9, f"instance {k}: M deviates"
            # the solvers' first step is 0.5 / M at L = 0, where S = theta
            eta = auto_step_size(ModelContext.create(theta, np.eye(5)))
            assert abs(0.5 / eta - hi) < 1e-9, f"instance {k}: step deviates"


def test_criterion_12_improper_learning_contrast(table_p100):
    with criterion(12, "tuned ADMM: rank>5 and error >= EP (qualitative)"):
        rows, _ = table_p100
        admm = rows[("admm", 400.0)]
        ep = rows[("ep", 400.0)]
        assert all(r["status"] == "ok" for r in admm)
        for r in admm:
            assert r["rank"] > 5, f"ADMM effective rank {r['rank']} not above 5"
        admm_med = float(np.median([r["rel_error"] for r in admm]))
        ep_med = float(np.median([r["rel_error"] for r in ep]))
        assert admm_med >= ep_med, (
            f"ADMM median {admm_med:.4f} beat EP median {ep_med:.4f}"
        )
