"""One workload in one process: warm up, measure, check, report.

Run by ``run.py``, which sets the BLAS thread variables before this
process imports numpy.  Prints human-readable lines, then one JSON line::

    {"attempted": .., "failed": .., "failures": [..], "above_target": [..],
     "metrics": {name: value}}

With ``--trace 0`` the metrics are the end-to-end ones (fits untraced);
with ``--trace 1`` they are the per-layer ones, from traced fits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import lvggm
import lvggm.bench
from calibration import Calibration
from tracing import Tracer, hooks
from workloads import SOLVERS, WORKLOADS, build_instance, run_solver, tiny

NLL_MATCH_RTOL = 1e-9
NOISELESS_MAX_REL_ERROR = 1e-3
# Solver stops that mean it converged: the NLL stopped falling over the
# library's window, or the iterate stopped moving.
CONVERGED = ("nll-window", "stationary")

# per-layer metric (after the solver prefix) -> span whose hook it needs
_NEEDS = {
    "projections.evd_s": "projections.evd",
    "projections.head_s": "projections.head",
    "projections.tail_s": "projections.tail",
    "projections.degraded": "projections.head",
    "projections.head_quality_min": "projections.head",
    "objective.gradient_s": "objective.gradient",
    "objective.gradient_calls": "objective.gradient",
    "linalg.woodbury_s": "linalg.woodbury",
    "objective.nll_s": "objective.nll",
    "objective.nll_calls": "objective.nll",
    "solvers.nll_accept_ratio": "objective.nll",
}
# ... and of those, the ones computed by the span's observer
_OBSERVED = {"projections.degraded", "projections.head_quality_min"}


class FitFailed(Exception):
    """An output check failed."""


def rel_error(L, L_star):
    return float(np.linalg.norm(L - L_star) / np.linalg.norm(L_star))


def sampling_noise(instance):
    """Standard deviation of ``F(L*) - min F`` on a sampled instance.

    There F(L*) is not the minimum of F over rank-r PSD matrices:
    ``n (F(L*) - min F)`` is asymptotically chi-squared with
    ``df = p r - r (r - 1) / 2`` degrees of freedom, the dimension of that
    set (Wilks).
    """
    p, r = instance.L_star.shape[0], instance.r
    return math.sqrt(2.0 * (p * r - r * (r - 1) / 2)) / instance.n


def check_fit(instance, solver, est, trace):
    """Output checks for one PGD fit; returns ``(rel_error, above)``.

    A fit passes the target check if it stopped on the target, or, on a
    sampled instance, if it converged above it by at most the sampling noise
    of F(L*): the fixed point of an approximate projection can sit just above
    F(L*) when F(L*) is close to the minimum.  ``above`` is that gap, 0 for a
    fit that reached the target.
    """
    final = trace.nll[-1]
    above = final - instance.target
    reached = trace.status == "reached-floor" and above <= 0
    near = (
        not instance.noiseless
        and trace.status in CONVERGED
        and above <= sampling_noise(instance)
    )
    if not (reached or near):
        raise FitFailed(
            f"{solver}: target not reached (status {trace.status!r}, final NLL "
            f"{final!r}, target {instance.target!r}, {len(trace)} iterations)"
        )
    dense = est.dense()
    recomputed = lvggm.nll(instance.ctx, dense)
    if abs(recomputed - final) > NLL_MATCH_RTOL * max(1.0, abs(recomputed)):
        raise FitFailed(
            f"{solver}: dense NLL {recomputed!r} differs from the solver's "
            f"last NLL {final!r}"
        )
    rank = est.effective_rank()
    if rank > instance.r:
        raise FitFailed(f"{solver}: rank {rank} exceeds r={instance.r}")
    if solver == "ep":
        V, d = est.vectors, est.values
        ortho = np.abs(V.T @ V - np.eye(V.shape[1])).max() if d.size else 0.0
        if d.size and (d.min() < 0.0 or ortho > 1e-8):
            raise FitFailed(
                f"ep: estimate not PSD (min eigenvalue {d.min():.3e}, "
                f"basis orthogonality error {ortho:.1e})"
            )
    err = rel_error(dense, instance.L_star)
    if instance.noiseless and not err < NOISELESS_MAX_REL_ERROR:
        raise FitFailed(
            f"{solver}: noiseless relative error {err:.3e} not below "
            f"{NOISELESS_MAX_REL_ERROR:g}"
        )
    return err, max(above, 0.0)


def check_admm(instance, L_hat, trace):
    if trace.iterations < 1 or not np.all(np.isfinite(L_hat)):
        raise FitFailed("admm: no finite estimate")
    lo = float(np.linalg.eigvalsh(L_hat)[0])
    if lo < -1e-8 * max(1.0, float(np.abs(L_hat).max())):
        raise FitFailed(f"admm: low-rank estimate not PSD (min eigenvalue {lo:.3e})")
    return rel_error(L_hat, instance.L_star)


def median(values):
    return float(statistics.median(values)) if values else None


class Run:
    """Fits attempted and failed in one process, with their measurements."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failures = []
        self.above_target = []
        self.samples = {}
        self.calibration = Calibration(workload.p, workload.r, workload.calibration_s)

    def add(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def attempt(self, label, fn):
        """Call ``fn``; a raised exception or failed check counts as a failed
        attempt, reported with its message.  Returns the result, or None on
        failure."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # every failure is counted, the run goes on
            message = f"{label}: {type(exc).__name__}: {exc}"
            if not isinstance(exc, FitFailed):
                message += "\n" + traceback.format_exc(limit=-3)
            self.failures.append(message)
            print(f"FAILED {message}", flush=True)
            return None

    def check(self, instance, solver, est, trace, label):
        """``check_fit``; a fit that converged above the target is noted and
        printed.  Returns the fit's relative error."""
        err, above = check_fit(instance, solver, est, trace)
        if above > 0:
            note = (
                f"{label} {solver}: converged above the target by {above:.3e} "
                f"({above / sampling_noise(instance):.3f} of the sampling noise "
                f"of F(L*); status {trace.status!r}, {len(trace)} iterations)"
            )
            self.above_target.append(note)
            print(f"NOTE {note}", flush=True)
        return err

    def setup(self, trial, timed):
        """Build one instance; a failed set-up counts as one failed attempt."""
        return self.attempt(
            f"setup trial {trial}",
            lambda: build_instance(self.workload, self.seed, trial, timed),
        )

    def fit(self, instance, solver, label):
        """Untraced fit: ``(calibrated seconds, raw seconds, rel_error)`` or
        None."""

        def go():
            tic = time.perf_counter()
            est, trace = run_solver(instance, solver)
            raw = time.perf_counter() - tic
            seconds = raw * self.calibration.factor()
            return seconds, raw, self.check(instance, solver, est, trace, label)

        return self.attempt(f"{label} {solver}", go)

    def print_raw(self, keys):
        """The uncalibrated medians, and the calibration kernel's."""
        cal = self.calibration
        print(
            f"calibration kernel median {median(cal.samples):.6f} s "
            f"(reference {cal.reference_s} s, {len(cal.samples)} runs)",
            flush=True,
        )
        for key in keys:
            raw = median(self.samples.get(key + ".raw", []))
            if raw is not None:
                print(f"uncalibrated {key} median {raw:.6f} s", flush=True)


def _plain_timed(record):
    def timed(name, fn, *args):
        tic = time.perf_counter()
        out = fn(*args)
        record(time.perf_counter() - tic)
        return out

    return timed


def measure_end_to_end(run, seconds):
    """Untraced fits, back to back; returns the end-to-end metrics."""
    w = run.workload
    setups = []
    trial_setup = []
    timed = _plain_timed(trial_setup.append)

    def setup(trial):
        trial_setup.clear()
        instance = run.setup(trial, timed)
        if instance is not None:
            setups.append(sum(trial_setup) * run.calibration.factor())
            run.add("setup_s.raw", sum(trial_setup))
        return instance

    trial, rounds = 1, 0
    instance = setup(trial)
    for solver in SOLVERS if instance is not None else ():
        run.fit(instance, solver, "warm-up")
    start = time.perf_counter()
    while instance is not None:
        for solver in SOLVERS:
            out = run.fit(instance, solver, f"trial {trial}")
            if out is not None:
                run.add(f"{solver}.solve_s", out[0])
                run.add(f"{solver}.solve_s.raw", out[1])
                run.add(f"{solver}.rel_error", out[2])
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
        if rounds % w.reps == 0:
            trial += 1
            instance = setup(trial)
    metrics = {"setup_s": median(setups)}
    for solver in SOLVERS:
        for key in ("solve_s", "rel_error"):
            metrics[f"{solver}.{key}"] = median(run.samples.get(f"{solver}.{key}", []))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{trial} instances, {rounds} rounds of timed fits", flush=True)
    run.print_raw(["setup_s"] + [f"{solver}.solve_s" for solver in SOLVERS])
    return metrics


class HeadObserver:
    """Head quality ``||Z^T G||_F / ||G_k||_F`` against exact eigenvalues,
    and the degraded-projection count, for every head projection of a fit."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.quality = []
        self.degraded = 0

    def __call__(self, args, result):
        G, k = np.asarray(args[0]), int(args[1])
        top = np.sort(np.abs(np.linalg.eigvalsh(G)))[::-1][:k]
        best = float(np.sqrt(np.sum(top**2)))
        got = float(np.linalg.norm(result.basis.T @ G))
        self.quality.append(got / best if best > 0 else 1.0)
        self.degraded += int(result.degraded)


def _layer_row(st, root, trace, head):
    """Per-layer numbers of one traced PGD fit from its span self times."""
    total_self = sum(t for t, _ in st.values())
    if abs(total_self - root.duration) > 1e-9 * max(1.0, root.duration):
        raise FitFailed(
            f"span self times sum to {total_self!r}, solve took {root.duration!r}"
        )

    def self_s(name):
        return st.get(name, (0.0, 0))[0]

    def calls(name):
        return st.get(name, (0.0, 0))[1]

    iterations = len(trace)
    nll_calls = calls("objective.nll")
    return {
        "projections.evd_s": self_s("projections.evd"),
        "projections.head_s": self_s("projections.head"),
        "projections.tail_s": self_s("projections.tail"),
        "projections.degraded": head.degraded,
        "projections.head_quality_min": min(head.quality, default=0.0),
        "objective.gradient_s": self_s("objective.gradient"),
        "objective.gradient_calls": calls("objective.gradient"),
        "linalg.woodbury_s": self_s("linalg.woodbury"),
        "objective.nll_s": self_s("objective.nll"),
        "objective.nll_calls": nll_calls,
        "solvers.iterations": iterations,
        "solvers.iter_s": root.duration / max(iterations, 1),
        "solvers.halvings": int(sum(trace.halvings)),
        # accepted steps per NLL evaluation after the initial one
        "solvers.nll_accept_ratio": iterations / (nll_calls - 1) if nll_calls > 1 else 0.0,
        "solvers.bookkeeping_s": self_s("solve"),
    }


def per_layer_names(solver):
    projections = (
        ["projections.evd_s"]
        if solver == "ep"
        else [
            "projections.head_s", "projections.tail_s", "projections.degraded",
            "projections.head_quality_min",
        ]
    )
    return projections + [
        "objective.gradient_s", "objective.gradient_calls", "linalg.woodbury_s",
        "objective.nll_s", "objective.nll_calls", "solvers.iterations",
        "solvers.iter_s", "solvers.halvings", "solvers.nll_accept_ratio",
        "solvers.bookkeeping_s", "trace_overhead_s",
    ]


def _calibrated(row, factor):
    return {k: v * factor if k.endswith("_s") else v for k, v in row.items()}


SETUP_SPANS = (
    "datagen.gen_model", "datagen.sample_covariance",
    "objective.context_create", "linalg.s_inverse",
)
ADMM_METRICS = (
    "admm.solve_s", "admm.rel_error", "admm.baseline.fits",
    "admm.baseline.iterations", "admm.baseline.iter_s",
)


class TracedRun:
    """Traced calls: hooks installed only for the call, one fit id each."""

    def __init__(self):
        self.tracer = Tracer()
        self.missing = {}
        self.head = HeadObserver()
        self.tracer.observe("projections.head", self.head)
        self.admm_iterations = []
        self.tracer.observe(
            "baseline.admm",
            lambda args, result: self.admm_iterations.append(result[2].iterations),
        )

    def call(self, root_name, fn):
        """``(fn(), root span, self times)`` with every hook installed."""
        tracer = self.tracer
        tracer.fit += 1
        self.head.reset()
        self.admm_iterations.clear()
        with hooks(tracer) as absent:
            self.missing.update(absent)
            with tracer.span(root_name) as root:
                out = fn()
        return out, root, tracer.self_times(tracer.fit)

    def setup(self, run, trial):
        def timed(name, fn, *args):
            with self.tracer.span(name):
                return fn(*args)

        self.tracer.fit += 1
        instance = run.setup(trial, timed)
        if instance is not None:
            factor = run.calibration.factor()
            st = self.tracer.self_times(self.tracer.fit)
            for name in SETUP_SPANS:
                run.add(f"setup.{name}_s", st.get(name, (0.0, 0))[0] * factor)
        return instance

    def fit(self, run, instance, solver, label):
        def go():
            (est, trace), root, st = self.call(
                "solve", lambda: run_solver(instance, solver)
            )
            factor = run.calibration.factor()
            run.check(instance, solver, est, trace, f"{label} (traced)")
            row = _layer_row(st, root, trace, self.head)
            row["traced_s"] = root.duration
            return _calibrated(row, factor)

        row = run.attempt(f"{label} {solver} (traced)", go)
        for key, value in (row or {}).items():
            run.add(f"{solver}.{key}", value)

    def admm(self, run, instance, label):
        def go():
            (_, L_hat, trace, _), root, st = self.call(
                "admm.solve",
                lambda: lvggm.bench.tune_admm(
                    instance.ctx.C, instance.n, truth=instance.L_star
                ),
            )
            factor = run.calibration.factor()
            err = check_admm(instance, L_hat, trace)
            fit_time, fits = st.get("baseline.admm", (0.0, 0))
            iterations = sum(self.admm_iterations)
            row = {
                "admm.solve_s": root.duration,
                "admm.rel_error": err,
                "admm.baseline.fits": fits,
                "admm.baseline.iterations": iterations,
                "admm.baseline.iter_s": fit_time / max(iterations, 1),
            }
            return _calibrated(row, factor)

        row = run.attempt(f"{label} admm (traced)", go)
        for key, value in (row or {}).items():
            run.add(key, value)


def measure_layers(run, seconds):
    """Traced fits, each paired with an untraced one; returns the per-layer
    metrics, with those whose hook no longer exists reported as 0."""
    w = run.workload
    traced = TracedRun()
    trial = 1
    instance = traced.setup(run, trial)
    for solver in SOLVERS if instance is not None else ():
        run.fit(instance, solver, "warm-up")
    start = time.perf_counter()
    while instance is not None:
        for solver in SOLVERS:
            label = f"trial {trial}"
            # alternate which of the pair runs first
            if trial % 2:
                traced.fit(run, instance, solver, label)
            out = run.fit(instance, solver, label)
            if out is not None:
                run.add(f"{solver}.untraced_s", out[0])
            if not trial % 2:
                traced.fit(run, instance, solver, label)
        if w.admm:
            traced.admm(run, instance, f"trial {trial}")
        if time.perf_counter() - start >= seconds:
            break
        trial += 1
        instance = traced.setup(run, trial)

    def med(name):
        return median(run.samples.get(name, []))

    metrics = {f"setup.{name}_s": med(f"setup.{name}_s") for name in SETUP_SPANS}
    for solver in SOLVERS:
        for key in per_layer_names(solver):
            metrics[f"{solver}.{key}"] = med(f"{solver}.{key}")
        with_trace, without = med(f"{solver}.traced_s"), med(f"{solver}.untraced_s")
        overhead = None
        if with_trace is not None and without is not None:
            overhead = with_trace - without
            print(
                f"{solver} tracing overhead {overhead:+.6f} s ({100 * overhead / without:+.1f}% "
                f"of untraced solve_s {without:.6f} s, same run)",
                flush=True,
            )
        metrics[f"{solver}.trace_overhead_s"] = overhead
    for name in ADMM_METRICS:
        metrics[name] = med(name) if w.admm else 0.0
    absent = set(traced.missing.values())
    broken = traced.tracer.observer_errors
    unmeasured = sorted(
        f"{solver}.{key}"
        for solver in SOLVERS
        for key in per_layer_names(solver)
        if _NEEDS.get(key) in absent or (key in _OBSERVED and _NEEDS[key] in broken)
    )
    for name in unmeasured:
        metrics[name] = 0.0
    if traced.missing:
        print(f"unmeasured hooks (not in lvggm): {', '.join(sorted(traced.missing))}")
    for span, error in sorted(broken.items()):
        print(f"observer of {span} failed: {error}")
    if unmeasured:
        print(f"reported as 0: {', '.join(unmeasured)}", flush=True)
    print(f"{trial} instances traced", flush=True)
    run.print_raw([])
    return metrics


def environment(args):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "lvggm": os.path.dirname(lvggm.__file__),
    }


def run_workload(workload, seed, seconds, trace):
    """Measure one workload in this process; returns the result dict."""
    run = Run(workload, seed)
    measure = measure_layers if trace else measure_end_to_end
    metrics = measure(run, seconds)
    return {
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "above_target": run.above_target,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="run at p=24 (smoke test)")
    args = parser.parse_args(argv)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src")
    if os.path.dirname(os.path.dirname(os.path.realpath(lvggm.__file__))) != src:
        print(f"error: lvggm imported from {lvggm.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = tiny(workload)
    print("env " + json.dumps(environment(args), sort_keys=True), flush=True)
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
