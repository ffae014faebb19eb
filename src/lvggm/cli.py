"""Command-line front end: ``lvggm gen|fit|bench|eval``.

Errors are reported as one-line JSON on stderr with a nonzero exit code so
harnesses can parse failures; a diverged ``fit`` still writes its partial
``trace.csv``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .baseline import AdmmConfig, admm_lvglasso, admm_objective
from .bench import ALGORITHMS, BenchSpec, run_bench, tune_admm
from .datagen import DIAG_RANGE, SPECTRAL_NORM, gen_model, sample_covariance
from .linalg import NotPositiveDefiniteError, effective_rank, symmetrize
from .matio import read_matrix, write_matrix
from .objective import ModelContext, nll, pd_margin
from .solvers import DivergedError, fit_pgd


class _JsonArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        print(json.dumps({"error": "UsageError", "message": message}), file=sys.stderr)
        raise SystemExit(2)


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_gen(args):
    model = gen_model(args.p, "auto" if args.r is None else args.r, seed=args.seed)
    C = sample_covariance(model, args.n, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    write_matrix(os.path.join(args.out, "S.mat"), model.S_star)
    write_matrix(os.path.join(args.out, "Ltrue.mat"), model.L_star)
    write_matrix(os.path.join(args.out, "C.mat"), C)
    # population covariance; feeding it back through `fit --cov` gives the
    # noiseless-recovery setting
    write_matrix(os.path.join(args.out, "Sigmatrue.mat"), model.sigma_star)
    ctx = ModelContext.create(model.S_star, C)
    G = model.L_factor  # ||G G^T||_F = ||G^T G||_F, ||G G^T||_2 = sigma_1(G)^2
    _write_json(
        os.path.join(args.out, "model.json"),
        {
            "p": model.p,
            "r": model.r,
            "n": args.n,
            "seed": args.seed,
            "diag_range": list(DIAG_RANGE),
            "spectral_norm": SPECTRAL_NORM,
            "L_frobenius_norm": float(np.linalg.norm(G.T @ G)),
            "L_spectral_norm": float(np.linalg.norm(G, 2) ** 2),
            "true_nll": nll(ctx, model.L_factor),
        },
    )
    print(args.out)
    return 0


def _rel_error_dense(est, ref):
    denom = float(np.linalg.norm(ref, "fro"))
    if denom == 0.0:
        return float(np.linalg.norm(est, "fro"))
    return float(np.linalg.norm(est - ref, "fro")) / denom


# flags of one solver family, which the other rejects
_ADMM_FLAGS = ("l1", "nuclear", "rho", "n_samples")
_PGD_FLAGS = ("s", "rank", "seed", "nll_tol", "true_nll_floor")


def cmd_fit(args):
    foreign = _PGD_FLAGS if args.algo == "admm" else _ADMM_FLAGS
    given = [f"--{name.replace('_', '-')}" for name in foreign
             if getattr(args, name) is not None]
    if given:
        raise ValueError(f"{args.algo} does not take {', '.join(given)}")
    weighted = args.l1 is not None and args.nuclear is not None
    admm_flags = (args.l1, args.nuclear, args.rho)
    if args.algo == "admm" and not weighted and admm_flags != (None,) * 3:
        raise ValueError(
            "admm takes --l1 and --nuclear together, and --rho only with both"
        )
    if args.n_samples is not None and args.n_samples < 1:
        raise ValueError("--n-samples must be >= 1")
    C = read_matrix(args.cov)
    truth = read_matrix(args.truth) if args.truth else None

    if args.algo == "admm":
        tic = time.perf_counter()
        if weighted:
            cfg = AdmmConfig(
                l1_weight=args.l1,
                nuclear_weight=args.nuclear,
                rho=1.0 if args.rho is None else args.rho,
                max_iters=args.max_iters,
            )
            S_hat, L_hat, trace = admm_lvglasso(C, cfg)
        else:
            n_hint = C.shape[0] if args.n_samples is None else args.n_samples
            S_hat, L_hat, trace, cfg = tune_admm(
                C, n_hint, truth=truth, max_iters=args.max_iters
            )
        total = time.perf_counter() - tic
        os.makedirs(args.out, exist_ok=True)
        write_matrix(os.path.join(args.out, "Lhat.mat"), L_hat)
        write_matrix(os.path.join(args.out, "Shat.mat"), S_hat)
        summary = {
            "algo": "admm",
            "iterations": trace.iterations,
            "total_seconds": total,
            "mean_iter_seconds": trace.mean_iter_seconds,
            "output_rank": effective_rank(np.linalg.eigvalsh(symmetrize(L_hat))),
            "converged": trace.converged,
            "l1_weight": cfg.l1_weight,
            "nuclear_weight": cfg.nuclear_weight,
            "admm_objective": admm_objective(C, S_hat, L_hat, cfg),
        }
        w = np.linalg.eigvalsh(symmetrize(S_hat + L_hat))
        if w[0] > 0:
            summary["final_nll"] = -float(np.sum(np.log(w))) + float(
                np.sum((S_hat + L_hat) * C)
            )
        if truth is not None:
            summary["rel_error"] = _rel_error_dense(L_hat, truth)
        _write_json(os.path.join(args.out, "summary.json"), summary)
        print(os.path.join(args.out, "summary.json"))
        return 0

    if args.s is None:
        raise ValueError("--s is required for ep/ap solvers")
    if args.rank is None:
        raise ValueError("--rank is required for ep/ap solvers")
    S = read_matrix(args.s)
    try:
        ctx = ModelContext.create(S, C)
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(f"input S matrix is not PD: {exc}") from exc
    trace_path = os.path.join(args.out, "trace.csv")
    knobs = {} if args.nll_tol is None else {"nll_tolerance": args.nll_tol}
    try:
        est, trace = fit_pgd(
            args.algo, ctx, args.rank, args.seed or 0, truth=truth,
            max_iters=args.max_iters, true_nll_floor=args.true_nll_floor,
            **knobs,
        )
    except DivergedError as exc:
        os.makedirs(args.out, exist_ok=True)
        exc.trace.to_csv(trace_path)
        raise
    # created just before the first write, so a rejected fit leaves none
    os.makedirs(args.out, exist_ok=True)
    write_matrix(os.path.join(args.out, "Lhat.mat"), est.dense())
    trace.to_csv(trace_path)
    summary = {
        "algo": args.algo,
        "final_nll": trace.nll[-1],
        "iterations": len(trace),
        "total_seconds": float(np.sum(trace.seconds)),
        "mean_iter_seconds": trace.mean_iter_seconds,
        "output_rank": est.effective_rank(),
        "status": trace.status,
        "rho_hat": trace.rho_hat,
        "degraded_projections": trace.degraded_projections,
        "halvings": trace.total_halvings,
        "final_step_size": trace.eta[-1],
        "pd_margin": pd_margin(ctx, est),
    }
    if truth is not None:
        summary["rel_error"] = trace.rel_error[-1]
    _write_json(os.path.join(args.out, "summary.json"), summary)
    print(os.path.join(args.out, "summary.json"))
    return 0


def cmd_bench(args):
    spec = BenchSpec.from_json(args.spec)
    results, medians = run_bench(spec, args.out, workers=args.workers)
    print(results)
    print(medians)
    return 0


def cmd_eval(args):
    if (args.s is None) != (args.cov is None):
        raise ValueError("eval takes --s and --cov together")
    est = read_matrix(args.estimate)
    report = {"effective_rank": effective_rank(np.linalg.eigvalsh(symmetrize(est)))}
    if args.reference:
        ref = read_matrix(args.reference)
        if ref.shape != est.shape:
            raise ValueError(
                f"dimension mismatch: estimate {est.shape} vs reference {ref.shape}"
            )
        report["rel_error"] = _rel_error_dense(est, ref)
        report["spectral_error"] = float(
            np.abs(np.linalg.eigvalsh(symmetrize(est - ref))).max()
        )
    if args.s is not None:
        ctx = ModelContext.create(read_matrix(args.s), read_matrix(args.cov))
        report["nll"] = nll(ctx, symmetrize(est))
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def build_parser():
    parser = _JsonArgumentParser(
        prog="lvggm",
        description="Low-rank latent component estimation for Gaussian "
        "graphical models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic instance")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--r", type=int, default=None, help="default: ceil(0.05 p)")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    f = sub.add_parser("fit", help="fit the low-rank component")
    f.add_argument("--s", help="sparse part matrix (required for ep/ap)")
    f.add_argument("--cov", required=True, help="sample covariance matrix")
    f.add_argument("--algo", choices=ALGORITHMS, required=True)
    f.add_argument("--rank", type=int, default=None)
    f.add_argument("--truth", default=None)
    f.add_argument("--max-iters", type=int, default=600)
    f.add_argument("--nll-tol", type=float, default=None, help="default 1e-7")
    f.add_argument("--true-nll-floor", type=float, default=None)
    f.add_argument("--seed", type=int, default=None, help="default 0")
    f.add_argument("--l1", type=float, default=None, help="admm l1 weight")
    f.add_argument("--nuclear", type=float, default=None, help="admm nuclear weight")
    f.add_argument("--rho", type=float, default=None,
                   help="admm penalty, with --l1 and --nuclear (default 1.0)")
    f.add_argument("--n-samples", type=int, default=None,
                   help="sample count hint for admm weight scaling")
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_fit)

    b = sub.add_parser("bench", help="run the Monte-Carlo benchmark grid")
    b.add_argument("--spec", required=True, help="bench spec JSON")
    b.add_argument("--out", required=True)
    b.add_argument("--workers", type=int, default=1,
                   help="process-pool size, >= 1; 1 runs trials sequentially")
    b.set_defaults(func=cmd_bench)

    e = sub.add_parser("eval", help="evaluate an estimate")
    e.add_argument("--estimate", required=True)
    e.add_argument("--reference", default=None, help="ground-truth matrix")
    e.add_argument("--s", default=None)
    e.add_argument("--cov", default=None)
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except Exception as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
