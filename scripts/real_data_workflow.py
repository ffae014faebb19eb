#!/usr/bin/env python3
"""Real-data workflow: estimate the sparse part, then fit the latent part.

Given a samples matrix (n rows, p columns; CSV or binary), this script

1. forms the column-centered sample covariance,
2. runs the ADMM comparator to obtain an estimate of the sparse component
   and a target rank (the effective rank of its low-rank estimate),
3. uses that sparse estimate as the known input for the projected-gradient
   solvers and records NLL-versus-time traces for each.

The sparse estimate is nudged onto the PD cone if soft-thresholding pushed
it outside (diagonal shift by the violated margin).

Example:
    python scripts/real_data_workflow.py --samples expr.csv --out run1 \
        --max-p 500
"""

import argparse
import json
import os

import numpy as np

from lvggm.baseline import AdmmConfig, admm_lvglasso
from lvggm.datagen import load_dataset
from lvggm.linalg import effective_rank, symmetrize
from lvggm.matio import write_matrix
from lvggm.objective import ModelContext
from lvggm.solvers import PGD_ALGORITHMS, fit_pgd


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", required=True, help="n x p samples matrix")
    ap.add_argument("--out", required=True)
    ap.add_argument("--max-p", type=int, default=1000,
                    help="keep only the first max-p columns")
    ap.add_argument("--skip-header", type=int, default=0)
    ap.add_argument("--l1", type=float, default=None)
    ap.add_argument("--nuclear", type=float, default=None)
    ap.add_argument("--max-iters", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    C, n, p_full = load_dataset(args.samples, center=True,
                                skip_header=args.skip_header)
    if p_full > args.max_p:
        C = C[: args.max_p, : args.max_p]
    p = C.shape[0]
    print(f"samples: n={n}, p={p} (of {p_full})")

    l1 = args.l1 if args.l1 is not None else np.sqrt(np.log(p) / n)
    nuc = args.nuclear if args.nuclear is not None else np.sqrt(p / n)
    S_hat, L_admm, admm_trace = admm_lvglasso(
        C, AdmmConfig(l1_weight=l1, nuclear_weight=nuc, max_iters=300)
    )
    rank = max(1, effective_rank(np.linalg.eigvalsh(symmetrize(L_admm))))
    print(f"ADMM: converged={admm_trace.converged}, target rank={rank}")

    # keep the sparse estimate PD for the log-det solvers
    lam_min = float(np.linalg.eigvalsh(S_hat)[0])
    if lam_min <= 1e-8:
        S_hat = S_hat + (abs(lam_min) + 1e-6) * np.eye(p)
        print(f"shifted sparse estimate onto the PD cone (margin {lam_min:.3e})")

    os.makedirs(args.out, exist_ok=True)
    write_matrix(os.path.join(args.out, "Shat.mat"), S_hat)
    ctx = ModelContext.create(S_hat, C, validate_psd=False)

    summary = {"n": n, "p": p, "rank": rank, "l1": l1, "nuclear": nuc}
    for algo in PGD_ALGORITHMS:
        est, trace = fit_pgd(
            algo, ctx, rank, args.seed, max_iters=args.max_iters, nll_tolerance=0
        )
        trace.to_csv(os.path.join(args.out, f"trace_{algo}.csv"))
        write_matrix(os.path.join(args.out, f"Lhat_{algo}.mat"), est.dense())
        summary[algo] = {
            "final_nll": trace.nll[-1],
            "iterations": len(trace),
            "total_seconds": float(np.sum(trace.seconds)),
            "output_rank": est.effective_rank(),
        }
        print(f"{algo:11s} nll={trace.nll[-1]:.6e} "
              f"({len(trace)} iters, {float(np.sum(trace.seconds)):.2f}s)")
    with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
