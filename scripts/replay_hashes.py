#!/usr/bin/env python3
"""Fixed-seed replay fingerprint of the benchmark workloads.

Builds desk-p100 trials 1-3, noiseless-banded-p500 trial 1 and
northstar-p1000 trial 1 of ``perfbench`` at one seed, fits each with EP,
AP-BK and AP-Lanczos, and prints one line per fit: a hash of the
instance's covariance ``C``, the route of its factor of ``S``
(``S=banded:<bandwidth>``, ``banded:0`` for a diagonal ``S``, or
``S=dense``), iteration count, total halvings, the largest step relative to
the first trial step, the count of degraded head projections, stop status,
a hash of the full NLL series, a hash of the returned ``(V, d)``, the final
NLL (``repr``) and the target F(L*) (plus the noiseless gap on that
workload).

Run it in two checkouts and diff the outputs to check that a refactor keeps
every iterate bit-identical; a change that moves the bits at roundoff can be
checked by iterations, halvings, degraded count, status and final NLL
instead.  The ``C`` hash tells a change in the sampled data apart from a
change in the solvers, and the ``S`` field shows which factor route ran:

    OPENBLAS_NUM_THREADS=1 python scripts/replay_hashes.py [--seed 9]
"""

import argparse
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402
from lvggm import auto_step_size  # noqa: E402
from workloads import SOLVERS, WORKLOADS, build_instance, run_solver  # noqa: E402

CASES = (
    ("desk-p100", 1), ("desk-p100", 2), ("desk-p100", 3),
    ("noiseless-banded-p500", 1), ("northstar-p1000", 1),
)


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=9)
    args = ap.parse_args()
    for name, trial in CASES:
        inst = build_instance(WORKLOADS[name], args.seed, trial, lambda _, f, *a: f(*a))
        c_hash = digest(inst.ctx.C)
        eta0 = auto_step_size(inst.ctx)
        fac = inst.ctx.S_chol
        route = f"banded:{fac.bandwidth}" if fac.route == "banded" else fac.route
        for solver in SOLVERS:
            est, trace = run_solver(inst, solver)
            print(
                f"{name} t{trial} {solver:10s} C={c_hash} S={route} "
                f"iters={len(trace):3d} halvings={trace.total_halvings:3d} "
                f"eta_max={max(trace.eta) / eta0:<5g} "
                f"degraded={trace.degraded_projections:3d} "
                f"status={trace.status:13s} nll={digest(trace.nll)} "
                f"Vd={digest(est.vectors, est.values)} final={trace.nll[-1]!r} "
                f"target={inst.target!r}",
                flush=True,
            )


if __name__ == "__main__":
    main()
