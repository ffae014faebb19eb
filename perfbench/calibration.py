"""Machine-speed calibration for the timed metrics.

On a shared host the same fit can take 1.6 times longer a minute later,
because neighbours load the same cores: CPU time tracks wall time, so the
process is not descheduled; the core itself runs slower.  A median over
one run cannot remove a slowdown that lasts the whole run.

So every timed section is followed by one run of a fixed numpy-only kernel,
shaped like a solver iteration at the workload's size: an ``eigh``, a
Cholesky factor and a GEMM at size p, a loop of matrix-vector
products (as in Lanczos) and a loop of small operations (as in the solvers'
bookkeeping).  A timed section is reported as

    raw seconds * reference / mean(kernel time just before, just after)

that is, in seconds at the machine speed where the kernel takes
``reference`` seconds.  The kernel uses no ``lvggm`` code, so a change to
the package cannot move it.
"""

from __future__ import annotations

import time

import numpy as np


class Calibration:
    def __init__(self, p, r, reference_s):
        rng = np.random.default_rng(0xCA1)
        E = rng.standard_normal((p, p))
        self.E = E + E.T
        X = rng.standard_normal((p, p))
        self.A = X @ X.T / p + np.eye(p)
        self.U = rng.standard_normal((p, 2 * r))
        self.x = rng.standard_normal(p)
        self.reference_s = reference_s
        self.samples = []
        self._last = self.kernel()

    def kernel(self):
        tic = time.perf_counter()
        np.linalg.eigh(self.E)
        np.linalg.cholesky(self.A)
        Y = self.A @ self.U
        x = self.x
        for _ in range(40):
            x = self.A @ x
            x /= np.linalg.norm(x)
        for _ in range(40):
            Z = self.U.T @ Y
            float(np.sum((Z + Z.T) / 2.0))
        seconds = time.perf_counter() - tic
        self.samples.append(seconds)
        return seconds

    def factor(self):
        """Scale for the section that just ended: runs the kernel once."""
        before, self._last = self._last, self.kernel()
        return self.reference_s / (0.5 * (before + self._last))
