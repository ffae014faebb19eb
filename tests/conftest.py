import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import lvggm.bench

settings.register_profile(
    "default",
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def random_symmetric(rng, p, scale=1.0):
    A = rng.standard_normal((p, p)) * scale
    return (A + A.T) / 2.0


def random_spd(rng, p, shift=None):
    A = rng.standard_normal((p, p))
    S = A @ A.T / p
    if shift is None:
        shift = 0.5
    return S + shift * np.eye(p)


def banded_spd(rng, p, b):
    """SPD matrix of bandwidth exactly ``b``, diagonally dominant."""
    S = np.diag(rng.uniform(1.0, 2.0, p) * (2 * b + 1))
    for k in range(1, b + 1):
        off = rng.uniform(0.2, 1.0, p - k)
        S += np.diag(off, k) + np.diag(off, -k)
    return S


def fixed_admm_seconds(monkeypatch, module):
    """Make every ADMM fit reached through ``module`` report 9 s for its
    first iteration and 0.5 s for each later one."""
    real = lvggm.bench.admm_lvglasso

    def timed(C, cfg):
        S_hat, L_hat, trace = real(C, cfg)
        trace.seconds = [9.0] + [0.5] * (trace.iterations - 1)
        return S_hat, L_hat, trace

    monkeypatch.setattr(module, "admm_lvglasso", timed)


@pytest.fixture
def rng():
    return np.random.default_rng(0xBEEF)
