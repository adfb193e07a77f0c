"""Machine-speed calibration for timings taken on a shared host.

On a shared 2-vCPU host the same operation runs up to 2x slower for minutes
at a time, and no median within a 20-second run removes that drift.  A
fixed kernel -- IRLS-like steps on a 400 x 8 design plus some dict and sort
work, the same mix of small numpy calls and interpreter work the program
does -- is timed between operations.  Its time is independent of the
program's code, so ``REFERENCE_S / kernel time`` scales a measured time to
the speed the machine has when the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import expit

# Kernel time on a 2-vCPU Xeon at 2.0 GHz (Python 3.11, numpy 2.4, one BLAS
# thread) in its faster state; scaled times are seconds at that speed.
REFERENCE_S = 0.025


class Calibration:
    """Times the fixed kernel; call it to get one sample in seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((400, 8))
        self.y = (rng.random(400) < 0.5).astype(float)

    def __call__(self) -> float:
        x, y = self.x, self.y
        start = time.perf_counter()
        beta = np.zeros(x.shape[1])
        for _ in range(400):
            theta = x @ beta
            mu = expit(theta)
            hess = x.T @ ((mu * (1 - mu))[:, None] * x) + np.eye(x.shape[1])
            beta = beta + 0.1 * np.linalg.solve(hess, x.T @ (y - mu))
            np.logaddexp(0.0, theta).sum()
            table = {i: 2 * i for i in range(40)}
            sorted(table, key=table.get, reverse=True)
        return time.perf_counter() - start
