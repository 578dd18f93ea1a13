#!/usr/bin/env python3
"""Per-step cost of simulate_ensemble for every catalog model.

For each model, theta in {1, 0.75} and batch size 1, 200 and 10^4, times
simulate_ensemble (record=False, dt 2^-7) over a fixed number of steps and
prints the best of three runs as microseconds per step and nanoseconds per
path-step, with the mean Newton iterations per step. Noise and initial states
come from numpy's default_rng outside the timed region, so only the stepping
kernel is measured.

    python3 scripts/kernel_timing.py
"""

import argparse
import math
import sys
import time

import numpy as np

from rpsde.integrator import ThetaScheme, simulate_ensemble
from rpsde.models import MODEL_NAMES, catalog_entry

# (batch, steps): fewer steps at the wide batch keep each run near a second
SIZES = ((1, 2048), (200, 1024), (10_000, 64))
DT = 2.0**-7
REPEAT = 3


def time_kernel(problem, scheme, batch, n_steps):
    rng = np.random.default_rng(0)
    x0 = rng.uniform(-0.6, 0.6, (batch, problem.state_dim))
    incs = math.sqrt(scheme.dt) * rng.standard_normal((batch, n_steps, problem.noise_dim))
    best = math.inf
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        _, _, iters = simulate_ensemble(problem, scheme, 0.0, n_steps, x0, incs, record=False)
        best = min(best, time.perf_counter() - t0)
    return best, float(iters.mean())


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()
    print(f"{'model':<22}{'theta':>6}{'batch':>7}{'steps':>6}"
          f"{'us/step':>10}{'ns/path-step':>14}{'iters':>7}")
    for name in MODEL_NAMES:
        problem = catalog_entry(name).problem
        for theta in (1.0, 0.75):
            scheme = ThetaScheme(theta=theta, dt=DT)
            for batch, n_steps in SIZES:
                best, iters = time_kernel(problem, scheme, batch, n_steps)
                print(f"{name:<22}{theta:>6}{batch:>7}{n_steps:>6}"
                      f"{1e6 * best / n_steps:>10.1f}{1e9 * best / (n_steps * batch):>14.1f}"
                      f"{iters:>7.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
