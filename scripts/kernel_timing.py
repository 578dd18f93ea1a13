#!/usr/bin/env python3
"""Per-cell cost of ensemble_increments and per-step cost of simulate_ensemble.

First, times noise.ensemble_increments (best of three) for four shapes: 10^4
paths of 100, 200 and 400 cells at uniform dt 0.01, the draws of one, two and
four periods with which the pull-back depth loop doubles its depth, and 200
paths of 32,768 cells on the dyadic level-12 grid, the convergence
experiment's fine grid; it prints microseconds per (path, component) stream
and nanoseconds per cell, which splits the cost of a stream's setup from
that of its cells. Then, for each model, theta in
{1, 0.75} and batch size 1, 200 and 10^4, times simulate_ensemble
(record=False, dt 2^-7) over a fixed number of steps and prints the best of
three runs as microseconds per step and nanoseconds per path-step, with the
mean Newton iterations per step (0 where the model's stage is solved in closed
form). Noise and initial states come from numpy's default_rng outside the
timed region, so only the stepping kernel is measured. The increments are
(steps, batch, m), as ensemble_increments returns them, so the slab a step
reads is contiguous; one last line times linear_ou at batch 10^4 on the same
values stored path by path and read through a time-first view, whose
per-step slab is a strided gather, for comparison.

    python3 scripts/kernel_timing.py
"""

import argparse
import math
import sys
import time

import numpy as np

from rpsde.integrator import ThetaScheme, simulate_ensemble
from rpsde.models import MODEL_NAMES, catalog_entry
from rpsde.noise import ensemble_increments

# (batch, steps): fewer steps at the wide batch keep each run near a second
SIZES = ((1, 2048), (200, 1024), (10_000, 64))
DT = 2.0**-7
REPEAT = 3
# (label, paths, first cell, cells, dt, fine_level): the windows (-1, 0), (-2, 0),
# (-4, 0) at dt 0.01 and (-4, 4) at 2^-12
NOISE_CASES = (
    ("uniform dt 0.01", 10_000, -100, 100, 0.01, None),
    ("uniform dt 0.01", 10_000, -200, 200, 0.01, None),
    ("uniform dt 0.01", 10_000, -400, 400, 0.01, None),
    ("dyadic level 12", 200, -16_384, 32_768, 2.0**-12, 12),
)


def time_noise(paths, first_cell, n_cells, dt, fine_level):
    best = math.inf
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        incs = ensemble_increments(0, range(paths), first_cell, n_cells, 1, dt, fine_level)
        best = min(best, time.perf_counter() - t0)
    return best, incs.size


def time_kernel(problem, scheme, batch, n_steps, time_major=True):
    rng = np.random.default_rng(0)
    x0 = rng.uniform(-0.6, 0.6, (batch, problem.state_dim))
    incs = math.sqrt(scheme.dt) * rng.standard_normal((n_steps, batch, problem.noise_dim))
    if not time_major:
        incs = np.ascontiguousarray(incs.transpose(1, 0, 2)).transpose(1, 0, 2)
    best = math.inf
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        _, _, iters = simulate_ensemble(problem, scheme, 0.0, n_steps, x0, incs, record=False)
        best = min(best, time.perf_counter() - t0)
    return best, float(iters.mean())


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()
    print(f"{'ensemble_increments':<22}{'paths':>7}{'cells':>7}{'us/stream':>11}{'ns/cell':>9}")
    for label, paths, first_cell, n_cells, dt, fine_level in NOISE_CASES:
        best, cells = time_noise(paths, first_cell, n_cells, dt, fine_level)
        print(f"{label:<22}{paths:>7}{cells // paths:>7}"
              f"{1e6 * best / paths:>11.1f}{1e9 * best / cells:>9.1f}", flush=True)
    print()
    print(f"{'model':<22}{'theta':>6}{'batch':>7}{'steps':>6}"
          f"{'us/step':>10}{'ns/path-step':>14}{'iters':>7}")

    def row(label, problem, scheme, batch, n_steps, time_major=True):
        best, iters = time_kernel(problem, scheme, batch, n_steps, time_major)
        print(f"{label:<22}{scheme.theta:>6}{batch:>7}{n_steps:>6}"
              f"{1e6 * best / n_steps:>10.1f}{1e9 * best / (n_steps * batch):>14.1f}"
              f"{iters:>7.2f}", flush=True)

    for name in MODEL_NAMES:
        problem = catalog_entry(name).problem
        for theta in (1.0, 0.75):
            scheme = ThetaScheme(theta=theta, dt=DT)
            for batch, n_steps in SIZES:
                row(name, problem, scheme, batch, n_steps)
    batch, n_steps = SIZES[-1]
    row("linear_ou, path-major", catalog_entry("linear_ou").problem,
        ThetaScheme(theta=1.0, dt=DT), batch, n_steps, time_major=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
