#!/usr/bin/env python3
"""Per-cell cost of ensemble_increments, per-step cost of simulate_ensemble, and
the memory of one ms_error call.

The noise rows time noise.ensemble_increments for four shapes: 10^4 paths of
100, 200 and 400 cells at uniform dt 0.01, the draws of one, two and four
periods with which the pull-back depth loop doubles its depth, and 200 paths
of 32,768 cells on the dyadic level-12 grid, the convergence experiment's
fine grid; they give microseconds per (path, component) stream and
nanoseconds per cell, which splits the cost of a stream's setup from that of
its cells. The kernel rows time simulate_ensemble (record=False, dt 2^-7)
over a fixed number of steps for each model, theta in {1, 0.75} and batch
size 1, 200 and 10^4; they give microseconds per step and nanoseconds per
path-step, with the mean Newton iterations per step (0 where the model
solves its own stage). Noise and initial states come from numpy's
default_rng outside the timed region, so only the stepping kernel is
measured. The increments are (steps, batch, m), as ensemble_increments
returns them, so the slab a step reads is contiguous.

The estimator row runs, once and after the timing rounds, the ms_error call
of tests/test_analysis.py::test_memory_bounded_by_block (linear_ou, levels 9
and 10 against a level-12 reference, 200 paths over (-4, 4)) under
tracemalloc, and prints its traced peak in MB and its wall time, which
includes the tracing's overhead. As in that test, ms_error is shown one CPU,
so it steps the reference in this process, where tracemalloc sees it, rather
than in a forked child on a host with two CPUs or more.

Every timed row runs once per round, in turn, for ROUNDS rounds, so a phase of
load on the host falls on all rows alike rather than on the few that a
row-by-row loop would be running; each row prints the median of its rounds
and, in brackets, their quartiles.

    python3 scripts/kernel_timing.py
"""

import argparse
import math
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np

from rpsde.analysis import ms_error
from rpsde.integrator import ThetaScheme, simulate_ensemble
from rpsde.models import MODEL_NAMES, catalog_entry
from rpsde.noise import ensemble_increments

# (batch, steps): fewer steps at the wide batch keep the rows' run times close
SIZES = ((1, 2048), (200, 1024), (10_000, 64))
DT = 2.0**-7
ROUNDS = 15
# (label, paths, first cell, cells, dt, fine_level): the windows (-1, 0), (-2, 0),
# (-4, 0) at dt 0.01 and (-4, 4) at 2^-12
NOISE_CASES = (
    ("uniform dt 0.01", 10_000, -100, 100, 0.01, None),
    ("uniform dt 0.01", 10_000, -200, 200, 0.01, None),
    ("uniform dt 0.01", 10_000, -400, 400, 0.01, None),
    ("dyadic level 12", 200, -16_384, 32_768, 2.0**-12, 12),
)


def noise_run(paths, first_cell, n_cells, dt, fine_level):
    """A function that draws the window once and returns the seconds it took."""

    def run():
        t0 = time.perf_counter()
        ensemble_increments(0, range(paths), first_cell, n_cells, 1, dt, fine_level)
        return time.perf_counter() - t0

    return run


def kernel_run(problem, scheme, batch, n_steps):
    """Mean Newton iterations per step, and a function that times one run of the batch."""
    rng = np.random.default_rng(0)
    x0 = rng.uniform(-0.6, 0.6, (batch, problem.state_dim))
    incs = math.sqrt(scheme.dt) * rng.standard_normal((n_steps, batch, problem.noise_dim))

    def run():
        t0 = time.perf_counter()
        simulate_ensemble(problem, scheme, 0, x0, incs, record=False)
        return time.perf_counter() - t0

    _, _, iters = simulate_ensemble(problem, scheme, 0, x0, incs, record=False)
    return float(iters.mean()), run


def estimator_memory(t_start=-4.0, t_end=4.0):
    """Traced peak in MB and wall seconds of the ms_error call over (t_start, t_end)."""
    problem = catalog_entry("linear_ou").problem
    with mock.patch("os.sched_getaffinity", lambda pid: {0}):
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            ms_error(problem, 1.0, [9, 10], 12, 200, t_start, t_end, seed=0)
            seconds = time.perf_counter() - t0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak / 1e6, seconds


def quartiles(seconds, scale):
    """Median and quartiles of the rounds' times, times scale."""
    return scale * np.percentile(seconds, [50, 25, 75])


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()
    noise = [(case, noise_run(*case[1:])) for case in NOISE_CASES]
    kernel = []
    for name in MODEL_NAMES:
        problem = catalog_entry(name).problem
        for theta in (1.0, 0.75):
            scheme = ThetaScheme(theta=theta, dt=DT)
            for batch, n_steps in SIZES:
                kernel.append((name, scheme, batch, n_steps,
                               *kernel_run(problem, scheme, batch, n_steps)))

    runs = [run for _, run in noise] + [row[-1] for row in kernel]
    seconds = [[] for _ in runs]
    for _ in range(ROUNDS):
        for times, run in zip(seconds, runs):
            times.append(run())

    print(f"median [quartiles] of {ROUNDS} rounds, every row once per round")
    print(f"{'ensemble_increments':<22}{'paths':>7}{'cells':>7}{'us/stream':>11}"
          f"{'ns/cell':>9}  [q1, q3]")
    for ((label, paths, _, n_cells, _, _), _), times in zip(noise, seconds):
        med, q1, q3 = quartiles(times, 1e9 / (paths * n_cells))
        print(f"{label:<22}{paths:>7}{n_cells:>7}{med * n_cells / 1e3:>11.1f}"
              f"{med:>9.1f}  [{q1:.1f}, {q3:.1f}]")
    print()
    print(f"{'model':<22}{'theta':>6}{'batch':>7}{'steps':>6}"
          f"{'us/step':>10}  {'[q1, q3]':<16}{'ns/path-step':>12}{'iters':>7}")
    for (label, scheme, batch, n_steps, iters, _), times in zip(kernel, seconds[len(noise):]):
        med, q1, q3 = quartiles(times, 1e6 / n_steps)
        spread = f"[{q1:.1f}, {q3:.1f}]"
        print(f"{label:<22}{scheme.theta:>6}{batch:>7}{n_steps:>6}{med:>10.1f}  {spread:<16}"
              f"{1e3 * med / batch:>12.1f}{iters:>7.2f}")
    peak_mb, seconds = estimator_memory()
    print()
    print(f"{'estimator, run once':<22}{'peak MB':>9}{'s':>7}")
    print(f"{'ms_error linear_ou':<22}{peak_mb:>9.2f}{seconds:>7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
