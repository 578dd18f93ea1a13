"""Pull-back construction of the numerical random periodic solution.

The random periodic state at time t is obtained as the L2 limit of runs
started ever further in the past: simulate from -k*tau with the same noise
for consecutive k (nested windows, key-deterministic increments) and stop
when consecutive runs agree to tolerance. Two complementary periodicity
checks compare paths under the Wiener shift by one period, over the pairs
whose later sample lies BURN_IN_PERIODS periods after its run's start. Every
window is counted in whole cells of the stepsize: the period is steps_per_tau
cells, -k*tau is cell -k*steps_per_tau, the grid step a run from there starts
at, and the Wiener shift by one period is an offset of steps_per_tau cells
into one time-first draw.

With two CPUs (`two_cpus`), `pullback_converge` at _SPLIT_PATHS paths or more
steps half of them in a child forked by `beside_child`, as `analysis.ms_error`
does its reference; a path's bits do not depend on its batch, so neither
changes a bit of the one-process run.
"""

from __future__ import annotations

import os
import signal
import sys
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .integrator import ThetaScheme, simulate_ensemble
from .models import SdeProblem
from .noise import ensemble_increments, grid_steps

__all__ = [
    "PullbackResult",
    "PeriodicityReport",
    "pullback_paths",
    "pullback_converge",
    "periodicity_check_shifted",
    "periodicity_check_pullback",
    "two_cpus",
    "beside_child",
]

# both periodicity checks judge only the pairs whose later sample lies this many
# periods after the run's start: the runs coincide only after a transient
BURN_IN_PERIODS = 2
# both periodicity checks pass iff their supremum is at most THRESHOLD
THRESHOLD = 1e-2
# the ensemble from which pullback_converge steps half of its paths in a forked child: on
# linear_ou at dt 0.01 the split lost at 500 paths, broke even near 1000 and won from 2000
_SPLIT_PATHS = 2000


def two_cpus() -> bool:
    """Whether this process may run on two CPUs or more, so that a forked child runs beside it."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1


def beside_child(mine, theirs, paced):
    """Pairs of the items of mine, iterated here, and of theirs, in a forked child.

    A generator that forks at its first pair, closed by its caller
    (`contextlib.closing`). theirs is a generator not yet started. The child
    computes its next item while this process computes its own; if paced,
    only once the next pair is asked for, else without waiting. In a step
    where either fails, the child's exception is raised, else this
    process's. The child leaves by os._exit, flushing no inherited buffer;
    once the pairs end, fail or are closed, it is killed, unless it has
    ended, and reaped. A child that died raises ChildProcessError.
    """
    from multiprocessing import Pipe  # here, so that a run without a fork does not load it

    conn, child_conn = Pipe()
    if (pid := os.fork()) == 0:
        try:
            for item in theirs:
                child_conn.send(item)
                if paced:
                    child_conn.recv()  # the next step
        except Exception as exc:
            child_conn.send(exc)
        finally:
            os._exit(0)
    child_conn.close()

    def received():
        item = conn.recv()
        if isinstance(item, Exception):
            raise item
        return item

    try:
        while True:
            try:
                item = next(mine)
            except StopIteration:
                return
            except Exception:
                received()  # the child's failure in this step comes first
                raise
            yield item, received()
            if paced:
                conn.send(True)
    except EOFError:
        raise ChildProcessError("the forked process ended without a result") from None
    finally:
        conn.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _start_step(k: int, period: float, dt: float) -> int:
    """The grid step of -k*period; a k that no float holds is rejected by name."""
    if k > sys.float_info.max:
        raise ValueError(f"k must be at most {sys.float_info.max:g}, got {k}")
    return -grid_steps(k * period, dt, "k*period")


@dataclass
class PullbackResult:
    k_used: int
    l2_gap: float
    sample_times: np.ndarray  # the grid times s*dt of path 0's recorded run
    states: np.ndarray  # trajectory of path 0 over sample_times
    gap_history: list
    converged: bool  # l2_gap <= tolerance; otherwise the depths ran out at k_max


def pullback_paths(
    problem: SdeProblem, scheme: ThetaScheme, initial_values, k: int, horizon: float, seed: int,
    ensemble: int = 1,
):
    """Run every initial value from -k*tau to horizon under the noise of paths 0 .. ensemble-1.

    The noise is drawn once and every run goes in one batch, initial value s
    on path e as row s*ensemble + e. Returns simulate_ensemble's triple.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    dt = scheme.dt
    first = _start_step(k, problem.period, dt)
    n_steps = grid_steps(horizon, dt, "horizon") - first
    if n_steps < 0:
        raise ValueError(f"horizon {horizon} precedes the start -k*period = {-k * problem.period}")
    grid_steps(n_steps * dt, dt, "horizon + k*period")  # the whole run: fewer than 2^62 steps
    starts = np.asarray(initial_values, dtype=float).reshape(len(initial_values), -1)
    batch, m = len(starts) * ensemble, problem.noise_dim
    cells = ensemble_increments(seed, range(ensemble), first, n_steps, m, dt)
    # a view at ensemble 1: every start reads the one path's cells
    incs = np.broadcast_to(cells[:, None], (n_steps, len(starts), ensemble, m))
    x0 = np.repeat(starts, ensemble, axis=0)
    return simulate_ensemble(problem, scheme, first, x0, incs.reshape(n_steps, batch, m))


def pullback_converge(
    problem: SdeProblem,
    scheme: ThetaScheme,
    t_eval: float,
    xi: np.ndarray,
    tolerance: float,
    k_max: int,
    ensemble: int,
    seed: int,
) -> PullbackResult:
    """Increase the pull-back depth k until consecutive runs agree in L2, or k reaches k_max.

    The noise is identical per path across k (windows nested leftward), so
    the Monte-Carlo gap estimate is a paired difference. At _SPLIT_PATHS
    paths or more with two CPUs, paths [ensemble//2, ensemble) run in a
    forked child that sends each depth's final states and runs the next
    depth when asked; the gap is taken over both halves joined in path
    order. A failure at depth k in either half re-runs depth k on every path
    here, so the one-process error is raised, Newton's worst residual over
    the whole batch included. At the last depth path 0 alone is run again on
    its own cells to record its last period, bitwise its row of the batch;
    sample_times are that run's grid times s*dt. converged is False if k_max
    ran out.
    """
    if not tolerance > 0.0:
        raise ValueError("tolerance must be positive")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if k_max < 2 and tolerance < float("inf"):
        raise ValueError(f"k_max must be >= 2 for a finite tolerance, got {k_max}")
    if ensemble < 1:
        raise ValueError("ensemble must be >= 1")
    if ensemble >= 1 << 63:  # a path index is an int64
        raise ValueError(f"ensemble must be below 2^63, got {ensemble}")
    tau = problem.period
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    steps_per_tau = grid_steps(tau, scheme.dt, "period")
    n_eval = grid_steps(t_eval, scheme.dt, "t_eval")
    if n_eval <= -steps_per_tau:
        raise ValueError(f"t_eval must be after -period = {-tau}, got {t_eval}")

    args = (problem, scheme, xi, n_eval, steps_per_tau, seed)
    prev = None
    gap_history = []
    with closing(_all_depths(args, range(1, k_max + 1), range(ensemble))) as depths:
        for k, (runs, final) in enumerate(depths, start=1):
            gap = float("inf")
            if prev is not None:
                gap = float(np.sqrt(np.mean(np.sum((final - prev) ** 2, axis=-1))))
                gap_history.append(gap)
            # the first depth has no gap; only an infinite tolerance accepts it
            if gap <= tolerance:
                break
            prev = final
    first = -k * steps_per_tau
    n_keep = min(steps_per_tau, n_eval - first)
    path0_cells = np.concatenate([cells[:, :1] for _, cells in runs])
    times, path0, _ = simulate_ensemble(problem, scheme, first, xi[None], path0_cells)
    return PullbackResult(
        k_used=k,
        l2_gap=gap,
        sample_times=times[-(n_keep + 1) :],
        states=path0[0, -(n_keep + 1) :],
        gap_history=gap_history,
        converged=gap <= tolerance,
    )


def _depths(problem, scheme, xi, n_eval, steps_per_tau, seed, depths, paths):
    """Run paths from xi at each depth k of depths to t_eval; yields (runs, final states).

    A cell depends only on its absolute index, so the cells are drawn ahead,
    each once, in doublings of the depth: the first draw covers depths 1
    and 2, (-2*tau, t_eval), and when depth k is not yet drawn one call draws
    the periods of depths k to min(depths[-1], 2*(k-1)); depth 8 costs three
    draws. At an accepted depth k >= 2 fewer than twice its cells are drawn.
    Depth k runs through the draws as held, runs = [(grid step, cells)], from
    its grid step -k*steps_per_tau; a step's time is a function of its grid
    step alone, so the pieces give the bits of one unsplit run.
    """
    x0 = np.broadcast_to(xi, (len(paths), xi.size))
    # the draws as (first cell, cells (n, paths, m)), the deepest first, from cell lo
    draws, lo = [], n_eval
    for k in depths:
        first = -k * steps_per_tau
        if first < lo:
            c0 = -min(depths[-1], max(2, 2 * (k - 1))) * steps_per_tau
            drawn = ensemble_increments(seed, paths, c0, lo - c0, problem.noise_dim, scheme.dt)
            draws.insert(0, (c0, drawn))
            lo = c0
        # each draw from the start on; one that ends before it takes zero steps
        runs = [(max(c0, first), cells[max(0, first - c0) :]) for c0, cells in draws]
        final = x0
        for c0, cells in runs:
            _, final, _ = simulate_ensemble(problem, scheme, c0, final, cells, record=False)
        yield runs, final


def _all_depths(args, depths, paths):
    """_depths over paths, the upper half in a forked child where that pays."""
    if len(paths) < _SPLIT_PATHS or not two_cpus():
        yield from _depths(*args, depths, paths)
        return
    half, k = len(paths) // 2, 0
    mine = _depths(*args, depths, paths[:half])
    theirs = (final for _, final in _depths(*args, depths, paths[half:]))
    try:
        with closing(beside_child(mine, theirs, paced=True)) as pairs:
            for k, ((runs, final), their_final) in enumerate(pairs, start=1):
                yield runs, np.concatenate([final, their_final])
    except ChildProcessError:
        raise
    except Exception:
        # depths[k] failed in a half: run it on every path, to raise what one batch meets
        for _ in _depths(*args, depths[k : k + 1], paths):
            pass
        raise


@dataclass
class PeriodicityReport:
    """A periodicity check's samples and verdict; every shifted-check row is judged."""

    times: np.ndarray
    reference: np.ndarray  # path values aligned to `times`
    sup_gap: float
    passed: bool  # sup_gap <= THRESHOLD
    shifted: np.ndarray | None = None  # the shifted check's comparison path, aligned to `times`


def periodicity_check_shifted(
    problem: SdeProblem,
    scheme: ThetaScheme,
    k: int,
    xi,
    window: tuple[float, float],
    seed: int,
) -> PeriodicityReport:
    """Check the identity X*(t, shifted-by-(-tau) noise) = X*(t - tau, noise).

    P2 runs from -k*tau under the noise shifted by -tau and is sampled on the
    window; P1 runs under the base noise and is sampled one period earlier.
    Both run as one batch of two paths. Only the window's t at least
    BURN_IN_PERIODS periods after -k*tau are reported; the supremum of
    |P2(t) - P1(t - tau)| over them is a geometrically contracting pull-back gap.
    """
    if k < BURN_IN_PERIODS:
        raise ValueError(f"k must be >= {BURN_IN_PERIODS}, got {k}")
    tau = problem.period
    dt = scheme.dt
    a, b = window
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    first = _start_step(k, tau, dt)
    start = -k * tau
    shift_cells = grid_steps(tau, dt, "period")
    # window ends as step indices counted from the start
    i_a = grid_steps(a, dt, "window start") - first
    n_steps = grid_steps(b, dt, "window end") - first
    if i_a < 0 or n_steps > -first:
        raise ValueError(f"window {window} must lie in [{start}, 0]")
    if i_a > n_steps or n_steps < BURN_IN_PERIODS * shift_cells:
        raise ValueError(
            f"window {window} must satisfy a <= b and end at least {BURN_IN_PERIODS} periods "
            f"after -k*tau = {start}"
        )
    # P1 reads the cells from start, P2 one period earlier, as one batch of two
    cells = ensemble_increments(
        seed, range(1), first - shift_cells, shift_cells + n_steps, problem.noise_dim, dt
    )
    incs = np.concatenate([cells[shift_cells:], cells[:n_steps]], axis=1)
    x0 = np.broadcast_to(xi, (2, xi.size))
    times, (p1, p2), _ = simulate_ensemble(problem, scheme, first, x0, incs)

    # the window's samples past the burn-in, each against its partner one period earlier
    idx = np.arange(max(i_a, BURN_IN_PERIODS * shift_cells), n_steps + 1)
    p2_vals = p2[idx]
    p1_vals = p1[idx - shift_cells]
    sup = float(np.linalg.norm(p2_vals - p1_vals, axis=-1).max())
    return PeriodicityReport(
        times=times[idx],
        reference=p1_vals,
        sup_gap=sup,
        passed=sup <= THRESHOLD,
        shifted=p2_vals,
    )


def periodicity_check_pullback(
    problem: SdeProblem,
    scheme: ThetaScheme,
    x0,
    horizon: float,
    seed: int,
) -> PeriodicityReport:
    """Sample the pull-back curve t -> X(t, noise shifted by -t) on [0, horizon].

    Curve point j (t = j*dt) is the scheme run for j steps from x0 at time 0
    under the noise shifted by -t, which reads the base cells of (-t, 0).
    Step i of every point runs at time i*dt, so all n = horizon/dt points
    advance in lockstep: step i moves the points j > i as one batch, point
    j = i + 1 + r reading base cell n - 1 - r, and point i + 1 then leaves
    the batch. That is n steps and n(n+1)/2 path-steps; only the curve is kept.

    The curve is pathwise periodic with period tau up to a geometrically
    decaying transient. Reports the curve and its discrete period deviation
    max |curve(t+tau) - curve(t)| over t + tau >= BURN_IN_PERIODS*tau.
    """
    tau = problem.period
    dt = scheme.dt
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    shift_cells = grid_steps(tau, dt, "period")
    n_total = grid_steps(horizon, dt, "horizon")
    if n_total % shift_cells:
        raise ValueError("horizon must be a multiple of the period")
    if n_total < BURN_IN_PERIODS * shift_cells:
        raise ValueError(f"horizon must be at least {BURN_IN_PERIODS} periods, got {horizon}")
    # the one path's cells of (-horizon, 0), (n_total, m)
    cells = ensemble_increments(seed, range(1), -n_total, n_total, problem.noise_dim, dt)[:, 0]
    curve = np.repeat(x0[None, :], n_total + 1, axis=0)
    x = np.broadcast_to(x0, (n_total, x0.size))
    for i in range(n_total):
        incs = cells[i:][None, ::-1]  # one step of the n_total - i points still in the batch
        _, x, _ = simulate_ensemble(problem, scheme, i, x, incs, record=False)
        curve[i + 1], x = x[0], x[1:]
    dev = np.linalg.norm(curve[shift_cells:] - curve[:-shift_cells], axis=-1)
    sup = float(dev[(BURN_IN_PERIODS - 1) * shift_cells :].max())  # dev[i] ends at i + shift_cells
    return PeriodicityReport(
        times=dt * np.arange(n_total + 1), reference=curve, sup_gap=sup, passed=sup <= THRESHOLD
    )
