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
"""

from __future__ import annotations

import sys
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
]

# both periodicity checks judge only the pairs whose later sample lies this many
# periods after the run's start: the runs coincide only after a transient
BURN_IN_PERIODS = 2
# both periodicity checks pass iff their supremum is at most THRESHOLD
THRESHOLD = 1e-2


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
    the Monte-Carlo gap estimate is a paired difference. Each cell depends
    only on its absolute index, so the cells are drawn ahead, each once, in
    doublings of the depth: the first draw covers depths 1 and 2,
    (-2*tau, t_eval), and when depth k is not yet drawn one call draws the
    periods of depths k to min(k_max, 2*(k-1)). Depth 8 thus costs three
    draws, (-2*tau, t_eval), (-4*tau, -2*tau) and (-8*tau, -4*tau), each
    opening one stream per path and component. A gap needs two depths, and
    at an accepted depth k >= 2 fewer than twice its cells are drawn, none
    before -k_max*tau. The draws are held as drawn, and depth k runs through
    them in turn from its grid step -k*steps_per_tau; a step's time is a
    function of its grid step alone, so the pieces give the bits of one
    unsplit run. Each depth keeps only the final states; at the last depth
    path 0 alone is run again on its own cells to record its last period,
    which equals its row of the batched run because a path's bits do not
    depend on its batch; sample_times are that run's grid times s*dt.
    converged is False if k_max ran out.
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
    dt = scheme.dt
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    steps_per_tau = grid_steps(tau, dt, "period")
    n_eval = grid_steps(t_eval, dt, "t_eval")
    if n_eval <= -steps_per_tau:
        raise ValueError(f"t_eval must be after -period = {-tau}, got {t_eval}")
    x0 = np.broadcast_to(xi, (ensemble, xi.size))

    # the draws as (first cell, cells (n, ensemble, m)), the deepest first, from cell lo
    draws, lo = [], n_eval
    prev = None
    gap_history = []
    for k in range(1, k_max + 1):
        first = -k * steps_per_tau
        if first < lo:
            k_to = min(k_max, max(2, 2 * (k - 1)))
            c0 = -k_to * steps_per_tau
            drawn = ensemble_increments(seed, range(ensemble), c0, lo - c0, problem.noise_dim, dt)
            draws.insert(0, (c0, drawn))
            lo = c0
        # each draw from the start on; one that ends before it takes zero steps
        runs = [(max(c0, first), cells[max(0, first - c0) :]) for c0, cells in draws]
        final = x0
        for c0, cells in runs:
            _, final, _ = simulate_ensemble(problem, scheme, c0, final, cells, record=False)
        gap = float("inf")
        if prev is not None:
            gap = float(np.sqrt(np.mean(np.sum((final - prev) ** 2, axis=-1))))
            gap_history.append(gap)
        # the first depth has no gap; only an infinite tolerance accepts it
        if gap <= tolerance:
            break
        prev = final
    n_keep = min(steps_per_tau, n_eval - first)
    path0_cells = np.concatenate([cells[:, :1] for _, cells in runs])
    times, path0, _ = simulate_ensemble(problem, scheme, first, x0[:1], path0_cells)
    return PullbackResult(
        k_used=k,
        l2_gap=gap,
        sample_times=times[-(n_keep + 1) :],
        states=path0[0, -(n_keep + 1) :],
        gap_history=gap_history,
        converged=gap <= tolerance,
    )


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
