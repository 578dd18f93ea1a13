"""Pull-back construction of the numerical random periodic solution.

The random periodic state at time t is obtained as the L2 limit of runs
started ever further in the past: simulate from -k*tau with the same noise
for consecutive k (nested windows, key-deterministic increments) and stop
when consecutive runs agree to tolerance. Two complementary periodicity
checks compare paths under the Wiener shift by one period.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .integrator import ThetaScheme, simulate_ensemble
from .models import SdeProblem
from .noise import ensemble_increments, generate_uniform, shift_view

__all__ = [
    "PullbackResult",
    "IndependenceReport",
    "PeriodicityReport",
    "PullbackError",
    "pullback_converge",
    "initial_value_independence",
    "periodicity_check_shifted",
    "periodicity_check_pullback",
]

# pass/fail suprema exclude the first two periods after the start; pull-back
# trajectories coincide only after a short transient
BURN_IN_PERIODS = 2


class PullbackError(RuntimeError):
    """Pull-back iteration exhausted k_max without meeting the tolerance."""

    def __init__(self, message, last_gap):
        super().__init__(message)
        self.last_gap = last_gap


def _steps_per_period(tau: float, dt: float) -> int:
    steps = round(tau / dt)
    if abs(steps * dt - tau) > 1e-9:
        raise ValueError("period must be a multiple of the stepsize")
    return steps


@dataclass
class PullbackResult:
    k_used: int
    tolerance: float
    l2_gap: float
    sample_times: np.ndarray
    states: np.ndarray  # trajectory of path 0 over sample_times
    final_ensemble: np.ndarray  # (ensemble, d) states at t_eval
    gap_history: list = field(default_factory=list)


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
    """Increase the pull-back depth k until consecutive runs agree in L2.

    The noise is identical per path across k (windows nested leftward), so
    the Monte-Carlo gap estimate is a paired difference.
    """
    if tolerance <= 0.0:
        raise ValueError("tolerance must be positive")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    tau = problem.period
    dt = scheme.dt
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    steps_per_tau = _steps_per_period(tau, dt)
    n_eval = round(t_eval / dt)
    if abs(n_eval * dt - t_eval) > 1e-9 * max(1.0, abs(t_eval)):
        raise ValueError("t_eval must be grid-aligned")

    prev = None
    gap_history = []
    for k in range(1, k_max + 1):
        start = -k * tau
        n_steps = k * steps_per_tau + n_eval
        incs = ensemble_increments(
            seed, range(ensemble), (start, t_eval), problem.noise_dim, dt
        )
        x0 = np.broadcast_to(xi, (ensemble, problem.state_dim))
        _, states, _ = simulate_ensemble(
            problem, scheme, start, n_steps, x0, incs, record=True
        )
        final = states[:, -1]
        gap = float("inf")
        if prev is not None:
            gap = float(np.sqrt(np.mean(np.sum((final - prev) ** 2, axis=-1))))
            gap_history.append(gap)
        # the first depth has no gap; only an infinite tolerance accepts it
        if gap <= tolerance:
            n_keep = min(steps_per_tau, n_steps)
            return PullbackResult(
                k_used=k,
                tolerance=tolerance,
                l2_gap=gap,
                sample_times=t_eval - dt * np.arange(n_keep, -1, -1),
                states=states[0, -(n_keep + 1) :],
                final_ensemble=final.copy(),
                gap_history=gap_history,
            )
        prev = final
    raise PullbackError(
        f"pull-back gap {gap_history[-1] if gap_history else float('nan'):g} "
        f"above tolerance {tolerance:g} after k_max={k_max}",
        gap_history[-1] if gap_history else float("nan"),
    )


@dataclass
class IndependenceReport:
    initial_values: np.ndarray
    times: np.ndarray
    trajectories: np.ndarray  # (n_initial, n_times, d)
    sup_distance: float
    threshold: float
    passed: bool


def initial_value_independence(
    problem: SdeProblem,
    scheme: ThetaScheme,
    xis,
    k: int,
    seed: int,
    threshold: float = 1e-3,
) -> IndependenceReport:
    """One shared-noise path per initial value; pull-back from -k*tau to 0.

    Reports the supremum over t >= -k*tau + 2*tau of pairwise distances;
    contraction makes all trajectories collapse onto the same random
    periodic path.
    """
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    if xis.shape[0] < 2:
        raise ValueError("need at least two initial values")
    tau = problem.period
    dt = scheme.dt
    start = -k * tau
    n_steps = round(-start / dt)
    incs = ensemble_increments(seed, range(1), (start, 0.0), problem.noise_dim, dt)
    times, states, _ = simulate_ensemble(
        problem, scheme, start, n_steps, xis, incs, record=True
    )
    keep = times >= start + BURN_IN_PERIODS * tau - 1e-12
    sup = 0.0
    for i in range(xis.shape[0]):
        for j in range(i + 1, xis.shape[0]):
            dist = np.linalg.norm(states[i, keep] - states[j, keep], axis=-1)
            sup = max(sup, float(dist.max()))
    return IndependenceReport(
        initial_values=xis,
        times=times,
        trajectories=states,
        sup_distance=sup,
        threshold=threshold,
        passed=sup <= threshold,
    )


@dataclass
class PeriodicityReport:
    times: np.ndarray
    reference: np.ndarray  # path values aligned to `times`
    shifted: np.ndarray  # comparison path values aligned to `times`
    sup_gap: float
    threshold: float
    passed: bool
    degenerate: bool = False


def periodicity_check_shifted(
    problem: SdeProblem,
    scheme: ThetaScheme,
    k: int,
    xi,
    window: tuple[float, float],
    seed: int,
    threshold: float = 1e-2,
) -> PeriodicityReport:
    """Check the identity X*(t, shifted-by-(-tau) noise) = X*(t - tau, noise).

    P2 runs from -k*tau under the noise shifted by -tau and is sampled on the
    window; P1 runs under the base noise and is sampled one period earlier.
    The supremum of |P2(t) - P1(t - tau)| over the window (after the burn-in)
    is a pull-back gap and contracts geometrically.
    """
    tau = problem.period
    dt = scheme.dt
    a, b = window
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    start = -k * tau
    if a < start or b > 0.0 + 1e-12:
        raise ValueError(f"window {window} must lie in [{start}, 0]")
    shift_cells = _steps_per_period(tau, dt)
    n_steps = round((b - start) / dt)
    # one grid, extended one period left of the start for the shifted run
    g = generate_uniform(seed, 0, dt, (start - tau, b), problem.noise_dim)
    inc_base = g.step_increments(start, n_steps, dt)[None]
    inc_shift = shift_view(g, -tau).step_increments(start, n_steps, dt)[None]
    x0 = xi[None, :]
    times, p1, _ = simulate_ensemble(problem, scheme, start, n_steps, x0, inc_base)
    _, p2, _ = simulate_ensemble(problem, scheme, start, n_steps, x0, inc_shift)

    sel = (times >= a - 1e-12) & (times <= b + 1e-12)
    idx = np.nonzero(sel)[0]
    idx = idx[idx - shift_cells >= 0]
    t_sel = times[idx]
    burn = t_sel >= start + BURN_IN_PERIODS * tau - 1e-12
    p2_vals = p2[0, idx]
    p1_vals = p1[0, idx - shift_cells]
    gaps = np.linalg.norm(p2_vals - p1_vals, axis=-1)
    sup = float(gaps[burn].max()) if burn.any() else float(gaps.max())
    return PeriodicityReport(
        times=t_sel,
        reference=p1_vals,
        shifted=p2_vals,
        sup_gap=sup,
        threshold=threshold,
        passed=sup <= threshold,
    )


def periodicity_check_pullback(
    problem: SdeProblem,
    scheme: ThetaScheme,
    x0,
    horizon: float,
    seed: int,
    threshold: float = 1e-2,
) -> PeriodicityReport:
    """Sample the pull-back curve t -> X(t, noise shifted by -t) on [0, horizon].

    For each grid time t the scheme runs from 0 to t under noise shifted by
    -t; the resulting curve is pathwise periodic with period tau up to a
    geometrically decaying transient. Reports the curve and its discrete
    period deviation max_t |curve(t+tau) - curve(t)| after one period.
    """
    tau = problem.period
    dt = scheme.dt
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    shift_cells = _steps_per_period(tau, dt)
    n_total = round(horizon / dt)
    if abs(n_total * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError("horizon must be grid-aligned")
    if n_total % shift_cells:
        raise ValueError("horizon must be a multiple of the period")
    times = dt * np.arange(n_total + 1)
    if n_total == 0:
        return PeriodicityReport(
            times=times,
            reference=x0[None, :],
            shifted=x0[None, :],
            sup_gap=0.0,
            threshold=threshold,
            passed=True,
            degenerate=True,
        )
    grid = generate_uniform(seed, 0, dt, (-horizon, horizon), problem.noise_dim)
    curve = np.empty((n_total + 1, problem.state_dim))
    curve[0] = x0
    for j in range(1, n_total + 1):
        t = j * dt
        incs = shift_view(grid, -t).step_increments(0.0, j, dt)[None, :, :]
        _, final, _ = simulate_ensemble(
            problem, scheme, 0.0, j, x0[None, :], incs, record=False
        )
        curve[j] = final[0]
    dev = np.linalg.norm(curve[shift_cells:] - curve[:-shift_cells], axis=-1)
    dev_times = times[: n_total + 1 - shift_cells]
    after = dev_times >= tau - 1e-12
    sup = float(dev[after].max()) if after.any() else float(dev.max())
    return PeriodicityReport(
        times=times,
        reference=curve,
        shifted=np.concatenate([curve[shift_cells:], np.full((shift_cells, problem.state_dim), np.nan)]),
        sup_gap=sup,
        threshold=threshold,
        passed=sup <= threshold,
    )
