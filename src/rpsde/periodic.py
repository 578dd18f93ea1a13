"""Pull-back construction of the numerical random periodic solution.

The random periodic state at time t is obtained as the L2 limit of runs
started ever further in the past: simulate from -k*tau with the same noise
for consecutive k (nested windows, key-deterministic increments) and stop
when consecutive runs agree to tolerance. Two complementary periodicity
checks compare paths under the Wiener shift by one period. Every window is
counted in whole cells of the stepsize: the period is steps_per_tau cells,
-k*tau is cell -k*steps_per_tau, and the Wiener shift by one period is an
offset of steps_per_tau cells into one time-first draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .integrator import ThetaScheme, simulate_ensemble
from .models import SdeProblem
from .noise import ensemble_increments, grid_steps

__all__ = [
    "PullbackResult",
    "PeriodicityReport",
    "PullbackError",
    "pullback_converge",
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


@dataclass
class PullbackResult:
    k_used: int
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
    the Monte-Carlo gap estimate is a paired difference. Each cell depends
    only on its absolute index and adjacent windows concatenate, so the
    cells are drawn ahead, each once, in doublings of the depth: the first
    draw covers depths 1 and 2, (-2*tau, t_eval), and when depth k is not
    yet drawn one call draws the periods of depths k to min(k_max, 2*(k-1)).
    Depth 8 thus costs three draws, (-2*tau, t_eval), (-4*tau, -2*tau) and
    (-8*tau, -4*tau), each opening one stream per path and component. A gap
    needs two depths, and at an accepted depth k >= 2 fewer than twice its
    cells are drawn, none before -k_max*tau. The cells are held time-first
    in one buffer, the deepest first, so that the buffer always starts at
    cell -k_drawn*steps_per_tau, and depth k runs on its last
    k*steps_per_tau + n_eval rows as a view. A growth allocates the larger
    buffer, moves the held cells to its end, frees the old one and then
    draws the new periods straight into its front, so cells are copied once
    per doubling. Each depth keeps only the final states; on acceptance
    path 0 alone is run again from -k*tau on the same cells to record its
    last period, which equals its row of the batched run because a path's
    bits do not depend on its batch.
    """
    if not tolerance > 0.0:
        raise ValueError("tolerance must be positive")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if ensemble < 1:
        raise ValueError("ensemble must be >= 1")
    tau = problem.period
    dt = scheme.dt
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    steps_per_tau = grid_steps(tau, dt, "period")
    n_eval = grid_steps(t_eval, dt, "t_eval")
    if n_eval <= -steps_per_tau:
        raise ValueError(f"t_eval must be after -period = {-tau}, got {t_eval}")
    x0 = np.broadcast_to(xi, (ensemble, xi.size))

    # cells (cells, ensemble, m) of depths 1 to k_drawn. No view of buf
    # outlives its depth, so growing frees the old buffer.
    buf = np.empty((0, ensemble, problem.noise_dim))
    k_drawn = 0
    prev = None
    gap_history = []
    for k in range(1, k_max + 1):
        if k > k_drawn:
            k_to = min(k_max, max(2, 2 * k_drawn))
            grown = np.empty((k_to * steps_per_tau + n_eval,) + buf.shape[1:])
            new = len(grown) - len(buf)
            grown[new:] = buf
            buf = grown
            ensemble_increments(
                seed, range(ensemble), -k_to * steps_per_tau, new, problem.noise_dim, dt,
                out=buf[:new],
            )
            k_drawn = k_to
        start = -k * tau
        n_steps = k * steps_per_tau + n_eval
        lo = len(buf) - n_steps
        _, final, _ = simulate_ensemble(problem, scheme, start, n_steps, x0, buf[lo:], record=False)
        gap = float("inf")
        if prev is not None:
            gap = float(np.sqrt(np.mean(np.sum((final - prev) ** 2, axis=-1))))
            gap_history.append(gap)
        # the first depth has no gap; only an infinite tolerance accepts it
        if gap <= tolerance:
            n_keep = min(steps_per_tau, n_steps)
            _, path0, _ = simulate_ensemble(
                problem, scheme, start, n_steps, x0[:1], buf[lo:, :1], record=True
            )
            return PullbackResult(
                k_used=k,
                l2_gap=gap,
                sample_times=t_eval - dt * np.arange(n_keep, -1, -1),
                states=path0[0, -(n_keep + 1) :],
                final_ensemble=final,
                gap_history=gap_history,
            )
        prev = final
    raise PullbackError(
        f"pull-back gap {gap_history[-1] if gap_history else float('nan'):g} "
        f"above tolerance {tolerance:g} after k_max={k_max}",
        gap_history[-1] if gap_history else float("nan"),
    )


@dataclass
class PeriodicityReport:
    times: np.ndarray
    reference: np.ndarray  # path values aligned to `times`
    shifted: np.ndarray  # comparison path values aligned to `times`
    sup_gap: float
    passed: bool


def _check_threshold(threshold):
    if not threshold > 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")


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
    Both run as one batch of two paths. The supremum of |P2(t) - P1(t - tau)|
    over the window (after the burn-in) is a pull-back gap and contracts
    geometrically.
    """
    _check_threshold(threshold)
    tau = problem.period
    dt = scheme.dt
    a, b = window
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    start = -k * tau
    shift_cells = grid_steps(tau, dt, "period")
    # window ends as step indices counted from the start
    i_a = grid_steps(a - start, dt, f"window {window}")
    n_steps = grid_steps(b - start, dt, f"window {window}")
    if i_a < 0 or n_steps > k * shift_cells:
        raise ValueError(f"window {window} must lie in [{start}, 0]")
    if i_a > n_steps or n_steps < shift_cells:
        raise ValueError(
            f"window {window} must satisfy a <= b and end at least one period "
            f"after -k*tau = {start}"
        )
    # P1 reads the cells from start, P2 one period earlier, as one batch of two
    cells = ensemble_increments(
        seed, range(1), -(k + 1) * shift_cells, shift_cells + n_steps, problem.noise_dim, dt
    )
    incs = np.concatenate([cells[shift_cells:], cells[:n_steps]], axis=1)
    x0 = np.broadcast_to(xi, (2, xi.size))
    times, (p1, p2), _ = simulate_ensemble(problem, scheme, start, n_steps, x0, incs)

    # samples with a partner one period earlier
    idx = np.arange(max(i_a, shift_cells), n_steps + 1)
    p2_vals = p2[idx]
    p1_vals = p1[idx - shift_cells]
    gaps = np.linalg.norm(p2_vals - p1_vals, axis=-1)
    settled = gaps[max(0, BURN_IN_PERIODS * shift_cells - idx[0]) :]
    sup = float((settled if settled.size else gaps).max())
    return PeriodicityReport(
        times=times[idx],
        reference=p1_vals,
        shifted=p2_vals,
        sup_gap=sup,
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

    Curve point j (t = j*dt) is the scheme run for j steps from x0 at time 0
    under the noise shifted by -t, which reads the base cells of (-t, 0).
    Step i of every point runs at time i*dt, so all n = horizon/dt points
    advance in lockstep: step i moves the points j > i as one batch, point
    j = i + 1 + r reading base cell n - 1 - r, and point i + 1 then leaves
    the batch. That is n steps and n(n+1)/2 path-steps; only the curve is kept.

    The curve is pathwise periodic with period tau up to a geometrically
    decaying transient. Reports the curve and its discrete period deviation
    max_t |curve(t+tau) - curve(t)| after one period.
    """
    _check_threshold(threshold)
    tau = problem.period
    dt = scheme.dt
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    shift_cells = grid_steps(tau, dt, "period")
    if horizon < 0.0:
        raise ValueError("horizon must be >= 0")
    n_total = grid_steps(horizon, dt, "horizon")
    if n_total % shift_cells:
        raise ValueError("horizon must be a multiple of the period")
    # the one path's cells of (-horizon, 0), (n_total, m)
    cells = ensemble_increments(seed, range(1), -n_total, n_total, problem.noise_dim, dt)[:, 0]
    curve = np.repeat(x0[None, :], n_total + 1, axis=0)
    x = np.broadcast_to(x0, (n_total, x0.size))
    for i in range(n_total):
        incs = cells[i:][None, ::-1]  # one step of the n_total - i points still in the batch
        _, x, _ = simulate_ensemble(problem, scheme, i * dt, 1, x, incs, record=False)
        curve[i + 1], x = x[0], x[1:]
    dev = np.linalg.norm(curve[shift_cells:] - curve[:-shift_cells], axis=-1)
    after = dev[shift_cells:]
    sup = float((after if after.size else dev).max(initial=0.0))
    shifted = np.full_like(curve, np.nan)
    shifted[:-shift_cells] = curve[shift_cells:]
    return PeriodicityReport(
        times=dt * np.arange(n_total + 1),
        reference=curve,
        shifted=shifted,
        sup_gap=sup,
        passed=sup <= threshold,
    )
