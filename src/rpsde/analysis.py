"""Contraction constants, strong-error measurement, and moment monitoring.

The strong error is measured against a fine reference path computed with the
same theta scheme on the same Brownian path: coarse-grid increments are exact
partial sums of the fine-grid increments, so every coarse run is coupled to
the reference pathwise.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .integrator import ThetaScheme, simulate_ensemble
from .models import SdeProblem
from .noise import ensemble_increments, grid_steps

__all__ = [
    "ContractionConstants",
    "ConvergenceReport",
    "MomentSeries",
    "ContractionTest",
    "contraction_constant",
    "ms_error",
    "fit_slope",
    "moment_monitor",
    "numerical_contraction_test",
    "write_convergence_csv",
]


@dataclass(frozen=True)
class ContractionConstants:
    """Per-step contraction rates: numerical scheme (c_delta) and exact solution."""

    c_delta: float
    exact_rate: float


def contraction_constant(
    lam: float, l_f: float, theta: float, pstar: float, dt: float
) -> ContractionConstants:
    """Geometric rate bounding the mean-square gap between numerical solutions.

    c_delta is the largest of three branches; it lies in [0, 1) whenever
    theta in (1/2, 1], 0 < L_f < lambda, p* > 2, dt in (0, 1]. The exact
    solution contracts at rate exp(2 (L_f - lambda) dt) per step.
    """
    if not 0.0 < l_f < lam:
        raise ValueError(f"need 0 < L_f < lambda: L_f={l_f}, lambda={lam}")
    if not 0.5 < theta <= 1.0:
        raise ValueError(f"theta must be in (1/2, 1], got {theta}")
    if pstar <= 2.0:
        raise ValueError(f"p* must exceed 2, got {pstar}")
    if not 0.0 < dt <= 1.0:
        raise ValueError(f"dt must be in (0, 1], got {dt}")
    gap = 2.0 * (lam - l_f) * theta * dt
    branches = (
        1.0 - gap / (1.0 + gap),
        1.0 - (pstar - 2.0) / (2.0 * (pstar - 1.0) * theta),
        1.0 - (2.0 * theta - 1.0) / theta**2,
    )
    return ContractionConstants(
        c_delta=max(branches),
        exact_rate=math.exp(2.0 * (l_f - lam) * dt),
    )


def fit_slope(stepsizes, errors) -> tuple[float, float]:
    """Ordinary least squares of log2(error) against log2(stepsize)."""
    h = np.asarray(stepsizes, dtype=float)
    e = np.asarray(errors, dtype=float)
    if h.shape != e.shape or h.size < 2:
        raise ValueError("need equal-length inputs with at least two points")
    if (h <= 0.0).any() or (e <= 0.0).any():
        raise ValueError("stepsizes and errors must be positive")
    x = np.log2(h)
    if np.ptp(x) == 0.0:
        raise ValueError("all stepsizes equal; slope is undefined")
    slope, intercept = np.polyfit(x, np.log2(e), 1)
    return float(slope), float(intercept)


@dataclass
class ConvergenceReport:
    stepsizes: np.ndarray  # strictly decreasing
    rms_errors: np.ndarray
    stderrs: np.ndarray
    fitted_slope: float
    intercept: float
    ensemble_size: int
    reference_level: int
    theta: float
    levels: list = field(default_factory=list)


def ms_error(
    problem: SdeProblem,
    theta: float,
    levels,
    reference_level: int,
    ensemble: int,
    t_start: float,
    t_end: float,
    seed: int,
    xi=0.6,
    newton_tol: float = 1e-5,
    jobs: int = 1,
) -> ConvergenceReport:
    """Root-mean-square error at t_end of dyadic-stepsize runs vs a fine reference.

    Per Brownian path: one fine grid at 2^-reference_level drives the
    reference run and (via exact telescoped coarse increments) every coarse
    run; errors are pathwise differences at the final time. A failed Newton
    solve aborts the experiment; paths are never dropped.
    """
    levels = sorted(levels)
    if not levels:
        raise ValueError("levels must name at least one level")
    if reference_level < levels[-1]:
        raise ValueError("reference_level must be at least the finest coarse level")
    if ensemble < 1:
        raise ValueError("ensemble must be >= 1")
    coarse_dt = 2.0 ** -levels[0]
    n_coarse = grid_steps(t_end, coarse_dt, "t_end")
    n_coarse -= grid_steps(t_start, coarse_dt, "t_start")
    if n_coarse <= 0:
        raise ValueError("t_start must precede t_end")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    all_levels = list(levels) + [reference_level]
    m = problem.noise_dim
    sq_all = {lvl: [] for lvl in levels}
    # paths run in `jobs` sequential chunks, which bounds the fine-increment
    # array to about ensemble/jobs paths; each path's result is chunk-free
    for p_lo, p_hi in _chunk_ranges(ensemble, jobs):
        n_paths = p_hi - p_lo
        fine = ensemble_increments(
            seed, range(p_lo, p_hi), (t_start, t_end), m,
            2.0**-reference_level, fine_level=reference_level,
        )
        x0 = np.broadcast_to(xi, (n_paths, xi.size))
        finals = {}
        for lvl in all_levels:
            n_steps = n_coarse << (lvl - levels[0])
            q = 2 ** (reference_level - lvl)
            incs = fine.reshape(n_paths, n_steps, q, m).sum(axis=2)
            scheme = ThetaScheme(theta=theta, dt=2.0**-lvl, newton_tol=newton_tol)
            _, finals[lvl], _ = simulate_ensemble(
                problem, scheme, t_start, n_steps, x0, incs, record=False
            )
        for lvl in levels:
            diff = finals[lvl] - finals[reference_level]
            sq_all[lvl].append(np.sum(diff**2, axis=-1))

    stepsizes = np.array([2.0**-lvl for lvl in levels])
    rms = np.empty(len(levels))
    stderrs = np.empty(len(levels))
    for i, lvl in enumerate(levels):
        s = np.concatenate(sq_all[lvl])
        mean_sq = s.mean()
        rms[i] = math.sqrt(mean_sq)
        # delta-method standard error of sqrt(mean of squares)
        se_mean = s.std(ddof=1) / math.sqrt(s.size) if s.size > 1 else 0.0
        stderrs[i] = se_mean / (2.0 * rms[i]) if rms[i] > 0.0 else 0.0
    order = np.argsort(-stepsizes)  # strictly decreasing stepsizes
    stepsizes, rms, stderrs = stepsizes[order], rms[order], stderrs[order]
    if (rms > 0.0).all():
        slope, intercept = fit_slope(stepsizes, rms)
    else:
        slope, intercept = float("nan"), float("nan")
    return ConvergenceReport(
        stepsizes=stepsizes,
        rms_errors=rms,
        stderrs=stderrs,
        fitted_slope=slope,
        intercept=intercept,
        ensemble_size=ensemble,
        reference_level=reference_level,
        theta=theta,
        levels=list(levels),
    )


def _chunk_ranges(n, jobs):
    jobs = max(1, min(jobs, n))
    size = (n + jobs - 1) // jobs
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


@dataclass
class MomentSeries:
    times: np.ndarray
    second_moment: np.ndarray
    stderr: np.ndarray
    growth_flag: bool


def moment_monitor(
    problem: SdeProblem,
    scheme: ThetaScheme,
    k: int,
    ensemble: int,
    seed: int,
    xi=0.6,
) -> MomentSeries:
    """Monte-Carlo second moment of the pull-back run from -k*tau to 0.

    Flags unbounded growth when the last-quarter mean exceeds 4x the
    first-quarter mean after a one-period burn-in.
    """
    if ensemble < 2:
        raise ValueError("ensemble must be >= 2")
    start = -k * problem.period
    steps_per_tau = grid_steps(problem.period, scheme.dt, "period")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    incs = ensemble_increments(
        seed, range(ensemble), (start, 0.0), problem.noise_dim, scheme.dt
    )
    x0 = np.broadcast_to(xi, (ensemble, xi.size))
    times, states, _ = simulate_ensemble(
        problem, scheme, start, k * steps_per_tau, x0, incs, record=True
    )
    sq = np.sum(states**2, axis=-1)  # (ensemble, n_times)
    mom = sq.mean(axis=0)
    se = sq.std(axis=0, ddof=1) / math.sqrt(ensemble)
    vals = mom[steps_per_tau:]
    quarter = max(1, vals.size // 4)
    flag = bool(vals[-quarter:].mean() > 4.0 * vals[:quarter].mean())
    return MomentSeries(times=times, second_moment=mom, stderr=se, growth_flag=flag)


@dataclass
class ContractionTest:
    steps: np.ndarray
    gap_series: np.ndarray  # E|X_j - Y_j|^2
    envelope: np.ndarray  # C * c_delta^j anchored at j = 0
    c_delta: float
    safety_factor: float
    floor: float
    passed: bool


def numerical_contraction_test(
    problem: SdeProblem,
    scheme: ThetaScheme,
    xi,
    eta,
    k: int,
    ensemble: int,
    seed: int,
    safety_factor: float = 10.0,
    floor: float = 1e-12,
) -> ContractionTest:
    """Paired-noise two-ensemble run; checks E|X_j - Y_j|^2 <= C * c_delta^j.

    The envelope constant C is anchored empirically at j = 0 and inflated by
    the safety factor; the check stops once the series falls below the floor.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    if np.array_equal(xi, eta):
        raise ValueError("initial values must differ")
    if k < 1 or ensemble < 1:
        raise ValueError("k and ensemble must be >= 1")
    dt = scheme.dt
    start = -k * problem.period
    n_steps = grid_steps(-start, dt, "k*period")
    incs = ensemble_increments(
        seed, range(ensemble), (start, 0.0), problem.noise_dim, dt
    )
    d = problem.state_dim
    for v in (xi, eta):
        if v.size != d:
            raise ValueError(
                f"initial state has shape {(ensemble, v.size)}; the model's state_dim is {d}"
            )
    # X and Y run as one batch of 2*ensemble over the same increments; a
    # path's bits do not depend on its batch
    x0 = np.repeat(np.stack([xi, eta]), ensemble, axis=0)
    _, states, _ = simulate_ensemble(
        problem, scheme, start, n_steps, x0, np.concatenate([incs, incs]), record=True
    )
    xs, ys = states[:ensemble], states[ensemble:]
    gap = np.mean(np.sum((xs - ys) ** 2, axis=-1), axis=0)  # per step j
    consts = contraction_constant(
        problem.lambda_min,
        problem.one_sided_lipschitz,
        scheme.theta,
        problem.moment_exponent,
        dt,
    )
    j = np.arange(n_steps + 1)
    envelope = safety_factor * gap[0] * consts.c_delta ** j.astype(float)
    above_floor = gap > floor
    passed = bool(np.all(gap[above_floor] <= envelope[above_floor]))
    # require the series actually to reach the floor (geometric decay)
    passed = passed and bool((~above_floor).any())
    return ContractionTest(
        steps=j,
        gap_series=gap,
        envelope=envelope,
        c_delta=consts.c_delta,
        safety_factor=safety_factor,
        floor=floor,
        passed=passed,
    )


def write_convergence_csv(report: ConvergenceReport, path) -> None:
    """CSV export: level, dt, rms_error, stderr rows plus slope/intercept footer."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["level", "dt", "rms_error", "stderr"])
        for lvl, dt, e, se in zip(
            report.levels, report.stepsizes, report.rms_errors, report.stderrs
        ):
            w.writerow([lvl, f"{dt:.17g}", f"{e:.17g}", f"{se:.17g}"])
        w.writerow(["slope", f"{report.fitted_slope:.17g}", "", ""])
        w.writerow(["intercept", f"{report.intercept:.17g}", "", ""])
