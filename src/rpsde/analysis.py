"""Contraction constants, strong-error measurement, and the contraction test.

The strong error is measured against a fine reference path computed with the
same theta scheme on the same Brownian path: coarse-grid increments are the
pairwise tree sums (`noise.tree_fold`) of the fine-grid increments, so every
coarse run is coupled to the reference pathwise. The levels stream through
the time window together, in blocks of a bounded number of fine values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .integrator import ThetaScheme, simulate_ensemble
from .models import SdeProblem
from .noise import ensemble_increments, grid_steps, tree_fold

__all__ = [
    "ContractionConstants",
    "ConvergenceReport",
    "ContractionTest",
    "contraction_constant",
    "ms_error",
    "fit_slope",
    "numerical_contraction_test",
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


# fine values (paths x cells x noise components) that ms_error draws at once:
# about 8 MB, whatever the reference level, ensemble or window
_BLOCK_VALUES = 1 << 20


@dataclass
class ConvergenceReport:
    stepsizes: np.ndarray  # strictly decreasing
    rms_errors: np.ndarray
    stderrs: np.ndarray
    level_diffs: np.ndarray  # rms|X_l - X_prev| for each level after the coarsest
    level_diff_stderrs: np.ndarray
    fitted_slope: float
    intercept: float
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
) -> ConvergenceReport:
    """Root-mean-square error at t_end of dyadic-stepsize runs vs a fine reference.

    One fine grid at h = 2^-reference_level per Brownian path drives the
    reference run and every coarse run. The window is streamed in blocks of
    whole coarsest cells, about 2^20 fine values (8 MB) each: a block's
    cells are drawn once, folded by `tree_fold` level by level down to the
    coarsest, and every level steps through the block from its states at the
    block start. Block ends are whole cells of the dyadic grid, so every
    step time is the one of an unblocked run, and memory is bounded by the
    block rather than by the window. Errors are pathwise differences at the
    final time: against the reference, and between consecutive levels
    (`level_diffs`). A failed Newton solve aborts the experiment; paths are
    never dropped.
    """
    levels = sorted(levels)
    if len(set(levels)) < 2:
        raise ValueError(f"levels must name at least two distinct levels, got {levels}")
    repeats = sorted({lvl for lvl in levels if levels.count(lvl) > 1})
    if repeats:
        raise ValueError(f"levels name {', '.join(map(str, repeats))} more than once")
    if reference_level < levels[-1]:
        raise ValueError("reference_level must be at least the finest coarse level")
    if ensemble < 1:
        raise ValueError("ensemble must be >= 1")
    coarse_dt = 2.0 ** -levels[0]
    first = grid_steps(t_start, coarse_dt, "t_start")
    n_coarse = grid_steps(t_end, coarse_dt, "t_end") - first
    if n_coarse <= 0:
        raise ValueError("t_start must precede t_end")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    m = problem.noise_dim
    ref, h = reference_level, 2.0**-reference_level
    q = 1 << (ref - levels[0])  # fine cells per coarsest cell
    block = max(q, _BLOCK_VALUES // (ensemble * m) // q * q)
    schemes = {lvl: ThetaScheme(theta, 2.0**-lvl, newton_tol) for lvl in levels + [ref]}
    states = dict.fromkeys(schemes, np.broadcast_to(xi, (ensemble, xi.size)))
    c_end = (first + n_coarse) * q
    for c in range(first * q, c_end, block):
        n = min(block, c_end - c)
        incs = ensemble_increments(seed, range(ensemble), c, n, m, h, fine_level=ref)
        for lvl in range(ref, levels[0] - 1, -1):
            if lvl < ref:
                incs = tree_fold(incs, 2)
            if lvl in schemes:
                _, states[lvl], _ = simulate_ensemble(
                    problem, schemes[lvl], c * h, n >> (ref - lvl), states[lvl], incs,
                    record=False,
                )
    finals = [states[lvl] for lvl in levels]
    rms, stderrs = _rms_gaps(finals, [states[ref]] * len(levels))
    diffs, diff_stderrs = _rms_gaps(finals[1:], finals[:-1])
    stepsizes = np.array([2.0**-lvl for lvl in levels])
    if (rms > 0.0).all():
        slope, intercept = fit_slope(stepsizes, rms)
    else:
        slope, intercept = float("nan"), float("nan")
    return ConvergenceReport(
        stepsizes=stepsizes,
        rms_errors=rms,
        stderrs=stderrs,
        level_diffs=diffs,
        level_diff_stderrs=diff_stderrs,
        fitted_slope=slope,
        intercept=intercept,
        levels=list(levels),
    )


def _rms_gaps(xs, ys):
    """Per pair: rms over the paths of |x - y|, and its delta-method stderr."""
    out = np.zeros((2, len(xs)))
    for i, (x, y) in enumerate(zip(xs, ys)):
        s = np.sum((x - y) ** 2, axis=-1)
        out[0, i] = math.sqrt(s.mean())
        se_mean = s.std(ddof=1) / math.sqrt(s.size) if s.size > 1 else 0.0
        out[1, i] = se_mean / (2.0 * out[0, i]) if out[0, i] > 0.0 else 0.0
    return out


@dataclass
class ContractionTest:
    steps: np.ndarray
    gap_series: np.ndarray  # E|X_j - Y_j|^2
    envelope: np.ndarray  # C * c_delta^j anchored at j = 0
    c_delta: float
    exact_rate: float  # the exact solution's per-step rate, beside c_delta
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
    consts = contraction_constant(
        problem.lambda_min,
        problem.one_sided_lipschitz,
        scheme.theta,
        problem.moment_exponent,
        scheme.dt,
    )
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    if np.array_equal(xi, eta):
        raise ValueError("initial values must differ")
    if k < 1 or ensemble < 1:
        raise ValueError("k and ensemble must be >= 1")
    d = problem.state_dim
    for v in (xi, eta):
        if v.size != d:
            raise ValueError(
                f"initial state has shape {(ensemble, v.size)}; the model's state_dim is {d}"
            )
    dt = scheme.dt
    start = -k * problem.period
    n_steps = grid_steps(-start, dt, "k*period")
    cells = ensemble_increments(seed, range(ensemble), -n_steps, n_steps, problem.noise_dim, dt)
    # X and Y run as one batch of 2*ensemble over the same increments, joined
    # along the path axis; a path's bits do not depend on its batch
    incs = np.concatenate([cells, cells], axis=1)
    x0 = np.repeat(np.stack([xi, eta]), ensemble, axis=0)
    _, states, _ = simulate_ensemble(problem, scheme, start, n_steps, x0, incs, record=True)
    xs, ys = states[:ensemble], states[ensemble:]
    gap = np.mean(np.sum((xs - ys) ** 2, axis=-1), axis=0)  # per step j
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
        exact_rate=consts.exact_rate,
        passed=passed,
    )

