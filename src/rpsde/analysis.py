"""Contraction constants, strong-error measurement, and the contraction test.

The strong error is measured against a fine reference path computed with the
same theta scheme on the same Brownian path: coarse-grid increments are the
pairwise tree sums (`noise.tree_fold`) of the fine-grid increments, so every
coarse run is coupled to the reference pathwise. The levels stream through
the time window in blocks of a bounded number of fine values, the reference
in a forked process beside the others where two CPUs are available
(`periodic.beside_child`), with the bits of the one-process run.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .integrator import ThetaScheme, simulate_ensemble
from .models import SdeProblem
from .noise import ensemble_increments, grid_steps, tree_fold
from .periodic import beside_child, pullback_paths, two_cpus

__all__ = [
    "ConvergenceReport",
    "ContractionTest",
    "contraction_constant",
    "ms_error",
    "fit_slope",
    "numerical_contraction_test",
]


def contraction_constant(
    lam: float, l_f: float, theta: float, pstar: float, dt: float
) -> float:
    """c_delta, the geometric rate bounding the mean-square gap between numerical solutions.

    c_delta is the largest of three branches; it lies in [0, 1) whenever
    theta in (1/2, 1], 0 < L_f < lambda, p* > 2, dt in (0, 1].
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
        # gap overflows for lambda above about 9e307; inf / inf is nan, the limit is 0
        1.0 - gap / (1.0 + gap) if math.isfinite(gap) else 0.0,
        1.0 - (pstar - 2.0) / (2.0 * (pstar - 1.0) * theta),
        1.0 - (2.0 * theta - 1.0) / theta**2,
    )
    return max(branches)


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
# 1 MB, unless one coarsest cell of every path's fine values is more. The
# working set it bounds is that block, its first fold held beside it (half as
# large again) and the three chunk arrays of `noise._fill` (2^16 words each,
# or one path's cells where that is more): 3 MB at a 1 MB block.
_BLOCK_VALUES = 1 << 17


@dataclass
class ConvergenceReport:
    stepsizes: np.ndarray  # strictly decreasing
    rms_errors: np.ndarray
    stderrs: np.ndarray
    level_diffs: np.ndarray  # rms|X_l - X_prev| for each level after the coarsest
    fitted_slope: float
    intercept: float
    levels: list


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
) -> ConvergenceReport:
    """Root-mean-square error at t_end of dyadic-stepsize runs vs a fine reference.

    One fine grid at h = 2^-reference_level per Brownian path drives the
    reference run and every coarse run. The window is streamed in blocks of
    whole coarsest cells: a block's cells are drawn once, folded by
    `tree_fold` level by level down to the coarsest, and every level steps
    through the block from its states at the block's grid step. Memory is
    bounded by the block, not the window: a block is at most
    max(2^17, q*ensemble*m) fine values of 8 bytes, as it holds at least one
    coarsest cell of q = 2^(reference_level - min(levels)) fine cells, and
    the working set is that block, its first fold (half as large again) and
    the noise draw's three chunk arrays (2^16 words each, or one path's
    cells where that is more). With two CPUs or more in os.sched_getaffinity,
    the reference, which takes more steps than all other levels together,
    steps in a forked child on draws of its own, with the same bits; the
    memory bound holds per process. Errors are pathwise differences at the
    final time: against the reference, and between consecutive levels
    (`level_diffs`). A failure (a Newton solve, an allocation) aborts the
    experiment, the one that one loop over all levels meets first; paths are
    never dropped. This process takes the child's states block by block, so
    a failure here waits for the child only to finish that block.
    """
    levels = sorted(levels)
    if len(set(levels)) < 2:
        raise ValueError(f"levels must name at least two distinct levels, got {levels}")
    repeats = sorted({lvl for lvl in levels if levels.count(lvl) > 1})
    if repeats:
        raise ValueError(f"levels name {', '.join(map(str, repeats))} more than once")
    if levels[0] < 1:
        raise ValueError(f"levels must be at least 1, got {levels[0]}")
    if reference_level < levels[-1]:
        raise ValueError("reference_level must be at least the finest coarse level")
    if reference_level > 30:
        raise ValueError(f"reference_level must be at most 30, got {reference_level}")
    if ensemble < 1:
        raise ValueError("ensemble must be >= 1")
    if ensemble >= 1 << 63:  # a path index is an int64
        raise ValueError(f"ensemble must be below 2^63, got {ensemble}")
    coarse_dt = 2.0 ** -levels[0]
    first = grid_steps(t_start, coarse_dt, "t_start")
    n_coarse = grid_steps(t_end, coarse_dt, "t_end") - first
    if n_coarse <= 0:
        raise ValueError("t_start must precede t_end")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    ref = reference_level
    q = 1 << (ref - levels[0])  # fine cells per coarsest cell
    block = max(q, _BLOCK_VALUES // (ensemble * problem.noise_dim) // q * q)
    schemes = {lvl: ThetaScheme(theta, 2.0**-lvl) for lvl in levels + [ref]}
    x0 = np.broadcast_to(xi, (ensemble, xi.size))
    args = (problem, schemes, ref, range(ensemble), range(first * q, (first + n_coarse) * q),
            block, seed)
    states = dict.fromkeys(schemes, x0)
    mine = _run_levels(*args, states)
    if two_cpus():
        # the child takes the reference from states before mine starts; block by block: one loop
        # over all levels meets a reference failure first in a block; the reference never waits
        theirs = _run_levels(*args, {ref: states.pop(ref)})
        with closing(beside_child(mine, theirs, paced=False)) as pairs:
            for _, reference in pairs:
                pass
        states.update(reference)
    else:
        for _ in mine:
            pass
    finals = [states[lvl] for lvl in levels]
    rms, stderrs = _rms_gaps(finals, [states[ref]] * len(levels))
    diffs = _rms_gaps(finals[1:], finals[:-1])[0]
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
        fitted_slope=slope,
        intercept=intercept,
        levels=list(levels),
    )


def _run_levels(problem, schemes, ref, paths, cells, block, seed, states):
    """Step the levels that states maps to their states through cells, in place.

    Each block is drawn at ref and folded down to the levels; yields states
    after each block.
    """
    for c in range(cells.start, cells.stop, block):
        n = min(block, cells.stop - c)
        incs = ensemble_increments(seed, paths, c, n, problem.noise_dim, 2.0**-ref, fine_level=ref)
        for lvl in range(ref, min(states) - 1, -1):
            incs = incs if lvl == ref else tree_fold(incs, 2)
            if lvl in states:
                _, states[lvl], _ = simulate_ensemble(
                    problem, schemes[lvl], c >> (ref - lvl), states[lvl], incs, record=False
                )
        yield states


def _rms_gaps(xs, ys):
    """Per pair: rms over the paths of |x - y|, and its delta-method stderr."""
    out = np.zeros((2, len(xs)))
    for i, (x, y) in enumerate(zip(xs, ys)):
        s = np.sum((x - y) ** 2, axis=-1)
        out[0, i] = math.sqrt(s.mean())
        se_mean = s.std(ddof=1) / math.sqrt(s.size) if s.size > 1 else 0.0
        out[1, i] = se_mean / (2.0 * out[0, i]) if out[0, i] > 0.0 else 0.0
    return out


# the contraction envelope's C is _SAFETY_FACTOR * E|X_0 - Y_0|^2; the series must reach _FLOOR
_SAFETY_FACTOR, _FLOOR = 10.0, 1e-12


@dataclass
class ContractionTest:
    steps: np.ndarray
    gap_series: np.ndarray  # E|X_j - Y_j|^2
    envelope: np.ndarray  # C * c_delta^j anchored at j = 0
    c_delta: float
    exact_rate: float  # exp(2 (L_f - lambda) dt), the exact solution's per-step rate
    passed: bool


def numerical_contraction_test(
    problem: SdeProblem,
    scheme: ThetaScheme,
    xi,
    eta,
    k: int,
    ensemble: int,
    seed: int,
) -> ContractionTest:
    """Paired-noise two-ensemble run; checks E|X_j - Y_j|^2 <= C * c_delta^j.

    The envelope constant C is anchored empirically at j = 0 and inflated by
    _SAFETY_FACTOR; the check stops once the series falls below _FLOOR.
    """
    c_delta = contraction_constant(
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
    if ensemble >= 1 << 63:  # a path index is an int64
        raise ValueError(f"ensemble must be below 2^63, got {ensemble}")
    d = problem.state_dim
    for v in (xi, eta):
        if v.size != d:
            raise ValueError(
                f"initial state has shape {(ensemble, v.size)}; the model's state_dim is {d}"
            )
    # X and Y run as one batch over the same increments; a path's bits do not depend on its batch
    _, states, _ = pullback_paths(problem, scheme, [xi, eta], k, 0.0, seed, ensemble)
    xs, ys = states[:ensemble], states[ensemble:]
    gap = np.mean(np.sum((xs - ys) ** 2, axis=-1), axis=0)  # per step j
    j = np.arange(len(gap))
    envelope = _SAFETY_FACTOR * gap[0] * c_delta ** j.astype(float)
    above_floor = gap > _FLOOR
    passed = bool(np.all(gap[above_floor] <= envelope[above_floor]))
    # require the series actually to reach the floor (geometric decay)
    passed = passed and bool((~above_floor).any())
    return ContractionTest(
        steps=j,
        gap_series=gap,
        envelope=envelope,
        c_delta=c_delta,
        exact_rate=math.exp(2.0 * (problem.one_sided_lipschitz - problem.lambda_min) * scheme.dt),
        passed=passed,
    )

