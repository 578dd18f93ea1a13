"""Stochastic theta stepping with Newton-solved implicit stage.

One step of the scheme with parameter theta in (1/2, 1] and stepsize dt:

    X_{j+1} = X_j + theta*dt*(-A X_{j+1} + f(t_{j+1}, X_{j+1}))
                  + (1-theta)*dt*(-A X_j + f(t_j, X_j))
                  + g(t_j, X_j) dW_j

The implicit stage is solved by damped Newton iteration; dissipativity
(L_f < lambda) makes the stage map strongly monotone, so the root is unique.

simulate_ensemble is the one stepping loop (`step` is a single step of it).
It is batched: states have shape (batch, d) and every path in the batch
evolves independently (elementwise masking in the Newton loop), so results
per path do not depend on how paths are grouped into batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import SdeProblem

__all__ = [
    "ThetaScheme",
    "NewtonError",
    "step",
    "simulate_ensemble",
    "exact_linear_step",
]


class NewtonError(RuntimeError):
    """Implicit stage failed to converge or produced non-finite values."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class ThetaScheme:
    """Integrator parameters: theta in (1/2, 1], stepsize dt in (0, 1)."""

    theta: float
    dt: float
    newton_tol: float = 1e-5
    newton_max_iter: int = 50

    def __post_init__(self):
        if not 0.5 < self.theta <= 1.0:
            raise ValueError(f"theta must be in (1/2, 1], got {self.theta}")
        if not 0.0 < self.dt < 1.0:
            raise ValueError(f"dt must be in (0, 1), got {self.dt}")
        if self.newton_tol <= 0.0 or self.newton_max_iter < 1:
            raise ValueError("invalid Newton settings")


def _reduce_time(t: float, period: float) -> float:
    """Map t to [0, period) exactly periodically; avoids precision loss at large |t|."""
    r = math.fmod(t, period)
    if r < 0.0:
        r += period
    return r


def _linear_part(a, y):
    """y @ a.T with the products summed in column order.

    BLAS matmul rounds differently with the batch size once d > 1, which
    would make a path's result depend on its batch; for d = 1 this is the
    same single product.
    """
    out = y[..., :1] * a[:, 0]
    for j in range(1, a.shape[1]):
        out = out + y[..., j : j + 1] * a[:, j]
    return out


def _newton_solve(problem, scheme, t_next, rhs, guess):
    """Batched damped Newton for y + theta*dt*(A y - f(t_next, y)) = rhs.

    rhs/guess shape (batch, d). Returns (y, iteration counts). Paths are
    frozen individually the moment their residual norm drops below tol.
    """
    theta_dt = scheme.theta * scheme.dt
    a = problem.linear_matrix
    d = problem.state_dim
    tf = _reduce_time(t_next, problem.period)
    eye = np.eye(d)

    def residual(y, r):
        return y + theta_dt * (_linear_part(a, y) - problem.drift(tf, y)) - r

    y = np.array(guess, dtype=float)
    f_val = residual(y, rhs)
    nrm = np.linalg.norm(f_val, axis=-1)
    iters = np.zeros(y.shape[0], dtype=np.int64)
    tol = scheme.newton_tol

    for _ in range(scheme.newton_max_iter):
        active = nrm > tol
        if not active.any():
            break
        ya = y[active]
        ra = rhs[active]
        jac = eye + theta_dt * (a - problem.drift_jacobian(tf, ya))
        if d == 1:
            dy = -f_val[active] / jac[..., 0]
        else:
            # numpy >= 2 reads a 2-d right-hand side as a stack of matrices
            dy = np.linalg.solve(jac, -f_val[active][..., None])[..., 0]
        # damped update: halve the step for paths not reducing the residual
        alpha = np.ones(ya.shape[0])
        base_nrm = nrm[active]
        trial = ya + dy
        ft = residual(trial, ra)
        nt = np.linalg.norm(ft, axis=-1)
        for _ in range(30):
            worse = nt >= base_nrm
            if not worse.any():
                break
            alpha[worse] *= 0.5
            trial[worse] = ya[worse] + alpha[worse, None] * dy[worse]
            ft[worse] = residual(trial[worse], ra[worse])
            nt[worse] = np.linalg.norm(ft[worse], axis=-1)
        y[active] = trial
        f_val[active] = ft
        nrm[active] = nt
        iters[active] += 1
        if not np.isfinite(nrm[active]).all():
            raise NewtonError("non-finite state in Newton iteration", float(np.nanmax(nrm)))

    if (nrm > tol).any():
        worst = float(nrm.max())
        raise NewtonError(
            f"Newton failed to reach tolerance {tol} in {scheme.newton_max_iter} "
            f"iterations (worst residual {worst:g})",
            worst,
        )
    return y, iters


def _assemble_rhs(problem, scheme, t_j, x, dw):
    """Explicit part of the step: x + (1-theta)*dt*(-A x + f) + g dW, batched."""
    t = _reduce_time(t_j, problem.period)
    linear = _linear_part(problem.linear_matrix, x)
    expl = x + (1.0 - scheme.theta) * scheme.dt * (problem.drift(t, x) - linear)
    gx = problem.diffusion(t, x)
    return expl + np.einsum("...ij,...j->...i", gx, dw)


def simulate_ensemble(
    problem: SdeProblem,
    scheme: ThetaScheme,
    t_start: float,
    n_steps: int,
    x0: np.ndarray,
    increments: np.ndarray,
    record: bool = True,
):
    """Drive a batch of paths through n_steps theta steps.

    x0: (batch, d) initial states; increments: (batch, n_steps, m) Brownian
    increments (a (1, n_steps, m) array broadcasts one noise path to all
    batch members). Returns (times, states, newton_iters) where states is
    (batch, n_steps+1, d) if record else the final (batch, d), and
    newton_iters is the per-step maximum iteration count.
    """
    x = np.array(x0, dtype=float)
    if x.ndim != 2 or x.shape[1] != problem.state_dim:
        d = problem.state_dim
        raise ValueError(f"initial state has shape {x.shape}; the model's state_dim is {d}")
    batch = x.shape[0]
    if increments.shape[1] != n_steps:
        raise ValueError("increments do not cover the requested number of steps")
    times = t_start + scheme.dt * np.arange(n_steps + 1)
    iters = np.zeros(n_steps, dtype=np.int64)
    if record:
        out = np.empty((batch, n_steps + 1, problem.state_dim))
        out[:, 0] = x
    for j in range(n_steps):
        t_j = t_start + j * scheme.dt
        dw = np.broadcast_to(increments[:, j], (batch, problem.noise_dim))
        rhs = _assemble_rhs(problem, scheme, t_j, x, dw)
        x, it = _newton_solve(problem, scheme, t_j + scheme.dt, rhs, x)
        if not np.isfinite(x).all():
            raise NewtonError(f"non-finite state after step at t={t_j}")
        iters[j] = it.max()
        if record:
            out[:, j + 1] = x
    return times, (out if record else x), iters


def step(
    problem: SdeProblem,
    scheme: ThetaScheme,
    t_j: float,
    x_j: np.ndarray,
    dw: np.ndarray,
) -> np.ndarray:
    """One full theta step from (t_j, x_j) with Brownian increment dw.

    x_j is (d,) or (batch, d) and dw is (m,) or (batch, m); this is
    simulate_ensemble over a single step.
    """
    x_j = np.asarray(x_j, dtype=float)
    if not np.isfinite(x_j).all():
        raise NewtonError("non-finite state")
    dw = np.atleast_2d(np.asarray(dw, dtype=float))
    _, y, _ = simulate_ensemble(
        problem, scheme, t_j, 1, np.atleast_2d(x_j), dw[:, None, :], record=False
    )
    return y[0] if x_j.ndim == 1 else y


def exact_linear_step(
    lam: float, sigma: float, scheme: ThetaScheme, x: float, dw: float
) -> float:
    """Closed-form theta step for dX = -lam X dt + sigma dW; validates Newton."""
    return (x * (1.0 - (1.0 - scheme.theta) * lam * scheme.dt) + sigma * dw) / (
        1.0 + scheme.theta * lam * scheme.dt
    )
