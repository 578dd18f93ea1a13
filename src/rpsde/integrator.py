"""Stochastic theta stepping with a Newton-solved or closed-form implicit stage.

One step of the scheme with parameter theta in (1/2, 1] and stepsize dt:

    X_{j+1} = X_j + theta*dt*(-A X_{j+1} + f(t_{j+1}, X_{j+1}))
                  + (1-theta)*dt*(-A X_j + f(t_j, X_j))
                  + g(t_j, X_j) dW_j

The implicit stage is solved by damped Newton iteration; dissipativity
(L_f < lambda) makes the stage map strongly monotone, so the root is unique.
A problem with state_free_drift has a linear stage, solved in closed form
with 0 iterations; newton_tol and newton_max_iter have no effect there.

simulate_ensemble is the one stepping loop. It is batched: states have
shape (batch, d), increments come time first, (n_steps, batch, m) as
noise.ensemble_increments returns them, and every path evolves
independently, so results per path do not depend on how paths are grouped
into batches. Every
operation on the state acts on each row alone: the models' callables are
elementwise in the path, the linear part sums its products in column order
instead of calling BLAS, and for d > 1 each path's Newton matrix is solved
on its own. A path's bits therefore depend only on its own row and on the
Newton iterations it takes. The Newton loop runs on the whole batch and
freezes a path once its own residual norm reaches the tolerance, so the
iterations a path takes do not depend on its batch either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import SdeProblem

__all__ = [
    "ThetaScheme",
    "NewtonError",
    "simulate_ensemble",
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
        if not 0.0 < self.newton_tol < math.inf or self.newton_max_iter < 1:
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
    would make a path's result depend on its batch.
    """
    out = y[..., :1] * a[:, 0]
    for j in range(1, a.shape[1]):
        out = out + y[..., j : j + 1] * a[:, j]
    return out


class _Kernel:
    """The theta step of one problem and scheme, with its constants hoisted.

    For state dimension 1 the linear part is y*a00, the norm is |v| (sqrt(v*v)
    is |v| whenever v*v neither overflows nor underflows) and the Newton
    matrix is the scalar 1 + theta*dt*(a00 - J); with one noise the noise
    term is g[..., 0]*dW. Each gives the bits of the general form. At
    theta = 1 the explicit drift and linear part carry the weight
    (1-theta)*dt = 0 and are skipped. A state-free drift gives the stage
    y = (I + theta*dt*A)^{-1}(rhs + theta*dt*f), applied in column order;
    f does not read the state, so it is evaluated on one row and broadcast.
    """

    def __init__(self, problem: SdeProblem, scheme: ThetaScheme):
        self.drift = problem.drift
        self.jacobian = problem.drift_jacobian
        self.diffusion = problem.diffusion
        self.period = problem.period
        self.a = problem.linear_matrix
        self.scalar = problem.state_dim == 1
        self.a00 = float(self.a[0, 0])
        self.eye = np.eye(problem.state_dim)
        self.one_noise = problem.noise_dim == 1
        self.theta_dt = scheme.theta * scheme.dt
        self.explicit_dt = (1.0 - scheme.theta) * scheme.dt
        self.tol = scheme.newton_tol
        self.max_iter = scheme.newton_max_iter
        self.state_free = problem.state_free_drift
        if self.state_free and not self.scalar:
            self.stage_inverse = np.linalg.inv(self.eye + self.theta_dt * self.a)

    def rhs(self, t_j, x, dw):
        """Explicit part of the step: x + (1-theta)*dt*(-A x + f) + g dW, batched."""
        t = _reduce_time(t_j, self.period)
        g = self.diffusion(t, x)
        if self.one_noise:
            noise = g[..., 0] * dw
        else:
            dw = np.broadcast_to(dw, (x.shape[0], dw.shape[-1]))
            noise = np.einsum("...ij,...j->...i", g, dw)
        if self.explicit_dt == 0.0:
            return x + noise
        return x + self.explicit_dt * (self.drift(t, x) - self.linear(x)) + noise

    def linear(self, y):
        return y * self.a00 if self.scalar else _linear_part(self.a, y)

    def norm(self, v):
        return np.abs(v[:, 0]) if self.scalar else np.linalg.norm(v, axis=-1)

    def residual(self, tf, y, r):
        return y + self.theta_dt * (self.linear(y) - self.drift(tf, y)) - r

    def newton_step(self, tf, y, f):
        """-J^{-1} f, with J = I + theta*dt*(A - Df(tf, y)) the stage's Jacobian."""
        df = self.jacobian(tf, y)
        if self.scalar:
            return -f / (1.0 + self.theta_dt * (self.a00 - df[..., 0]))
        # numpy >= 2 reads a 2-d right-hand side as a stack of matrices
        jac = self.eye + self.theta_dt * (self.a - df)
        return np.linalg.solve(jac, -f[..., None])[..., 0]

    def solve(self, t_next, rhs, guess):
        """Batched damped Newton for y + theta*dt*(A y - f(t_next, y)) = rhs.

        Returns (y, iterations), where iterations is the most any path took; 0 in closed form.
        Each iteration runs on the whole batch, and a path whose residual norm
        is at most tol is frozen: its row keeps its value from then on. A
        non-finite residual never counts as converged, so it ends in
        NewtonError.
        """
        tf = _reduce_time(t_next, self.period)
        if self.state_free:
            b = rhs + self.theta_dt * self.drift(tf, rhs[:1])
            if self.scalar:
                return b / (1.0 + self.theta_dt * self.a00), 0
            return _linear_part(self.stage_inverse, b), 0
        y = guess
        f = self.residual(tf, y, rhs)
        nrm = self.norm(f)
        for it in range(self.max_iter + 1):
            todo = ~(nrm <= self.tol)
            # count_nonzero costs a fraction of todo.any() on a small batch
            if not np.count_nonzero(todo):
                return y, it
            if it == self.max_iter:
                break
            y, f, nrm = self._damped_update(tf, y, rhs, f, nrm, todo)
            if np.count_nonzero(np.isfinite(nrm)) < nrm.size:
                raise NewtonError(
                    "non-finite state in Newton iteration", float(np.fmax.reduce(nrm[todo]))
                )
        worst = float(nrm.max())
        raise NewtonError(
            f"Newton failed to reach tolerance {self.tol} in {self.max_iter} "
            f"iterations (worst residual {worst:g})",
            worst,
        )

    def _damped_update(self, tf, y, r, f, nrm, todo):
        """One Newton iteration on the rows in todo; the other rows keep y, f and nrm.

        A path whose residual norm did not decrease has its step halved, up
        to 30 times.
        """
        dy = self.newton_step(tf, y, f)
        trial = y + dy
        ft = self.residual(tf, trial, r)
        nt = self.norm(ft)
        worse = (nt >= nrm) & todo
        if worse.any():
            alpha = np.ones(y.shape[0])
            for _ in range(30):
                alpha[worse] *= 0.5
                trial[worse] = y[worse] + alpha[worse, None] * dy[worse]
                ft[worse] = self.residual(tf, trial[worse], r[worse])
                nt[worse] = self.norm(ft[worse])
                worse &= nt >= nrm
                if not worse.any():
                    break
        if np.count_nonzero(todo) < todo.size:
            frozen = ~todo
            np.copyto(trial, y, where=frozen[:, None])
            np.copyto(ft, f, where=frozen[:, None])
            np.copyto(nt, nrm, where=frozen)
        return trial, ft, nt


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

    x0: (batch, d) initial states; increments: (n_steps, batch, m) Brownian
    increments, shaped as noise.ensemble_increments returns them (an
    (n_steps, 1, m) array broadcasts one noise path to all batch members).
    Step j reads increments[j] once. Returns (times, states, newton_iters)
    where states is (batch, n_steps+1, d) if record else the final
    (batch, d), and newton_iters is the per-step maximum iteration count.
    """
    x = np.array(x0, dtype=float)
    if x.ndim != 2 or x.shape[1] != problem.state_dim:
        d = problem.state_dim
        raise ValueError(f"initial state has shape {x.shape}; the model's state_dim is {d}")
    batch = x.shape[0]
    shape = np.shape(increments)
    if len(shape) != 3 or shape[1] not in (1, batch) or shape[2] != problem.noise_dim:
        raise ValueError(
            f"increments have shape {shape}; need ({n_steps}, 1 or {batch}, {problem.noise_dim})"
        )
    if shape[0] != n_steps:
        raise ValueError("increments do not cover the requested number of steps")
    kernel = _Kernel(problem, scheme)
    dt = scheme.dt
    times = t_start + dt * np.arange(n_steps + 1)
    iters = np.zeros(n_steps, dtype=np.int64)
    if record:
        out = np.empty((batch, n_steps + 1, problem.state_dim))
        out[:, 0] = x
    for j in range(n_steps):
        t_j = t_start + j * dt
        rhs = kernel.rhs(t_j, x, increments[j])
        x, iters[j] = kernel.solve(t_j + dt, rhs, x)
        if np.count_nonzero(np.isfinite(x)) < x.size:
            raise NewtonError(f"non-finite state after step at t={t_j}")
        if record:
            out[:, j + 1] = x
    return times, (out if record else x), iters

