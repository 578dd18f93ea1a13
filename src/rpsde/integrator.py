"""Stochastic theta stepping with a Newton-solved or model-solved implicit stage.

One step of the scheme with parameter theta in (1/2, 1] and stepsize dt:

    X_{j+1} = X_j + theta*dt*(-A X_{j+1} + f(t_{j+1}, X_{j+1}))
                  + (1-theta)*dt*(-A X_j + f(t_j, X_j))
                  + g(t_j, X_j) dW_j

A model that supplies SdeProblem.stage solves the implicit stage itself,
with 0 iterations. Otherwise damped Newton iteration solves it to the
residual norm _NEWTON_TOL, giving up after _MAX_ITER iterations; dissipativity
(L_f < lambda) makes the stage map strongly monotone, so the root is unique.

simulate_ensemble is the one stepping loop; it calls one theta step,
_Kernel.step, for every problem. Grid time is an integer: a run starts at
grid step first_step and takes one step per row of its increments, and grid
step s runs at s*dt, so a run split at any step has the bits of the unsplit
run. It is batched: states are (batch, d), increments come time first, exactly
(steps, batch, m) as noise.ensemble_increments returns them, and every
operation on the state acts on each row alone: the models' callables are
elementwise in the path, the linear part sums its products in column order
instead of calling BLAS, and for d > 1 each path's Newton matrix is solved
on its own. The Newton loop freezes a path once its own residual norm
reaches the tolerance. A path's bits and iterations therefore do not depend
on how paths are grouped into batches.

At the batch sizes used a step costs numpy calls, not arithmetic, so it
makes fewer and cheaper ones with the same bits. Constants are 0-d float64
arrays, which a ufunc takes at about half the cost of a Python float. The
damping runs only on paths whose residual norm did not fall, and the freeze
only once a path has converged. No non-finite state meets the tolerance, so
the scan for one runs after the model's stage and, in Newton, only after an
iteration that left a path open.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .models import SdeProblem

__all__ = [
    "ThetaScheme",
    "NewtonError",
    "simulate_ensemble",
]


# a solve converges well inside 50 iterations or stalls at its residual's rounding floor
_MAX_ITER = 50
# a path's stage is solved once its residual norm is at most this
_NEWTON_TOL = 1e-5


class NewtonError(RuntimeError):
    """Implicit stage failed to converge or produced non-finite values."""


@dataclass(frozen=True)
class ThetaScheme:
    """Integrator parameters: theta in (1/2, 1], stepsize dt in (0, 1)."""

    theta: float
    dt: float

    def __post_init__(self):
        if not 0.5 < self.theta <= 1.0:
            raise ValueError(f"theta must be in (1/2, 1], got {self.theta}")
        if not 0.0 < self.dt < 1.0:
            raise ValueError(f"dt must be in (0, 1), got {self.dt}")


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

    The stage is the model's own, if it supplies one, or else damped Newton;
    the kernel holds no formula of any model. The pieces that differ by
    problem are chosen once. For d = 1 the linear part is y*a00, the norm |v|
    (sqrt(v*v) is |v| unless v*v overflows or underflows) and the Newton
    matrix 1 + theta*dt*(a00 - J); for m = 1 the noise term is g[..., 0]*dW.
    Each gives the bits of the general form. Norms are (batch, 1), so a mask
    of paths broadcasts over the state. At theta = 1 the explicit part has the
    weight 0 and is skipped. The pieces close over locals, never over self or
    a bound method, so a kernel holds no reference cycle and is freed as soon
    as its simulate_ensemble returns.
    """

    def __init__(self, problem: SdeProblem, scheme: ThetaScheme):
        self.drift = drift = problem.drift
        self.diffusion = problem.diffusion
        self.period = problem.period
        self.dt = scheme.dt
        self.stage = problem.stage
        a, jacobian = problem.linear_matrix, problem.drift_jacobian
        a00, one = np.array(a[0, 0]), np.array(1.0)
        self.theta_dt = theta_dt = np.array(scheme.theta * scheme.dt)
        self.tol = np.array(_NEWTON_TOL)
        if problem.state_dim == 1:
            self.linear = linear = lambda y: y * a00
            self.norm = np.abs
            # J^{-1} f, with J = 1 + theta*dt*(a00 - f'(tf, y)) the stage's derivative
            self.quotient = lambda tf, y, f: f / (one + theta_dt * (a00 - jacobian(tf, y)[..., 0]))
        else:
            eye = np.eye(problem.state_dim)
            self.linear = linear = lambda y: _linear_part(a, y)
            self.norm = lambda v: np.linalg.norm(v, axis=-1, keepdims=True)
            # J^{-1} f, with J = I + theta*dt*(A - Df(tf, y)); numpy >= 2 reads a
            # 2-d right-hand side as a stack of matrices
            self.quotient = lambda tf, y, f: np.linalg.solve(
                eye + theta_dt * (a - jacobian(tf, y)), f[..., None]
            )[..., 0]
        explicit_dt = np.array((1.0 - scheme.theta) * scheme.dt)
        if explicit_dt == 0.0:
            self.explicit = lambda t, x: x
        else:
            self.explicit = lambda t, x: x + explicit_dt * (drift(t, x) - linear(x))
        if problem.noise_dim == 1:
            self.noise = lambda g, dw: g[..., 0] * dw
        else:
            self.noise = lambda g, dw: np.einsum("...ij,...j->...i", g, dw)

    def step(self, s, x, dw):
        """States at grid step s + 1 of the batch x at grid step s, and the most Newton
        iterations any path took; the stage's time is the next step's, bit for bit."""
        # the fold into [0, period) is exact, so the phase stays periodic at large |t|
        t = (s * self.dt) % self.period
        rhs = self.explicit(t, x) + self.noise(self.diffusion(t, x), dw)
        tf = ((s + 1) * self.dt) % self.period
        if self.stage is None:
            return self._newton(tf, rhs, x)
        y = self.stage(tf, self.theta_dt, rhs)
        if np.count_nonzero(np.isfinite(y)) < y.size:
            raise NewtonError(f"non-finite state after step at t={s * self.dt}")
        return y, 0

    def residual(self, tf, y, r):
        return y + self.theta_dt * (self.linear(y) - self.drift(tf, y)) - r

    def _newton(self, tf, r, y):
        """Batched damped Newton for y + theta*dt*(A y - f(tf, y)) = r, from the guess y.

        A path whose residual norm is at most tol is frozen: its row keeps its
        value from then on. The update y - J^{-1} f has the bits of y + (-J^{-1} f);
        a path whose residual norm did not decrease has its step halved, up to 30 times.
        """
        f = self.residual(tf, y, r)
        nrm = self.norm(f)
        done = nrm <= self.tol
        # count_nonzero costs a fraction of done.all() on a small batch
        n_done = np.count_nonzero(done)
        it = 0
        while n_done < done.size:
            if it == _MAX_ITER:
                worst, tol = float(nrm.max()), float(self.tol)
                msg = f"Newton failed to reach tolerance {tol} in {it} iterations"
                raise NewtonError(f"{msg} (worst residual {worst:g})")
            q = self.quotient(tf, y, f)
            trial = y - q
            ft = self.residual(tf, trial, r)
            nt = self.norm(ft)
            worse = ((nt >= nrm) & ~done)[:, 0]
            # every path still worse after k halvings has the step 2^-k
            for k in range(1, 31):
                if not np.count_nonzero(worse):
                    break
                trial[worse] = y[worse] - 0.5**k * q[worse]
                ft[worse] = self.residual(tf, trial[worse], r[worse])
                nt[worse] = self.norm(ft[worse])
                worse &= (nt >= nrm)[:, 0]
            # a frozen row's residual feeds only the next quotient, whose row this discards
            if n_done:
                np.copyto(trial, y, where=done)
                np.copyto(nt, nrm, where=done)
            y, f, nrm = trial, ft, nt
            it += 1
            done = nrm <= self.tol
            n_done = np.count_nonzero(done)
            # a non-finite norm never meets tol, so a batch with every path done has none
            if n_done < done.size and np.count_nonzero(np.isfinite(nrm)) < nrm.size:
                raise NewtonError("non-finite state in Newton iteration")
        return y, it


def simulate_ensemble(
    problem: SdeProblem,
    scheme: ThetaScheme,
    first_step: int,
    x0: np.ndarray,
    increments: np.ndarray,
    record: bool = True,
):
    """Drive a batch of paths through one theta step per row of increments.

    first_step: the integer grid step of the start, so step j is grid step
    s = first_step + j and runs at s*dt; x0: (batch, d) initial states; increments:
    (steps, batch, m) Brownian increments, as noise.ensemble_increments
    returns them. Step j reads increments[j] once. Returns (times, states,
    newton_iters) where states is (batch, steps+1, d) if record else the final
    (batch, d), and newton_iters is the per-step maximum iteration count.
    """
    first_step = operator.index(first_step)
    x = np.array(x0, dtype=float)
    if x.ndim != 2 or x.shape[1] != problem.state_dim:
        d = problem.state_dim
        raise ValueError(f"initial state has shape {x.shape}; the model's state_dim is {d}")
    batch, m, shape = x.shape[0], problem.noise_dim, np.shape(increments)
    if len(shape) != 3 or shape[1:] != (batch, m):
        raise ValueError(f"increments have shape {shape}; need (steps, {batch}, {m})")
    n_steps = shape[0]
    kernel = _Kernel(problem, scheme)
    times = scheme.dt * np.arange(first_step, first_step + n_steps + 1)
    iters = np.zeros(n_steps, dtype=np.int64)
    if record:
        out = np.empty((batch, n_steps + 1, problem.state_dim))
        out[:, 0] = x
    for j in range(n_steps):
        x, iters[j] = kernel.step(first_step + j, x, increments[j])
        if record:
            out[:, j + 1] = x
    return times, (out if record else x), iters
