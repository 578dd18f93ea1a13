"""SDE problem definitions and the built-in benchmark models.

All problems have the semi-linear form

    dX = (-A X + f(t, X)) dt + g(t, X) dW,

with A symmetric positive definite, f/g continuous and time-periodic with
period tau, and the drift nonlinearity one-sided Lipschitz with constant
L_f strictly below the smallest eigenvalue of A (dissipativity).

Drift/diffusion callables must be vectorized: they accept state arrays of
shape (..., d) and return (..., d) for the drift, (..., d, d) for the
Jacobian and (..., d, m) for the diffusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "SdeProblem",
    "ModelCatalogEntry",
    "build_cubic_model",
    "build_additive_model",
    "build_linear_model",
    "catalog_entry",
    "MODEL_NAMES",
]


@dataclass(frozen=True)
class SdeProblem:
    """One dissipative semi-linear SDE instance.

    Immutable after construction; drift/diffusion must be pure functions so
    problems can be shared freely. stage(t, c, r), if given, is the model's
    own solve of the implicit stage: the y with y + c*(A y - f(t, y)) = r for
    every row of r; without it the integrator solves the stage by damped
    Newton. state_dim and lambda_min (the smallest eigenvalue of A) are
    derived from linear_matrix.
    """

    noise_dim: int
    linear_matrix: np.ndarray
    drift: Callable[[float, np.ndarray], np.ndarray]
    drift_jacobian: Callable[[float, np.ndarray], np.ndarray]
    diffusion: Callable[[float, np.ndarray], np.ndarray]
    period: float
    one_sided_lipschitz: float
    moment_exponent: float
    growth_exponent: float
    stage: Callable[[float, np.ndarray, np.ndarray], np.ndarray] | None = None
    state_dim: int = field(init=False)
    lambda_min: float = field(init=False)

    def __post_init__(self):
        # a copy, so freezing it below leaves the caller's array writeable
        a = np.array(self.linear_matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"linear_matrix must be square, got shape {a.shape}")
        if not np.allclose(a, a.T, rtol=0.0, atol=1e-12):
            raise ValueError("linear_matrix must be symmetric")
        eigmin = float(np.linalg.eigvalsh(a).min())
        if eigmin <= 0.0:
            raise ValueError(f"linear_matrix must be positive definite (min eig {eigmin})")
        object.__setattr__(self, "state_dim", a.shape[0])
        object.__setattr__(self, "lambda_min", eigmin)
        if not 0.0 < self.one_sided_lipschitz < self.lambda_min:
            raise ValueError(
                f"need 0 < L_f < lambda: L_f={self.one_sided_lipschitz}, lambda={self.lambda_min}"
            )
        if self.period <= 0.0:
            raise ValueError("period must be positive")
        if self.growth_exponent < 1.0:
            raise ValueError("growth exponent must be >= 1")
        if self.moment_exponent <= (self.state_dim + 4) * self.growth_exponent:
            raise ValueError(
                "moment exponent must exceed (d+4)*gamma: "
                f"p*={self.moment_exponent}, bound={(self.state_dim + 4) * self.growth_exponent}"
            )
        object.__setattr__(self, "linear_matrix", a)
        a.setflags(write=False)


@dataclass(frozen=True)
class ModelCatalogEntry:
    problem: SdeProblem


def build_cubic_model(
    lam: float, a: float, b: float, c: float, dcoef: float, pstar: float
) -> SdeProblem:
    """Scalar benchmark with cubic drift and quadratic multiplicative noise.

    dX = (-lam X - a X^3 (1+sin(pi t))) dt
         + (b + c X + dcoef X^2 (1+sin(pi t))) dW,   period 2.
    """
    if lam <= 0.0:
        raise ValueError(f"need lam > 0, got {lam}")
    if a <= 0.0:
        raise ValueError(f"need a > 0, got {a}")
    if 12.0 * dcoef**2 * (pstar - 1.0) > a:
        raise ValueError(
            f"need 12*d^2*(p*-1) <= a: 12*{dcoef}^2*{pstar - 1} = "
            f"{12.0 * dcoef**2 * (pstar - 1.0)} > {a}"
        )
    l_f = 3.0 * c**2 * (pstar - 1.0)
    if l_f >= lam:
        raise ValueError(
            f"need 3*c^2*(p*-1) < lam: {l_f} >= {lam}"
        )

    # 0-d arrays: a ufunc takes them faster than Python floats, with the same bits
    neg_a, neg_3a, b0, c0, d0 = (np.array(v) for v in (-a, -3.0 * a, b, c, dcoef))

    def drift(t, x):
        return neg_a * (x * x * x) * (1.0 + math.sin(math.pi * t))

    def drift_jacobian(t, x):
        return (neg_3a * np.square(x) * (1.0 + math.sin(math.pi * t)))[..., None]

    def diffusion(t, x):
        return (b0 + c0 * x + d0 * np.square(x) * (1.0 + math.sin(math.pi * t)))[..., None]

    return SdeProblem(
        noise_dim=1,
        linear_matrix=np.array([[lam]]),
        drift=drift,
        drift_jacobian=drift_jacobian,
        diffusion=diffusion,
        period=2.0,
        one_sided_lipschitz=l_f,
        moment_exponent=pstar,
        growth_exponent=3.0,
    )


def _affine_model(lam: float, sigma: float, forcing: Callable[[float], float]) -> SdeProblem:
    """dX = (-lam X + forcing(t)) dt + sigma dW with period 1, a drift free of the state."""

    def drift(t, x):
        return np.full(x.shape, forcing(t))

    def drift_jacobian(t, x):
        return np.zeros(x.shape + (1,))

    def diffusion(t, x):
        return np.full(x.shape + (1,), sigma)

    return SdeProblem(
        noise_dim=1,
        linear_matrix=np.array([[lam]]),
        drift=drift,
        drift_jacobian=drift_jacobian,
        diffusion=diffusion,
        period=1.0,
        one_sided_lipschitz=min(1e-3, 0.5 * lam),  # f is free of x: any 0 < L_f < lam holds
        moment_exponent=21.0,
        growth_exponent=1.0,
        # the stage is linear in y: one division
        stage=lambda t, c, r: (r + c * forcing(t)) / (1.0 + c * lam),
    )


def build_additive_model() -> SdeProblem:
    """Scalar benchmark with additive noise: dX = -10 pi X dt + sin(2 pi t) dt + 0.05 dW."""
    return _affine_model(10.0 * math.pi, 0.05, lambda t: math.sin(2.0 * math.pi * t))


def build_linear_model(lam: float, sigma: float) -> SdeProblem:
    """Ornstein-Uhlenbeck model: dX = -lam X dt + sigma dW, zero drift nonlinearity."""
    if lam <= 0.0:
        raise ValueError(f"need lam > 0, got {lam}")
    if sigma < 0.0:
        raise ValueError(f"need sigma >= 0, got {sigma}")
    # +0.0 at every t: 0.0 * sin(2 pi t) would give -0.0 where the sine is negative
    return _affine_model(lam, sigma, lambda t: 0.0)


# name -> (builder, default parameters) of each built-in model
_CATALOG = {
    "cubic_multiplicative": (
        build_cubic_model,
        dict(lam=5.0 * math.pi, a=3.0, b=1.5, c=0.5, dcoef=0.1, pstar=21.0),
    ),
    "additive_sine": (build_additive_model, {}),
    "linear_ou": (build_linear_model, dict(lam=1.0, sigma=0.3)),
}
MODEL_NAMES = tuple(_CATALOG)


def catalog_entry(name: str, **params) -> ModelCatalogEntry:
    """Look up a built-in model by name with optional parameter overrides."""
    if name not in _CATALOG:
        raise ValueError(f"unknown model name {name!r}; choose from {MODEL_NAMES}")
    build, defaults = _CATALOG[name]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(
            f"{name} has no parameter {', '.join(unknown)}; "
            f"accepted: {', '.join(defaults) or 'none'}"
        )
    for key, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"model.{key} must be finite, got {value}")
    return ModelCatalogEntry(build(**{**defaults, **params}))
