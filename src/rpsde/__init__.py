"""Random periodic solutions of dissipative semi-linear SDEs via stochastic
theta methods: deterministic two-sided noise, implicit integration, pull-back
construction, and strong-error analysis."""

__version__ = "0.1.0"

from .analysis import (
    ContractionConstants,
    ConvergenceReport,
    contraction_constant,
    fit_slope,
    moment_monitor,
    ms_error,
    numerical_contraction_test,
)
from .integrator import (
    NewtonError,
    ThetaScheme,
    simulate_ensemble,
    step,
)
from .models import (
    DissipativityReport,
    ModelCatalogEntry,
    ParameterError,
    SdeProblem,
    build_additive_model,
    build_cubic_model,
    build_linear_model,
    catalog_entry,
    check_dissipativity,
)
from .noise import (
    WienerGrid,
    WindowError,
    ensemble_increments,
    generate,
    generate_uniform,
    grid_steps,
)
from .periodic import (
    initial_value_independence,
    periodicity_check_pullback,
    periodicity_check_shifted,
    pullback_converge,
)
