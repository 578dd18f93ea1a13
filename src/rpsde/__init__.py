"""Random periodic solutions of dissipative semi-linear SDEs via stochastic
theta methods: deterministic two-sided noise, implicit integration, pull-back
construction, and strong-error analysis.

The package imports nothing at its top level; import the modules themselves
(`rpsde.models`, `rpsde.noise`, `rpsde.integrator`, `rpsde.periodic`,
`rpsde.analysis`, `rpsde.cli`).
"""

__version__ = "0.1.0"
