"""Numerical laboratory for online (sparse) PCA on spiked-covariance streams.

Four mutually validating routes to the same dynamics: Monte Carlo
simulation of the online estimator, the deterministic drift-diffusion
scaling limit, closed-form overlap dynamics for the plain Oja case,
and the stationary fixed-point system with its SNR phase transition.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateStateError,
    NonNormalizableError,
    NumericError,
    OistlabError,
)
from .nonlinearity import Dynamics, phi_eval
from .oja import closed_form_q, ode_q, steady_state_q
from .priors import (
    Prior,
    discretize_prior,
    draw_samples,
    draw_signal,
    next_sample,
)
from .simulate import (
    Trajectory,
    cosine_similarity,
    joint_histogram,
    misclassification_rate,
    oist_step,
    run_trajectory,
)
from .steady import (
    FixedPoint,
    SteadyDensity,
    erfcx_scaled,
    fixed_point_map,
    fixed_point_map_quadrature,
    solve_fixed_point,
    sweep_omega,
)

__all__ = [
    "__version__",
    "ConfigError",
    "DegenerateStateError",
    "Dynamics",
    "FixedPoint",
    "NonNormalizableError",
    "NumericError",
    "OistlabError",
    "Prior",
    "SteadyDensity",
    "Trajectory",
    "closed_form_q",
    "cosine_similarity",
    "discretize_prior",
    "draw_samples",
    "draw_signal",
    "erfcx_scaled",
    "fixed_point_map",
    "fixed_point_map_quadrature",
    "joint_histogram",
    "misclassification_rate",
    "next_sample",
    "ode_q",
    "oist_step",
    "phi_eval",
    "run_trajectory",
    "solve_fixed_point",
    "steady_state_q",
    "sweep_omega",
]
