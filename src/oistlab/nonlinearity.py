"""The model every route takes, its shrinkage force and its limit coefficients.

The online update (``simulate.oist_step``) applies eta(x) = x - phi(x)/p
to every coordinate, where phi is the shrinkage force derived from the
sparsity penalty:

    phi(x) = beta * sign(x)     (iterative soft thresholding)

with beta >= 0; beta = 0 is plain Oja. We fix sign(0) = 0, so eta
always maps the origin to itself.

``Dynamics`` (tau, omega, beta) is the model every route takes. The PDE
and the stationary analysis share the two coefficients of its limit
equations, which take the model: the diffusion D(q) and the confinement
tau*omega*q^2 - r + D(q).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


def phi_eval(x, beta: float):
    """Shrinkage force phi = beta * sign(x) at x (scalar or array)."""
    return beta * np.sign(x)


def phi_mean(x, width: float, beta: float):
    """Mean of phi over [x - width/2, x + width/2] (vectorized in x).

    Equals phi(x) unless the interval holds the jump of sign at 0.
    """
    return beta * np.clip(2.0 * np.asarray(x) / width, -1.0, 1.0)


@dataclass(frozen=True)
class Dynamics:
    """Step size tau > 0, SNR omega >= 0 and shrinkage strength beta >= 0, all finite.

    One model for every route: the Monte Carlo estimator and its limit
    equations (PDE, closed-form Oja overlap, stationary system). Plain
    Oja is beta = 0.
    """

    tau: float
    omega: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ConfigError(f"tau must be finite and > 0, got {self.tau}")
        if not (math.isfinite(self.omega) and self.omega >= 0):
            raise ConfigError(f"omega must be finite and >= 0, got {self.omega}")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ConfigError(f"beta must be finite and >= 0, got {self.beta}")


def diffusion_coefficient(dynamics: Dynamics, q: float) -> float:
    """Diffusion D = tau^2 (1 + omega q^2) / 2 of the limit equations; the stationary g."""
    return 0.5 * dynamics.tau ** 2 * (1.0 + dynamics.omega * q * q)


def restoring_coefficient(dynamics: Dynamics, q: float, r: float) -> float:
    """Linear confinement tau*omega*q^2 - r + D(q) of the drift; twice the stationary h."""
    return dynamics.tau * dynamics.omega * q * q - r + diffusion_coefficient(dynamics, q)
