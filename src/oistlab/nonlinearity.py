"""Elementwise shrinkage nonlinearity used by the online update.

The update applies eta(x) = x - phi(x)/p to every coordinate, where
phi is the shrinkage force derived from the sparsity penalty:

    phi(x) = 0                  (no thresholding, plain Oja)
    phi(x) = beta * sign(x)     (iterative soft thresholding)

We fix sign(0) = 0, so eta always maps the origin to itself.

``Dynamics`` is the model every route takes, and the diffusion and
restoring coefficients of its limit equations live beside it, so the
stationary analysis reads them without loading the PDE solver.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class SoftThreshold:
    """Soft-thresholding shrinkage with strength beta >= 0."""

    beta: float

    def __post_init__(self):
        if self.beta < 0:
            raise ConfigError(f"soft threshold beta must be >= 0, got {self.beta}")


def phi_eval(x, threshold):
    """Shrinkage force phi at x (scalar or array); zero when thresholding is off."""
    if threshold is None:
        return np.zeros_like(np.asarray(x, dtype=float))
    return threshold.beta * np.sign(x)


def phi_mean(x, width: float, threshold):
    """Mean of phi over [x - width/2, x + width/2] (vectorized in x).

    Equals phi(x) unless the interval holds the jump of sign at 0.
    """
    if threshold is None:
        return np.zeros_like(np.asarray(x, dtype=float))
    return threshold.beta * np.clip(2.0 * np.asarray(x) / width, -1.0, 1.0)


def eta_map(x_vec, threshold, p: int):
    """Elementwise shrinkage map eta(x) = x - phi(x)/p."""
    x_vec = np.asarray(x_vec, dtype=float)
    if threshold is None:
        return x_vec
    return x_vec - phi_eval(x_vec, threshold) / p


@dataclass(frozen=True)
class Dynamics:
    """Step size tau > 0, SNR omega >= 0 and shrinkage (None: plain Oja).

    One model for every route: the Monte Carlo estimator and its limit
    equations (PDE, closed-form Oja overlap, stationary system).
    """

    tau: float
    omega: float
    threshold: SoftThreshold | None

    def __post_init__(self):
        if self.tau <= 0:
            raise ConfigError(f"tau must be > 0, got {self.tau}")
        if self.omega < 0:
            raise ConfigError(f"omega must be >= 0, got {self.omega}")

    @property
    def beta(self) -> float:
        """Shrinkage strength as a plain float (0 when thresholding is off)."""
        return 0.0 if self.threshold is None else self.threshold.beta


def diffusion_coefficient(tau: float, omega: float, q: float) -> float:
    """Shared diffusion scale D = tau^2 (1 + omega q^2) / 2 of the limit equations."""
    return 0.5 * tau ** 2 * (1.0 + omega * q * q)


def restoring_coefficient(tau: float, omega: float, q: float, r: float) -> float:
    """Linear confinement tau*omega*q^2 - r + D(q) of the drift; twice the stationary h."""
    return tau * omega * q * q - r + diffusion_coefficient(tau, omega, q)
