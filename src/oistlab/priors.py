"""Sparse signal priors and the spiked-covariance sample stream.

The signal vector has i.i.d. coordinates drawn from a sparse mixture

    pi(xi) = (1 - rho) * delta(xi) + rho * u(xi),

where u is normalized so that the second moment of pi equals 1; this
keeps ||xi|| / sqrt(p) -> 1 as the dimension grows. Samples are then

    y = sqrt(omega / p) * c * xi + a,    c ~ N(0, 1), a ~ N(0, I_p),

so the population covariance is I + (omega / p) * xi xi^T with SNR
parameter omega >= 0.

Discrete priors carry their atoms explicitly; the Bernoulli-Gaussian
prior (u = N(0, 1/rho)) is continuous and is reduced to atoms with
Gauss-Hermite quadrature when a solver needs a finite mixture.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

WEIGHT_TOL = 1e-12
SECOND_MOMENT_TOL = 1e-10


@dataclass(frozen=True)
class Prior:
    """Sparse marginal distribution of one signal coordinate.

    ``atoms`` is a tuple of (value, weight) pairs for discrete priors
    and None for the continuous Bernoulli-Gaussian. Weights must sum
    to 1, the second moment must equal 1 and rho must equal the mass of
    the nonzero atoms (all checked).
    """

    rho: float
    atoms: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise ConfigError(f"prior sparsity rho must lie in (0, 1], got {self.rho}")
        if self.atoms is None:
            return
        w = np.array([wj for _, wj in self.atoms], dtype=float)
        v = np.array([vj for vj, _ in self.atoms], dtype=float)
        if np.any(w < 0):
            raise ConfigError("prior atom weights must be nonnegative")
        if abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise ConfigError(f"prior atom weights sum to {w.sum()!r}, expected 1")
        m2 = float(np.sum(w * v * v))
        if abs(m2 - 1.0) > SECOND_MOMENT_TOL:
            raise ConfigError(
                f"prior second moment is {m2!r}, expected 1 "
                "(nonzero part must have second moment 1/rho)"
            )
        nonzero = float(w[v != 0.0].sum())
        if abs(nonzero - self.rho) > WEIGHT_TOL:
            raise ConfigError(f"prior rho is {self.rho!r}, but its nonzero atoms "
                              f"have mass {nonzero!r}")

    @classmethod
    def two_point(cls, rho: float) -> "Prior":
        """Zero with mass 1-rho, +1/sqrt(rho) with mass rho."""
        if not 0.0 < rho <= 1.0:
            raise ConfigError(f"prior sparsity rho must lie in (0, 1], got {rho}")
        peak = 1.0 / math.sqrt(rho)
        if rho == 1.0:
            atoms = ((peak, 1.0),)
        else:
            atoms = ((0.0, 1.0 - rho), (peak, rho))
        return cls(rho=rho, atoms=atoms)

    @classmethod
    def signed_two_point(cls, rho: float) -> "Prior":
        """Zero with mass 1-rho, +-1/sqrt(rho) with mass rho/2 each."""
        if not 0.0 < rho <= 1.0:
            raise ConfigError(f"prior sparsity rho must lie in (0, 1], got {rho}")
        peak = 1.0 / math.sqrt(rho)
        if rho == 1.0:
            atoms = ((-peak, 0.5), (peak, 0.5))
        else:
            atoms = ((-peak, rho / 2), (0.0, 1.0 - rho), (peak, rho / 2))
        return cls(rho=rho, atoms=atoms)

    @classmethod
    def bernoulli_gaussian(cls, rho: float) -> "Prior":
        """Zero with mass 1-rho, N(0, 1/rho) with mass rho."""
        return cls(rho=rho)

    @classmethod
    def from_atoms(cls, atoms) -> "Prior":
        """Discrete prior from explicit (value, weight) pairs; rho is the nonzero mass."""
        atoms = tuple((float(v), float(w)) for v, w in atoms)
        rho = sum(w for v, w in atoms if v != 0.0)
        return cls(rho=rho, atoms=atoms)

    @property
    def is_discrete(self) -> bool:
        return self.atoms is not None

    @property
    def atom_values(self) -> np.ndarray:
        if self.atoms is None:
            raise ConfigError("continuous prior has no atoms; discretize it first")
        return np.array([v for v, _ in self.atoms], dtype=float)

    @property
    def atom_weights(self) -> np.ndarray:
        if self.atoms is None:
            raise ConfigError("continuous prior has no atoms; discretize it first")
        return np.array([w for _, w in self.atoms], dtype=float)

    @property
    def mean(self) -> float:
        """E[xi]; equals sqrt(rho) for the one-sided two-point prior."""
        if self.atoms is None:
            return 0.0
        return float(np.sum(self.atom_values * self.atom_weights))


def make_rng(seed: int, replica: int | None = None) -> np.random.Generator:
    """Splittable generator stream keyed by (seed, replica); streams never collide."""
    if replica is None:
        ss = np.random.SeedSequence(entropy=seed)
    else:
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(replica,))
    return np.random.Generator(np.random.SFC64(ss))


def draw_signal(prior: Prior, p: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a signal vector with i.i.d. coordinates from the prior.

    Deterministic given (prior, p) and the state of ``rng``, e.g. ``make_rng(seed)``.
    """
    if p < 2:
        raise ConfigError(f"dimension p must be >= 2, got {p}")
    if prior.is_discrete:
        values = prior.atom_values
        idx = rng.choice(len(values), size=p, p=prior.atom_weights)
        return values[idx]
    # Bernoulli-Gaussian: draw the full normal block so the stream
    # position does not depend on the realized support.
    mask = rng.random(p) < prior.rho
    gauss = rng.standard_normal(p) / np.sqrt(prior.rho)
    return np.where(mask, gauss, 0.0)


def next_sample(xi: np.ndarray, omega: float, rng: np.random.Generator) -> np.ndarray:
    """One spiked-covariance sample y = sqrt(omega/p) * c * xi + a, with p = xi.size."""
    if omega < 0:
        raise ConfigError(f"omega must be >= 0, got {omega}")
    c = rng.standard_normal()
    a = rng.standard_normal(xi.size)
    return np.sqrt(omega / xi.size) * c * xi + a


def draw_samples(xi: np.ndarray, omega: float, rng: np.random.Generator, count: int) -> np.ndarray:
    """Batch of spiked samples, one per row; vectorized convenience for tests."""
    if omega < 0:
        raise ConfigError(f"omega must be >= 0, got {omega}")
    c = rng.standard_normal(count)
    a = rng.standard_normal((count, xi.size))
    return np.sqrt(omega / xi.size) * np.outer(c, xi) + a


def discretize_prior(prior: Prior, n_nodes: int) -> Prior:
    """Reduce a prior to a finite atom mixture for quadrature over xi.

    Discrete priors pass through unchanged. The Bernoulli-Gaussian
    nonzero part N(0, 1/rho) becomes n_nodes Gauss-Hermite atoms with
    total weight rho; nodes landing exactly at 0 merge into the zero
    atom. n_nodes must be large enough to keep the second moment at 1
    (a single node collapses to 0 and is rejected).
    """
    if n_nodes < 1:
        raise ConfigError(f"n_nodes must be >= 1, got {n_nodes}")
    if prior.is_discrete:
        return prior
    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    sigma = 1.0 / np.sqrt(prior.rho)
    values = np.sqrt(2.0) * sigma * nodes
    masses = prior.rho * weights / np.sqrt(np.pi)

    merged: dict[float, float] = {0.0: 1.0 - prior.rho}
    for v, w in zip(values, masses):
        key = 0.0 if abs(v) < 1e-14 else float(v)
        merged[key] = merged.get(key, 0.0) + float(w)
    try:
        return Prior.from_atoms(sorted(merged.items()))
    except ConfigError as exc:
        raise ConfigError(
            f"gauss-hermite discretization with {n_nodes} node(s) cannot "
            f"represent the prior: {exc}"
        ) from exc
