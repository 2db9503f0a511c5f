"""Deterministic scaling limit: coupled 1-D drift-diffusion equations.

As the dimension grows, the conditional coordinate density P_t(x | xi)
of the online estimator solves, for every signal atom xi,

    dP/dt = -d/dx [ gamma(x, xi, q, r) P ] + D(q) d2P/dx2,
    D(q)  = tau^2 (1 + omega q^2) / 2,

with the per-coordinate drift

    gamma = tau*omega*q*xi - phi(x) - x*(tau*omega*q^2 - r + D(q)),

coupled across atoms through the overlap q = E[x xi] and the shrinkage
moment r = E[x phi(x)], both recomputed from the densities after every
step.

Discretization: explicit finite volume on a uniform grid, first-order
upwinding of the drift flux (robust at the sign kink of phi) and
centered differencing of the diffusion flux, with no-flux boundaries so
total mass is conserved to rounding. The macroscopic pair (q, r) is
frozen during a step and refreshed afterwards, a first-order splitting.
The drift at a cell interface uses the interface coordinate, with
sign(0) = 0 at an interface sitting exactly on the kink.

Stability: a step dt must satisfy dt <= 0.9 * min(dx^2 / (2 D),
dx / max|gamma|), re-evaluated every step since q evolves. The "auto"
step 0.45 / (D/dx^2 + max|gamma|/dx) also keeps every explicit update
coefficient nonnegative, so densities stay nonnegative up to rounding;
rounding negatives are clipped (and counted) with mass renormalized.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import ConfigError, NumericError, StabilityError
from .nonlinearity import SoftThreshold, phi_eval
from .priors import Prior, discretize_prior

MASS_TOL = 1e-8
CLIP_FLOOR = -1e-14
DEFAULT_GH_NODES = 21


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on [x_min, x_max] with n >= 50 cells."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.n < 50:
            raise ConfigError(f"grid needs >= 50 cells, got {self.n}")
        if not self.x_max > self.x_min:
            raise ConfigError(f"grid bounds out of order: [{self.x_min}, {self.x_max}]")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @property
    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n) + 0.5) * self.dx

    @property
    def interfaces(self) -> np.ndarray:
        return self.x_min + np.arange(self.n + 1) * self.dx


@dataclass
class ConditionalDensitySet:
    """Per-atom densities on a shared grid plus the macroscopic pair (q, r).

    Each row of ``densities`` integrates to 1 (midpoint rule); (q, r)
    always equals the moments of the stored densities. ``clipped_mass``
    and ``min_pre_clip`` accumulate clipping diagnostics over a run.
    """

    atoms: np.ndarray
    weights: np.ndarray
    densities: np.ndarray
    grid: Grid
    t: float
    q: float
    r: float
    clipped_mass: float = 0.0
    min_pre_clip: float = 0.0

    def copy(self) -> "ConditionalDensitySet":
        return ConditionalDensitySet(
            atoms=self.atoms.copy(),
            weights=self.weights.copy(),
            densities=self.densities.copy(),
            grid=self.grid,
            t=self.t,
            q=self.q,
            r=self.r,
            clipped_mass=self.clipped_mass,
            min_pre_clip=self.min_pre_clip,
        )


@dataclass(frozen=True)
class PdeConfig:
    """Dynamics parameters, grid and stepping policy for the limit solver."""

    tau: float
    omega: float
    threshold: SoftThreshold | None
    grid: Grid
    dt: float | str = "auto"
    t_max: float = 15.0

    def __post_init__(self):
        if self.tau <= 0:
            raise ConfigError(f"tau must be > 0, got {self.tau}")
        if self.omega < 0:
            raise ConfigError(f"omega must be >= 0, got {self.omega}")
        if isinstance(self.dt, str):
            if self.dt != "auto":
                raise ConfigError(f"dt must be a positive number or 'auto', got {self.dt!r}")
        elif self.dt <= 0:
            raise ConfigError(f"dt must be > 0, got {self.dt}")
        if self.t_max < 0:
            raise ConfigError(f"t_max must be >= 0, got {self.t_max}")


def diffusion_coefficient(tau: float, omega: float, q: float) -> float:
    """Shared diffusion scale D = tau^2 (1 + omega q^2) / 2 of the limit equations."""
    return 0.5 * tau * tau * (1.0 + omega * q * q)


def drift(x, xi, q, r, tau, omega, threshold):
    """Per-coordinate drift of the limiting dynamics (vectorized in x)."""
    restoring = tau * omega * q * q - r + diffusion_coefficient(tau, omega, q)
    return tau * omega * q * xi - phi_eval(x, threshold) - np.asarray(x) * restoring


def moments(state: ConditionalDensitySet, threshold) -> tuple[float, float]:
    """Overlap q and shrinkage moment r of the stored densities (midpoint rule)."""
    dx = state.grid.dx
    masses = state.densities.sum(axis=1) * dx
    if np.any(np.abs(masses - 1.0) > MASS_TOL):
        worst = float(np.max(np.abs(masses - 1.0)))
        raise NumericError(f"conditional density mass off by {worst:.3e} (> {MASS_TOL})")
    x = state.grid.centers
    first = state.densities @ x * dx
    q = float(np.sum(state.weights * state.atoms * first))
    xphi = x * phi_eval(x, threshold)
    r = float(np.sum(state.weights * (state.densities @ xphi)) * dx)
    return q, r


def initial_density(
    mean: float,
    variance: float,
    grid: Grid,
    prior: Prior,
    threshold,
) -> ConditionalDensitySet:
    """Gaussian initial profile, identical for every atom (x0 independent of xi).

    Cell-averaged on the grid and renormalized; refuses grids that cut
    off more than 1e-6 of the Gaussian mass, and refuses setups whose
    initial overlap vanishes (the limit requires a nonzero overlap).
    """
    if variance <= 0:
        raise ConfigError(f"x0 variance must be > 0, got {variance}")
    prior = discretize_prior(prior, DEFAULT_GH_NODES)
    sigma = math.sqrt(variance)
    lo = (grid.x_min - mean) / sigma
    hi = (grid.x_max - mean) / sigma
    outside = ndtr(lo) + (1.0 - ndtr(hi))
    if outside > 1e-6:
        raise ConfigError(
            f"grid [{grid.x_min}, {grid.x_max}] cuts off {outside:.2e} of the "
            "initial Gaussian mass (> 1e-6); enlarge the domain"
        )
    cdf = ndtr((grid.interfaces - mean) / sigma)
    profile = np.diff(cdf) / grid.dx
    profile /= profile.sum() * grid.dx
    densities = np.tile(profile, (len(prior.atoms), 1))
    state = ConditionalDensitySet(
        atoms=prior.atom_values,
        weights=prior.atom_weights,
        densities=densities,
        grid=grid,
        t=0.0,
        q=0.0,
        r=0.0,
    )
    state.q, state.r = moments(state, threshold)
    if abs(state.q) < 1e-12:
        raise ConfigError(
            "initial overlap q0 is zero for this x0 law and prior; the "
            "deterministic limit is only valid for a nonzero starting overlap"
        )
    return state


def _interface_drift(state: ConditionalDensitySet, cfg: PdeConfig) -> np.ndarray:
    """Drift at every cell interface for every atom, shape (n_atoms, n+1)."""
    x_if = state.grid.interfaces
    return drift(
        x_if[None, :], state.atoms[:, None], state.q, state.r,
        cfg.tau, cfg.omega, cfg.threshold,
    )


def stability_limit(state: ConditionalDensitySet, cfg: PdeConfig) -> float:
    """Largest admissible dt: 0.9 * min(diffusive, advective) bound at the current state."""
    dx = state.grid.dx
    diffusion = diffusion_coefficient(cfg.tau, cfg.omega, state.q)
    gmax = float(np.max(np.abs(_interface_drift(state, cfg))))
    diff_bound = dx * dx / (2.0 * diffusion) if diffusion > 0 else math.inf
    adv_bound = dx / gmax if gmax > 0 else math.inf
    return 0.9 * min(diff_bound, adv_bound)


def auto_dt(state: ConditionalDensitySet, cfg: PdeConfig,
            gamma: np.ndarray | None = None) -> float:
    """Positivity-preserving step, stricter than (and implying) the stability bound.

    ``gamma`` is the interface drift of ``state``, when the caller has it.
    """
    if gamma is None:
        gamma = _interface_drift(state, cfg)
    dx = state.grid.dx
    diffusion = diffusion_coefficient(cfg.tau, cfg.omega, state.q)
    gmax = float(np.max(np.abs(gamma)))
    return 0.45 / (diffusion / dx ** 2 + gmax / dx)


def step(state: ConditionalDensitySet, cfg: PdeConfig, dt: float | None = None,
         gamma: np.ndarray | None = None) -> ConditionalDensitySet:
    """Advance all conditional densities by one explicit step.

    (q, r) stay frozen at their start-of-step values during the flux
    update and are recomputed from the new densities before returning.
    ``gamma`` is the interface drift of ``state``, when the caller has it.
    """
    if gamma is None:
        gamma = _interface_drift(state, cfg)
    if dt is None:
        dt = auto_dt(state, cfg, gamma) if cfg.dt == "auto" else float(cfg.dt)
    dx = state.grid.dx
    diffusion = diffusion_coefficient(cfg.tau, cfg.omega, state.q)
    gmax = float(np.max(np.abs(gamma)))

    diff_bound = dx * dx / (2.0 * diffusion) if diffusion > 0 else math.inf
    if dt > 0.9 * diff_bound:
        raise StabilityError(
            f"dt={dt:.3e} violates the diffusive bound 0.9*dx^2/(2D)={0.9 * diff_bound:.3e}"
        )
    if gmax > 0 and dt > 0.9 * dx / gmax:
        raise StabilityError(
            f"dt={dt:.3e} violates the advective bound 0.9*dx/max|drift|={0.9 * dx / gmax:.3e}"
        )

    p = state.densities
    g_in = gamma[:, 1:-1]
    upwind = np.where(g_in > 0, p[:, :-1], p[:, 1:])
    flux = np.zeros_like(gamma)
    flux[:, 1:-1] = g_in * upwind - diffusion * (p[:, 1:] - p[:, :-1]) / dx

    new_p = p - (dt / dx) * (flux[:, 1:] - flux[:, :-1])

    min_pre = float(new_p.min())
    clipped = 0.0
    if min_pre < 0.0:
        neg = new_p < 0.0
        clipped = float(-new_p[neg].sum()) * dx
        new_p[neg] = 0.0
        new_p /= new_p.sum(axis=1, keepdims=True) * dx

    new_state = ConditionalDensitySet(
        atoms=state.atoms,
        weights=state.weights,
        densities=new_p,
        grid=state.grid,
        t=state.t + dt,
        q=state.q,
        r=state.r,
        clipped_mass=state.clipped_mass + clipped,
        min_pre_clip=min(state.min_pre_clip, min_pre),
    )
    new_state.q, new_state.r = moments(new_state, cfg.threshold)
    return new_state


@dataclass
class PdeSolution:
    """Recorded (t, q, r) series with density snapshots at the record times."""

    times: np.ndarray
    q_values: np.ndarray
    r_values: np.ndarray
    snapshots: list
    n_steps: int
    clipped_mass: float
    min_pre_clip: float


def solve(
    cfg: PdeConfig,
    prior: Prior,
    record_times,
    x0_mean: float = 1.0 / math.sqrt(2.0),
    x0_var: float = 0.5,
    initial_state: ConditionalDensitySet | None = None,
) -> PdeSolution:
    """Integrate the limit equations and snapshot the state at record_times.

    A fixed cfg.dt is used as an upper bound (shortened to land exactly
    on record times); "auto" re-resolves the step from the stability
    bound each step. Pass ``initial_state`` to start from an arbitrary
    density (e.g. a stationary profile) instead of the Gaussian.
    """
    record_times = np.sort(np.asarray(record_times, dtype=float))
    if record_times.size == 0:
        raise ConfigError("record_times must not be empty")
    if record_times[0] < 0 or record_times[-1] > cfg.t_max + 1e-12:
        raise ConfigError("record_times must lie in [0, t_max]")

    if initial_state is None:
        state = initial_density(x0_mean, x0_var, cfg.grid, prior, cfg.threshold)
    else:
        state = initial_state.copy()

    times, qs, rs, snaps = [], [], [], []
    n_steps = 0
    for t_next in record_times:
        while state.t < t_next - 1e-12:
            gamma = _interface_drift(state, cfg)
            dt_cap = auto_dt(state, cfg, gamma) if cfg.dt == "auto" else float(cfg.dt)
            state = step(state, cfg, min(dt_cap, t_next - state.t), gamma)
            n_steps += 1
        times.append(t_next)
        qs.append(state.q)
        rs.append(state.r)
        snaps.append(state.copy())

    return PdeSolution(
        times=np.asarray(times),
        q_values=np.asarray(qs),
        r_values=np.asarray(rs),
        snapshots=snaps,
        n_steps=n_steps,
        clipped_mass=state.clipped_mass,
        min_pre_clip=state.min_pre_clip,
    )
