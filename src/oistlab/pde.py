"""Deterministic scaling limit: coupled 1-D drift-diffusion equations.

As the dimension grows, the conditional coordinate density P_t(x | xi)
of the online estimator solves, for every signal atom xi,

    dP/dt = -d/dx [ gamma(x, xi, q, r) P ] + D(q) d2P/dx2,
    D(q)  = tau^2 (1 + omega q^2) / 2,

with the per-coordinate drift

    gamma = tau*omega*q*xi - phi(x) - x*(tau*omega*q^2 - r + D(q)),

coupled across atoms through the overlap q = E[x xi] and the shrinkage
moment r = E[x phi(x)], both recomputed from the densities after every
step. The coefficients depend only on the model, a
``nonlinearity.Dynamics`` (tau, omega, beta), so the solver takes a
model and a state: ``solve(dynamics, start, record_times, dt)``
integrates any nonnegative ``ConditionalDensitySet``, such as
``initial_density``'s Gaussian start or a stationary profile, into one
``PdeSolution`` that stacks the densities at the record times.

Discretization: finite volume on a uniform cell-centred grid with
no-flux ends. The flux between cells i and i+1 is the exponentially
fitted flux of Scharfetter & Gummel (1969) and Chang & Cooper (1970),

    J = w+ P_i - w- P_{i+1},   w+- = max(+-v, 0) + (D/dx) B(|v| dx/D),
    B(z) = z / (e^z - 1),

which is plain upwinding as D -> 0 and centred diffusion as v -> 0.
The interface drift v is the exact mean of gamma between the two cell
centres: gamma is affine in x apart from the jump of phi at 0, so v is
the interface value except on the one interval that holds x = 0. Then
a zero flux means P_{i+1} / P_i = exp(-(U_{i+1} - U_i) / D), where
gamma = -dU/dx, so the discrete steady state at frozen (q, r) is the
Boltzmann law exp(-U/D) at the cell centres: the scheme is
well-balanced.

Time stepping: (q, r) are frozen during a step, the densities take one
backward-Euler step (I + dt A) P_new = P_old, with A the tridiagonal
flux operator, and (q, r) are recomputed from the new densities (a
first-order splitting). Every column of A sums to zero, so every column
of I + dt A sums to 1, with a positive diagonal and nonpositive
off-diagonals: for any dt it is an M-matrix, strictly column
diagonally dominant. Elimination never pivots and adds only
nonnegative terms, so the densities stay nonnegative and each atom's
mass is conserved to rounding. The systems of all atoms are chained
into one tridiagonal solve (LAPACK dgtsv).

Step size: a numeric dt is taken as given, capped to land on record
times: one backward-Euler step each. "auto" controls the error of each
step instead, and every step is a linearly implicit variable-step BDF2
step (``_bdf2_step``; Ascher, Ruuth & Wetton 1995). From the last two
accepted states, with the step ratio w = h / h_prev and
c0 = (1+2w)/(1+w), it takes one solve,
(I + (h/c0) A(q*, r*)) P_new = ((1+w) P_n - w^2/(1+w) P_{n-1}) / c0,
with (q*, r*) extrapolated linearly from the last two accepted (q, r).
It is L-stable, and I + (h/c0) A is the same M-matrix as a
backward-Euler step's; the right side has unit mass, so P_new has it to
rounding. Milne's device estimates the local error in (q, r) from the
gap between P_new's moments and the quadratic through the last three
accepted (t, q, r). Where P_new has a negative cell, one backward-Euler
step of h replaces it, so every accepted density is nonnegative without
clipping. A run starts from a history at rest, the start held still
over two steps of the first trial ``auto_dt`` (COURANT cells per step
at the fastest drift): the first solve is then a backward-Euler solve,
and its error estimate is a share of the whole change of (q, r) over
the step, which takes the first steps short (Shampine & Reichelt 1997
start BDF codes the same way). A step whose error exceeds
BDF2_TOL * dx^2 is retried shorter. The next trial step is
h * min(2, max(0.2, 0.9 (tol / err)^(1/3))), and at most twice the last
accepted step, below BDF2's zero-stability bound 1 + sqrt(2), which
ramps the short first steps up; the record times are landed on in one
or two equal steps, and a step so shortened does not shrink the next
one. No stability bound applies, and the tolerance shrinks with dx, so
time and space errors fall together under refinement.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgtsv
from scipy.special import ndtr

from .errors import ConfigError, NumericError
from .nonlinearity import (Dynamics, diffusion_coefficient, phi_eval, phi_mean,
                           restoring_coefficient)
from .priors import Prior

MASS_TOL = 1e-8
COURANT = 1.0
BDF2_TOL = 0.0003  # "auto" BDF2 step: local error allowed in (q, r), in units of dx^2
_LEAST_DOUBLE = math.ulp(0.0)  # 5e-324


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on a finite [x_min, x_max] with n >= 50 cells."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.n < 50:
            raise ConfigError(f"grid needs >= 50 cells, got {self.n}")
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ConfigError(f"grid bounds must be finite: [{self.x_min}, {self.x_max}]")
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
    always equals the moments of the stored densities.
    """

    atoms: np.ndarray
    weights: np.ndarray
    densities: np.ndarray
    grid: Grid
    t: float
    q: float
    r: float


@functools.lru_cache(maxsize=16)
def _grid_tables(grid: Grid, beta: float) -> tuple[np.ndarray, ...]:
    """Arrays fixed by (grid, beta), computed once and shared read-only.

    Returns the cell centres, x*phi(x) at the centres, the interfaces,
    and at every interface the mean of phi between the centres on its
    two sides (phi at the interface itself on the two ends).
    """
    x = grid.centers
    x_if = grid.interfaces
    tables = (x, x * phi_eval(x, beta), x_if, phi_mean(x_if, grid.dx, beta))
    for table in tables:
        table.setflags(write=False)
    return tables


def moments(state: ConditionalDensitySet, beta: float) -> tuple[float, float]:
    """Overlap q and shrinkage moment r of the stored densities (midpoint rule).

    Per-atom values are summed as Python floats in the order `np.sum` adds
    them, so (q, r) match the array expressions bit for bit at a fraction
    of their call overhead.
    """
    dx = state.grid.dx
    x, xphi, _, _ = _grid_tables(state.grid, beta)
    p = state.densities
    errors = [abs(m * dx - 1.0) for m in p.sum(axis=1).tolist()]
    bad = [e for e in errors if not e <= MASS_TOL]  # NaN is bad too
    if bad:
        raise NumericError(f"conditional density mass off by {max(bad):.3e} (> {MASS_TOL})")
    weights = state.weights.tolist()
    q = _atom_sum([w * a * (f * dx) for w, a, f in
                   zip(weights, state.atoms.tolist(), (p @ x).tolist())])
    r = _atom_sum([w * s for w, s in zip(weights, (p @ xphi).tolist())]) * dx
    return q, r


def _atom_sum(terms: list[float]) -> float:
    """`np.sum` of the terms: below 8 terms it adds them left to right."""
    if len(terms) >= 8:
        return float(np.sum(terms))
    total = 0.0
    for term in terms:
        total += term
    return total


def initial_density(
    mean: float,
    variance: float,
    grid: Grid,
    prior: Prior,
    beta: float,
) -> ConditionalDensitySet:
    """Gaussian initial profile, identical for every atom (x0 independent of xi).

    Cell-averaged on the grid and renormalized; refuses a continuous prior,
    grids that cut off more than 1e-6 (or NaN) of the Gaussian mass, and
    setups whose initial overlap vanishes (the limit requires a nonzero overlap).
    """
    if not variance > 0:
        raise ConfigError(f"x0 variance must be > 0, got {variance}")
    if not prior.is_discrete:
        raise ConfigError("initial density needs a discrete prior; discretize it first")
    sigma = math.sqrt(variance)
    lo = (grid.x_min - mean) / sigma
    hi = (grid.x_max - mean) / sigma
    outside = ndtr(lo) + (1.0 - ndtr(hi))
    if not outside <= 1e-6:  # NaN fails too
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
    state.q, state.r = moments(state, beta)
    if abs(state.q) < 1e-12:
        raise ConfigError(
            "initial overlap q0 is zero for this x0 law and prior; the "
            "deterministic limit is only valid for a nonzero starting overlap"
        )
    return state


def _interface_drift(state: ConditionalDensitySet, dynamics: Dynamics) -> np.ndarray:
    """Mean drift between the cell centres beside every interface, shape (n_atoms, n+1).

    It is gamma at the interface with phi replaced by its mean between the
    centres, which is phi itself at both ends and away from x = 0.
    """
    _, _, x_if, phi_bar = _grid_tables(state.grid, dynamics.beta)
    gamma = np.subtract((dynamics.tau * dynamics.omega * state.q) * state.atoms[:, None],
                        phi_bar)
    gamma -= x_if * restoring_coefficient(dynamics, state.q, state.r)
    return gamma


def auto_dt(state: ConditionalDensitySet, dynamics: Dynamics) -> float:
    """Step of COURANT cells per step at the fastest drift: dt = COURANT * dx / max|gamma|.

    Falls back to dx^2 / (2D) where the drift vanishes everywhere.
    """
    dx = state.grid.dx
    gmax = float(np.max(np.abs(_interface_drift(state, dynamics))))
    if gmax > 0.0:
        return COURANT * dx / gmax
    return dx * dx / (2.0 * diffusion_coefficient(dynamics, state.q))


def _fitted_diffusion(v: np.ndarray, diffusion: float, dx: float) -> np.ndarray:
    """(D/dx) B(|v| dx/D) with B(z) = z / (e^z - 1), B(0) = 1; zero when D = 0."""
    if diffusion <= 0.0:
        return np.zeros_like(v)
    z = np.abs(v)
    z *= dx / diffusion
    # B of the least positive double is exactly 1: it stands in for z = 0 (and NaN)
    np.fmax(z, _LEAST_DOUBLE, out=z)
    with np.errstate(over="ignore"):  # expm1 -> inf gives B = 0, its limit
        bern = np.expm1(z)
    np.divide(z, bern, out=bern)
    bern *= diffusion / dx
    return bern


def _flux_operator(state: ConditionalDensitySet, dynamics: Dynamics) -> np.ndarray:
    """The flux operator A of ``state``'s drift before scaling by dt/dx: its
    fitted weights, of shape (2, cells).

    With the flux J = w+ P_i - w- P_{i+1} through the interface right of
    cell i, row 0 holds w+ and row 1 holds w- per cell, flat over the
    chained atoms, and 0 at each atom's last cell, which has no flux on
    its right.
    """
    # the interface right of every cell, the domain's end included, so that
    # every array below is contiguous; the end's weights are zeroed last
    v = _interface_drift(state, dynamics)[:, 1:].copy()
    fitted = _fitted_diffusion(v, diffusion_coefficient(dynamics, state.q), state.grid.dx)
    weights = np.empty((2, *v.shape))
    w_right, w_left = weights
    np.maximum(v, 0.0, out=w_right)
    np.subtract(w_right, v, out=w_left)  # max(-v, 0), exactly
    w_right += fitted
    w_left += fitted
    weights[:, :, -1] = 0.0
    return weights.reshape(2, -1)


def step(state: ConditionalDensitySet, dynamics: Dynamics,
         dt: float | None = None) -> ConditionalDensitySet:
    """Advance all conditional densities by one backward-Euler step.

    (q, r) stay frozen at their start-of-step values while the step is
    solved and are recomputed from the new densities before returning.
    A ``dt`` of None is ``auto_dt``. ``state`` is left as it was.
    """
    if dt is None:
        dt = auto_dt(state, dynamics)
    # (I + dt A) P_new = P_old: row i is P_i + (dt/dx) (J_{i+1/2} - J_{i-1/2}),
    # so its sub- and super-diagonal hold -lam w+_{i-1} and -lam w-_i, and its
    # diagonal is (1 + lam w+_i) + lam w-_{i-1}. Rounding is symmetric, so
    # w (-lam) is -(w lam) exactly. The atoms' systems are chained into one;
    # the ends carry no flux, so the entries coupling one atom's block to the
    # next are zero (-0.0, which the solve treats as 0).
    lower, upper = _flux_operator(state, dynamics) * (-dt / state.grid.dx)
    diag = np.subtract(1.0, lower)
    diag[1:] -= upper[:-1]
    p = state.densities
    _, _, _, solved, info = dgtsv(lower[:-1], diag, upper[:-1], p.reshape(-1, 1),
                                  overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info != 0:
        raise NumericError(f"implicit step: tridiagonal solve failed (LAPACK info {info})")
    new_state = ConditionalDensitySet(state.atoms, state.weights, solved.reshape(p.shape),
                                      state.grid, state.t + dt, state.q, state.r)
    new_state.q, new_state.r = moments(new_state, dynamics.beta)
    return new_state


@dataclass
class PdeSolution:
    """One run: the state at every record time, on the start's grid and atoms.

    Row i of ``densities`` (times, atoms, cells), ``q_values`` and
    ``r_values`` is the state at ``times[i]``. ``n_steps`` counts
    accepted steps. ``dt_min`` and ``dt_max`` span them (0 when none
    was), the shortened steps that land on record times included. Under
    "auto", ``n_rejected`` counts the trial steps that missed the
    tolerance and ``n_first_order`` the accepted steps that fell back
    to a first-order result: a backward-Euler step in place of a BDF2
    step that went negative. ``dt_min`` includes the short first steps
    of "auto", which start from a history at rest. ``n_solves`` counts
    every tridiagonal solve, rejected trials and fallbacks included.
    ``mass_error`` is the final max |mass - 1| over the atoms.
    """

    times: np.ndarray
    q_values: np.ndarray
    r_values: np.ndarray
    densities: np.ndarray
    grid: Grid
    atoms: np.ndarray
    n_steps: int
    n_rejected: int
    n_first_order: int
    n_solves: int
    dt_min: float
    dt_max: float
    mass_error: float


def _bdf2_step(older: ConditionalDensitySet, old: ConditionalDensitySet,
               state: ConditionalDensitySet, dynamics: Dynamics, h: float,
               tol: float) -> tuple[ConditionalDensitySet | None, float, bool]:
    """One error-controlled variable-step BDF2 step of length h from ``state``.

    ``older``, ``old`` and ``state`` are the last three accepted states,
    or at a run's start the start itself at three times: a history at
    rest, from which the step is a backward-Euler solve of h/c0 and the
    error estimate is a share of the whole change of (q, r).
    With the step ratio w = h / (state.t - old.t) and c0 = (1+2w)/(1+w),
    it takes one solve,

        (I + (h/c0) A(q*, r*)) P_new = ((1+w) P - w^2/(1+w) P_old) / c0,

    with (q*, r*) extrapolated linearly from ``old`` and ``state``. The
    right side has unit mass, so P_new has it to rounding. Milne's
    device estimates the local error in (q, r) from the gap to the
    quadratic through the three states' (t, q, r); it returns
    (None, err, False) when err > tol. Where P_new has a negative cell,
    one backward-Euler step of h from ``state`` replaces it, flagged True.
    """
    h_old, h_older = state.t - old.t, old.t - older.t
    w = h / h_old
    c0 = (1.0 + 2.0 * w) / (1.0 + w)
    rhs = ((1.0 + w) / c0) * state.densities
    rhs -= (w * w / ((1.0 + w) * c0)) * old.densities
    guess = ConditionalDensitySet(state.atoms, state.weights, rhs, state.grid, state.t,
                                  state.q + w * (state.q - old.q),
                                  state.r + w * (state.r - old.r))
    new = step(guess, dynamics, h / c0)
    new.t = state.t + h
    # with y''' the third derivative of q or r, the quadratic through the
    # three states misses y(t_new) by y'''/6 h (h + h_old) (h + h_old + h_older)
    # and the BDF2 value by y'''/6 h (h + h_old) h/c0, with opposite signs
    predicted = []
    for y2, y1, y0 in ((older.q, old.q, state.q), (older.r, old.r, state.r)):
        slope = (y0 - y1) / h_old
        curvature = (slope - (y1 - y2) / h_older) / (h_old + h_older)
        predicted.append(y0 + h * (slope + (h + h_old) * curvature))
    share = (h / c0) / (h / c0 + h + h_old + h_older)
    err = share * max(abs(new.q - predicted[0]), abs(new.r - predicted[1]))
    if math.isnan(err):
        raise NumericError(f"auto step: (q, r) is not a number after t = {state.t}")
    if err > tol:
        return None, err, False
    first_order = bool(new.densities.min() < 0.0)
    if first_order:
        new = step(state, dynamics, h)
    return new, err, first_order


def solve(
    dynamics: Dynamics,
    start: ConditionalDensitySet,
    record_times,
    dt: float | str = "auto",
) -> PdeSolution:
    """Integrate the limit equations of ``dynamics`` from ``start`` and
    record the state at the sorted record_times.

    ``start`` is any nonnegative state, such as ``initial_density``'s
    Gaussian or a stationary profile; the run leaves it unchanged, keeps
    its grid and atoms, and recomputes its (q, r) under
    ``dynamics.beta``. The record times must be finite and >= 0; one
    before ``start.t`` records the state as it is then. A numeric ``dt`` is used
    as an upper bound (shortened to land exactly on record times).
    "auto" takes error-controlled BDF2 steps (``_bdf2_step``) at the
    tolerance BDF2_TOL * dx^2, from the start held still at
    ``start.t`` - 2 dt0 and ``start.t`` - dt0, with dt0 = ``auto_dt``
    the first trial step.
    """
    if dt != "auto" and (isinstance(dt, str) or not dt > 0):
        raise ConfigError(f"dt must be a positive number or 'auto', got {dt!r}")
    record_times = np.sort(np.asarray(record_times, dtype=float))
    if record_times.size == 0:
        raise ConfigError("record_times must not be empty")
    # np.sort puts +inf, then NaN, last
    if not (record_times[0] >= 0 and math.isfinite(record_times[-1])):
        raise ConfigError("record_times must lie in [0, inf)")
    if not start.densities.min() >= 0.0:  # NaN fails too
        raise ConfigError("start has a negative or NaN density cell")
    # no step writes into a density array, so the run may share the start's
    state = replace(start)
    # the cached (q, r) of the start may belong to another beta
    state.q, state.r = moments(state, dynamics.beta)

    adaptive = dt == "auto"
    dt_trial = auto_dt(state, dynamics) if adaptive else float(dt)
    tol = BDF2_TOL * state.grid.dx ** 2
    q_values, r_values = np.empty(record_times.size), np.empty(record_times.size)
    densities = np.empty((record_times.size, *state.densities.shape))
    n_steps = n_rejected = n_first_order = n_solves = 0
    dt_min, dt_max = math.inf, 0.0
    # the last three accepted states, the newest last: first the start held
    # still over two steps of the first trial, a history at rest
    recent = [replace(state, t=state.t - 2.0 * dt_trial), replace(state, t=state.t - dt_trial),
              state]
    for i, t_next in enumerate(record_times):
        while state.t < t_next - 1e-12:
            remaining = float(t_next) - state.t
            if not adaptive:
                h = min(dt_trial, remaining)
                state = step(state, dynamics, h)
                n_solves += 1
            else:
                # BDF2 is zero-stable for step ratios below 1 + sqrt(2)
                h_max = min(dt_trial, 2.0 * (state.t - recent[1].t))
                # land on the record time in one or two equal steps
                h = (remaining if remaining <= h_max
                     else 0.5 * remaining if remaining < 2.0 * h_max else h_max)
                new, err, first_order = _bdf2_step(*recent, dynamics, h, tol)
                n_solves += 1 + first_order
                growth = min(2.0, max(0.2, 0.9 * (tol / err) ** (1 / 3))) if err > 0.0 else 2.0
                if new is None:
                    n_rejected += 1
                    if h < 1e-12:
                        raise NumericError(f"auto step: error {err:.3e} above tolerance "
                                           f"{tol:.3e} at dt = {h:.3e}, t = {state.t}")
                    dt_trial = h * growth
                    continue
                # a step shortened to land on a record time does not shrink the next one
                dt_trial = max(dt_trial, h * growth) if h < dt_trial else h * growth
                n_first_order += first_order
                state = new
                recent = [*recent[-2:], state]
            n_steps += 1
            dt_min = min(dt_min, h)
            dt_max = max(dt_max, h)
        q_values[i], r_values[i] = state.q, state.r
        densities[i] = state.densities

    masses = state.densities.sum(axis=1) * state.grid.dx
    return PdeSolution(record_times, q_values, r_values, densities, start.grid,
                       start.atoms.copy(), n_steps, n_rejected, n_first_order, n_solves,
                       dt_min=dt_min if n_steps else 0.0, dt_max=dt_max,
                       mass_error=float(np.max(np.abs(masses - 1.0))))
