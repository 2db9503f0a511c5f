"""Stationary densities, fixed points and the SNR phase transition.

Setting the time derivative of the limit equations to zero gives a
Boltzmann-form conditional density per signal atom,

    P(x | xi) = exp(-[h x^2 + beta |x| - tau*omega*q*xi*x] / g) / Z_xi,
    g = tau^2 (1 + omega q^2) / 2,
    h = (tau*omega*q^2 - r + g) / 2,

whose own moments must reproduce the macroscopic pair: q = E[x xi] and
r = E[x phi(x)]. Reducing those moment integrals to Gaussian half-line
integrals turns the self-consistency into two closed-form equations in
(q, r) built from the scaled complementary error function

    f(z) = (2/pi) exp(z^2) Integral_z^inf exp(-u^2) du = erfcx(z)/sqrt(pi)

evaluated at z_pm = (beta +- tau*omega*xi*q) / (2 sqrt(g h)).
``fixed_point_map`` is a scalar kernel: Python-float arithmetic over the
prior's atoms and one erfcx call per map, on |z| for every atom's z-
and z+. A negative z takes the reflection erfcx(z) = 2 exp(z^2) -
erfcx(-z), and each atom's pair is rescaled by exp(-max z^2 over its
negative arguments), so no term overflows.

With beta > 0, (q, r) = (0, tau^2/2) always solves the system; its
density is a signal-independent Laplace law with rate 2*beta/tau^2
(uninformative, h = 0 there, handled in closed form); with beta = 0 the
zero-overlap solution is (0, 0), a Gaussian. Above a critical SNR a
second, informative solution with q != 0 appears.

``solve_fixed_point`` runs a damped fixed-point iteration from one
start. ``sweep_omega`` locates the transition by Newton continuation on
G = F - id from the top of an SNR grid down: it accepts only roots that
attract the damped iteration's flow and keep clear of the h = 0 floor,
and brackets to ~1e-8 the SNR where the traced branch ends. Where no
branch is traced it searches from overlap starts, falling back to a
short damped iteration wherever Newton fails from a start, and reports
the exact uninformative solution where every start collapses onto it.
``oistlab steady`` runs each of its inits through that same search.
The solvers call ``fixed_point_map`` through its module-level name, and
``SweepResult.map_calls`` counts every one of those calls.

Each search starts with r on the r-nullcline of its overlap start: the
NULLCLINE_ITERATIONS-th iterate of a damped r-only recurrence at fixed
q (``default_r_init``). The recurrence is a deterministic map of r
alone, so ``nullcline_r`` stops at the first iterate that repeats an
earlier one bit for bit and reads the last iterate off the cycle. The
start is the same bits as the full iteration, at a fraction of its map
calls wherever a repeat comes early; with beta = 0 it is a closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np
from scipy.special import erfcx as _erfcx

from .errors import ConfigError, NonNormalizableError
from .nonlinearity import Dynamics
from .pde import diffusion_coefficient, restoring_coefficient
from .priors import Prior

SQRT_PI = math.sqrt(math.pi)
TWO_OVER_SQRT_PI = 2.0 / SQRT_PI
H_MIN = 1e-8
EPS_UNINFORMATIVE = 1e-6
EPS_TRANSITION = 1e-3
NULLCLINE_ITERATIONS = 200
FD_STEP = 1.5e-8  # ~ sqrt(machine epsilon), relative to max(1, |x|)
MAX_BACKTRACKS = 8
MIN_CONTINUATION_STEP = 1e-8
DAMPED_FALLBACK_ITERATIONS = 200


SteadyConfig = Dynamics  # the stationary analysis needs only (tau, omega, threshold)


def erfcx_scaled(x):
    """f(x) = (2/pi) e^{x^2} Integral_x^inf e^{-u^2} du, stable for large positive x.

    Never forms e^{x^2} and the tail integral separately, so f stays
    accurate out to x = 30 and far beyond; f(0) = 1/sqrt(pi) and
    x f(x) -> 1/pi as x -> inf.
    """
    return _erfcx(x) / SQRT_PI


def g_scale(q: float, cfg: SteadyConfig) -> float:
    """Diffusion scale g = tau^2 (1 + omega q^2) / 2, the PDE's D(q)."""
    return diffusion_coefficient(cfg.tau, cfg.omega, q)


def h_curvature(q: float, r: float, cfg: SteadyConfig) -> float:
    """Quadratic-confinement coefficient h = (tau*omega*q^2 - r + g)/2."""
    return 0.5 * restoring_coefficient(cfg.tau, cfg.omega, q, r)


def _scaled_terms(z_minus: float, z_plus: float, ex_minus: float,
                  ex_plus: float) -> tuple[float, float, float, float]:
    """erfcx at (z_minus, z_plus) jointly rescaled by exp(-M).

    Takes ex = erfcx(|z|) for each argument: a nonnegative z needs
    erfcx(z) itself, and a negative one the reflection
    erfcx(z) = 2 exp(z^2) - erfcx(-z). M is the largest z^2 among the
    negative arguments (0 if both are nonnegative), so both returned
    terms and every downstream ratio stay finite even where erfcx itself
    would overflow. Returns (M, exp(-M), t_minus, t_plus), with exp(-M)
    read as 0 once M >= 700.
    """
    m = z_minus * z_minus if z_minus < 0 else 0.0
    if z_plus < 0 and z_plus * z_plus > m:  # max(m, z_plus^2), without the call
        m = z_plus * z_plus
    e = math.exp(-m) if m < 700 else 0.0
    t_minus = ex_minus * e if z_minus >= 0 else 2.0 * math.exp(z_minus * z_minus - m) - ex_minus * e
    t_plus = ex_plus * e if z_plus >= 0 else 2.0 * math.exp(z_plus * z_plus - m) - ex_plus * e
    return m, e, t_minus, t_plus


class SteadyDensity:
    """Stationary conditional density for one atom at macroscopic state (q, r).

    Callable as a pdf; normalization is computed in closed form from
    Gaussian half-line integrals. The h = 0, beta > 0 boundary (the
    uninformative solution) degenerates to an exact Laplace law with
    rate beta / g and is handled as such.
    """

    def __init__(self, xi: float, q: float, r: float, cfg: SteadyConfig):
        self.xi = float(xi)
        self.q = float(q)
        self.r = float(r)
        self.cfg = cfg
        self.g = g_scale(q, cfg)
        self.h = h_curvature(q, r, cfg)
        self.beta = cfg.beta
        self.tilt = cfg.tau * cfg.omega * q * xi

        if self.h > 0.0:
            self.is_laplace = False
            root = math.sqrt(self.g * self.h)
            z_minus = (self.beta - self.tilt) / (2.0 * root)
            z_plus = (self.beta + self.tilt) / (2.0 * root)
            ex_minus, ex_plus = _erfcx([abs(z_minus), abs(z_plus)]).tolist()
            m, _, t_minus, t_plus = _scaled_terms(z_minus, z_plus, ex_minus, ex_plus)
            # Z = sqrt(pi g / h)/2 * (erfcx(z-) + erfcx(z+))
            self.log_z = (
                0.5 * math.log(math.pi * self.g / self.h)
                - math.log(2.0)
                + m
                + math.log(t_minus + t_plus)
            )
        elif self.h > -1e-12 and self.beta > 0.0 and abs(self.q) <= 1e-12:
            self.is_laplace = True
            self.rate = self.beta / self.g
        else:
            raise NonNormalizableError(
                f"stationary density not normalizable: h={self.h:.3e} <= 0 "
                "away from the zero-overlap Laplace boundary"
            )

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.is_laplace:
            return np.log(self.rate / 2.0) - self.rate * np.abs(x)
        potential = (self.h * x * x + self.beta * np.abs(x) - self.tilt * x) / self.g
        return -potential - self.log_z

    def __call__(self, x):
        return np.exp(self.log_pdf(x))


def steady_density(xi: float, q: float, r: float, cfg: SteadyConfig) -> SteadyDensity:
    """Stationary conditional density of x given one atom value."""
    return SteadyDensity(xi, q, r, cfg)


def fixed_point_map(q: float, r: float, cfg: SteadyConfig, prior: Prior) -> tuple[float, float]:
    """One application of the self-consistency map (q, r) -> (q', r').

    Closed form via erfcx ratios: with s = sqrt(g/h),

        q' = s * E_xi[ xi * (z+ f(z+) - z- f(z-)) / (f(z+) + f(z-)) ]
        r' = beta * s * E_xi[ (2/pi - z+ f(z+) - z- f(z-)) / (f(z+) + f(z-)) ]

    computed with jointly rescaled erfcx terms so large |z| cannot
    overflow. Requires h(q, r) > 0.

    It loops over the prior's atoms as Python floats and calls erfcx
    once, on |z| for every atom's z- and z+. Each atom's terms take the
    float operations, in the order, of a direct per-atom evaluation
    (kept in the tests as an oracle), so the results equal it bit for bit.
    """
    if not prior.is_discrete:
        raise ConfigError("fixed-point map needs a discrete prior; discretize it first")
    g = g_scale(q, cfg)
    h = h_curvature(q, r, cfg)
    if h <= 0:
        raise NonNormalizableError(f"fixed-point map outside its domain: h={h:.3e} <= 0")
    beta = cfg.beta
    tau_omega = cfg.tau * cfg.omega
    scale = math.sqrt(g / h)
    two_root = 2.0 * math.sqrt(g * h)
    z = []
    for xi, _ in prior.atoms:
        tilt = tau_omega * xi * q
        z.append((beta - tilt) / two_root)
        z.append((beta + tilt) / two_root)
    ex = _erfcx([abs(v) for v in z]).tolist()
    q_new = 0.0
    r_new = 0.0
    for (xi, w), z_minus, z_plus, ex_minus, ex_plus in zip(prior.atoms, z[::2], z[1::2],
                                                           ex[::2], ex[1::2]):
        _, e, t_minus, t_plus = _scaled_terms(z_minus, z_plus, ex_minus, ex_plus)
        den = t_minus + t_plus
        # ratios of f(z) = erfcx(z)/sqrt(pi); the sqrt(pi) cancels except
        # in the 2/pi constant, which becomes 2/sqrt(pi) in erfcx units
        mean_ratio = (z_plus * t_plus - z_minus * t_minus) / den
        abs_ratio = (TWO_OVER_SQRT_PI * e - z_plus * t_plus - z_minus * t_minus) / den
        q_new += w * xi * scale * mean_ratio
        r_new += w * beta * scale * abs_ratio
    return q_new, r_new


def _unnormalized_logpdf(x, g, h, beta, tilt, shift):
    return -(h * x * x + beta * abs(x) - tilt * x) / g - shift


def fixed_point_map_quadrature(q: float, r: float, cfg: SteadyConfig, prior: Prior) -> tuple[float, float]:
    """Self-consistency map evaluated by adaptive quadrature of the density.

    Independent oracle for fixed_point_map: integrates the Boltzmann
    form directly (no erfcx anywhere) with the exponent shifted by its
    maximum for overflow safety.
    """
    # imported here: at module level scipy.integrate adds ~0.25 s to every command
    from scipy.integrate import quad

    if not prior.is_discrete:
        raise ConfigError("fixed-point map needs a discrete prior; discretize it first")
    g = g_scale(q, cfg)
    h = h_curvature(q, r, cfg)
    if h <= 0:
        raise NonNormalizableError(f"fixed-point map outside its domain: h={h:.3e} <= 0")
    beta = cfg.beta
    q_new = 0.0
    r_new = 0.0
    for xi, w in zip(prior.atom_values, prior.atom_weights):
        tilt = cfg.tau * cfg.omega * xi * q
        # exponent maxima sit at the zero-gradient points of each branch
        peaks = [0.0]
        right = (tilt - beta) / (2.0 * h)
        if right > 0:
            peaks.append(right)
        left = (tilt + beta) / (2.0 * h)
        if left < 0:
            peaks.append(left)
        shift = max(
            _unnormalized_logpdf(xp, g, h, beta, tilt, 0.0) for xp in peaks
        )

        def f0(x):
            return math.exp(_unnormalized_logpdf(x, g, h, beta, tilt, shift))

        breaks = sorted(set(peaks))
        segs = [(-np.inf, breaks[0])] + list(zip(breaks[:-1], breaks[1:])) + [(breaks[-1], np.inf)]

        def integrate(fn):
            total = 0.0
            for a, b in segs:
                val, _ = quad(fn, a, b, epsabs=1e-13, epsrel=1e-12, limit=200)
                total += val
            return total

        z = integrate(f0)
        mean = integrate(lambda x: x * f0(x)) / z
        mean_abs = integrate(lambda x: abs(x) * f0(x)) / z
        q_new += w * xi * mean
        r_new += w * beta * mean_abs
    return q_new, r_new


@dataclass
class FixedPoint:
    """Converged (or best-effort) solution of the self-consistency system."""

    q: float
    r: float
    residual: float
    branch: str
    converged: bool
    iterations: int


def _project_h(q: float, r: float, cfg: SteadyConfig) -> float:
    """Pull r back so that h(q, r) >= H_MIN."""
    r_cap = restoring_coefficient(cfg.tau, cfg.omega, q, 0.0) - 2.0 * H_MIN
    return min(r, r_cap)


def default_r_init(q: float, cfg: SteadyConfig, prior: Prior | None = None) -> float:
    """An r start safely inside the h > 0 domain for a given q start.

    With a prior at hand the start is pulled onto the r-nullcline
    (damped r-only iterations at fixed q): near the transition the
    overlap collapses faster than r can equilibrate, so joint iterates
    launched far off the nullcline can escape the informative basin
    that the fixed-overlap map would retain. The result is the
    NULLCLINE_ITERATIONS-th iterate, bit for bit; see ``nullcline_r``
    for how it is reached in fewer map calls.
    """
    if prior is None:
        return 0.5 * g_scale(q, cfg)
    return nullcline_r(q, cfg, prior)[0]


def nullcline_r(q: float, cfg: SteadyConfig, prior: Prior) -> tuple[float, int]:
    """``default_r_init``'s r-nullcline start and the map calls it took.

    The iteration r <- (proj(r) + F_r(q, proj(r))) / 2 at fixed q is a
    deterministic map of r alone. Once an iterate repeats one seen
    before bit for bit (float.hex keys keep -0.0 apart from 0.0, and a
    NaN never repeats), all later iterates cycle with that period, so
    the NULLCLINE_ITERATIONS-th is read off the history without the
    remaining map calls. Most starts land on an exact fixed point, a
    pin on the h floor or a short cycle well before the last step; a
    start that never repeats takes all NULLCLINE_ITERATIONS calls.
    """
    r = 0.5 * g_scale(q, cfg)
    if cfg.beta == 0.0 and _project_h(q, r, cfg) == r:
        # F_r = 0 without shrinkage, and a halved r stays below the cap: r halves exactly
        return _project_h(q, math.ldexp(r, -NULLCLINE_ITERATIONS), cfg), 0
    history = [r]
    seen = {r.hex(): 0}
    for step in range(1, NULLCLINE_ITERATIONS + 1):
        r = _project_h(q, r, cfg)
        _, r_new = fixed_point_map(q, r, cfg, prior)
        r = 0.5 * r + 0.5 * r_new
        key = r.hex()
        first = seen.get(key) if r == r else None
        if first is not None:
            period = step - first
            r = history[first + (NULLCLINE_ITERATIONS - first) % period]
            return _project_h(q, r, cfg), step
        seen[key] = step
        history.append(r)
    return _project_h(q, r, cfg), NULLCLINE_ITERATIONS


def solve_fixed_point(
    cfg: SteadyConfig,
    prior: Prior,
    init: tuple[float, float],
    damping: float = 0.5,
    tol: float = 1e-9,
    max_iter: int = 10000,
) -> FixedPoint:
    """Damped iteration (q, r) <- (1 - damping)(q, r) + damping * map(q, r).

    Iterates are projected back to h >= 1e-8 whenever they overshoot
    the domain boundary (the uninformative solution sits exactly on
    it). Stops at residual <= tol; otherwise returns the best iterate
    seen with converged=False.
    """
    if not 0.0 < damping <= 1.0:
        raise ConfigError(f"damping must lie in (0, 1], got {damping}")
    q, r = float(init[0]), float(init[1])
    r = _project_h(q, r, cfg)
    if h_curvature(q, r, cfg) <= 0:
        raise ConfigError(f"initial point (q={q}, r={r}) lies outside the h > 0 domain")

    best = (math.inf, q, r, 0)
    for iteration in range(1, max_iter + 1):
        q_new, r_new = fixed_point_map(q, r, cfg, prior)
        residual = max(abs(q_new - q), abs(r_new - r))
        if residual < best[0]:
            best = (residual, q, r, iteration)
        if residual <= tol:
            branch = "uninformative" if abs(q) <= EPS_UNINFORMATIVE else "informative"
            return FixedPoint(q=q, r=r, residual=residual, branch=branch,
                              converged=True, iterations=iteration)
        q = (1.0 - damping) * q + damping * q_new
        r = (1.0 - damping) * r + damping * r_new
        r = _project_h(q, r, cfg)

    residual, q, r, iteration = best
    branch = "uninformative" if abs(q) <= EPS_UNINFORMATIVE else "informative"
    return FixedPoint(q=q, r=r, residual=residual, branch=branch,
                      converged=False, iterations=max_iter)


def uninformative_fixed_point(cfg: SteadyConfig) -> FixedPoint:
    """The exact zero-overlap solution: (0, tau^2/2) on the h = 0 boundary
    when beta > 0 (a Laplace law), and (0, 0) when beta = 0 (a Gaussian)."""
    r = 0.5 * cfg.tau ** 2 if cfg.beta > 0.0 else 0.0
    return FixedPoint(q=0.0, r=r, residual=0.0, branch="uninformative",
                      converged=True, iterations=0)


@dataclass
class SweepPoint:
    """Fixed-point summary at one SNR value of a sweep."""

    omega: float
    q_star: float
    converged: bool
    branch: str
    distinct_q: tuple[float, ...]


@dataclass
class SweepResult:
    """Per-SNR fixed points, the detected transition and what the sweep cost.

    ``branch_ends`` holds one (omega_failed, omega_last_root) bracket, a
    few 1e-8 wide, for each traced branch that ended inside the grid.
    ``nullcline_map_calls`` is the share of ``map_calls`` spent on the
    searches' r-nullcline starts.
    """

    points: list
    omega_c: float | None
    newton_iterations: int
    map_calls: int
    nullcline_map_calls: int
    max_residual: float
    branch_ends: list

    def diagnostics(self) -> dict:
        return {
            "newton_iterations": self.newton_iterations,
            "map_calls": self.map_calls,
            "nullcline_map_calls": self.nullcline_map_calls,
            "max_residual": self.max_residual,
            "uninformative_points": sum(pt.converged and pt.branch == "uninformative"
                                        for pt in self.points),
            "unconverged_points": sum(not pt.converged for pt in self.points),
            "branch_ends": [list(bracket) for bracket in self.branch_ends],
        }


class _Newton:
    """Newton's method on G(q, r) = F(q, r) - (q, r), one SNR at a time.

    A root is accepted only when all of these hold:
    1. its max-norm residual, and the Newton step it would take next,
       are <= tol;
    2. every iterate kept h >= margin = max(100 H_MIN, 10 tol);
    3. trace(J_G) < 0 and det(J_G) > 0, i.e. both eigenvalues of the
       Jacobian of F have real part < 1: the root attracts the flow
       (q, r)' = F - id, which is what a converged damped iteration
       certifies;
    4. |q| > EPS_UNINFORMATIVE.
    Close to the h = 0 floor the residual is about h, so (2) keeps a
    point on the floor from passing (1). The step test in (1) keeps a
    small |q| near a pitchfork, whose residual (1 - dF_q/dq) |q| is
    already below tol, from passing for the q = 0 root. An attempt stops
    as soon as no backtracked step lowers the residual while keeping the
    margin, so a failed attempt costs a few dozen map calls.
    """

    def __init__(self, prior: Prior, tol: float, max_iter: int):
        self.prior = prior
        self.tol = tol
        self.max_iter = max_iter
        self.margin = max(100.0 * H_MIN, 10.0 * tol)
        self.iterations = 0
        self.map_calls = 0

    def _map(self, q: float, r: float, cfg: SteadyConfig) -> tuple[float, float]:
        self.map_calls += 1
        return fixed_point_map(q, r, cfg, self.prior)

    def _jacobian_of_g(self, q, r, fq, fr, cfg):
        """One-sided differences; stepping |q| up and r down both raise h,
        so both probes stay inside the domain."""
        dq = FD_STEP * max(1.0, abs(q)) * (1.0 if q >= 0.0 else -1.0)
        dr = FD_STEP * max(1.0, abs(r))
        aq, ar = self._map(q + dq, r, cfg)
        bq, br = self._map(q, r - dr, cfg)
        return (aq - fq) / dq - 1.0, (fq - bq) / dr, (ar - fr) / dq, (fr - br) / dr - 1.0

    def solve(self, cfg: SteadyConfig, init: tuple[float, float]) -> FixedPoint | None:
        """An accepted informative root near init, or None."""
        q = float(init[0])
        r = _project_h(q, float(init[1]), cfg)
        if h_curvature(q, r, cfg) < self.margin:
            return None
        fq, fr = self._map(q, r, cfg)
        residual = max(abs(fq - q), abs(fr - r))
        for iteration in range(self.max_iter + 1):
            a, b, c, d = self._jacobian_of_g(q, r, fq, fr, cfg)
            det = a * d - b * c
            if det == 0.0:
                return None
            gq, gr = fq - q, fr - r
            step_q = (b * gr - d * gq) / det
            step_r = (c * gq - a * gr) / det
            if max(residual, abs(step_q), abs(step_r)) <= self.tol:
                if abs(q) <= EPS_UNINFORMATIVE or a + d >= 0.0 or det <= 0.0:
                    return None
                return FixedPoint(q=q, r=r, residual=residual, branch="informative",
                                  converged=True, iterations=iteration)
            if iteration == self.max_iter:
                return None
            self.iterations += 1
            scale = 1.0
            for _ in range(MAX_BACKTRACKS):
                q_new, r_new = q + scale * step_q, r + scale * step_r
                if h_curvature(q_new, r_new, cfg) >= self.margin:
                    fq_new, fr_new = self._map(q_new, r_new, cfg)
                    res_new = max(abs(fq_new - q_new), abs(fr_new - r_new))
                    if res_new < residual:
                        break
                scale *= 0.5
            else:
                return None
            q, r, fq, fr, residual = q_new, r_new, fq_new, fr_new, res_new

    def search(self, cfg: SteadyConfig, q0: float, r0: float) -> FixedPoint:
        """The root reached from the start (q0, r0).

        Newton runs from the start first. Where it fails, a damped
        iteration of at most DAMPED_FALLBACK_ITERATIONS (and max_iter)
        steps runs from the same start, and Newton polishes its iterate.
        A damped iterate that has collapsed to |q| <= EPS_UNINFORMATIVE
        yields the exact uninformative solution; an informative iterate
        that Newton cannot accept comes back with converged=False.
        """
        fp = self.solve(cfg, (q0, r0))
        if fp is not None:
            return fp
        damped = solve_fixed_point(cfg, self.prior, (q0, r0), tol=self.tol,
                                   max_iter=min(self.max_iter, DAMPED_FALLBACK_ITERATIONS))
        self.map_calls += damped.iterations
        if abs(damped.q) <= EPS_UNINFORMATIVE:
            return uninformative_fixed_point(cfg)
        fp = self.solve(cfg, (damped.q, damped.r))
        return fp if fp is not None else dc_replace(damped, converged=False)

    def continue_root(self, cfg: SteadyConfig, start: FixedPoint, omega_from: float,
                      omega_to: float) -> tuple[FixedPoint | None, tuple[float, float] | None]:
        """Carry an accepted root from omega_from down to omega_to < omega_from.

        A failed step is halved from the last root; once it is below
        MIN_CONTINUATION_STEP the branch has ended, and the bracket
        (omega_failed, omega_last_root) is returned instead of a root.
        """
        step = omega_to - omega_from
        omega_ok, fp = omega_from, start
        while omega_ok != omega_to:
            omega_try = max(omega_to, omega_ok + step)
            found = self.solve(dc_replace(cfg, omega=omega_try), (fp.q, fp.r))
            if found is not None:
                omega_ok, fp = omega_try, found
            elif omega_ok - omega_try < MIN_CONTINUATION_STEP:
                return None, (omega_try, omega_ok)
            else:
                step = 0.5 * (omega_try - omega_ok)
        return fp, None


def _distinct_overlaps(roots: list, tol: float) -> tuple[float, ...]:
    """|q| of each root, ascending, with values closer than 10 tol listed once."""
    values = sorted(abs(fp.q) for fp in roots)
    distinct = [values[0]]
    for v in values[1:]:
        if v - distinct[-1] > 10.0 * tol:
            distinct.append(v)
    return tuple(distinct)


def sweep_omega(
    cfg: SteadyConfig,
    prior: Prior,
    omega_grid,
    starts: tuple[float, ...] = (0.2, 0.5, 0.9),
    tol: float = 1e-9,
    max_iter: int = 10000,
) -> SweepResult:
    """Attracting fixed point at each SNR of an increasing grid, by continuation.

    Newton continuation from the top of the grid down. The largest SNR
    is searched from each overlap start (``_Newton.search``) and reports
    the largest-overlap root found; every next SNR continues the
    previous informative root (``_Newton.continue_root``) and reports
    that root alone. Where the traced branch ends, and at every SNR
    after it, the starts are searched again to catch a disjoint branch.
    ``distinct_q`` lists the roots found at an SNR: the continued root
    on a traced branch, else every converged search result, with the
    exact uninformative solution standing for starts that collapse onto
    it. A searched SNR where no start converges reports its
    least-residual iterate with converged=False. The transition SNR is
    the smallest grid value whose converged overlap exceeds 1e-3, with
    the grid spacing as its uncertainty.
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    if np.any(np.diff(omega_grid) <= 0):
        raise ConfigError("omega_grid must be strictly increasing")
    newton = _Newton(prior, tol, max_iter)
    points, branch_ends = [], []
    max_residual = 0.0
    nullcline_calls = 0
    last = None  # (omega, root) of the last accepted root on the traced branch
    for omega in map(float, omega_grid[::-1]):
        cfg_w = dc_replace(cfg, omega=omega)
        roots, unresolved = [], []
        if last is not None:
            fp, end = newton.continue_root(cfg, last[1], last[0], omega)
            if fp is not None:
                roots.append(fp)
            else:
                branch_ends.append(end)
        if not roots:
            for q0 in starts:
                r0, calls = nullcline_r(q0, cfg_w, prior)
                nullcline_calls += calls
                fp = newton.search(cfg_w, q0, r0)
                (roots if fp.converged else unresolved).append(fp)
        if roots:
            top = max(roots, key=lambda fp: abs(fp.q))
            distinct = _distinct_overlaps(roots, tol)
        else:
            top = min(unresolved, key=lambda fp: fp.residual)
            distinct = ()
        last = (omega, top) if top.converged and top.branch == "informative" else None
        max_residual = max(max_residual, float(top.residual))
        points.append(SweepPoint(omega=omega, q_star=abs(top.q), converged=top.converged,
                                 branch=top.branch, distinct_q=distinct))
    points.reverse()
    omega_c = next((pt.omega for pt in points
                    if pt.converged and pt.q_star > EPS_TRANSITION), None)
    return SweepResult(points=points, omega_c=omega_c, newton_iterations=newton.iterations,
                       map_calls=newton.map_calls + nullcline_calls,
                       nullcline_map_calls=nullcline_calls,
                       max_residual=max_residual, branch_ends=branch_ends)
