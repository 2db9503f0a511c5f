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
zero-overlap solution is (0, 0), a Gaussian. The prior has
E[xi^2] = 1, so that root's q-multiplier dF_q/dq is omega / omega_s, with
the spinodal omega_s = beta^2/tau^3 with shrinkage and tau/2 without
(``omega_spinodal``): the zero root attracts iff omega < omega_s. Above a
critical SNR a second, informative solution with q != 0 appears.

``sweep_omega`` finds the informative root by Newton continuation on
G = F - id, from one anchor SNR down. The anchor, max(grid top,
2 omega_s), lies above the spinodal, where the informative root is the
only attracting one. Newton alone searches it from each overlap start
with r = g(q)/2, and the largest-overlap accepted root is continued down
the grid. A root is accepted only if it attracts the damped iteration's
flow and keeps clear of the h = 0 floor. Where the traced branch ends,
bracketed to ~1e-8 in omega, every lower SNR reports the exact zero
root, converged iff it attracts. ``oistlab steady`` runs Newton from each
init and falls back on the same trace where Newton fails.
``solve_fixed_point`` is a damped fixed-point iteration from one start;
no search uses it. The solvers call ``fixed_point_map`` through its
module-level name, and ``SweepResult.map_calls`` counts every one of
those calls.
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

    Without a prior it is g(q)/2. With one the start is pulled onto the
    r-nullcline by NULLCLINE_ITERATIONS damped r-only iterations at fixed
    q: near the transition the overlap collapses faster than r can
    equilibrate, so damped joint iterates launched far off the nullcline
    can escape the informative basin that the fixed-overlap map would
    retain.
    """
    r = 0.5 * g_scale(q, cfg)
    if prior is None:
        return r
    for _ in range(NULLCLINE_ITERATIONS):
        r = _project_h(q, r, cfg)
        _, r_new = fixed_point_map(q, r, cfg, prior)
        r = 0.5 * r + 0.5 * r_new
    return _project_h(q, r, cfg)


def _fixed_point(q: float, r: float, residual: float, converged: bool,
                 iterations: int) -> FixedPoint:
    branch = "uninformative" if abs(q) <= EPS_UNINFORMATIVE else "informative"
    return FixedPoint(q=q, r=r, residual=residual, branch=branch, converged=converged,
                      iterations=iterations)


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

    best = (math.inf, q, r)
    for iteration in range(1, max_iter + 1):
        q_new, r_new = fixed_point_map(q, r, cfg, prior)
        residual = max(abs(q_new - q), abs(r_new - r))
        if residual < best[0]:
            best = (residual, q, r)
        if residual <= tol:
            return _fixed_point(q, r, residual, True, iteration)
        q = (1.0 - damping) * q + damping * q_new
        r = (1.0 - damping) * r + damping * r_new
        r = _project_h(q, r, cfg)

    residual, q, r = best
    return _fixed_point(q, r, residual, False, max_iter)


def uninformative_fixed_point(cfg: SteadyConfig) -> FixedPoint:
    """The exact zero-overlap solution: (0, tau^2/2) on the h = 0 boundary
    when beta > 0 (a Laplace law), and (0, 0) when beta = 0 (a Gaussian)."""
    return _fixed_point(0.0, 0.5 * cfg.tau ** 2 if cfg.beta > 0.0 else 0.0, 0.0, True, 0)


def omega_spinodal(cfg: SteadyConfig) -> float:
    """The SNR below which the zero-overlap root attracts.

    With E[xi^2] = 1 the root's q-multiplier dF_q/dq is tau^3 omega /
    beta^2 with shrinkage and 2 omega / tau without, which is omega over
    the value returned here.
    """
    return cfg.beta ** 2 / cfg.tau ** 3 if cfg.beta > 0.0 else 0.5 * cfg.tau


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

    ``branch_ends`` holds the (omega_failed, omega_last_root) bracket, a
    few 1e-8 wide, where the traced branch ended, if it ended above the
    grid's lowest SNR.
    """

    points: list
    omega_c: float | None
    omega_spinodal: float
    newton_iterations: int
    map_calls: int
    max_residual: float
    branch_ends: list

    def diagnostics(self) -> dict:
        return {
            "omega_spinodal": self.omega_spinodal,
            "newton_iterations": self.newton_iterations,
            "map_calls": self.map_calls,
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
    4. |q| > EPS_UNINFORMATIVE, on the start's side of q = 0: the map
       keeps q = 0, so the flow never crosses it.
    Close to the h = 0 floor the residual is about h, so (2) keeps a
    point on the floor from passing (1). The step test in (1) keeps a
    small |q| near a pitchfork, whose residual (1 - dF_q/dq) |q| is
    already below tol, from passing for the q = 0 root. An attempt stops
    as soon as no backtracked step lowers the residual while keeping the
    margin, so a failed attempt costs a few dozen map calls. The zero
    root itself is never searched for: ``omega_spinodal`` settles it.
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

    def solve(self, cfg: SteadyConfig, init: tuple[float, float]) -> FixedPoint:
        """The root reached from init, converged iff it is accepted.

        Backtracking lowers the residual at every step, so a failed
        attempt returns its least-residual iterate.
        """
        q = float(init[0])
        side = math.copysign(1.0, q)
        r = _project_h(q, float(init[1]), cfg)
        if h_curvature(q, r, cfg) < self.margin:
            return _fixed_point(q, r, math.inf, False, 0)
        fq, fr = self._map(q, r, cfg)
        residual = max(abs(fq - q), abs(fr - r))
        for iteration in range(self.max_iter + 1):
            a, b, c, d = self._jacobian_of_g(q, r, fq, fr, cfg)
            det = a * d - b * c
            if det == 0.0:
                break
            gq, gr = fq - q, fr - r
            step_q = (b * gr - d * gq) / det
            step_r = (c * gq - a * gr) / det
            if max(residual, abs(step_q), abs(step_r)) <= self.tol:
                accepted = side * q > EPS_UNINFORMATIVE and a + d < 0.0 and det > 0.0
                return _fixed_point(q, r, residual, accepted, iteration)
            if iteration == self.max_iter:
                break
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
                break
            q, r, fq, fr, residual = q_new, r_new, fq_new, fr_new, res_new
        return _fixed_point(q, r, residual, False, iteration)

    def continue_root(self, cfg: SteadyConfig, start: FixedPoint, omega_from: float,
                      omega_to: float) -> tuple[FixedPoint | None, tuple[float, float] | None]:
        """Carry an accepted root from omega_from down to omega_to <= omega_from.

        A failed step is halved from the last root; once it is below
        MIN_CONTINUATION_STEP the branch has ended, and the bracket
        (omega_failed, omega_last_root) is returned instead of a root.
        """
        step = omega_to - omega_from
        omega_ok, fp = omega_from, start
        while omega_ok != omega_to:
            omega_try = max(omega_to, omega_ok + step)
            found = self.solve(dc_replace(cfg, omega=omega_try), (fp.q, fp.r))
            if found.converged:
                omega_ok, fp = omega_try, found
            elif omega_ok - omega_try < MIN_CONTINUATION_STEP:
                return None, (omega_try, omega_ok)
            else:
                step = 0.5 * (omega_try - omega_ok)
        return fp, None

    def trace(self, cfg: SteadyConfig, omegas: list[float],
              starts: tuple[float, ...]) -> tuple[list[FixedPoint], list]:
        """The attracting root at each SNR of a decreasing list, and where its branch ended.

        Newton alone searches the anchor SNR max(omegas[0], 2 omega_s)
        from each overlap start, with r = g(q)/2, and the largest-overlap
        accepted root is continued down the list. Below the end of its
        branch every SNR gets the exact zero root, converged iff it
        attracts. If no start is accepted at the anchor, every SNR gets
        the least-residual attempt, unconverged.
        """
        omega_s = omega_spinodal(cfg)
        omega = max(omegas[0], 2.0 * omega_s)
        cfg_a = dc_replace(cfg, omega=omega)
        tries = [self.solve(cfg_a, (q0, 0.5 * g_scale(q0, cfg_a))) for q0 in starts]
        fp = max((t for t in tries if t.converged), key=lambda t: abs(t.q), default=None)
        if fp is None:
            return [min(tries, key=lambda t: t.residual)] * len(omegas), []
        roots, ends = [], []
        for omega_to in omegas:
            if fp is not None:
                fp, end = self.continue_root(cfg, fp, omega, omega_to)
                omega = omega_to
                if end is not None:
                    ends.append(end)
            roots.append(fp if fp is not None else
                         dc_replace(uninformative_fixed_point(cfg), converged=omega_to < omega_s))
        return roots, ends


def roots_from_inits(
    cfg: SteadyConfig,
    prior: Prior,
    inits,
    starts: tuple[float, ...] = (0.2, 0.5, 0.9),
    tol: float = 1e-9,
    max_iter: int = 10000,
) -> list[FixedPoint]:
    """The root reached from each (q0, r0) init at cfg.omega.

    q0 = 0 gives the exact zero root, which the map never leaves.
    Otherwise Newton runs from the init, and where it is not accepted
    the init gets the root at cfg.omega of the trace ``sweep_omega``
    runs from ``starts``, traced once for all inits. F_q is odd in q, so
    a negative init gets that root's mirror image.
    """
    newton = _Newton(prior, tol, max_iter)
    traced = None
    results = []
    for q0, r0 in inits:
        fp = uninformative_fixed_point(cfg) if q0 == 0.0 else newton.solve(cfg, (q0, r0))
        if not fp.converged:
            if traced is None:
                (traced,), _ = newton.trace(cfg, [cfg.omega], starts)
            fp = traced if q0 > 0 or not traced.q else dc_replace(traced, q=-traced.q)
        results.append(fp)
    return results


def sweep_omega(
    cfg: SteadyConfig,
    prior: Prior,
    omega_grid,
    starts: tuple[float, ...] = (0.2, 0.5, 0.9),
    tol: float = 1e-9,
    max_iter: int = 10000,
) -> SweepResult:
    """Attracting fixed point at each SNR of an increasing grid, by continuation.

    ``_Newton.trace`` continues the informative root from an anchor SNR
    above the spinodal down the grid, and reports the exact zero root
    below the end of its branch. ``distinct_q`` lists every attracting
    root at an SNR, ascending: the traced root, and 0 where omega <
    omega_s; it is empty at an unconverged point. The transition SNR is
    the smallest grid value whose converged overlap exceeds 1e-3, with
    the grid spacing as its uncertainty.
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    if omega_grid.size == 0:
        raise ConfigError("omega_grid must hold at least one SNR")
    if np.any(np.diff(omega_grid) <= 0):
        raise ConfigError("omega_grid must be strictly increasing")
    newton = _Newton(prior, tol, max_iter)
    omega_s = omega_spinodal(cfg)
    omegas = omega_grid[::-1].tolist()
    roots, branch_ends = newton.trace(cfg, omegas, starts)
    points = []
    for omega, fp in zip(omegas, roots):
        distinct = ()
        if fp.converged:
            distinct = ((0.0,) if omega < omega_s else ()) + ((abs(fp.q),) if fp.q else ())
        points.append(SweepPoint(omega=omega, q_star=abs(fp.q), converged=fp.converged,
                                 branch=fp.branch, distinct_q=distinct))
    points.reverse()
    omega_c = next((pt.omega for pt in points
                    if pt.converged and pt.q_star > EPS_TRANSITION), None)
    return SweepResult(points=points, omega_c=omega_c, omega_spinodal=omega_s,
                       newton_iterations=newton.iterations, map_calls=newton.map_calls,
                       max_residual=max(fp.residual for fp in roots),
                       branch_ends=branch_ends)
