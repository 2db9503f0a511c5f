"""Overlap dynamics of the plain Oja algorithm (no shrinkage, beta = 0).

With phi = 0 the limiting overlap q(t) between the running estimate
and the signal obeys the scalar ODE

    dq/dt = alpha2 * q - alpha1 * q^3,
    alpha1 = tau * omega * (1 + tau/2),
    alpha2 = tau * (omega - tau/2),

which integrates in closed form and relaxes to
sqrt(max(0, (omega - tau/2) / (omega * (1 + tau/2)))). The steady state
is positive only for omega > tau/2; larger step sizes leave the
estimate asymptotically uncorrelated with the signal.

Every function takes the model every route takes, a
``nonlinearity.Dynamics``, and refuses one with beta != 0.
"""
from __future__ import annotations

import math

from .errors import ConfigError
from .nonlinearity import Dynamics

ALPHA2_SWITCH = 1e-12


def _alphas(dynamics: Dynamics) -> tuple[float, float]:
    """(alpha1, alpha2) of the overlap ODE; a model with shrinkage raises ``ConfigError``."""
    if dynamics.beta != 0.0:
        raise ConfigError(f"the Oja overlap formulas need beta = 0, got {dynamics.beta}")
    tau, omega = dynamics.tau, dynamics.omega
    return tau * omega * (1.0 + tau / 2.0), tau * (omega - tau / 2.0)


def closed_form_q(t: float, q0: float, dynamics: Dynamics) -> float:
    """Overlap at rescaled time t >= 0 from initial overlap q0 != 0.

    Evaluates the logistic-type solution of the overlap ODE; the
    degenerate branch is used when |alpha2| < 1e-12. The sign of q0 is
    preserved (the ODE never crosses zero).
    """
    a1, a2 = _alphas(dynamics)
    if q0 == 0.0:
        raise ValueError("initial overlap q0 must be nonzero")
    if not t >= 0:
        raise ValueError(f"time t must be >= 0, got {t}")
    if abs(a2) < ALPHA2_SWITCH:
        qsq = 1.0 / (2.0 * a1 * t + q0 ** -2)
    elif a2 > 0:
        qsq = a2 / (a1 + (a2 / q0 ** 2 - a1) * math.exp(-2.0 * a2 * t))
    else:
        # growth-free form: exp(2*a2*t) decays, so nothing overflows
        decay = math.exp(2.0 * a2 * t)
        qsq = a2 * decay / (a1 * decay + a2 / q0 ** 2 - a1)
    return math.copysign(math.sqrt(qsq), q0)


def steady_state_q(dynamics: Dynamics) -> float:
    """Long-time overlap limit; zero at or beyond the step-size threshold tau = 2*omega."""
    a1, a2 = _alphas(dynamics)
    return math.sqrt(max(0.0, a2 / a1)) if a1 else 0.0


def ode_q(t: float, q0: float, dynamics: Dynamics, dt: float = 1e-3) -> float:
    """Overlap at time t by 4th-order Runge-Kutta integration of the ODE.

    Independent cross-check of closed_form_q; agrees to better than
    1e-8 for dt <= 1e-3 on t in [0, 20].
    """
    a1, a2 = _alphas(dynamics)
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if not t >= 0:
        raise ValueError(f"time t must be >= 0, got {t}")

    def f(q):
        return a2 * q - a1 * q ** 3

    if t == 0.0:
        return float(q0)
    n = max(1, math.ceil(t / dt))
    h = t / n
    q = float(q0)
    for _ in range(n):
        k1 = f(q)
        k2 = f(q + 0.5 * h * k1)
        k3 = f(q + 0.5 * h * k2)
        k4 = f(q + h * k3)
        q += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return q
