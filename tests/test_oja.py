import math

import numpy as np
import pytest

from oistlab import ConfigError, Dynamics, closed_form_q, ode_q, steady_state_q
from oistlab.oja import _alphas


def test_params_validation():
    with pytest.raises(ValueError):
        Dynamics(tau=0.0, omega=1.0, beta=0.0)
    with pytest.raises(ValueError):
        Dynamics(tau=0.5, omega=-0.1, beta=0.0)


@pytest.mark.parametrize("formula", [
    lambda model: closed_form_q(1.0, 0.1, model),
    lambda model: ode_q(1.0, 0.1, model),
    steady_state_q,
], ids=["closed_form_q", "ode_q", "steady_state_q"])
def test_shrinkage_rejected(formula):
    with pytest.raises(ConfigError, match="need beta = 0"):
        formula(Dynamics(tau=0.5, omega=1.0, beta=0.27))


def test_alpha_identities():
    params = Dynamics(tau=0.5, omega=1.0, beta=0.0)
    assert _alphas(params)[0] == pytest.approx(0.625)
    assert _alphas(params)[1] == pytest.approx(0.375)
    assert _alphas(Dynamics(tau=0.5, omega=0.0, beta=0.0))[0] == 0.0


def test_initial_condition_both_branches():
    regular = Dynamics(tau=0.5, omega=1.0, beta=0.0)
    degenerate = Dynamics(tau=2.0, omega=1.0, beta=0.0)  # alpha2 = 0
    for params in (regular, degenerate):
        for q0 in (0.1, -0.4, 0.9):
            assert closed_form_q(0.0, q0, params) == pytest.approx(q0, abs=1e-15)


def test_reference_value():
    # independent arithmetic of the solution formula
    params = Dynamics(tau=0.5, omega=1.0, beta=0.0)
    q0 = 0.1
    expected_sq = 0.375 / (0.625 + (0.375 / q0 ** 2 - 0.625) * math.exp(-0.75))
    got = closed_form_q(1.0, q0, params)
    assert got == pytest.approx(math.sqrt(expected_sq), abs=1e-14)
    assert got == pytest.approx(0.14417, abs=1e-5)


def test_degenerate_branch_value_pinned_by_ode():
    # tau=2, omega=1: alpha2 = 0, alpha1 = 4, so Q(1)^2 = 1/(2*4*1 + 4) = 1/12
    params = Dynamics(tau=2.0, omega=1.0, beta=0.0)
    assert _alphas(params)[1] == 0.0
    got = closed_form_q(1.0, 0.5, params)
    assert got == pytest.approx(math.sqrt(1.0 / 12.0), abs=1e-14)
    assert got == pytest.approx(ode_q(1.0, 0.5, params, dt=1e-4), abs=1e-9)


def test_zero_q0_rejected():
    with pytest.raises(ValueError):
        closed_form_q(1.0, 0.0, Dynamics(tau=0.5, omega=1.0, beta=0.0))


def test_sign_follows_q0():
    params = Dynamics(tau=0.5, omega=1.0, beta=0.0)
    assert closed_form_q(3.0, -0.1, params) == -closed_form_q(3.0, 0.1, params)


def test_steady_state_values():
    assert steady_state_q(Dynamics(tau=0.5, omega=1.0, beta=0.0)) == pytest.approx(
        math.sqrt(0.6), abs=1e-12
    )
    # at and beyond the step-size threshold the overlap vanishes
    assert steady_state_q(Dynamics(tau=2.0, omega=1.0, beta=0.0)) == 0.0
    assert steady_state_q(Dynamics(tau=2.5, omega=1.0, beta=0.0)) == 0.0
    assert steady_state_q(Dynamics(tau=0.5, omega=0.0, beta=0.0)) == 0.0
    # vanishing step size recovers perfect estimation
    assert steady_state_q(Dynamics(tau=1e-9, omega=1.0, beta=0.0)) == pytest.approx(1.0, abs=1e-8)


def test_phase_boundary():
    for tau in (0.1, 0.5, 1.0, 2.0, 3.0):
        for omega in (0.1, 0.5, 1.0, 2.0):
            positive = steady_state_q(Dynamics(tau=tau, omega=omega, beta=0.0)) > 0
            assert positive == (omega > tau / 2)


def test_ode_stationary_point():
    params = Dynamics(tau=0.5, omega=1.0, beta=0.0)
    q_star = math.sqrt(_alphas(params)[1] / _alphas(params)[0])
    for t in (0.5, 3.0, 10.0):
        assert ode_q(t, q_star, params) == pytest.approx(q_star, abs=1e-10)


def test_ode_matches_closed_form_spot():
    params = Dynamics(tau=0.5, omega=1.0, beta=0.0)
    for t in (0.5, 1.0, 5.0):
        assert ode_q(t, 0.1, params) == pytest.approx(
            closed_form_q(t, 0.1, params), abs=1e-8
        )


def test_ode_pure_decay_at_zero_snr():
    # omega = 0: alpha1 = 0, alpha2 = -tau^2/2, linear decay
    for tau in (0.5, 1.0):
        params = Dynamics(tau=tau, omega=0.0, beta=0.0)
        for t in (0.5, 2.0, 5.0):
            expected = 0.3 * math.exp(-0.5 * tau ** 2 * t)
            assert ode_q(t, 0.3, params) == pytest.approx(expected, abs=1e-8)
            assert closed_form_q(t, 0.3, params) == pytest.approx(expected, abs=1e-12)


def test_closed_form_vs_ode_parameter_grid():
    # oracle equivalence over the whole grid, t in [0, 20]
    for tau in (0.1, 0.5, 1.0, 2.0, 3.0):
        for omega in (0.1, 0.5, 1.0, 2.0):
            params = Dynamics(tau=tau, omega=omega, beta=0.0)
            for q0 in (0.05, 0.3, 0.9):
                for t in (0.5, 5.0, 20.0):
                    assert ode_q(t, q0, params, dt=1e-3) == pytest.approx(
                        closed_form_q(t, q0, params), abs=1e-8
                    ), (tau, omega, q0, t)


def test_branch_agreement_near_alpha2_zero():
    # both formulas agree to O(alpha2) at the branch switch
    q0, t = 0.3, 2.0
    base = Dynamics(tau=2.0, omega=1.0, beta=0.0)
    for eps in (1e-9, 1e-7):
        near = Dynamics(tau=2.0, omega=1.0 + eps / 2.0, beta=0.0)  # alpha2 = eps
        assert abs(_alphas(near)[1] - eps) < 1e-15
        assert closed_form_q(t, q0, near) == pytest.approx(
            closed_form_q(t, q0, base), abs=100 * eps
        )


def test_monotone_approach():
    params = Dynamics(tau=0.5, omega=1.0, beta=0.0)
    q_star = math.sqrt(_alphas(params)[1] / _alphas(params)[0])
    times = np.linspace(0.0, 20.0, 81)
    below = np.array([closed_form_q(t, 0.5 * q_star, params) for t in times])
    above = np.array([closed_form_q(t, min(0.99, 1.5 * q_star), params) for t in times])
    assert np.all(np.diff(below) > 0)
    assert np.all(np.diff(above) < 0)


def test_long_time_limit_matches_steady_state():
    for tau, omega in ((0.5, 1.0), (1.0, 2.0), (0.1, 0.5)):
        params = Dynamics(tau=tau, omega=omega, beta=0.0)
        assert closed_form_q(1e3, 0.2, params) == pytest.approx(
            steady_state_q(params), abs=1e-6
        )


def test_negative_inputs_rejected():
    params = Dynamics(tau=0.5, omega=1.0, beta=0.0)
    with pytest.raises(ValueError):
        closed_form_q(-1.0, 0.1, params)
    with pytest.raises(ValueError):
        ode_q(1.0, 0.1, params, dt=0.0)
    with pytest.raises(ValueError):
        closed_form_q(math.nan, 0.1, params)
    with pytest.raises(ValueError):
        ode_q(math.nan, 0.1, params)
    with pytest.raises(ValueError):
        ode_q(1.0, 0.1, params, dt=math.nan)
