import math
from dataclasses import replace as dc_replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq, fsolve

from oistlab import (
    ConfigError,
    Dynamics,
    NonNormalizableError,
    Prior,
    SteadyDensity,
    erfcx_scaled,
    fixed_point_map,
    fixed_point_map_quadrature,
    solve_fixed_point,
    steady_state_q,
    sweep_omega,
)
from oistlab import steady
from oistlab.priors import discretize_prior
from oistlab.steady import H_MIN, default_r_init, g_scale, h_curvature

PRIOR = Prior.two_point(0.05)
CFG = Dynamics(tau=0.5, omega=1.0, beta=0.27)
CFG_OJA = Dynamics(tau=0.5, omega=1.0, beta=0.0)


class TestErfcxScaled:
    def test_value_at_zero(self):
        assert erfcx_scaled(0.0) == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-15)

    def test_asymptote(self):
        assert abs(30.0 * erfcx_scaled(30.0) - 1.0 / math.pi) <= 1e-3
        # and much closer further out (next expansion term is ~1/(2*pi*x^2))
        assert abs(1e4 * erfcx_scaled(1e4) - 1.0 / math.pi) <= 1e-8

    def test_reflection_identity(self):
        for x in np.linspace(-2.0, 2.0, 81):
            lhs = erfcx_scaled(-x) + erfcx_scaled(x)
            rhs = (2.0 / math.sqrt(math.pi)) * math.exp(x * x)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)

    def test_against_direct_integral(self):
        # brute-force the defining integral where it is representable
        for x in (-1.5, -0.3, 0.0, 0.7, 2.0, 5.0):
            tail, _ = quad(lambda u: math.exp(-(u * u - x * x)), x, np.inf)
            assert erfcx_scaled(x) == pytest.approx((2.0 / math.pi) * tail, rel=1e-10)

    def test_large_positive_no_overflow(self):
        values = erfcx_scaled(np.array([10.0, 30.0, 100.0, 1e4]))
        assert np.all(np.isfinite(values)) and np.all(values > 0)

    @given(st.floats(0.0, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_reflection_property(self, x):
        lhs = erfcx_scaled(-x) + erfcx_scaled(x)
        rhs = (2.0 / math.sqrt(math.pi)) * math.exp(x * x)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestSteadyDensity:
    def test_laplace_at_uninformative_point(self):
        # zero overlap, r = tau^2/2: signal-independent Laplace law with
        # coefficient beta/tau^2 and rate 2*beta/tau^2
        tau, beta = 0.5, 0.27
        cfg = Dynamics(tau=tau, omega=1.0, beta=beta)
        x = np.linspace(-6.0, 6.0, 2001)
        expected = (beta / tau ** 2) * np.exp(-2.0 * beta / tau ** 2 * np.abs(x))
        for xi in (0.0, 1.0 / math.sqrt(0.05)):
            dens = SteadyDensity(xi, 0.0, tau ** 2 / 2.0, cfg)
            assert np.max(np.abs(dens(x) - expected)) <= 1e-8

    def test_gaussian_when_no_threshold(self):
        # beta = 0, q = 0: centered Gaussian with variance g/(2h)
        cfg = Dynamics(tau=0.5, omega=1.0, beta=0.0)
        r = 0.05
        g = g_scale(0.0, cfg)
        h = h_curvature(0.0, r, cfg)
        var = g / (2.0 * h)
        dens = SteadyDensity(1.0, 0.0, r, cfg)
        x = np.linspace(-4.0, 4.0, 1001)
        expected = np.exp(-0.5 * x ** 2 / var) / math.sqrt(2.0 * math.pi * var)
        assert np.max(np.abs(dens(x) - expected)) <= 1e-12

    def test_overlap_sign_symmetry(self):
        x = np.linspace(-5.0, 9.0, 500)
        a = SteadyDensity(2.0, 0.35, 0.1, CFG)(x)
        b = SteadyDensity(2.0, -0.35, 0.1, CFG)(-x)
        assert np.allclose(a, b, atol=1e-14)

    def test_normalization_random_tuples(self):
        # closed-form partition function vs quadrature, 100 random tuples
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 100:
            q = rng.uniform(-0.95, 0.95)
            r = rng.uniform(-0.3, 0.3)
            xi = rng.choice([0.0, 1.0, -2.0, 1.0 / math.sqrt(0.05)])
            if h_curvature(q, r, CFG) <= 0.01:
                continue
            dens = SteadyDensity(xi, q, r, CFG)
            total = 0.0
            for a, b in ((-np.inf, 0.0), (0.0, np.inf)):
                val, _ = quad(dens, a, b, epsabs=1e-13, epsrel=1e-12, limit=200)
                total += val
            assert abs(total - 1.0) <= 1e-10, (q, r, xi)
            checked += 1

    def test_non_normalizable_rejected(self):
        with pytest.raises(NonNormalizableError):
            SteadyDensity(1.0, 0.5, 5.0, CFG)  # h < 0 away from the boundary
        with pytest.raises(NonNormalizableError):
            # h = 0 boundary needs a positive shrinkage strength
            SteadyDensity(1.0, 0.0, 0.125, CFG_OJA)


class TestFixedPointMap:
    def test_closed_form_matches_quadrature(self):
        got = fixed_point_map(0.3, 0.1, CFG, PRIOR)
        oracle = fixed_point_map_quadrature(0.3, 0.1, CFG, PRIOR)
        assert abs(got[0] - oracle[0]) <= 1e-8
        assert abs(got[1] - oracle[1]) <= 1e-8

    def test_dual_route_on_grid(self):
        for q in (0.05, 0.4, 0.85):
            for r in (-0.05, 0.0, 0.12):
                got = fixed_point_map(q, r, CFG, PRIOR)
                oracle = fixed_point_map_quadrature(q, r, CFG, PRIOR)
                assert abs(got[0] - oracle[0]) <= 1e-8, (q, r)
                assert abs(got[1] - oracle[1]) <= 1e-8, (q, r)

    def test_oddness_in_overlap(self):
        for prior in (Prior.signed_two_point(0.05), PRIOR):
            q_pos, r_pos = fixed_point_map(0.4, 0.08, CFG, prior)
            q_neg, r_neg = fixed_point_map(-0.4, 0.08, CFG, prior)
            assert q_neg == pytest.approx(-q_pos, abs=1e-14)
            assert r_neg == pytest.approx(r_pos, abs=1e-14)

    def test_zero_overlap_is_preserved(self):
        q_new, _ = fixed_point_map(0.0, 0.05, CFG, PRIOR)
        assert q_new == 0.0

    def test_uninformative_limit_of_r(self):
        # h -> 0+ with q = 0: the shrinkage moment tends to g = tau^2/2
        g = g_scale(0.0, CFG)
        for eps in (1e-4, 1e-6, 1e-8):
            _, r_new = fixed_point_map(0.0, g - eps, CFG, PRIOR)
            assert abs(r_new - g) <= 10.0 * eps

    def test_domain_error(self):
        with pytest.raises(NonNormalizableError):
            fixed_point_map(0.0, 1.0, CFG, PRIOR)

    def test_continuous_prior_rejected(self):
        with pytest.raises(ConfigError):
            fixed_point_map(0.1, 0.0, CFG, Prior.bernoulli_gaussian(0.3))

    def test_extreme_arguments_stay_finite(self):
        # deep h -> 0 projection territory: huge |z| must not overflow
        q = 0.9
        r = CFG.tau * CFG.omega * q * q + g_scale(q, CFG) - 1e-8
        assert 0 < h_curvature(q, r, CFG) < 1e-8
        q_new, r_new = fixed_point_map(q, r, CFG, PRIOR)
        assert np.isfinite(q_new) and np.isfinite(r_new)


# The per-atom form of the map that the scalar kernel replaced: the
# oracle its results must equal bit for bit. `ms`, when given, collects
# each atom's rescaling exponent M.
def _oracle_scaled_pair(z_minus, z_plus):
    m = 0.0
    if z_minus < 0:
        m = z_minus * z_minus
    if z_plus < 0:
        m = max(m, z_plus * z_plus)

    def term(z):
        if z >= 0:
            return steady._erfcx(z) * math.exp(-m) if m < 700 else 0.0
        return 2.0 * math.exp(z * z - m) - (steady._erfcx(-z) * math.exp(-m) if m < 700 else 0.0)

    return m, term(z_minus), term(z_plus)


def _oracle_fixed_point_map(q, r, cfg, prior, ms=None):
    if not prior.is_discrete:
        raise ConfigError("fixed-point map needs a discrete prior; discretize it first")
    g = g_scale(q, cfg)
    h = h_curvature(q, r, cfg)
    if h <= 0:
        raise NonNormalizableError(f"fixed-point map outside its domain: h={h:.3e} <= 0")
    beta = cfg.beta
    scale = math.sqrt(g / h)
    root = math.sqrt(g * h)
    q_new = 0.0
    r_new = 0.0
    for xi, w in zip(prior.atom_values, prior.atom_weights):
        tilt = cfg.tau * cfg.omega * xi * q
        z_minus = (beta - tilt) / (2.0 * root)
        z_plus = (beta + tilt) / (2.0 * root)
        m, t_minus, t_plus = _oracle_scaled_pair(z_minus, z_plus)
        if ms is not None:
            ms.append(m)
        den = t_minus + t_plus
        mean_ratio = (z_plus * t_plus - z_minus * t_minus) / den
        abs_ratio = (steady.TWO_OVER_SQRT_PI * (math.exp(-m) if m < 700 else 0.0)
                     - z_plus * t_plus - z_minus * t_minus) / den
        q_new += w * xi * scale * mean_ratio
        r_new += w * beta * scale * abs_ratio
    return q_new, r_new


def _oracle_log_z(xi, q, r, cfg):
    g = g_scale(q, cfg)
    h = h_curvature(q, r, cfg)
    tilt = cfg.tau * cfg.omega * q * xi
    root = math.sqrt(g * h)
    m, t_minus, t_plus = _oracle_scaled_pair((cfg.beta - tilt) / (2.0 * root),
                                             (cfg.beta + tilt) / (2.0 * root))
    return 0.5 * math.log(math.pi * g / h) - math.log(2.0) + m + math.log(t_minus + t_plus)


def _bits(*values):
    """Exact bit patterns, so -0.0 and 0.0 differ; a float and an equal np.float64 do not."""
    return tuple(float(v).hex() for v in values)


BG_21 = discretize_prior(Prior.bernoulli_gaussian(0.05), 21)


def _domain_points(rng, cfg, n):
    """n seeded (q, r, omega) with h(q, r) > 0: q uniform, h log-uniform in [1e-12, 10]."""
    points = []
    while len(points) < n:
        q = rng.uniform(-1.2, 1.2)
        cfg_w = dc_replace(cfg, omega=rng.uniform(0.0, 2.0))
        h = 10.0 ** rng.uniform(-12.0, 1.0)
        r = cfg_w.tau * cfg_w.omega * q * q + g_scale(q, cfg_w) - 2.0 * h
        if h_curvature(q, r, cfg_w) > 0:
            points.append((q, r, cfg_w))
    return points


class TestScalarKernel:
    @pytest.mark.parametrize("cfg", [CFG, CFG_OJA], ids=["soft", "beta0"])
    @pytest.mark.parametrize("prior", [PRIOR, BG_21], ids=["two_point", "bg21"])
    def test_bitwise_equal_to_per_atom_form(self, cfg, prior):
        # 2 x (4000 + 1000) = 10^4 points over the four cases
        rng = np.random.default_rng(20261018)
        n = 4000 if prior is PRIOR else 1000
        ms = []
        for q, r, cfg_w in _domain_points(rng, cfg, n):
            want = _oracle_fixed_point_map(q, r, cfg_w, prior, ms)
            got = fixed_point_map(q, r, cfg_w, prior)
            full = steady.fixed_point_map_with_jacobian(q, r, cfg_w, prior)
            assert _bits(*got) == _bits(*want) == _bits(*full[:2]), (q, r, cfg_w.omega)
            assert all(type(v) is float for v in got)
            assert all(math.isfinite(v) for v in full), (q, r, cfg_w.omega)
        # the points reach past the M >= 700 cut, where exp(-M) reads 0
        assert sum(m >= 700 for m in ms) >= n // 10

    def test_zero_arguments(self):
        # z = 0 (beta = 0, q = 0) and z = -0.0 (beta = -0.0) on both priors
        for beta in (0.0, -0.0):
            cfg = Dynamics(tau=0.5, omega=1.0, beta=beta)
            for prior in (PRIOR, BG_21, Prior.signed_two_point(0.05)):
                for q in (0.0, -0.0):
                    for r in (-0.3, 0.0, 0.1):
                        got = fixed_point_map(q, r, cfg, prior)
                        assert _bits(*got) == _bits(*_oracle_fixed_point_map(q, r, cfg, prior))
        for z_minus, z_plus in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
                                (-0.0, 1.5), (-2.0, -0.0), (-30.0, 0.0), (-0.0, -40.0)):
            m, e, t_minus, t_plus = steady._scaled_terms(
                z_minus, z_plus, float(steady._erfcx(abs(z_minus))),
                float(steady._erfcx(abs(z_plus))))
            want = _oracle_scaled_pair(z_minus, z_plus)
            assert _bits(m, t_minus, t_plus) == _bits(*want), (z_minus, z_plus)
            assert _bits(e) == _bits(math.exp(-m) if m < 700 else 0.0)

    def test_log_z_equals_per_atom_form(self):
        rng = np.random.default_rng(7)
        for cfg in (CFG, CFG_OJA):
            for q, r, cfg_w in _domain_points(rng, cfg, 500):
                xi = rng.choice([0.0, 1.0, -2.0, 1.0 / math.sqrt(0.05)])
                dens = SteadyDensity(xi, q, r, cfg_w)
                assert _bits(dens.log_z) == _bits(_oracle_log_z(xi, q, r, cfg_w)), (xi, q, r)

    def test_sweep_identical_to_per_atom_form(self, monkeypatch):
        grid = np.linspace(0.20, 0.26, 25)
        kernel = sweep_omega(CFG, PRIOR, grid, tol=1e-9)
        with_jacobian = steady.fixed_point_map_with_jacobian
        monkeypatch.setattr(steady, "fixed_point_map_with_jacobian",
                            lambda q, r, cfg, prior: _oracle_fixed_point_map(q, r, cfg, prior)
                            + with_jacobian(q, r, cfg, prior)[2:])
        oracle = sweep_omega(CFG, PRIOR, grid, tol=1e-9)
        assert kernel.points == oracle.points
        assert [_bits(pt.q_star, *pt.distinct_q) for pt in kernel.points] == \
            [_bits(pt.q_star, *pt.distinct_q) for pt in oracle.points]
        assert kernel.omega_c == oracle.omega_c
        assert kernel.diagnostics() == oracle.diagnostics()

    def test_map_calls_counts_every_call(self, monkeypatch):
        # the sweep reaches the kernel only through its module-level name, so
        # a wrapper there sees exactly the calls the manifest reports
        calls = []
        with_jacobian = steady.fixed_point_map_with_jacobian

        def counted(*args):
            calls.append(args)
            return with_jacobian(*args)

        monkeypatch.setattr(steady, "fixed_point_map_with_jacobian", counted)
        result = sweep_omega(CFG, PRIOR, np.linspace(0.20, 0.26, 25), tol=1e-9)
        assert len(calls) == result.map_calls > 0


def _central_jacobian(q, r, cfg, prior, step):
    """dF/d(q, r) by the five-point central difference, with steps the
    arguments represent exactly."""
    def derivative(f, x, dx):
        dx = (x + dx) - x
        return (8.0 * (f(x + dx) - f(x - dx)) - (f(x + 2.0 * dx) - f(x - 2.0 * dx))) / (12.0 * dx)

    along_q = derivative(lambda x: np.array(fixed_point_map(x, r, cfg, prior)), q, step)
    along_r = derivative(lambda x: np.array(fixed_point_map(q, x, cfg, prior)), r, step)
    return np.array([along_q[0], along_r[0], along_q[1], along_r[1]])


def _assert_jacobian_matches(q, r, cfg, prior, step):
    got = np.array(steady.fixed_point_map_with_jacobian(q, r, cfg, prior)[2:])
    want = _central_jacobian(q, r, cfg, prior, step)
    assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want)), (q, r, got, want)
    return got


class TestJacobian:
    @pytest.mark.parametrize("cfg", [CFG, CFG_OJA], ids=["soft", "beta0"])
    @pytest.mark.parametrize("prior", [PRIOR, Prior.signed_two_point(0.05), BG_21],
                             ids=["two_point", "signed", "bg21"])
    def test_matches_central_differences(self, cfg, prior):
        for omega in (0.22, 1.0):
            cfg_w = dc_replace(cfg, omega=omega)
            for q in (-0.6, 0.0, 0.05, 0.3, 0.6, 0.9):
                for h in (0.3, 0.03, 3e-3):
                    r = cfg_w.tau * omega * q * q + g_scale(q, cfg_w) - 2.0 * h
                    got = _assert_jacobian_matches(q, r, cfg_w, prior, 1e-3 * h)
                    if cfg.beta == 0.0:
                        # r' = 0 for every (q, r), so its row is exactly zero
                        assert got[2] == got[3] == 0.0

    @pytest.mark.parametrize("q", [0.6, -0.6, 0.9])
    @pytest.mark.parametrize("h", [1e-6, 1e-7])
    def test_matches_on_the_reflection_branch_at_the_h_margin(self, q, h):
        # z- of the informative atom is ~ -1e3: its erfcx takes the reflection
        r = CFG.tau * CFG.omega * q * q + g_scale(q, CFG) - 2.0 * h
        tilt = CFG.tau * CFG.omega * abs(q) / math.sqrt(PRIOR.rho)
        z_minus = (CFG.beta - tilt) / (2.0 * math.sqrt(g_scale(q, CFG) * h_curvature(q, r, CFG)))
        assert z_minus < -1e3
        for prior in (PRIOR, BG_21):
            _assert_jacobian_matches(q, r, CFG, prior, 1e-3 * h)

    @pytest.mark.parametrize("omega", [0.3, 1.0])
    def test_zero_overlap_limit_at_the_h_margin(self, omega):
        # at q = 0 every z is ~ +1e3, where 2z erfcx(z) - 2/sqrt(pi)
        # cancels, and the map's own rounding swamps its differences. As
        # h -> 0 the law turns Laplace and J tends, linearly in h, to
        # diag(omega / omega_s, tau^4 / (2 beta^2))
        cfg = dc_replace(CFG, omega=omega)
        assert cfg.beta / (2.0 * math.sqrt(g_scale(0.0, cfg) * 1e-7)) > 1e3
        for prior in (PRIOR, BG_21):
            near, far = (np.array(steady.fixed_point_map_with_jacobian(
                0.0, g_scale(0.0, cfg) - 2.0 * h, cfg, prior)[2:]) for h in (1e-7, 2e-7))
            assert near[1] == near[2] == 0.0
            limit = 2.0 * near - far
            assert limit[0] == pytest.approx(omega / steady.omega_spinodal(cfg), rel=1e-9)
            assert limit[3] == pytest.approx(cfg.tau ** 4 / (2.0 * cfg.beta ** 2), rel=1e-9)

    def test_map_is_the_kernel_past_z_tail(self, monkeypatch):
        # q = 0.9, h = 0.03: z+ of the informative atom is past Z_TAIL, so
        # the Jacobian needs _tail_moments there; the map keeps the bits
        q = 0.9
        r = CFG.tau * CFG.omega * q * q + g_scale(q, CFG) - 2.0 * 0.03
        calls = []

        def counted(z, t):
            calls.append(z)
            return tail_moments(z, t)

        tail_moments = steady._tail_moments
        monkeypatch.setattr(steady, "_tail_moments", counted)
        for prior in (PRIOR, BG_21):
            calls.clear()
            full = steady.fixed_point_map_with_jacobian(q, r, CFG, prior)
            assert calls and min(calls) >= steady.Z_TAIL
            calls.clear()
            assert _bits(*fixed_point_map(q, r, CFG, prior)) == _bits(*full[:2])

    def test_tail_moments_continue_the_recurrence(self):
        # either side of Z_TAIL the downward ratios and the upward
        # recurrence agree to the latter's precision there
        for z in (steady.Z_TAIL, 1.01 * steady.Z_TAIL):
            t = float(steady._erfcx(z))
            p1 = steady.INV_SQRT_PI - z * t
            p2 = 0.5 * t - z * p1
            p3 = p1 - z * p2
            assert steady._tail_moments(z, t) == pytest.approx((p1, p2, p3), rel=1e-10)


class TestSolveFixedPoint:
    def test_uninformative_branch(self):
        tau = CFG.tau
        fp = solve_fixed_point(CFG, PRIOR, (0.0, tau ** 2 / 2.0 - 1e-3), tol=1e-7)
        assert fp.converged
        assert fp.branch == "uninformative"
        assert abs(fp.q) <= 1e-6
        assert abs(fp.r - tau ** 2 / 2.0) <= 1e-6

    def test_informative_branch_consistency(self):
        fp = solve_fixed_point(CFG, PRIOR, (0.5, default_r_init(0.5, CFG)), tol=1e-12)
        assert fp.converged and fp.branch == "informative"
        assert fp.q > 0.5
        rhs = fixed_point_map(fp.q, fp.r, CFG, PRIOR)
        assert max(abs(rhs[0] - fp.q), abs(rhs[1] - fp.r)) <= 1e-12

    def test_oja_reduction_matches_analytic_steady_state(self):
        fp = solve_fixed_point(CFG_OJA, PRIOR, (0.5, 0.0), tol=1e-12)
        expected = steady_state_q(Dynamics(tau=0.5, omega=1.0, beta=0.0))
        assert abs(fp.q ** 2 - expected ** 2) <= 1e-6
        assert fp.r == pytest.approx(0.0, abs=1e-15)

    def test_low_snr_informative_start_falls_to_uninformative(self):
        cfg = Dynamics(tau=0.5, omega=0.15, beta=0.27)
        fp = solve_fixed_point(cfg, PRIOR, (0.5, default_r_init(0.5, cfg)), tol=1e-7)
        assert fp.converged
        assert fp.branch == "uninformative"

    def test_residual_reported(self):
        fp = solve_fixed_point(CFG, PRIOR, (0.5, default_r_init(0.5, CFG)), tol=1e-10)
        rhs = fixed_point_map(fp.q, fp.r, CFG, PRIOR)
        assert max(abs(rhs[0] - fp.q), abs(rhs[1] - fp.r)) == pytest.approx(
            fp.residual, rel=1e-6
        )
        assert fp.residual <= 1e-10

    def test_non_convergence_flagged(self):
        fp = solve_fixed_point(CFG, PRIOR, (0.5, default_r_init(0.5, CFG)),
                               tol=1e-15, max_iter=5)
        assert not fp.converged
        assert fp.iterations == 5

    def test_bad_inputs(self):
        # the damping is the module's DAMPING, not an argument
        with pytest.raises(TypeError):
            solve_fixed_point(CFG, PRIOR, (0.5, 0.0), damping=0.5)


class TestZeroRootMultiplier:
    @pytest.mark.parametrize("cfg", [CFG, CFG_OJA], ids=["soft", "beta0"])
    @pytest.mark.parametrize("prior", [PRIOR, Prior.signed_two_point(0.05), BG_21],
                             ids=["two_point", "signed", "bg21"])
    @pytest.mark.parametrize("omega", [0.3, 1.0])
    def test_closed_form_matches_finite_difference(self, cfg, prior, omega):
        cfg = dc_replace(cfg, omega=omega)
        zero = steady.uninformative_fixed_point(cfg)
        delta = 1e-4
        slope = fixed_point_map(delta, zero.r, cfg, prior)[0] / delta
        assert slope == pytest.approx(omega / steady.omega_spinodal(cfg), rel=1e-4)

    def test_spinodal_values(self):
        assert steady.omega_spinodal(CFG) == pytest.approx(0.27 ** 2 / 0.5 ** 3)
        assert steady.omega_spinodal(CFG_OJA) == 0.25


class TestSweep:
    def test_oja_threshold_location(self):
        # the informative branch appears at omega = tau/2 for plain Oja
        grid = np.linspace(0.05, 1.0, 40)
        result = sweep_omega(CFG_OJA, PRIOR, grid, tol=1e-9)
        spacing = grid[1] - grid[0]
        assert result.omega_c is not None
        assert 0.25 < result.omega_c <= 0.25 + spacing + 1e-12
        # overlap matches the analytic law above threshold
        for pt in result.points:
            expected = steady_state_q(Dynamics(tau=0.5, omega=pt.omega, beta=0.0))
            if pt.omega > 0.25 + spacing:
                assert pt.q_star == pytest.approx(expected, abs=1e-5)

    def test_oist_beats_oja(self):
        grid = np.linspace(0.05, 1.0, 20)
        oist = sweep_omega(CFG, PRIOR, grid, tol=1e-7)
        oja = sweep_omega(CFG_OJA, PRIOR, grid, tol=1e-7)
        assert oist.omega_c is not None and oja.omega_c is not None
        assert oist.omega_c < oja.omega_c
        # below threshold both overlaps are solver-noise zeros, so allow
        # slack at that scale
        for a, b in zip(oist.points, oja.points):
            assert a.q_star >= b.q_star - 1e-5

    def test_low_snr_uninformative_laplace(self):
        cfg = Dynamics(tau=0.5, omega=0.15, beta=0.27)
        result = sweep_omega(cfg, PRIOR, np.array([0.15]), tol=1e-7)
        pt = result.points[0]
        assert pt.branch == "uninformative"
        assert pt.q_star <= 1e-6
        # its density is the signal-independent Laplace law
        dens = SteadyDensity(1.0 / math.sqrt(0.05), 0.0, cfg.tau ** 2 / 2.0, cfg)
        x = np.linspace(-3, 3, 301)
        expected = (0.27 / 0.25) * np.exp(-(0.54 / 0.25) * np.abs(x))
        assert np.max(np.abs(dens(x) - expected)) <= 1e-12

    def test_monotone_above_threshold(self):
        grid = np.linspace(0.05, 1.0, 20)
        result = sweep_omega(CFG, PRIOR, grid, tol=1e-9)
        qs = [pt.q_star for pt in result.points if pt.q_star > 1e-3]
        assert all(b >= a - 1e-9 for a, b in zip(qs, qs[1:]))

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            sweep_omega(CFG, PRIOR, np.array([0.5, 0.4]))

    def test_newton_keeps_the_side_of_its_start(self):
        # plain Oja at 0.5: Newton from q = 0.2 overshoots onto the mirror root
        cfg = dc_replace(CFG_OJA, omega=0.5)
        start = (0.2, 0.5 * g_scale(0.2, cfg))
        fp = steady._Newton(PRIOR, 1e-7, 10000).solve(cfg, start)
        assert fp.q == pytest.approx(
            -steady_state_q(Dynamics(tau=0.5, omega=0.5, beta=0.0)), abs=1e-6)
        assert fp.residual <= 1e-7 and not fp.converged

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError, match="at least one SNR"):
            sweep_omega(CFG, PRIOR, [])

    def test_empty_starts_rejected(self):
        with pytest.raises(ConfigError, match="at least one overlap"):
            sweep_omega(CFG, PRIOR, [0.3], starts=())
        # an init_R above the h cap makes Newton fail, so the init falls back on the trace
        with pytest.raises(ConfigError, match="at least one overlap"):
            steady.roots_from_inits(CFG, PRIOR, [(0.5, 5.0)], starts=())

    @pytest.mark.parametrize("cfg, omega_to", [(CFG, 0.2325), (CFG, 0.3), (CFG_OJA, 0.2325)],
                             ids=["soft-0.2325", "soft-0.3", "oja-0.2325"])
    def test_continuation_solves_between_its_ends(self, monkeypatch, cfg, omega_to):
        # from the anchor, omega_from + (omega_to - omega_from) rounds an ulp
        # above omega_to at these SNRs; no solve may land there
        starts = (0.2, 0.5, 0.9)
        newton = steady._Newton(PRIOR, 1e-7, 10000)
        solves = []
        solve = newton.solve
        monkeypatch.setattr(newton, "solve",
                            lambda c, init: solves.append(c.omega) or solve(c, init))
        (fp,), _ = newton.trace(dc_replace(cfg, omega=omega_to), [omega_to], starts)
        omega_from = 2.0 * steady.omega_spinodal(cfg)
        assert solves[:len(starts)] == [omega_from] * len(starts)
        continuation = solves[len(starts):]
        assert continuation[0] == omega_to
        assert all(w == omega_to or omega_to + 1e-12 < w <= omega_from for w in continuation)
        if cfg.beta > 0.0:
            # the first try reaches the root, and reports its Newton steps
            assert continuation == [omega_to]
            assert fp.converged and fp.iterations > 0

    def test_prediction_extrapolates_the_recorded_roots(self):
        fp = steady.FixedPoint(q=0.3, r=0.1, residual=0.0, branch="informative",
                               converged=True, iterations=0)
        # one recorded root is the start itself, bit for bit
        assert steady._predict([(0.5, fp)], 0.4) == (0.3, 0.1)
        # three roots on a quadratic in omega predict it exactly; older ones are ignored
        branch = [(w, dc_replace(fp, q=1.0 + w * w, r=2.0 - w))
                  for w in (0.9, 0.8, 0.7, 0.6)]
        branch[0] = (0.9, dc_replace(fp, q=-5.0, r=-5.0))
        q, r = steady._predict(branch, 0.5)
        assert q == pytest.approx(1.25, abs=1e-14) and r == pytest.approx(1.5, abs=1e-14)

    @pytest.mark.parametrize("grid, tol, max_calls", [
        (np.linspace(0.20, 0.26, 25), 1e-9, 95),
        (np.linspace(0.05, 1.0, 40), 1e-7, 235),
    ], ids=["transition", "default"])
    def test_predicted_starts_cut_map_calls(self, grid, tol, max_calls):
        # restarting from the last root took 121 and 283 calls on these grids
        result = sweep_omega(CFG, PRIOR, grid, tol=tol)
        assert result.map_calls <= max_calls
        assert result.diagnostics()["unconverged_points"] == 0

    @pytest.mark.parametrize("cfg, grid, tol", [
        (CFG, np.linspace(0.20, 0.26, 25), 1e-9),
        (CFG, np.linspace(0.05, 1.0, 40), 1e-7),
        (CFG_OJA, np.linspace(0.05, 1.0, 40), 1e-7),
    ], ids=["soft-transition", "soft-default", "oja-default"])
    def test_traced_roots_hold_under_polishing(self, cfg, grid, tol):
        # a start predicted along the branch must still end on the root, to tol
        omegas = grid[::-1].tolist()
        roots, _ = steady._Newton(PRIOR, tol, 10000).trace(cfg, omegas, (0.2, 0.5, 0.9))
        polish = steady._Newton(PRIOR, 1e-13, 100)
        informative = [(w, fp) for w, fp in zip(omegas, roots) if fp.branch == "informative"]
        assert len(informative) > 20
        for omega, fp in informative:
            root = polish.solve(dc_replace(cfg, omega=omega), (fp.q, fp.r))
            assert root.converged
            assert abs(root.q - fp.q) <= 2.0 * tol, omega

    @pytest.mark.parametrize("omega", [0.198, 0.200, 0.2325, 0.26, 0.5])
    def test_one_point_sweep_makes_one_continuation_solve(self, monkeypatch, omega):
        solves = []
        solve = steady._Newton.solve
        monkeypatch.setattr(steady._Newton, "solve",
                            lambda self, c, init: solves.append(c.omega) or solve(self, c, init))
        starts = (0.2, 0.5, 0.9)
        result = sweep_omega(CFG, PRIOR, [omega], starts=starts, tol=1e-7)
        assert result.points[0].branch == "informative"
        assert solves[len(starts):] == [omega]

    @pytest.mark.parametrize("omega, q_star", [(0.200, 0.550159), (0.225, 0.644080),
                                               (0.2325, 0.660330)])
    def test_one_point_sweep_finds_the_informative_root(self, omega, q_star):
        # the zero root attracts here too, so multi-start searches settled on it
        result = sweep_omega(CFG, PRIOR, [omega], tol=1e-7)
        (pt,) = result.points
        assert pt.converged and pt.branch == "informative"
        assert pt.q_star == pytest.approx(q_star, abs=1e-6)
        assert pt.distinct_q == (0.0, pt.q_star)
        assert result.diagnostics()["omega_spinodal"] == steady.omega_spinodal(CFG)

    def test_transition_grid_converges_everywhere(self):
        grid = np.array([0.20, 0.215, 0.2325, 0.245, 0.26])
        result = sweep_omega(CFG, PRIOR, grid, tol=1e-9)
        assert all(pt.converged and pt.branch == "informative" for pt in result.points)
        qs = [pt.q_star for pt in result.points]
        assert qs == sorted(qs)
        for pt in result.points[:-1]:
            assert pt.distinct_q == (0.0, pt.q_star)
        # at the top the starts that collapse onto q = 0 list that root too
        top = result.points[-1]
        assert top.distinct_q == pytest.approx((0.0, top.q_star), abs=1e-8)
        for pt in result.points:
            res = _quadrature_residual(pt.q_star, dc_replace(CFG, omega=pt.omega))
            assert res <= 1e-8, (pt.omega, res)
        assert result.points[2].q_star == pytest.approx(0.660330, abs=1e-6)
        assert result.max_residual <= 1e-9

    def test_no_root_on_the_h_floor(self):
        # below the fold (~0.19668) no informative root exists, but plain
        # Newton at tol 1e-7 "converges" on the H_MIN floor, residual ~ h
        result = sweep_omega(CFG, PRIOR, np.array([0.19615, 0.2325, 0.26]), tol=1e-7)
        low = result.points[0]
        assert low.converged and low.branch == "uninformative"
        assert low.q_star == 0.0 and low.distinct_q == (0.0,)
        assert result.points[1].branch == "informative"
        # the traced branch ends where its roots stop attracting (~0.19728)
        (lo, hi), = result.branch_ends
        assert 0.19615 < lo < hi < lo + 1e-7 and 0.1972 < hi < 0.1974

    def test_branch_ends_where_its_roots_stop_attracting(self):
        # the exact J_G ends the default grid's branch where its trace
        # crosses 0, with det J_G ~ 0.033 > 0: the roots stop attracting
        # there, and the fold (det J_G -> 0, near 0.19668) lies below
        result = sweep_omega(CFG, PRIOR, np.linspace(0.05, 1.0, 40), tol=1e-7)
        (lo, hi), = result.branch_ends
        assert lo == pytest.approx(0.1972771816, abs=1e-9)
        assert hi == pytest.approx(0.1972771874, abs=1e-9)
        (start,), _ = steady._Newton(PRIOR, 1e-7, 10000).trace(CFG, [0.2], (0.2, 0.5, 0.9))
        polish = steady._Newton(PRIOR, 1e-13, 100)
        traces = []
        for omega in (lo, hi):
            cfg = dc_replace(CFG, omega=omega)
            root = polish.solve(cfg, (start.q, start.r))
            assert root.residual <= 1e-13
            _, _, a, b, c, d = steady.fixed_point_map_with_jacobian(root.q, root.r, cfg, PRIOR)
            a, d = a - 1.0, d - 1.0
            assert a * d - b * c == pytest.approx(0.033, abs=1e-3)
            traces.append(a + d)
        assert traces[0] > 0.0 > traces[1]

    def test_repelling_root_not_reported(self):
        cfg = dc_replace(CFG, omega=0.1970)

        def g(x):
            return np.array(fixed_point_map(x[0], x[1], cfg, PRIOR)) - x

        root = fsolve(g, [0.517, 0.156], xtol=1e-13)
        assert root[0] == pytest.approx(0.516969, abs=1e-5)
        assert np.max(np.abs(g(root))) <= 1e-12
        assert h_curvature(root[0], root[1], cfg) > 1e3 * H_MIN
        eps = 1e-7
        jac = np.column_stack([(g(root + [eps, 0.0]) - g(root)) / eps,
                               (g(root) - g(root - [0.0, eps])) / eps]) + np.eye(2)
        assert np.all(np.linalg.eigvals(jac).real > 1.0)
        result = sweep_omega(CFG, PRIOR, np.array([0.1970, 0.2325, 0.26]), tol=1e-9)
        pt = result.points[0]
        assert pt.converged and pt.branch == "uninformative" and pt.q_star == 0.0

    def test_top_point_found_where_newton_alone_misses_it(self):
        # Newton fails from every start at 0.235; the damped fallback from
        # q0 = 0.5 reaches the attracting root, and Newton polishes it
        result = sweep_omega(CFG, PRIOR, np.array([0.235]), tol=1e-9)
        pt = result.points[0]
        assert pt.converged and pt.branch == "informative"
        assert pt.q_star == pytest.approx(0.665192, abs=1e-6)
        assert result.max_residual <= 1e-9

    def test_unresolved_start_is_reported_unconverged(self):
        # one iteration per attempt cannot reach the root: the point must
        # say so rather than report the uninformative solution
        result = sweep_omega(CFG, PRIOR, np.array([0.26]), tol=1e-9, max_iter=1)
        pt = result.points[0]
        assert not pt.converged and pt.q_star > 1e-3 and pt.distinct_q == ()
        assert result.omega_c is None
        assert result.diagnostics()["unconverged_points"] == 1


def _quadrature_residual(q, cfg):
    """Least |Q'(q, r) - q| by quadrature over the r solving r = R'(q, r)."""
    def excess(r):
        return fixed_point_map_quadrature(q, r, cfg, PRIOR)[1] - r

    r_cap = cfg.tau * cfg.omega * q * q + g_scale(q, cfg) - 2e-4  # h = 1e-4
    rs = np.linspace(r_cap - 0.3, r_cap, 61)
    values = [excess(r) for r in rs]
    roots = [brentq(excess, a, b, xtol=1e-14)
             for a, b, fa, fb in zip(rs, rs[1:], values, values[1:]) if fa * fb < 0]
    return min(abs(fixed_point_map_quadrature(q, r, cfg, PRIOR)[0] - q) for r in roots)
