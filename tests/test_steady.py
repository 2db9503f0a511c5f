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
    NonNormalizableError,
    Prior,
    SoftThreshold,
    SteadyConfig,
    erfcx_scaled,
    fixed_point_map,
    fixed_point_map_quadrature,
    solve_fixed_point,
    steady_density,
    steady_state_q,
    sweep_omega,
)
from oistlab import steady
from oistlab.oja import OjaParams
from oistlab.priors import discretize_prior
from oistlab.steady import H_MIN, default_r_init, g_scale, h_curvature

PRIOR = Prior.two_point(0.05)
CFG = SteadyConfig(tau=0.5, omega=1.0, threshold=SoftThreshold(0.27))
CFG_OJA = SteadyConfig(tau=0.5, omega=1.0, threshold=None)


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
        cfg = SteadyConfig(tau=tau, omega=1.0, threshold=SoftThreshold(beta))
        x = np.linspace(-6.0, 6.0, 2001)
        expected = (beta / tau ** 2) * np.exp(-2.0 * beta / tau ** 2 * np.abs(x))
        for xi in (0.0, 1.0 / math.sqrt(0.05)):
            dens = steady_density(xi, 0.0, tau ** 2 / 2.0, cfg)
            assert np.max(np.abs(dens(x) - expected)) <= 1e-8

    def test_gaussian_when_no_threshold(self):
        # beta = 0, q = 0: centered Gaussian with variance g/(2h)
        cfg = SteadyConfig(tau=0.5, omega=1.0, threshold=None)
        r = 0.05
        g = g_scale(0.0, cfg)
        h = h_curvature(0.0, r, cfg)
        var = g / (2.0 * h)
        dens = steady_density(1.0, 0.0, r, cfg)
        x = np.linspace(-4.0, 4.0, 1001)
        expected = np.exp(-0.5 * x ** 2 / var) / math.sqrt(2.0 * math.pi * var)
        assert np.max(np.abs(dens(x) - expected)) <= 1e-12

    def test_overlap_sign_symmetry(self):
        x = np.linspace(-5.0, 9.0, 500)
        a = steady_density(2.0, 0.35, 0.1, CFG)(x)
        b = steady_density(2.0, -0.35, 0.1, CFG)(-x)
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
            dens = steady_density(xi, q, r, CFG)
            total = 0.0
            for a, b in ((-np.inf, 0.0), (0.0, np.inf)):
                val, _ = quad(dens, a, b, epsabs=1e-13, epsrel=1e-12, limit=200)
                total += val
            assert abs(total - 1.0) <= 1e-10, (q, r, xi)
            checked += 1

    def test_non_normalizable_rejected(self):
        with pytest.raises(NonNormalizableError):
            steady_density(1.0, 0.5, 5.0, CFG)  # h < 0 away from the boundary
        with pytest.raises(NonNormalizableError):
            # h = 0 boundary needs a positive shrinkage strength
            steady_density(1.0, 0.0, 0.125, CFG_OJA)


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
            assert _bits(*got) == _bits(*want), (q, r, cfg_w.omega)
            assert all(type(v) is float for v in got)
        # the points reach past the M >= 700 cut, where exp(-M) reads 0
        assert sum(m >= 700 for m in ms) >= n // 10

    def test_zero_arguments(self):
        # z = 0 (beta = 0, q = 0) and z = -0.0 (beta = -0.0) on both priors
        for threshold in (None, SoftThreshold(0.0), SoftThreshold(-0.0)):
            cfg = SteadyConfig(tau=0.5, omega=1.0, threshold=threshold)
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
                dens = steady_density(xi, q, r, cfg_w)
                assert _bits(dens.log_z) == _bits(_oracle_log_z(xi, q, r, cfg_w)), (xi, q, r)

    def test_sweep_identical_to_per_atom_form(self, monkeypatch):
        grid = np.linspace(0.20, 0.26, 25)
        kernel = sweep_omega(CFG, PRIOR, grid, tol=1e-9)
        monkeypatch.setattr(steady, "fixed_point_map", _oracle_fixed_point_map)
        oracle = sweep_omega(CFG, PRIOR, grid, tol=1e-9)
        assert kernel.points == oracle.points
        assert [_bits(pt.q_star, *pt.distinct_q) for pt in kernel.points] == \
            [_bits(pt.q_star, *pt.distinct_q) for pt in oracle.points]
        assert kernel.omega_c == oracle.omega_c
        assert kernel.diagnostics() == oracle.diagnostics()

    def test_map_calls_counts_every_call(self, monkeypatch):
        # the sweep reaches the map only through its module-level name, so
        # a wrapper there sees exactly the calls the manifest reports
        calls = []

        def counted(*args):
            calls.append(args)
            return fixed_point_map(*args)

        monkeypatch.setattr(steady, "fixed_point_map", counted)
        result = sweep_omega(CFG, PRIOR, np.linspace(0.20, 0.26, 25), tol=1e-9)
        assert len(calls) == result.map_calls > 0


# The plain r-nullcline pre-iteration: the oracle `default_r_init` must
# equal bit for bit.
def _oracle_default_r_init(q, cfg, prior=None):
    r = 0.5 * g_scale(q, cfg)
    if prior is None:
        return r
    for _ in range(steady.NULLCLINE_ITERATIONS):
        r = steady._project_h(q, r, cfg)
        _, r_new = fixed_point_map(q, r, cfg, prior)
        r = 0.5 * r + 0.5 * r_new
    return steady._project_h(q, r, cfg)


def _counted_default_r_init(monkeypatch, q, cfg, prior):
    """default_r_init's r, checking that it made every one of its map calls."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fixed_point_map(*args)

    with monkeypatch.context() as patch:
        patch.setattr(steady, "fixed_point_map", counted)
        r = default_r_init(q, cfg, prior)
    assert len(calls) == steady.NULLCLINE_ITERATIONS
    return r


def _nullcline_step(q, r, cfg, prior):
    r = steady._project_h(q, r, cfg)
    return 0.5 * r + 0.5 * fixed_point_map(q, r, cfg, prior)[1]


class TestNullclineShortcut:
    """`default_r_init` runs every step of the r-nullcline iteration, wherever
    it lands: on a fixed point, pinned to the h floor or on a cycle."""

    @pytest.mark.parametrize("cfg", [CFG, CFG_OJA], ids=["soft", "beta0"])
    @pytest.mark.parametrize("prior", [PRIOR, BG_21], ids=["two_point", "bg21"])
    def test_bitwise_equal_to_full_iteration(self, monkeypatch, cfg, prior):
        rng = np.random.default_rng(20261019)
        n = 150 if prior is PRIOR else 40
        for _ in range(n):
            q = rng.uniform(-1.2, 1.2)
            cfg_w = dc_replace(cfg, omega=rng.uniform(0.0, 2.0))
            r = _counted_default_r_init(monkeypatch, q, cfg_w, prior)
            assert _bits(r) == _bits(_oracle_default_r_init(q, cfg_w, prior)), (q, cfg_w.omega)

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.9], ids=["cycle", "floor_pin", "fixed_point"])
    def test_top_of_transition_grid(self, monkeypatch, q):
        cfg = dc_replace(CFG, omega=0.26)
        r = _counted_default_r_init(monkeypatch, q, cfg, PRIOR)
        assert _bits(r) == _bits(_oracle_default_r_init(q, cfg, PRIOR))
        nxt = _nullcline_step(q, r, cfg, PRIOR)
        if q == 0.5:
            assert r == steady._project_h(q, math.inf, cfg) == steady._project_h(q, nxt, cfg)
        elif q == 0.9:
            assert nxt == r
        else:
            # a period-4 cycle of the iteration
            cycle = [r]
            for _ in range(4):
                cycle.append(_nullcline_step(q, cycle[-1], cfg, PRIOR))
            assert cycle[4] == r and r not in cycle[1:4]

    def test_no_repeat_takes_every_step(self, monkeypatch):
        cfg = dc_replace(CFG, omega=0.2325)
        r = _counted_default_r_init(monkeypatch, 0.5, cfg, PRIOR)
        assert _bits(r) == _bits(_oracle_default_r_init(0.5, cfg, PRIOR))

    def test_nan_never_repeats(self, monkeypatch):
        monkeypatch.setattr(steady, "fixed_point_map", lambda q, r, cfg, prior: (q, math.nan))
        assert math.isnan(default_r_init(0.5, CFG, PRIOR))


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
        expected = steady_state_q(OjaParams(tau=0.5, omega=1.0))
        assert abs(fp.q ** 2 - expected ** 2) <= 1e-6
        assert fp.r == pytest.approx(0.0, abs=1e-15)

    def test_low_snr_informative_start_falls_to_uninformative(self):
        cfg = SteadyConfig(tau=0.5, omega=0.15, threshold=SoftThreshold(0.27))
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
        with pytest.raises(ConfigError):
            solve_fixed_point(CFG, PRIOR, (0.5, 0.0), damping=0.0)


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
            expected = steady_state_q(OjaParams(tau=0.5, omega=pt.omega))
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
        cfg = SteadyConfig(tau=0.5, omega=0.15, threshold=SoftThreshold(0.27))
        result = sweep_omega(cfg, PRIOR, np.array([0.15]), tol=1e-7)
        pt = result.points[0]
        assert pt.branch == "uninformative"
        assert pt.q_star <= 1e-6
        # its density is the signal-independent Laplace law
        dens = steady_density(1.0 / math.sqrt(0.05), 0.0, cfg.tau ** 2 / 2.0, cfg)
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
        assert fp.q == pytest.approx(-steady_state_q(OjaParams(tau=0.5, omega=0.5)), abs=1e-6)
        assert fp.residual <= 1e-7 and not fp.converged

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError, match="at least one SNR"):
            sweep_omega(CFG, PRIOR, [])

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
