import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg.lapack import dgtsv

from oistlab import (
    ConfigError,
    Dynamics,
    NumericError,
    Prior,
    SteadyDensity,
    closed_form_q,
    solve_fixed_point,
)
from oistlab.pde import (
    ConditionalDensitySet,
    Grid,
    auto_dt,
    drift,
    initial_density,
    moments,
    solve,
    step,
)
from oistlab import pde as pdemod
from oistlab.priors import discretize_prior
from oistlab.steady import default_r_init

PRIOR = Prior.two_point(0.05)
PEAK = 1.0 / math.sqrt(0.05)
SOFT = 0.27
MODEL = Dynamics(tau=0.5, omega=1.0, beta=SOFT)


def make_grid(n=700, lo=-6.0, hi=8.0):
    return Grid(lo, hi, n)


def gaussian_start(grid, prior=PRIOR, beta=SOFT):
    """The reference start x0 ~ N(1/sqrt(2), 1/2) on ``grid``."""
    return initial_density(1.0 / math.sqrt(2.0), 0.5, grid, prior, beta)


class TestGrid:
    def test_geometry(self):
        grid = Grid(-1.0, 1.0, 100)
        assert grid.dx == pytest.approx(0.02)
        assert grid.centers[0] == pytest.approx(-0.99)
        assert grid.interfaces[0] == -1.0 and grid.interfaces[-1] == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            Grid(-1.0, 1.0, 10)
        with pytest.raises(ConfigError):
            Grid(1.0, -1.0, 100)
        for lo, hi in ((-math.inf, 8.0), (-6.0, math.inf), (-math.inf, math.inf),
                       (math.nan, 8.0)):
            with pytest.raises(ConfigError, match="^grid bounds"):
                Grid(lo, hi, 900)


class TestDrift:
    def test_zero_atom_value(self):
        got = drift(1.0, 0.0, q=0.0, r=0.0, tau=0.5, omega=1.0, beta=SOFT)
        assert got == pytest.approx(-0.395, abs=1e-12)

    def test_origin_keeps_only_signal_term(self):
        for xi in (0.0, 1.3, -2.0):
            got = drift(0.0, xi, q=0.4, r=0.1, tau=0.5, omega=1.0, beta=SOFT)
            assert got == pytest.approx(0.5 * 1.0 * 0.4 * xi, abs=1e-12)

    def test_reference_value(self):
        got = drift(0.5, PEAK, q=0.5, r=0.2, tau=0.5, omega=1.0, beta=SOFT)
        expected = 0.5 * 1.0 * 0.5 * PEAK - 0.27 - 0.5 * (0.125 - 0.2 + 0.15625)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.80741, abs=1e-5)


class TestMoments:
    def _state_from_profiles(self, profiles, grid, prior=PRIOR):
        dens = np.stack(profiles)
        dens = dens / (dens.sum(axis=1, keepdims=True) * grid.dx)
        return ConditionalDensitySet(
            atoms=prior.atom_values, weights=prior.atom_weights,
            densities=dens, grid=grid, t=0.0, q=0.0, r=0.0,
        )

    def test_point_mass_at_atoms_gives_unit_overlap(self):
        grid = make_grid(n=1400)
        profiles = []
        for atom in PRIOR.atom_values:
            prof = np.zeros(grid.n)
            prof[np.argmin(np.abs(grid.centers - atom))] = 1.0
            profiles.append(prof)
        state = self._state_from_profiles(profiles, grid)
        q, r = moments(state, 0.0)
        # cell-center quantization shifts each atom by at most dx/2
        assert q == pytest.approx(1.0, abs=PEAK * grid.dx)

    def test_symmetric_density_zero_overlap_and_abs_moment(self):
        grid = make_grid(n=1000, lo=-5.0, hi=5.0)
        x = grid.centers
        prof = np.exp(-0.5 * x ** 2)
        state = self._state_from_profiles([prof, prof], grid)
        q, r = moments(state, SOFT)
        assert abs(q) <= 1e-12
        expected_r = 0.27 * np.sum(np.abs(x) * state.densities[0]) * grid.dx
        assert r == pytest.approx(expected_r, abs=1e-14)

    def test_laplace_density_reproduces_uninformative_moment(self):
        # rate 2*beta/tau^2 Laplace law: r = beta*E|x| = tau^2/2
        tau, beta = 0.5, 0.27
        rate = 2.0 * beta / tau ** 2
        grid = Grid(-8.0, 8.0, 4000)
        x = grid.centers
        prof = np.exp(-rate * np.abs(x))
        state = self._state_from_profiles([prof, prof], grid)
        _, r = moments(state, beta)
        assert r == pytest.approx(tau ** 2 / 2.0, abs=2e-4)
        assert r == pytest.approx(0.125, abs=2e-4)

    def test_unnormalized_density_rejected(self):
        grid = make_grid()
        dens = np.ones((2, grid.n))  # mass far from 1
        state = ConditionalDensitySet(
            atoms=PRIOR.atom_values, weights=PRIOR.atom_weights,
            densities=dens, grid=grid, t=0.0, q=0.0, r=0.0,
        )
        with pytest.raises(NumericError):
            moments(state, 0.0)

    def test_nan_cell_rejected(self):
        state = initial_density(0.7, 0.5, make_grid(), PRIOR, SOFT)
        state.densities[1, 400] = math.nan
        with pytest.raises(NumericError, match="mass off by nan"):
            moments(state, SOFT)


class TestInitialDensity:
    def test_reference_initial_overlap(self):
        grid = make_grid()
        state = initial_density(1.0 / math.sqrt(2.0), 0.5, grid, PRIOR, SOFT)
        assert state.q == pytest.approx(math.sqrt(0.05 / 2.0), abs=1e-9)
        assert state.q == pytest.approx(0.15811, abs=1e-5)

    def test_mass_one_per_atom(self):
        grid = make_grid()
        state = initial_density(1.0 / math.sqrt(2.0), 0.5, grid, PRIOR, SOFT)
        masses = state.densities.sum(axis=1) * grid.dx
        assert np.max(np.abs(masses - 1.0)) <= 1e-8

    def test_variance_refused(self):
        for variance in (0.0, -0.5, math.nan):
            with pytest.raises(ConfigError, match="^x0 variance"):
                initial_density(0.7, variance, make_grid(), PRIOR, SOFT)

    def test_zero_mean_refused(self):
        with pytest.raises(ConfigError):
            initial_density(0.0, 0.5, make_grid(), PRIOR, SOFT)

    def test_symmetric_prior_refused(self):
        # E[xi] = 0 makes the initial overlap vanish no matter the x0 mean
        with pytest.raises(ConfigError):
            initial_density(0.7, 0.5, make_grid(), Prior.signed_two_point(0.05), SOFT)

    def test_grid_too_small(self):
        with pytest.raises(ConfigError):
            initial_density(0.7, 0.5, Grid(-0.5, 0.5, 64), PRIOR, SOFT)

    def test_nan_mean_rejected(self):
        with pytest.raises(ConfigError, match="cuts off nan"):
            initial_density(math.nan, 0.5, Grid(-6.0, 8.0, 300), Prior.two_point(0.05), SOFT)

    def test_macro_matches_moments(self):
        grid = make_grid()
        state = initial_density(0.7, 0.5, grid, PRIOR, SOFT)
        q, r = moments(state, SOFT)
        assert state.q == pytest.approx(q, abs=1e-15)
        assert state.r == pytest.approx(r, abs=1e-15)


class TestStep:
    def test_diffusion_spreads_variance(self):
        # harness: hold (q, r) so the drift vanishes; variance must grow
        # by 2*D*dt per step
        tau = 0.5
        grid = make_grid(n=700, lo=-7.0, hi=7.0)
        cfg = Dynamics(tau=tau, omega=0.0, beta=0.0)
        diffusion = 0.5 * tau ** 2
        state = initial_density(0.3, 0.01, grid, PRIOR, 0.0)
        state.q = 0.0
        state.r = diffusion  # cancels the restoring term: drift == 0
        x = grid.centers

        def variance(s):
            m1 = s.densities[0] @ x * grid.dx
            return s.densities[0] @ (x - m1) ** 2 * grid.dx

        v0 = variance(state)
        dt = 0.5 * auto_dt(state, cfg)
        elapsed = 0.0
        for _ in range(100):
            gamma = drift(grid.interfaces, state.atoms[0], state.q, state.r,
                          tau, 0.0, 0.0)
            assert np.max(np.abs(gamma)) == 0.0
            state = step(state, cfg, dt=dt)
            elapsed += dt
            state.q = 0.0
            state.r = diffusion
        growth = variance(state) - v0
        assert growth == pytest.approx(2.0 * diffusion * elapsed, rel=0.02)

    def test_pure_advection_translates(self, monkeypatch):
        # harness: diffusion disabled, constant drift c; the profile mean
        # must translate by c*dt per step within one cell
        import oistlab.pde as pdemod

        monkeypatch.setattr(pdemod, "diffusion_coefficient", lambda tau, omega, q: 0.0)
        c = 0.8
        monkeypatch.setattr(
            pdemod, "_interface_drift",
            lambda state, cfg: np.full((len(state.atoms), state.grid.n + 1), c),
        )
        grid = make_grid(n=700, lo=-7.0, hi=7.0)
        cfg = Dynamics(tau=0.5, omega=0.0, beta=0.0)
        state = initial_density(0.3, 0.04, grid, PRIOR, 0.0)
        x = grid.centers
        mean0 = state.densities[0] @ x * grid.dx
        dt = 0.5 * grid.dx / c
        for _ in range(100):
            state = pdemod.step(state, cfg, dt=dt)
        mean1 = state.densities[0] @ x * grid.dx
        assert abs((mean1 - mean0) - c * 100 * dt) <= grid.dx

    def test_mass_conserved_and_macro_consistent(self):
        grid = make_grid()
        cfg = Dynamics(tau=0.5, omega=1.0, beta=SOFT)
        state = initial_density(1.0 / math.sqrt(2.0), 0.5, grid, PRIOR, SOFT)
        for _ in range(500):
            state = step(state, cfg)
        masses = state.densities.sum(axis=1) * grid.dx
        assert np.max(np.abs(masses - 1.0)) <= 1e-10
        q, r = moments(state, SOFT)
        assert abs(q - state.q) <= 1e-10 and abs(r - state.r) <= 1e-10

    def test_large_steps_keep_densities_nonnegative_and_mass(self):
        # the implicit step has no stability bound: an oversized dt, and
        # then a wild drift, keep every density >= 0 and every mass at 1
        grid = make_grid()
        cfg = Dynamics(tau=0.5, omega=1.0, beta=SOFT)
        state = initial_density(1.0 / math.sqrt(2.0), 0.5, grid, PRIOR, SOFT)
        wild = replace(state, q=0.0, r=-2000.0)
        for start in (state, wild):
            new = step(start, cfg, dt=1.0)
            assert np.all(new.densities >= 0.0)
            masses = new.densities.sum(axis=1) * grid.dx
            assert np.max(np.abs(masses - 1.0)) <= 1e-12

    def test_positivity_within_rounding(self):
        grid = make_grid()
        cfg = Dynamics(tau=0.5, omega=1.0, beta=SOFT)
        state = initial_density(1.0 / math.sqrt(2.0), 0.5, grid, PRIOR, SOFT)
        for _ in range(2000):
            state = step(state, cfg)
            assert state.densities.min() >= 0.0


class TestSolve:
    def test_oja_reduction_oracle(self):
        # phi = 0: PDE overlap vs closed form, sup error <= 5e-3, shrinking
        # under refinement
        times = np.arange(0.0, 15.5, 0.5)
        params = Dynamics(tau=0.5, omega=1.0, beta=0.0)
        errs = {}
        for n in (700, 1400):
            cfg = Dynamics(tau=0.5, omega=1.0, beta=0.0)
            sol = solve(cfg, gaussian_start(make_grid(n=n), beta=0.0), times)
            reference = np.array([closed_form_q(t, sol.q_values[0], params) for t in times])
            errs[n] = np.max(np.abs(sol.q_values - reference))
        assert errs[700] <= 5e-3
        assert errs[1400] < errs[700]

    def test_grid_refinement_overlap_stable(self):
        # halving dx (and the auto step with it) from the default
        # resolution moves the t=15 overlap by no more than 1e-3
        q_a = solve(MODEL, gaussian_start(make_grid(n=900)), [15.0]).q_values[-1]
        q_b = solve(MODEL, gaussian_start(make_grid(n=1800)), [15.0]).q_values[-1]
        assert abs(q_a - q_b) <= 1e-3

    def test_stationary_density_held_still(self):
        # well-balance: the informative fixed point's stationary profile on
        # the reference grid keeps its overlap within 1e-6 of Q* over
        # t in [0, 10]; a first-order upwind flux drifts by ~1.6e-3 here
        steady_cfg = Dynamics(tau=0.5, omega=1.0, beta=SOFT)
        fp = solve_fixed_point(steady_cfg, PRIOR,
                               (0.5, default_r_init(0.5, steady_cfg)), tol=1e-12)
        assert fp.converged and fp.branch == "informative"
        grid = make_grid(n=900)
        dens = np.stack([SteadyDensity(v, fp.q, fp.r, steady_cfg)(grid.centers)
                         for v in PRIOR.atom_values])
        dens /= dens.sum(axis=1, keepdims=True) * grid.dx
        state = ConditionalDensitySet(atoms=PRIOR.atom_values, weights=PRIOR.atom_weights,
                                      densities=dens, grid=grid, t=0.0, q=0.0, r=0.0)
        cfg = Dynamics(tau=0.5, omega=1.0, beta=SOFT)
        sol = solve(cfg, state, np.arange(0.0, 10.5, 0.5))
        assert np.max(np.abs(sol.q_values - fp.q)) <= 1e-6

    def test_start_moments_recomputed_under_the_model(self):
        # a start built at beta = 0 caches r = 0; solve reads (q, r) under its own beta
        grid = make_grid(n=900)
        times = [0.0, 0.5]
        matched = solve(MODEL, gaussian_start(grid, beta=MODEL.beta), times)
        mismatched = solve(MODEL, gaussian_start(grid, beta=0.0), times)
        assert matched.r_values[0] != 0.0
        assert np.array_equal(mismatched.q_values, matched.q_values)
        assert np.array_equal(mismatched.r_values, matched.r_values)

    def test_densities_and_series(self):
        times = [0.0, 0.5, 1.0]
        start = gaussian_start(make_grid())
        sol = solve(MODEL, start, times)
        assert np.array_equal(sol.times, times)
        assert sol.densities.shape == (3, 2, 700)
        for density, q, r in zip(sol.densities, sol.q_values, sol.r_values, strict=True):
            assert moments(replace(start, densities=density), SOFT) == (q, r)
        assert sol.q_values[2] > sol.q_values[0]  # overlap grows at these settings

    def test_fixed_dt_honored(self):
        sol = solve(MODEL, gaussian_start(make_grid()), [0.01], dt=1e-4)
        assert sol.n_steps == 100

    def test_multi_atom_asymmetric_prior(self):
        prior = Prior.from_atoms([(-1.0, 0.2), (0.0, 0.6), (2.0, 0.2)])
        sol = solve(MODEL, gaussian_start(Grid(-6.0, 8.0, 700), prior), [0.0, 0.5])
        assert len(sol.atoms) == 3 and sol.densities.shape[1] == 3
        assert sol.q_values[0] == pytest.approx(
            (1.0 / math.sqrt(2.0)) * prior.mean / 1.0, abs=1e-9
        )

    def test_symmetric_continuous_prior_refused(self):
        # Bernoulli-Gaussian u is symmetric, so any xi-independent x0 law
        # has zero initial overlap; the start is refused before that, since
        # a continuous prior must be discretized first
        with pytest.raises(ConfigError, match="discretize it first"):
            solve(MODEL, gaussian_start(Grid(-10.0, 10.0, 800), Prior.bernoulli_gaussian(0.4)),
                  [0.1])

    def test_record_times_validation(self):
        start = gaussian_start(make_grid())
        with pytest.raises(ConfigError):
            solve(MODEL, start, [])
        for bad in ([math.nan], [math.nan, 0.5], [0.5, math.nan], [math.inf], [0.5, math.inf],
                    [-1.0]):
            with pytest.raises(ConfigError, match="^record_times must lie in"):
                solve(MODEL, start, bad)

    def test_dt_validation(self):
        start = gaussian_start(make_grid())
        for bad in ("fixed", 0.0, -0.1, math.nan):
            with pytest.raises(ConfigError, match="^dt must be"):
                solve(MODEL, start, [0.5], dt=bad)

    def test_negative_initial_state_refused(self):
        for bad in (-1e-300, math.nan):
            state = gaussian_start(make_grid())
            state.densities[0, 0] = bad
            with pytest.raises(ConfigError, match="negative"):
                solve(MODEL, state, [1.0])

    def test_runs_on_the_start_and_leaves_it_unchanged(self):
        # the grid and atoms are the start's own: no other grid or prior is read
        prior = Prior.from_atoms([(-1.0, 0.2), (0.0, 0.6), (2.0, 0.2)])
        start = gaussian_start(Grid(-6.0, 8.0, 300), prior)
        before = (start.densities.tobytes(), start.atoms.tobytes(), start.weights.tobytes(),
                  start.t, start.q, start.r)
        sol = solve(MODEL, start, [0.0, 0.5])
        assert sol.grid == start.grid and sol.densities.shape == (2, 3, 300)
        assert np.array_equal(sol.atoms, start.atoms)
        assert (sol.q_values[0], sol.r_values[0]) == (start.q, start.r)
        assert (start.densities.tobytes(), start.atoms.tobytes(), start.weights.tobytes(),
                start.t, start.q, start.r) == before


REFERENCE_GRID = make_grid(n=900)


class TestAutoStep:
    @pytest.fixture(scope="class")
    def reference_run(self):
        return solve(MODEL, gaussian_start(REFERENCE_GRID), np.arange(0.0, 15.5, 0.5))

    def test_reaches_t15_in_few_steps(self, reference_run):
        assert reference_run.times[-1] == 15.0
        assert reference_run.n_steps <= 400

    def test_recorded_densities_are_densities(self, reference_run):
        dx = make_grid(n=900).dx
        for densities in reference_run.densities:
            assert np.all(densities >= 0.0)
            masses = densities.sum(axis=1) * dx
            assert np.max(np.abs(masses - 1.0)) <= 1e-12

    def test_second_order_in_time(self):
        # against the Richardson extrapolation of two fixed-dt runs; the
        # first-order "auto" step this replaced was off by 1.2e-3 in Q here
        times = np.arange(0.0, 3.5, 0.5)
        start = gaussian_start(REFERENCE_GRID)
        auto = solve(MODEL, start, times)
        coarse = solve(MODEL, start, times, dt=0.002)
        fine = solve(MODEL, start, times, dt=0.0005)
        q_ref = (4.0 * fine.q_values - coarse.q_values) / 3.0
        assert np.max(np.abs(auto.q_values - q_ref)) <= 1e-4
        dx = make_grid(n=900).dx
        for t in (1.0, 3.0):
            i = int(np.searchsorted(times, t))
            p_ref = (4.0 * fine.densities[i] - coarse.densities[i]) / 3.0
            l1 = np.abs(auto.densities[i] - p_ref).sum(axis=1) * dx
            assert np.all(l1 <= 1e-3)

    def test_negative_extrapolation_falls_back_to_half_steps(self):
        # a narrow start: the coarse step spreads mass further into the
        # empty tails than the two half steps, so 2 fine - coarse < 0 there
        cfg = MODEL
        start = initial_density(0.7, 1e-3, REFERENCE_GRID, PRIOR, SOFT)
        dt = auto_dt(start, cfg)
        half = step(start, cfg, dt=0.5 * dt)
        fine = step(half, cfg, dt=0.5 * dt)
        coarse = step(start, cfg, dt=dt)
        assert np.min(2.0 * fine.densities - coarse.densities) < 0.0
        sol = solve(cfg, start, [dt])
        assert sol.n_steps == 1 and sol.n_first_order == 1
        assert np.array_equal(sol.densities[0], fine.densities)
        assert sol.q_values[0] == fine.q and sol.r_values[0] == fine.r



# The kernel before the shared flux operator and the lighter moments, kept
# verbatim (but for `auto_dt`, which no longer takes the drift) as the oracle
# that `solve` must reproduce bit for bit.
def oracle_moments(state, beta):
    dx = state.grid.dx
    masses = state.densities.sum(axis=1) * dx
    if np.any(np.abs(masses - 1.0) > pdemod.MASS_TOL):
        worst = float(np.max(np.abs(masses - 1.0)))
        raise NumericError(f"conditional density mass off by {worst:.3e} (> {pdemod.MASS_TOL})")
    x, xphi, _, _ = pdemod._grid_tables(state.grid, beta)
    first = state.densities @ x * dx
    q = float(np.sum(state.weights * state.atoms * first))
    r = float(np.sum(state.weights * (state.densities @ xphi)) * dx)
    return q, r


def oracle_step(state, cfg, dt=None, gamma=None):
    if gamma is None:
        gamma = pdemod._interface_drift(state, cfg)
    if dt is None:
        dt = pdemod.auto_dt(state, cfg)
    dx = state.grid.dx
    diffusion = pdemod.diffusion_coefficient(cfg.tau, cfg.omega, state.q)

    v = gamma[:, 1:-1]
    fitted = pdemod._fitted_diffusion(v, diffusion, dx)
    w_right = np.maximum(v, 0.0)
    w_left = w_right - v
    lam = dt / dx
    w_right += fitted
    w_right *= lam
    w_left += fitted
    w_left *= lam

    p = state.densities
    n_atoms, n = p.shape
    diag = np.ones((n_atoms, n))
    diag[:, :-1] += w_right
    diag[:, 1:] += w_left
    upper = np.zeros((n_atoms, n))
    np.negative(w_left, out=upper[:, :-1])
    lower = np.zeros((n_atoms, n))
    np.negative(w_right, out=lower[:, 1:])
    _, _, _, solved, info = dgtsv(lower.reshape(-1)[1:], diag.reshape(-1),
                                  upper.reshape(-1)[:-1], p.reshape(-1, 1),
                                  overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info != 0:
        raise NumericError(f"implicit step: tridiagonal solve failed (LAPACK info {info})")
    new_state = replace(state, densities=solved.reshape(n_atoms, n), t=state.t + dt)
    new_state.q, new_state.r = oracle_moments(new_state, cfg.beta)
    return new_state


def oracle_extrapolated_step(state, cfg, dt, tol):
    gamma = pdemod._interface_drift(state, cfg)
    coarse = oracle_step(state, cfg, dt, gamma)
    fine = oracle_step(oracle_step(state, cfg, 0.5 * dt, gamma), cfg, 0.5 * dt)
    err = max(abs(coarse.q - fine.q), abs(coarse.r - fine.r))
    if math.isnan(err):
        raise NumericError(f"auto step: (q, r) is not a number after t = {state.t}")
    if err > tol:
        return None, err, False
    densities = 2.0 * fine.densities - coarse.densities
    first_order = bool(densities.min() < 0.0)
    accepted = replace(fine, densities=fine.densities if first_order else densities, t=coarse.t)
    if not first_order:
        accepted.q, accepted.r = oracle_moments(accepted, cfg.beta)
    return accepted, err, first_order


def narrow_start(grid):
    return initial_density(0.7, 1e-3, grid, PRIOR, SOFT)


def bernoulli_gaussian_start(grid):
    # the prior is symmetric, so a start independent of xi has no overlap
    prior = discretize_prior(Prior.bernoulli_gaussian(0.05), 21)
    x = grid.centers
    densities = np.exp(-(x[None, :] - 0.1 * prior.atom_values[:, None]) ** 2)
    densities /= densities.sum(axis=1, keepdims=True) * grid.dx
    return ConditionalDensitySet(prior.atom_values, prior.atom_weights, densities,
                                 grid, 0.0, 0.0, 0.0)


class TestKernelOracle:
    @pytest.mark.parametrize("cfg, dt, grid, times, start", [
        (MODEL, "auto", REFERENCE_GRID, np.arange(0.0, 2.5, 0.5), None),
        (MODEL, 0.03, REFERENCE_GRID, [0.0, 0.25, 0.5, 1.0], None),
        (Dynamics(tau=0.5, omega=1.0, beta=0.0), "auto", REFERENCE_GRID, [1.0, 2.0], None),
        (MODEL, "auto", make_grid(n=200, lo=-8.0), [0.25, 0.5], bernoulli_gaussian_start),
        (MODEL, "auto", REFERENCE_GRID, [0.1, 0.5], narrow_start),
    ], ids=["reference-auto", "numeric-dt", "plain-oja", "bernoulli-gaussian-21", "narrow-start"])
    def test_solve_matches_oracle_bit_for_bit(self, monkeypatch, cfg, dt, grid, times, start):
        def initial():
            return start(grid) if start else gaussian_start(grid, beta=cfg.beta)

        got = solve(cfg, initial(), times, dt)
        with monkeypatch.context() as patch:
            patch.setattr(pdemod, "moments", oracle_moments)
            patch.setattr(pdemod, "step", oracle_step)
            patch.setattr(pdemod, "_extrapolated_step", oracle_extrapolated_step)
            want = solve(cfg, initial(), times, dt)
        assert len(got.atoms) == (21 if start is bernoulli_gaussian_start else 2)
        if start is narrow_start:
            assert got.n_first_order > 0
        for key in ("n_steps", "n_rejected", "n_first_order", "dt_min", "dt_max", "mass_error"):
            assert getattr(got, key) == getattr(want, key), key
        # every recorded density, at every record time t with its q and r
        for values in ("times", "q_values", "r_values", "densities", "atoms"):
            assert getattr(got, values).tobytes() == getattr(want, values).tobytes()
        assert got.densities.shape == (len(times), len(got.atoms), grid.n)
        assert got.grid == want.grid


def later_start(grid):
    # past the first steps, which keep their half-step results
    start = gaussian_start(grid)
    sol = solve(MODEL, start, [0.5])
    return replace(start, densities=sol.densities[-1], t=0.5, q=sol.q_values[-1],
                   r=sol.r_values[-1])


class TestNoAliasing:
    # each step writes only into arrays it allocates itself: no state the
    # caller holds, and no run's result, may share memory with another

    @pytest.mark.parametrize("start", [gaussian_start, narrow_start],
                             ids=["reference", "narrow-start"])
    def test_repeated_solve_is_byte_identical(self, start):
        times = [0.0, 0.1, 0.5, 1.0]
        first, second = (solve(MODEL, start(REFERENCE_GRID), times) for _ in range(2))
        for key in ("n_steps", "n_rejected", "n_first_order", "dt_min", "dt_max", "mass_error"):
            assert getattr(first, key) == getattr(second, key), key
        for values in ("times", "q_values", "r_values", "densities", "atoms"):
            assert getattr(first, values).tobytes() == getattr(second, values).tobytes()

    @pytest.mark.parametrize("start", [gaussian_start, narrow_start],
                             ids=["reference", "narrow-start"])
    def test_result_shares_no_memory(self, start):
        initial = start(REFERENCE_GRID)
        before = initial.densities.tobytes()
        sol = solve(MODEL, initial, [0.0, 0.1, 0.5, 1.0])
        # the run records both extrapolated and kept half-step results
        assert 0 < sol.n_first_order < sol.n_steps
        arrays = [initial.densities, initial.atoms, initial.weights, sol.times, sol.q_values,
                  sol.r_values, sol.densities, sol.atoms]
        for i, mine in enumerate(arrays):
            for theirs in arrays[i + 1:]:
                assert not np.shares_memory(mine, theirs)
        assert initial.densities.tobytes() == before

    @pytest.mark.parametrize("start", [later_start, narrow_start],
                             ids=["extrapolated", "half-steps"])
    def test_step_leaves_its_input_unchanged(self, start):
        cfg = MODEL
        state = start(REFERENCE_GRID)
        before = (state.densities.tobytes(), state.t, state.q, state.r)
        operator = pdemod._flux_operator(state, cfg)
        weights = operator.tobytes()
        dt = auto_dt(state, cfg)
        new = step(state, cfg, dt)
        step(state, cfg, 0.5 * dt, operator)
        # a step without dt is the step of auto_dt, bit for bit
        auto = step(state, cfg)
        assert ((auto.densities.tobytes(), auto.t, auto.q, auto.r)
                == (new.densities.tobytes(), new.t, new.q, new.r))
        accepted, _, first_order = pdemod._extrapolated_step(state, cfg, dt, math.inf)
        assert first_order == (start is narrow_start)
        kept = accepted.densities.tobytes()
        again, _, _ = pdemod._extrapolated_step(state, cfg, 0.5 * dt, math.inf)
        rejected, _, _ = pdemod._extrapolated_step(state, cfg, dt, 0.0)
        assert rejected is None
        assert (state.densities.tobytes(), state.t, state.q, state.r) == before
        assert operator.tobytes() == weights
        assert accepted.densities.tobytes() == kept
        arrays = [state.densities, new.densities, accepted.densities, again.densities]
        for i, mine in enumerate(arrays):
            for theirs in arrays[i + 1:]:
                assert not np.shares_memory(mine, theirs)
