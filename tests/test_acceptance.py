"""End-to-end acceptance suite.

Each test prints one pass/fail line for its criterion (run with -s to
see them all). The heavy Monte Carlo batches are shared session
fixtures; everything is deterministic given the seeds fixed here.
"""
import json
import math
import os

import numpy as np
import pytest

from oistlab import (
    Dynamics,
    Prior,
    SteadyDensity,
    closed_form_q,
    erfcx_scaled,
    fixed_point_map,
    fixed_point_map_quadrature,
    ode_q,
    run_trajectory,
    solve_fixed_point,
    steady_state_q,
    sweep_omega,
)
from oistlab.cli import main as cli_main
from oistlab.pde import ConditionalDensitySet, Grid, initial_density, moments, solve, step
from oistlab.steady import default_r_init

RHO = 0.05
TAU = 0.5
BETA = 0.27
OMEGA = 1.0
PRIOR = Prior.two_point(RHO)
STEADY_CFG = Dynamics(tau=TAU, omega=OMEGA, beta=BETA)
WORKERS = min(2, os.cpu_count() or 1)

pytestmark = pytest.mark.acceptance


def report(criterion: int, ok: bool, detail: str):
    print(f"criterion {criterion:02d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# shared Monte Carlo batches and solver runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def oja_batch():
    """Plain Oja, p=2000, 20 replicas, recorded out to t=100."""
    return run_trajectory(
        PRIOR,
        Dynamics(tau=TAU, omega=OMEGA, beta=0.0),
        p=2000,
        seed=6001,
        record_times=[0.0, 1.0, 5.0, 15.0, 100.0],
        histogram_times=[],
        replicas=20,
        n_workers=WORKERS,
    )


@pytest.fixture(scope="session")
def oja_large_step_batch():
    """Plain Oja beyond the step-size threshold (tau > 2*omega)."""
    return run_trajectory(
        PRIOR,
        Dynamics(tau=2.5, omega=OMEGA, beta=0.0),
        p=2000,
        seed=6002,
        record_times=[0.0, 100.0],
        histogram_times=[],
        replicas=20,
        n_workers=WORKERS,
    )


@pytest.fixture(scope="session")
def oist_band_batch():
    """Reference-parameter runs at p=2000 on the half-unit time grid."""
    return run_trajectory(
        PRIOR,
        Dynamics(tau=TAU, omega=OMEGA, beta=BETA),
        p=2000,
        seed=6003,
        record_times=np.arange(0.0, 15.5, 0.5),
        histogram_times=[],
        replicas=20,
        n_workers=WORKERS,
    )


@pytest.fixture(scope="session")
def oist_hist_batch():
    """Reference-parameter runs at p=10^4 with pooled histograms."""
    return run_trajectory(
        PRIOR,
        Dynamics(tau=TAU, omega=OMEGA, beta=BETA),
        p=10000,
        seed=6004,
        record_times=[0.0, 1.0, 15.0],
        histogram_times=[1.0, 15.0],
        replicas=20,
        n_workers=WORKERS,
    )


@pytest.fixture(scope="session")
def pde_solution():
    start = initial_density(1.0 / math.sqrt(2.0), 0.5, Grid(-6.0, 8.0, 900), PRIOR, BETA)
    return solve(STEADY_CFG, start, np.arange(0.0, 15.5, 0.5))


@pytest.fixture(scope="session")
def informative_fixed_point():
    fp = solve_fixed_point(
        STEADY_CFG, PRIOR,
        (0.5, default_r_init(0.5, STEADY_CFG)),
        tol=1e-12,
    )
    assert fp.converged and fp.branch == "informative"
    return fp


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_oja_closed_form_vs_simulation(oja_batch):
    q = oja_batch.q_values
    mean = q.mean(axis=0)
    se = q.std(axis=0, ddof=1) / math.sqrt(q.shape[0])
    params = Dynamics(tau=TAU, omega=OMEGA, beta=0.0)
    times = [1.0, 5.0, 15.0]
    details = []
    ok = True
    for idx, t in zip((1, 2, 3), times):
        predicted = closed_form_q(t, mean[0], params)
        gap = abs(mean[idx] - predicted)
        ok = ok and gap <= 3.0 * se[idx]
        details.append(f"t={t}: |sim-theory|={gap:.4f} vs 3se={3 * se[idx]:.4f}")
    report(1, ok, "Oja closed form vs simulation mean; " + "; ".join(details))


def test_criterion_2_oja_steady_state(oja_batch):
    q_final = np.mean(oja_batch.q_values[:, -1])
    target = math.sqrt(0.6)
    gap = abs(q_final - target)
    report(2, gap <= 0.05,
           f"Oja t=100 mean overlap {q_final:.4f} within 0.05 of {target:.4f} (gap {gap:.4f})")


def test_criterion_3_oja_phase_transition(oja_large_step_batch):
    abs_q = np.mean(np.abs(oja_large_step_batch.q_values[:, -1]))
    report(3, abs_q <= 0.1,
           f"Oja tau=2.5 (tau > 2*omega) t=100 mean |overlap| {abs_q:.4f} <= 0.1")


def test_criterion_4_pde_vs_histograms(oist_hist_batch, pde_solution):
    edges = oist_hist_batch.bin_edges
    widths = np.diff(edges)
    row = {t: i for i, t in enumerate(pde_solution.times.tolist())}
    grid = pde_solution.grid
    # pooled over the replicas: an empty atom adds a row of zeros
    pooled_counts = oist_hist_batch.histogram_counts.sum(axis=0)
    ok = True
    details = []
    for t_idx, t in enumerate(oist_hist_batch.histogram_times.tolist()):
        densities = pde_solution.densities[row[t]]
        for a_idx, atom in enumerate(oist_hist_batch.atoms.tolist()):
            counts = pooled_counts[t_idx, a_idx]
            pooled = counts / (counts.sum() * widths)
            atom_idx = int(np.argmin(np.abs(pde_solution.atoms - atom)))
            cum = np.concatenate([[0.0], np.cumsum(densities[atom_idx]) * grid.dx])
            pde_binned = np.diff(np.interp(edges, grid.interfaces, cum)) / widths
            l1 = float(np.sum(np.abs(pooled - pde_binned) * widths))
            ok = ok and l1 <= 0.1
            details.append(f"(t={t}, xi={atom:.2f}): L1={l1:.3f}")
    report(4, ok, "PDE vs pooled Monte Carlo densities; " + "; ".join(details))


def test_criterion_5_pde_inside_simulation_band(oist_band_batch, pde_solution):
    q = oist_band_batch.q_values
    mean = q.mean(axis=0)
    band = 2.0 * q.std(axis=0, ddof=1)
    gaps = np.abs(pde_solution.q_values - mean)
    worst = int(np.argmax(gaps - band))
    ok = bool(np.all(gaps <= band))
    report(5, ok,
           f"PDE overlap inside +-2sd band at all {len(mean)} times "
           f"(worst t={pde_solution.times[worst]}: gap {gaps[worst]:.4f} vs band {band[worst]:.4f})")


def test_criterion_6_steady_state_consistency(informative_fixed_point):
    fp = informative_fixed_point
    start = initial_density(1.0 / math.sqrt(2.0), 0.5, Grid(-6.0, 8.0, 900), PRIOR, BETA)
    q_long = solve(STEADY_CFG, start, [200.0]).q_values[-1]
    gap_long = abs(q_long - fp.q)

    # stationarity of the fixed-point density under the evolution; the
    # first-order scheme needs a fine grid to hold the profile still
    grid = Grid(-6.0, 8.0, 2800)
    dens = np.stack([SteadyDensity(v, fp.q, fp.r, STEADY_CFG)(grid.centers)
                     for v in PRIOR.atom_values])
    dens /= dens.sum(axis=1, keepdims=True) * grid.dx
    state = ConditionalDensitySet(atoms=PRIOR.atom_values, weights=PRIOR.atom_weights,
                                  densities=dens, grid=grid, t=0.0, q=0.0, r=0.0)
    state.q, state.r = moments(state, BETA)
    drift_run = solve(STEADY_CFG, state, np.arange(0.0, 10.5, 0.5))
    drift = float(np.max(np.abs(drift_run.q_values - fp.q)))

    ok = gap_long <= 1e-2 and drift <= 1e-3
    report(6, ok,
           f"fixed point (Q*={fp.q:.4f}) vs PDE t=200 gap {gap_long:.2e} <= 1e-2; "
           f"stationary-density overlap drift {drift:.2e} <= 1e-3 over t in [0,10]")


def test_criterion_7_uninformative_solution():
    fp = solve_fixed_point(STEADY_CFG, PRIOR, (0.0, TAU ** 2 / 2.0 - 1e-3), tol=1e-7)
    cond_fp = fp.converged and abs(fp.q) <= 1e-6 and abs(fp.r - TAU ** 2 / 2.0) <= 1e-6

    grid = Grid(-6.0, 8.0, 900)
    x = grid.centers
    laplace = (BETA / TAU ** 2) * np.exp(-2.0 * BETA / TAU ** 2 * np.abs(x))
    worst = 0.0
    for atom in PRIOR.atom_values:
        dens = SteadyDensity(atom, 0.0, TAU ** 2 / 2.0, STEADY_CFG)(x)
        worst = max(worst, float(np.max(np.abs(dens - laplace))))
    ok = cond_fp and worst <= 1e-8
    report(7, ok,
           f"uninformative iteration -> (|Q|={abs(fp.q):.1e}, |R-tau^2/2|={abs(fp.r - 0.125):.1e}); "
           f"density vs Laplace coefficient beta/tau^2 sup error {worst:.1e} <= 1e-8")


def test_criterion_8_phase_transition_ordering():
    grid = np.linspace(0.05, 1.0, 40)
    spacing = grid[1] - grid[0]
    oist = sweep_omega(STEADY_CFG, PRIOR, grid, tol=1e-7)
    oja_cfg = Dynamics(tau=TAU, omega=OMEGA, beta=0.0)
    oja = sweep_omega(oja_cfg, PRIOR, grid, tol=1e-7)

    cond_order = (
        oist.omega_c is not None
        and oja.omega_c is not None
        and oist.omega_c < oja.omega_c
        and abs(oja.omega_c - TAU / 2.0) <= spacing
    )
    cond_dominance = all(
        a.q_star >= b.q_star - 1e-9
        for a, b in zip(oist.points, oja.points)
        if a.omega > TAU / 2.0
    )
    ok = cond_order and cond_dominance
    report(8, ok,
           f"omega_c(OIST)={oist.omega_c:.4f} < omega_c(Oja)={oja.omega_c:.4f} "
           f"(analytic tau/2={TAU / 2.0}, grid spacing {spacing:.4f}); "
           f"pointwise dominance above threshold: {cond_dominance}")


def test_criterion_9a_ode_oracle():
    worst = 0.0
    for tau in (0.1, 0.5, 1.0, 2.0, 3.0):
        for omega in (0.1, 0.5, 1.0, 2.0):
            params = Dynamics(tau=tau, omega=omega, beta=0.0)
            for q0 in (0.05, 0.3, 0.9):
                for t in (0.5, 5.0, 20.0):
                    gap = abs(ode_q(t, q0, params, dt=1e-3) - closed_form_q(t, q0, params))
                    worst = max(worst, gap)
    report(9, worst <= 1e-8, f"(a) ode vs closed form over parameter grid: sup {worst:.2e} <= 1e-8")


def test_criterion_9b_fixed_point_dual_route():
    worst = 0.0
    for q in (0.05, 0.3, 0.85):
        for r in (-0.05, 0.0, 0.1):
            got = fixed_point_map(q, r, STEADY_CFG, PRIOR)
            oracle = fixed_point_map_quadrature(q, r, STEADY_CFG, PRIOR)
            worst = max(worst, abs(got[0] - oracle[0]), abs(got[1] - oracle[1]))
    report(9, worst <= 1e-8, f"(b) closed-form vs quadrature self-consistency map: sup {worst:.2e} <= 1e-8")


def test_criterion_9c_erfcx_identities():
    gap_zero = abs(erfcx_scaled(0.0) - 1.0 / math.sqrt(math.pi))
    gap_asym = abs(30.0 * erfcx_scaled(30.0) - 1.0 / math.pi)
    gap_refl = max(
        abs(erfcx_scaled(-x) + erfcx_scaled(x) - (2.0 / math.sqrt(math.pi)) * math.exp(x * x))
        for x in np.linspace(0.0, 2.0, 201)
    )
    ok = gap_zero <= 1e-12 and gap_asym <= 1e-3 and gap_refl <= 1e-12
    report(9, ok,
           f"(c) erfcx identities: f(0) gap {gap_zero:.1e}, asymptote gap {gap_asym:.1e}, "
           f"reflection gap {gap_refl:.1e}")


def test_criterion_9d_mass_conservation():
    grid = Grid(-6.0, 8.0, 900)
    cfg = Dynamics(tau=TAU, omega=OMEGA, beta=BETA)
    state = initial_density(1.0 / math.sqrt(2.0), 0.5, grid, PRIOR, BETA)
    for _ in range(100000):
        state = step(state, cfg)
    masses = state.densities.sum(axis=1) * grid.dx
    worst = float(np.max(np.abs(masses - 1.0)))
    report(9, worst <= 1e-8,
           f"(d) per-atom mass after 1e5 steps off by {worst:.2e} <= 1e-8 "
           f"(min density {state.densities.min():.1e})")


def test_criterion_10_cli_determinism(tmp_path):
    config = {
        "model": {"rho": 0.2, "p": 64, "omega": 1.0},
        "algorithm": {"tau": 0.5, "threshold": "soft", "beta": 0.27},
        "simulation": {"t_max": 0.5, "replicas": 2, "seed": 7,
                       "record_times": [0.0, 0.5], "histogram_times": [0.5]},
        "pde": {"n": 96, "t_max": 0.2, "record_times": [0.0, 0.2],
                "density_times": [0.2]},
        "steady": {"inits": [[0.0, None], [0.5, None]]},
        "sweep": {"omega_min": 0.3, "omega_max": 0.7, "n_points": 3},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    commands = {
        "simulate": ["trajectory.csv", "histograms.csv", "summary.csv"],
        "pde": ["moments.csv", "densities.csv"],
        "oja-theory": ["oja_theory.csv"],
        "steady": ["fixed_point.csv", "steady_density.csv"],
        "sweep": ["sweep.csv"],
    }
    ok = True
    details = []
    for command, files in commands.items():
        outs = []
        for tag in ("a", "b"):
            outdir = tmp_path / f"{command}-{tag}"
            argv = [command, "--config", str(cfg_path), "--output", str(outdir)]
            if command == "steady":
                argv.append("--density")
            code = cli_main(argv)
            assert code == 0, f"{command} exited {code}"
            outs.append(outdir)
        same = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes() for f in files)
        ok = ok and same
        details.append(f"{command}: {'identical' if same else 'DIFFERS'}")
    report(10, ok, "CLI re-runs byte-identical; " + "; ".join(details))
