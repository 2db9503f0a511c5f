"""Tests of the benchmark's reference computations and output checks.

    python3 -m pytest bench/test_checks.py -q

Each check is shown to accept output that has the property it checks
and to reject output that lacks it.
"""
import math

import numpy as np
import pytest

import checks

TAU, OMEGA, BETA, RHO = 0.5, 1.0, 0.27, 0.05
ATOMS = checks.two_point_atoms(RHO)
M0, V0 = 1.0 / math.sqrt(2.0), 0.5


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(format(v, ".17g") if isinstance(v, float) else str(v)
                                          for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def rk4_overlap(t, q0, tau, omega, n=20000):
    a1, a2 = tau * omega * (1 + tau / 2), tau * (omega - tau / 2)
    f = lambda q: a2 * q - a1 * q ** 3  # noqa: E731
    h, q = t / n, q0
    for _ in range(n):
        k1 = f(q)
        k2 = f(q + h * k1 / 2)
        k3 = f(q + h * k2 / 2)
        k4 = f(q + h * k3)
        q += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
    return q


@pytest.mark.parametrize("tau,omega", [(0.5, 1.0), (2.5, 1.0), (0.5, 0.25)])
def test_oja_overlap_solves_its_ode(tau, omega):
    for q0 in (0.1, 0.6):
        for t in (0.5, 3.0):
            assert checks.oja_overlap(t, q0, tau, omega) == pytest.approx(
                rk4_overlap(t, q0, tau, omega), abs=1e-10)


def test_oja_overlap_limits():
    assert checks.oja_overlap(0.0, 0.3, TAU, OMEGA) == pytest.approx(0.3, abs=1e-15)
    assert checks.oja_overlap(200.0, 0.3, TAU, OMEGA) == pytest.approx(math.sqrt(0.6), abs=1e-12)


def test_initial_overlap_and_its_spread_match_sampling():
    p, reps = 20000, 400
    rng = np.random.default_rng(0)
    values = np.array([atom for atom, _ in ATOMS])
    q = []
    for _ in range(reps):
        xi = values[rng.choice(2, size=p, p=[w for _, w in ATOMS])]
        x = M0 + math.sqrt(V0) * rng.standard_normal(p)
        q.append(x @ xi / (np.linalg.norm(x) * np.linalg.norm(xi)))
    sd = checks.initial_overlap_sd(M0, V0, ATOMS, p)
    assert np.mean(q) == pytest.approx(checks.initial_overlap(M0, V0, ATOMS), abs=4 * sd / 20)
    assert np.std(q, ddof=1) == pytest.approx(sd, rel=0.15)


# ---------------------------------------------------------------------------
# stationary self-consistency
# ---------------------------------------------------------------------------

def test_map_without_threshold_is_gaussian_mean():
    # beta = 0: P(x | xi) is Gaussian with mean tau omega q xi / c
    q, r = 0.4, 0.0
    c = TAU * OMEGA * q * q - r + 0.5 * TAU ** 2 * (1 + OMEGA * q * q)
    q_new, r_new = checks.self_consistency_map(q, r, TAU, OMEGA, 0.0, ATOMS)
    assert q_new == pytest.approx(TAU * OMEGA * q / c, rel=1e-10)
    assert r_new == 0.0


def test_map_matches_brute_force_grid():
    q, r = 0.6, 0.12
    d = 0.5 * TAU ** 2 * (1 + OMEGA * q * q)
    c = TAU * OMEGA * q * q - r + d
    x = np.linspace(-30, 40, 2_000_001)
    q_ref = r_ref = 0.0
    for xi, w in ATOMS:
        dens = np.exp(-(0.5 * c * x * x + BETA * np.abs(x) - TAU * OMEGA * q * xi * x) / d)
        dens /= np.trapezoid(dens, x)
        q_ref += w * xi * np.trapezoid(x * dens, x)
        r_ref += w * BETA * np.trapezoid(np.abs(x) * dens, x)
    q_new, r_new = checks.self_consistency_map(q, r, TAU, OMEGA, BETA, ATOMS)
    assert (q_new, r_new) == pytest.approx((q_ref, r_ref), abs=1e-9)


def test_stationary_solve_recovers_oja_plateau():
    q, r = checks.solve_stationary((0.7, 0.0), TAU, OMEGA, 0.0, ATOMS)
    assert q == pytest.approx(math.sqrt(0.6), abs=1e-10) and r == pytest.approx(0.0, abs=1e-12)


def test_residual_is_zero_only_at_a_stationary_overlap():
    q, _ = checks.solve_stationary((0.69, 0.159), TAU, 0.25, BETA, ATOMS)
    assert checks.self_consistency_residual(q, TAU, 0.25, BETA, ATOMS) <= 1e-9
    assert checks.self_consistency_residual(q + 1e-4, TAU, 0.25, BETA, ATOMS) > 1e-6


# ---------------------------------------------------------------------------
# Monte Carlo tables
# ---------------------------------------------------------------------------

SIM = {"replicas": 16, "record_times": [0.0, 0.5, 1.0], "x0_mean": M0, "x0_var": V0}
MODEL = {"rho": RHO, "p": 2000}


def write_simulation(tmp_path, q0_shift=0.0, q_shift=0.0, q_override=None):
    rng = np.random.default_rng(1)
    sd0 = checks.initial_overlap_sd(M0, V0, ATOMS, MODEL["p"])
    q0 = checks.initial_overlap(M0, V0, ATOMS) + q0_shift + sd0 * rng.standard_normal(16)
    rows = []
    for rep in range(16):
        for t in SIM["record_times"]:
            q = checks.oja_overlap(t, q0[rep], TAU, OMEGA) + 0.003 * t * rng.standard_normal()
            q = q + (q_shift if t > 0 else 0.0)
            rows.append((rep, t, q, 0.1))
    if q_override is not None:
        rows[0] = (0, 0.0, q_override, 0.1)
    write_csv(tmp_path / "trajectory.csv", ["replica", "t", "Q", "misclass"], rows)
    hist = [(rep, 0.5, 0.0, c, 0.5) for rep in range(16) for c in (0.5, 1.5)]
    write_csv(tmp_path / "histograms.csv",
              ["replica", "t", "xi_atom", "bin_center", "density"], hist)
    return tmp_path


def oja_check(outdir):
    return checks.check_simulate(outdir, MODEL, SIM, checks.oja_reference(TAU, OMEGA))


def test_simulation_check_accepts_oja_dynamics(tmp_path):
    verdict = oja_check(write_simulation(tmp_path))
    assert (verdict.attempted, verdict.failed, verdict.problems) == (16, 0, [])


def test_simulation_check_rejects_shifted_overlap(tmp_path):
    verdict = oja_check(write_simulation(tmp_path, q_shift=0.05))
    assert len(verdict.problems) == 2 and verdict.failed == 0


def test_simulation_check_rejects_shifted_start(tmp_path):
    verdict = oja_check(write_simulation(tmp_path, q0_shift=0.05))
    assert len(verdict.problems) == 1 and "initial overlap" in verdict.problems[0]


def test_simulation_check_fails_replica_out_of_range(tmp_path):
    verdict = oja_check(write_simulation(tmp_path, q_override=1.2))
    assert verdict.failed == 1


def test_simulation_check_fails_replica_with_excess_histogram_mass(tmp_path):
    write_simulation(tmp_path)
    hist = [(rep, 0.5, 0.0, c, 0.5 if rep else 0.6) for rep in range(16) for c in (0.5, 1.5)]
    write_csv(tmp_path / "histograms.csv",
              ["replica", "t", "xi_atom", "bin_center", "density"], hist)
    assert oja_check(tmp_path).failed == 1


def test_pde_band_uses_replica_spread():
    reference = checks.pde_reference([0.0, 0.5], [0.2, 0.3])
    q_ref, band = reference(0.5, None, np.array([0.29, 0.31]))
    assert q_ref == 0.3 and band == pytest.approx(3 * np.std([0.29, 0.31], ddof=1))


# ---------------------------------------------------------------------------
# PDE tables
# ---------------------------------------------------------------------------

def write_pde(tmp_path, times, scale=1.0, negative=False, q_end_shift=0.0):
    x = np.linspace(-6.0, 8.0, 901)[:-1] + 7.0 / 900
    dx = 14.0 / 900
    weights = dict(ATOMS)
    moments, dens_rows = [], []
    for t in times:
        q = 0.0
        for atom in weights:
            dens = np.exp(-0.5 * (x - 0.1 * atom * (1 + t)) ** 2)
            dens /= dens.sum() * dx
            q += weights[atom] * atom * float(dens @ x) * dx
            dens = dens * scale
            if negative and t == times[0]:
                dens[0] = -1e-6
            dens_rows.extend((t, atom, xv, dv) for xv, dv in zip(x, dens))
        moments.append((t, q + (q_end_shift if t == times[-1] else 0.0), 0.1))
    write_csv(tmp_path / "moments.csv", ["t", "Q", "R"], moments)
    write_csv(tmp_path / "densities.csv", ["t", "xi_atom", "x", "density"], dens_rows)
    return moments[-1][1]


def test_pde_check_accepts_conserved_densities(tmp_path):
    q_end = write_pde(tmp_path, [0.0, 1.0])
    verdict = checks.check_pde(tmp_path, MODEL, [0.0, 1.0], q_end + 1e-3)
    assert (verdict.attempted, verdict.failed, verdict.problems) == (2, 0, [])


def test_pde_check_rejects_lost_mass(tmp_path):
    q_end = write_pde(tmp_path, [0.0, 1.0], scale=0.99)
    assert checks.check_pde(tmp_path, MODEL, [0.0, 1.0], q_end).failed == 2


def test_pde_check_rejects_negative_density(tmp_path):
    q_end = write_pde(tmp_path, [0.0, 1.0], negative=True)
    assert checks.check_pde(tmp_path, MODEL, [0.0, 1.0], q_end).failed == 1


def test_pde_check_rejects_overlap_inconsistent_with_densities(tmp_path):
    q_end = write_pde(tmp_path, [0.0, 1.0], q_end_shift=1e-6)
    assert checks.check_pde(tmp_path, MODEL, [0.0, 1.0], q_end).failed == 1


def test_pde_check_rejects_gap_to_fixed_point(tmp_path):
    q_end = write_pde(tmp_path, [0.0, 1.0])
    verdict = checks.check_pde(tmp_path, MODEL, [0.0, 1.0], q_end + 0.01)
    assert verdict.failed == 0 and len(verdict.problems) == 1


# ---------------------------------------------------------------------------
# sweep tables
# ---------------------------------------------------------------------------

ALGO = {"tau": TAU, "threshold": "soft", "beta": BETA}


@pytest.fixture(scope="module")
def informative():
    return [checks.solve_stationary((0.69, 0.159), TAU, w, BETA, ATOMS)[0] for w in (0.25, 0.26)]


def write_sweep(tmp_path, rows):
    write_csv(tmp_path / "sweep.csv", ["omega", "Q_star", "converged", "branch", "distinct_Q"],
              [(w, q, conv, branch, "") for w, q, conv, branch in rows])
    return tmp_path


def test_sweep_check_counts_unconverged_points(tmp_path, informative):
    q1, q2 = informative
    rows = [(0.2, 2e-10, "false", "uninformative"), (0.21, 0.0, "true", "uninformative"),
            (0.25, q1, "true", "informative"), (0.26, q2, "true", "informative")]
    verdict = checks.check_sweep(write_sweep(tmp_path, rows), MODEL, ALGO)
    assert (verdict.attempted, verdict.failed, verdict.problems) == (4, 1, [])


def test_sweep_check_rejects_uninformative_point_with_overlap(tmp_path, informative):
    q1, q2 = informative
    rows = [(0.2, 0.01, "true", "uninformative"),
            (0.25, q1, "true", "informative"), (0.26, q2, "true", "informative")]
    verdict = checks.check_sweep(write_sweep(tmp_path, rows), MODEL, ALGO)
    assert len(verdict.problems) == 1 and "uninformative" in verdict.problems[0]


def test_sweep_check_fails_point_off_self_consistency(tmp_path, informative):
    q1, q2 = informative
    rows = [(0.25, q1 + 1e-4, "true", "informative"), (0.26, q2, "true", "informative")]
    verdict = checks.check_sweep(write_sweep(tmp_path, rows), MODEL, ALGO)
    assert verdict.failed == 1 and verdict.problems == []


def test_sweep_check_rejects_decreasing_overlap(tmp_path, informative):
    q1, q2 = informative
    rows = [(0.25, q2, "true", "informative"), (0.26, q1, "true", "informative")]
    verdict = checks.check_sweep(write_sweep(tmp_path, rows), MODEL, ALGO)
    assert verdict.failed == 2 and len(verdict.problems) == 1


# ---------------------------------------------------------------------------
# histograms against the PDE
# ---------------------------------------------------------------------------

def write_histograms(tmp_path, shift):
    """Replica histograms of N(0.7 + shift, 0.5) draws beside the unshifted PDE density."""
    rng = np.random.default_rng(2)
    edges = np.linspace(-2.0, 6.0, 81)
    centers = 0.5 * (edges[1:] + edges[:-1])
    x = np.linspace(-6.0, 8.0, 901)[:-1] + 7.0 / 900
    pde_density = np.exp(-(x - 0.7) ** 2) / math.sqrt(math.pi)
    hist_rows, dens_rows = [], []
    for atom, weight in ATOMS:
        dens_rows.extend((0.5, atom, xv, dv) for xv, dv in zip(x, pde_density))
        for rep in range(4):
            draws = 0.7 + shift + math.sqrt(0.5) * rng.standard_normal(int(1000 * weight))
            counts, _ = np.histogram(draws, bins=edges)
            density = counts / (counts.sum() * np.diff(edges))
            hist_rows.extend((rep, 0.5, atom, c, d) for c, d in zip(centers, density))
    write_csv(tmp_path / "histograms.csv",
              ["replica", "t", "xi_atom", "bin_center", "density"], hist_rows)
    write_csv(tmp_path / "densities.csv", ["t", "xi_atom", "x", "density"], dens_rows)
    verdict = checks.Verdict()
    checks.check_histograms(verdict, tmp_path, tmp_path, {"rho": RHO, "p": 1000},
                            {"replicas": 4, "histogram_times": [0.5]})
    return verdict


def test_histogram_check_accepts_draws_from_the_pde_density(tmp_path):
    assert write_histograms(tmp_path, 0.0).problems == []


def test_histogram_check_rejects_shifted_density(tmp_path):
    problems = write_histograms(tmp_path, 0.15).problems
    assert len(problems) == 1 and "xi=0.0000" in problems[0]
