"""Reference computations and output checks of the benchmark.

Everything here is coded from the model's formulas and touches no
`oistlab` code, so a fault in the program cannot hide in its own check:

- the logistic overlap of plain Oja and the initial overlap of the
  Gaussian start, with the start's CLT spread;
- the stationary self-consistency of the scaling limit, evaluated by
  quadrature of the Boltzmann density of the limit equations;
- readers and checks of the CLI's tables, one verdict per operation
  (an MC replica, a PDE record time, a sweep SNR point), and the
  comparisons of Monte Carlo output with the program's PDE that the
  acceptance suite makes (criteria 4 and 5).

A check returns a `Verdict`: the operations attempted, those that
failed, and the messages of every aggregate check that did not hold.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq, root

# Bands: a theoretical normal band of 5 sd is exceeded with probability
# 6e-7; bands estimated from the replicas' own spread use 6 standard
# errors, so that Student-t tails over a few dozen runs still stay below
# a percent of false alarms.
Z_THEORY = 5.0
Z_SAMPLE = 6.0
# criterion 5 of the acceptance suite uses 2 sd of the replicas; the
# benchmark runs fewer replicas, so it widens the band to 3 sd.
PDE_BAND_SD = 3.0
HIST_SLACK = 0.02
MASS_TOL = 1e-8
UNINFORMATIVE_Q = 1e-6
SELF_CONSISTENCY_TOL = 1e-7
PDE_VS_FIXED_POINT_TOL = 5e-3


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def op(self, ok: bool):
        self.attempted += 1
        self.failed += 0 if ok else 1

    def require(self, ok: bool, message: str):
        if not ok:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems


# ---------------------------------------------------------------------------
# priors and closed forms
# ---------------------------------------------------------------------------

def two_point_atoms(rho: float) -> list[tuple[float, float]]:
    """(value, weight) pairs of the prior (1 - rho) delta_0 + rho delta_{1/sqrt(rho)}."""
    return [(0.0, 1.0 - rho), (1.0 / math.sqrt(rho), rho)]


def _moment(atoms, k: int) -> float:
    return sum(w * v ** k for v, w in atoms)


def oja_overlap(t: float, q0: float, tau: float, omega: float) -> float:
    """Overlap of plain Oja at time t: the logistic solution of
    dq/dt = a2 q - a1 q^3 with a1 = tau omega (1 + tau/2), a2 = tau (omega - tau/2).
    """
    a1 = tau * omega * (1.0 + tau / 2.0)
    a2 = tau * (omega - tau / 2.0)
    if a2 == 0.0:
        q_sq = q0 * q0 / (1.0 + 2.0 * a1 * q0 * q0 * t)
    else:
        q_sq = a2 * q0 * q0 / (a1 * q0 * q0 + (a2 - a1 * q0 * q0) * math.exp(-2.0 * a2 * t))
    return math.copysign(math.sqrt(q_sq), q0)


def initial_overlap(m: float, v: float, atoms) -> float:
    """Limit of cos(x0, xi) for x0_i ~ N(m, v): m E[xi] / sqrt((m^2 + v) E[xi^2])."""
    return m * _moment(atoms, 1) / math.sqrt((m * m + v) * _moment(atoms, 2))


def initial_overlap_sd(m: float, v: float, atoms, p: int) -> float:
    """CLT standard deviation of cos(x0, xi) at dimension p (delta method).

    cos = A / sqrt(B C) with A, B, C the coordinate means of x xi, x^2
    and xi^2; its fluctuation is that of the mean of the linearised
    per-coordinate term L = gA x xi + gB x^2 + gC xi^2.
    """
    ex = [1.0, m, m * m + v, m ** 3 + 3 * m * v, m ** 4 + 6 * m * m * v + 3 * v * v]
    ez = [_moment(atoms, k) for k in range(5)]
    a, b, c = ex[1] * ez[1], ex[2], ez[2]
    g_a = 1.0 / math.sqrt(b * c)
    g_b = -a / (2.0 * b * math.sqrt(b * c))
    g_c = -a / (2.0 * c * math.sqrt(b * c))
    mean_l = g_a * a + g_b * b + g_c * c
    mean_l2 = (g_a ** 2 * ex[2] * ez[2] + g_b ** 2 * ex[4] + g_c ** 2 * ez[4]
               + 2 * g_a * g_b * ex[3] * ez[1] + 2 * g_a * g_c * ex[1] * ez[3]
               + 2 * g_b * g_c * ex[2] * ez[2])
    return math.sqrt(max(mean_l2 - mean_l ** 2, 0.0) / p)


# ---------------------------------------------------------------------------
# stationary self-consistency by quadrature
# ---------------------------------------------------------------------------

def self_consistency_map(q: float, r: float, tau: float, omega: float, beta: float,
                         atoms) -> tuple[float, float]:
    """(q, r) -> (E[x xi], E[x phi(x)]) under the stationary law of the limit PDE.

    Zero flux in dP/dt = -(gamma P)' + D P'' gives P(x | xi) ~ exp(-U / D) with
    D = tau^2 (1 + omega q^2)/2 and U = c x^2/2 + beta |x| - tau omega q xi x,
    c = tau omega q^2 - r + D. Each moment is integrated by adaptive
    quadrature over a window of 14 Gaussian widths around the mode.
    """
    d = 0.5 * tau * tau * (1.0 + omega * q * q)
    c = tau * omega * q * q - r + d
    if c <= 0.0:
        raise ValueError(f"no stationary law at q={q}, r={r}: curvature {c} <= 0")
    width = math.sqrt(d / c)
    q_new = r_new = 0.0
    for xi, w in atoms:
        a = tau * omega * q * xi
        mode = (a - beta) / c if a > beta else ((a + beta) / c if a < -beta else 0.0)

        def potential(x, a=a):
            return (0.5 * c * x * x + beta * abs(x) - a * x) / d

        u_min = potential(mode)
        lo, hi = min(mode, 0.0) - 14.0 * width, max(mode, 0.0) + 14.0 * width
        breaks = sorted({0.0, mode})

        def integral(weight, potential=potential, u_min=u_min):
            val, _ = quad(lambda x: weight(x) * math.exp(u_min - potential(x)), lo, hi,
                          points=breaks, epsabs=0.0, epsrel=1e-12, limit=200)
            return val

        z = integral(lambda x: 1.0)
        if xi != 0.0:
            q_new += w * xi * integral(lambda x: x) / z
        if beta > 0.0:
            r_new += w * beta * integral(abs) / z
    return q_new, r_new


def _r_ceiling(q: float, tau: float, omega: float) -> float:
    """Largest r with a normalisable stationary law at overlap q."""
    return tau * omega * q * q + 0.5 * tau * tau * (1.0 + omega * q * q)


def nullcline_roots(q: float, tau: float, omega: float, beta: float, atoms,
                    n_scan: int = 64) -> list[float]:
    """Every r with r = R'(q, r), by scan and bisection.

    R' >= 0, so roots lie in [0, r_ceiling); R' diverges at the ceiling.
    """
    if beta == 0.0:
        return [0.0]
    top = _r_ceiling(q, tau, omega)
    grid = np.linspace(0.0, top * (1.0 - 1e-3), n_scan + 1)

    def f(r):
        return self_consistency_map(q, r, tau, omega, beta, atoms)[1] - r

    values = [f(r) for r in grid]
    return [brentq(f, r0, r1, xtol=1e-14, rtol=1e-14)
            for r0, r1, f0, f1 in zip(grid, grid[1:], values, values[1:])
            if f0 * f1 < 0.0]


def self_consistency_residual(q: float, tau: float, omega: float, beta: float, atoms) -> float:
    """min over the r-nullcline at q of |Q'(q, r) - q|: zero iff q is a stationary overlap."""
    roots = nullcline_roots(q, tau, omega, beta, atoms)
    if not roots:
        return math.inf
    return min(abs(self_consistency_map(q, r, tau, omega, beta, atoms)[0] - q) for r in roots)


def solve_stationary(start: tuple[float, float], tau: float, omega: float, beta: float,
                     atoms) -> tuple[float, float]:
    """Stationary (q, r) near `start`, by a hybrid Powell solve of the quadrature map."""
    def residual(v):
        q_new, r_new = self_consistency_map(v[0], v[1], tau, omega, beta, atoms)
        return [q_new - v[0], r_new - v[1]]

    sol = root(residual, list(start), method="hybr", tol=1e-13)
    if not sol.success or max(abs(x) for x in residual(sol.x)) > 1e-10:
        raise ArithmeticError(f"stationary solve from {start} failed: {sol.message}")
    return float(sol.x[0]), float(sol.x[1])


# ---------------------------------------------------------------------------
# table readers
# ---------------------------------------------------------------------------

def read_table(path: Path) -> dict[str, list[str]]:
    """Columns of a CLI csv table, as strings."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def _floats(col) -> np.ndarray:
    return np.array([float(v) for v in col])


# ---------------------------------------------------------------------------
# workload checks
# ---------------------------------------------------------------------------

def check_simulate(outdir: Path, model: dict, sim: dict, reference=None) -> Verdict:
    """One operation per replica: ranges of Q, misclass and histogram mass.

    Aggregate checks: the mean Q(0) against the analytic initial overlap
    within its CLT band and, unless `reference` is None, the mean Q(t) at
    every later record time against `reference(t, q0, q_t) -> (q_ref,
    band)`, given the replicas' Q(0) and Q(t).
    """
    verdict = Verdict()
    traj = read_table(outdir / "trajectory.csv")
    replica = np.array([int(v) for v in traj["replica"]])
    times = _floats(traj["t"])
    q = _floats(traj["Q"])
    misclass = _floats(traj["misclass"])
    n_rep = int(sim["replicas"])
    n_times = len(sim["record_times"])

    hist_ok = np.ones(n_rep, dtype=bool)
    hist = read_table(outdir / "histograms.csv")
    if hist["replica"]:
        h_rep = np.array([int(v) for v in hist["replica"]])
        centers = _floats(hist["bin_center"])
        width = float(np.min(np.diff(np.unique(centers))))
        density = _floats(hist["density"])
        keys = {}
        for i, key in enumerate(zip(hist["replica"], hist["t"], hist["xi_atom"])):
            keys.setdefault(key, []).append(i)
        for key, idx in keys.items():
            mass = float(np.sum(density[idx])) * width
            if not (mass <= 1.0 + 1e-9 and np.all(density[idx] >= 0.0)):
                hist_ok[int(key[0])] = False
        verdict.require(set(h_rep.tolist()) == set(range(n_rep)),
                        "histograms.csv lacks some replicas")

    q_by_rep = np.full((n_rep, n_times), np.nan)
    for r in range(n_rep):
        rows = replica == r
        ok = int(rows.sum()) == n_times
        if ok:
            q_by_rep[r] = q[rows]
            ok = (bool(np.all(np.abs(q[rows]) <= 1.0))
                  and bool(np.all((misclass[rows] >= 0.0) & (misclass[rows] <= 1.0)))
                  and bool(np.allclose(times[rows], sim["record_times"], rtol=0, atol=1e-12)))
        verdict.op(ok and bool(hist_ok[r]))
    if np.isnan(q_by_rep).any():
        verdict.problems.append("trajectory.csv lacks some rows")
        return verdict

    atoms = two_point_atoms(model["rho"])
    q0_limit = initial_overlap(sim["x0_mean"], sim["x0_var"], atoms)
    q0_band = Z_THEORY * initial_overlap_sd(sim["x0_mean"], sim["x0_var"], atoms,
                                            model["p"]) / math.sqrt(n_rep)
    gap = abs(q_by_rep[:, 0].mean() - q0_limit)
    verdict.require(gap <= q0_band,
                    f"mean Q(0) {q_by_rep[:, 0].mean():.6f} is {gap:.2e} from the "
                    f"initial overlap {q0_limit:.6f} (band {q0_band:.2e})")

    if reference is not None:
        for j, t in enumerate(sim["record_times"][1:], start=1):
            q_ref, band = reference(t, q_by_rep[:, 0], q_by_rep[:, j])
            gap = abs(q_by_rep[:, j].mean() - q_ref)
            verdict.require(gap <= band,
                            f"t={t}: mean Q {q_by_rep[:, j].mean():.6f} is {gap:.2e} "
                            f"from the reference {q_ref:.6f} (band {band:.2e})")
    return verdict


def oja_reference(tau: float, omega: float):
    """Per-replica logistic prediction from each replica's own Q(0).

    Conditioning on Q(0) removes the spread the start passes on; the band
    is Z_SAMPLE standard errors of the replicas' gaps to their prediction.
    """
    def reference(t, q0, q_t):
        pred = np.array([oja_overlap(t, v, tau, omega) for v in q0])
        gaps = q_t - pred
        se = gaps.std(ddof=1) / math.sqrt(len(gaps))
        return float(q_t.mean() - gaps.mean()), Z_SAMPLE * se
    return reference


def pde_reference(pde_times, pde_q):
    """PDE overlap at the record times, with PDE_BAND_SD sd of the replicas as band."""
    by_time = {round(float(t), 9): float(v) for t, v in zip(pde_times, pde_q)}

    def reference(t, q0, q_t):
        return by_time[round(float(t), 9)], PDE_BAND_SD * float(q_t.std(ddof=1))
    return reference


def check_histograms(verdict: Verdict, outdir: Path, pde_dir: Path, model: dict, sim: dict):
    """Mean of the replicas' histograms against the PDE density, as in criterion 4.

    The PDE density of each atom is integrated over the histogram's bins.
    The L1 gap may reach twice its expected sampling error,
    sum_i sqrt(2 p_i (1 - p_i) / (pi N)) for N pooled coordinates on the
    atom, plus HIST_SLACK for the finite dimension.
    """
    hist = read_table(outdir / "histograms.csv")
    dens = read_table(pde_dir / "densities.csv")
    h_t, h_atom, h_c, h_d = (_floats(hist[k]) for k in ("t", "xi_atom", "bin_center", "density"))
    d_t, d_atom, d_x, d_v = (_floats(dens[k]) for k in ("t", "xi_atom", "x", "density"))
    for atom, weight in two_point_atoms(model["rho"]):
        for t in sim["histogram_times"]:
            sel = (np.abs(h_t - t) <= 1e-12) & np.isclose(h_atom, atom, rtol=1e-12, atol=0)
            centers = np.unique(h_c[sel])
            width = centers[1] - centers[0]
            mean_hist = h_d[sel].reshape(-1, len(centers)).mean(axis=0) * width
            psel = (np.abs(d_t - t) <= 1e-12) & np.isclose(d_atom, atom, rtol=1e-12, atol=0)
            x = d_x[psel]
            dx = x[1] - x[0]
            cum = np.concatenate([[0.0], np.cumsum(d_v[psel]) * dx])
            p_bins = np.clip(np.diff(np.interp(
                np.append(centers - width / 2, centers[-1] + width / 2),
                np.append(x - dx / 2, x[-1] + dx / 2), cum)), 0.0, 1.0)
            n = int(sim["replicas"]) * model["p"] * weight
            band = 2.0 * float(np.sum(np.sqrt(2 * p_bins * (1 - p_bins) / (math.pi * n))))
            gap = float(np.abs(mean_hist - p_bins).sum())
            verdict.require(gap <= band + HIST_SLACK,
                            f"t={t}, xi={atom:.4f}: histograms are {gap:.3f} in L1 from the "
                            f"PDE density (band {band + HIST_SLACK:.3f})")


def check_pde(outdir: Path, model: dict, record_times, q_star: float) -> Verdict:
    """One operation per record time: per-atom mass within MASS_TOL of 1,
    densities >= 0, and Q recomputed from the densities equal to the table's Q.
    Aggregate: Q at the last time within PDE_VS_FIXED_POINT_TOL of `q_star`.
    """
    verdict = Verdict()
    moments = read_table(outdir / "moments.csv")
    m_t = _floats(moments["t"])
    m_q = _floats(moments["Q"])
    dens = read_table(outdir / "densities.csv")
    d_t = _floats(dens["t"])
    d_atom = _floats(dens["xi_atom"])
    d_x = _floats(dens["x"])
    d_val = _floats(dens["density"])
    atom_keys = {round(v, 9): w for v, w in two_point_atoms(model["rho"])}

    for t in record_times:
        rows_m = np.nonzero(np.abs(m_t - t) <= 1e-12)[0]
        rows_d = np.abs(d_t - t) <= 1e-12
        ok = len(rows_m) == 1 and bool(rows_d.any())
        if ok:
            q_dens = 0.0
            for atom in np.unique(d_atom[rows_d]):
                sel = rows_d & (d_atom == atom)
                x = d_x[sel]
                dx = (x[-1] - x[0]) / (len(x) - 1)
                mass = float(d_val[sel].sum()) * dx
                ok = ok and abs(mass - 1.0) <= MASS_TOL and bool(np.all(d_val[sel] >= 0.0))
                q_dens += atom_keys.get(round(float(atom), 9), math.nan) * atom * float(
                    d_val[sel] @ x) * dx
            ok = ok and abs(q_dens - m_q[rows_m[0]]) <= 1e-9
        verdict.op(bool(ok))

    last = int(np.argmax(m_t))
    gap = abs(m_q[last] - q_star)
    verdict.require(gap <= PDE_VS_FIXED_POINT_TOL,
                    f"Q({m_t[last]}) = {m_q[last]:.6f} is {gap:.2e} from the stationary "
                    f"Q* = {q_star:.6f} (tolerance {PDE_VS_FIXED_POINT_TOL})")
    return verdict


def check_sweep(outdir: Path, model: dict, algorithm: dict) -> Verdict:
    """One operation per SNR point; it fails when unconverged or, when
    informative, when its Q* misses the quadrature self-consistency.

    Aggregate: every point below the first converged informative SNR,
    and every point labelled uninformative, reports Q <= 1e-6; from that
    SNR on, Q* does not decrease.
    """
    verdict = Verdict()
    table = read_table(outdir / "sweep.csv")
    omega = _floats(table["omega"])
    q = _floats(table["Q_star"])
    converged = [v == "true" for v in table["converged"]]
    branch = table["branch"]
    atoms = two_point_atoms(model["rho"])
    beta = algorithm["beta"] if algorithm["threshold"] == "soft" else 0.0

    first = next((i for i in range(len(q)) if converged[i] and branch[i] == "informative"),
                 len(q))
    for i in range(len(q)):
        ok = converged[i]
        if ok and branch[i] == "informative":
            res = self_consistency_residual(q[i], algorithm["tau"], omega[i], beta, atoms)
            ok = res <= SELF_CONSISTENCY_TOL
        verdict.op(ok)
        if i < first or branch[i] == "uninformative":
            verdict.require(abs(q[i]) <= UNINFORMATIVE_Q,
                            f"omega={omega[i]:.4f}: uninformative point reports Q={q[i]:.3e}")
    drops = np.nonzero(np.diff(q[first:]) < -1e-9)[0]
    verdict.require(drops.size == 0,
                    f"Q* decreases above the transition at omega={omega[first + drops[0]]:.4f}"
                    if drops.size else "")
    return verdict
