import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oistlab
from oistlab import cli, config as cfgmod, pde, steady
from oistlab.cli import Repeat, main, write_table

TINY = {
    "model": {"rho": 0.2, "p": 64, "omega": 1.0},
    "algorithm": {"tau": 0.5, "threshold": "soft", "beta": 0.27},
    "simulation": {
        "t_max": 0.5,
        "replicas": 2,
        "seed": 99,
        "record_times": [0.0, 0.25, 0.5],
        "histogram_times": [0.5],
    },
    "pde": {"n": 96, "t_max": 0.2, "record_times": [0.0, 0.2], "density_times": [0.2]},
    "steady": {"inits": [[0.0, None], [0.5, None]]},
    "sweep": {"omega_min": 0.3, "omega_max": 0.7, "n_points": 3},
}


def write_config(tmp_path, extra=None):
    cfg = json.loads(json.dumps(TINY))
    for section, values in (extra or {}).items():
        cfg.setdefault(section, {}).update(values)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--output", str(out)])
    return code, out


# The row-wise rendering the column-wise writer replaced: the oracle its
# bytes are checked against.
def stage_times(out):
    diagnostics = json.loads((out / "manifest.json").read_text())["diagnostics"]
    return diagnostics["solve_s"], diagnostics["write_s"]


def row_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def row_native(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return str(value)


def render_rows(header, rows, fmt):
    if fmt == "json":
        payload = [dict(zip(header, [row_native(v) for v in row])) for row in rows]
        return json.dumps(payload, indent=1) + "\n"
    lines = [",".join(header)]
    lines.extend(",".join(row_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def test_import_leaves_out_scipy_integrate():
    # only the quadrature oracle, which no command calls, needs it
    src = str(Path(oistlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = "import sys, oistlab.cli; print('scipy.integrate' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout.strip() == "False"


class TestWriteTable:
    COLUMNS = {
        "bool": [True, False, True],
        "np_bool": np.array([False, True, True]),
        "np_bool_scalars": [np.bool_(True), np.bool_(False), np.bool_(True)],
        "int": [0, -7, 2**40],
        "np_int64": np.array([3, -1, 12], dtype=np.int64),
        "np_int64_scalars": [np.int64(5), np.int64(-2), np.int64(0)],
        "float": [-0.0, 5e-324, 1e17],
        "float_special": [math.inf, math.nan, -math.inf],
        "np_float64": np.array([math.inf, -math.inf, math.nan]),
        "np_float64_scalars": [np.float64(0.1), np.float64(-0.0), np.float64(1e-300)],
        "str": ["uninformative", "informative", "0.5;0.25"],
        "mixed": [True, np.int64(2), np.float32(0.5)],
        "mixed_bool_int": [True, 1, np.float64(-0.0)],
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_matches_row_wise_rendering(self, tmp_path, fmt):
        header = list(self.COLUMNS)
        columns = list(self.COLUMNS.values())
        path = write_table(tmp_path / "table.csv", header, columns, fmt)
        assert path.name == f"table.{fmt}"
        expected = render_rows(header, list(zip(*columns)), fmt)
        assert path.read_text() == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_repeat_expands_row_major(self, tmp_path, fmt):
        times, atoms, cells = [0.0, 0.5], np.array([0.0, 4.47]), np.array([-1.0, -0.0, 2.5])
        dens = np.arange(12.0).reshape(2, 2, 3) / 7
        columns = [Repeat(times, each=6), Repeat(atoms, each=3, tile=2),
                   Repeat(cells, tile=4), dens.ravel()]
        rows = [(t, a, x, dens[i, j, k]) for i, t in enumerate(times)
                for j, a in enumerate(atoms) for k, x in enumerate(cells)]
        path = write_table(tmp_path / "table.csv", ["t", "a", "x", "d"], columns, fmt)
        assert path.read_text() == render_rows(["t", "a", "x", "d"], rows, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_table(self, tmp_path, fmt):
        path = write_table(tmp_path / "table.csv", ["t", "x"], [[], Repeat([1.0], tile=0)], fmt)
        assert path.read_text() == render_rows(["t", "x"], [], fmt)

    def test_json_ragged_and_columnless_tables(self, tmp_path):
        with pytest.raises(ValueError):
            write_table(tmp_path / "table.csv", ["t", "x"], [[0.0, 1.0], [2.0]], "json")
        path = write_table(tmp_path / "table.csv", [], [], "json")
        assert path.read_text() == render_rows([], [], "json")

    def test_ragged_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_table(tmp_path / "table.csv", ["t", "x"], [[0.0, 1.0], [2.0]], "csv")
        with pytest.raises(ValueError):
            write_table(tmp_path / "table.csv", ["t", "x"], [[0.0]], "csv")


FLOAT_CELLS = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]))
CELL_KINDS = {
    "float": (FLOAT_CELLS, [list, np.array, lambda vs: list(map(np.float64, vs))]),
    "int": (st.integers(-2**63, 2**63 - 1), [list, np.array, lambda vs: list(map(np.int64, vs))]),
    "bool": (st.booleans(), [list, np.array, lambda vs: list(map(np.bool_, vs))]),
    "str": (st.text(alphabet="ab%,;.-9 \u00e9", max_size=6), [list]),
    "mixed": (st.one_of(FLOAT_CELLS, st.integers(-9, 9), st.booleans()), [list]),
}


@st.composite
def tables(draw):
    """A header and columns of `len_outer * len_mid * len_inner` rows each,
    plain or `Repeat`ed over those three factors, of mixed cell kinds."""
    outer, mid, inner = (draw(st.integers(0, 4)) for _ in range(3))
    n_rows = outer * mid * inner
    shapes = [(n_rows, None), (n_rows, (1, 1)), (outer, (mid * inner, 1)),
              (mid, (inner, outer)), (inner, (1, outer * mid))]
    header = draw(st.lists(st.text(alphabet="tx%,_", min_size=1, max_size=3),
                           max_size=5, unique=True))
    columns = []
    for _ in header:
        cells, containers = CELL_KINDS[draw(st.sampled_from(sorted(CELL_KINDS)))]
        length, repeat = draw(st.sampled_from(shapes))
        values = draw(st.sampled_from(containers))(draw(st.lists(cells, min_size=length,
                                                                 max_size=length)))
        columns.append(values if repeat is None else Repeat(values, *repeat))
    return header, columns


def expand(column):
    if not isinstance(column, Repeat):
        return list(column)
    return [v for _ in range(column.tile) for v in column.values for _ in range(column.each)]


@settings(max_examples=300, deadline=None)
@given(table=tables(), fmt=st.sampled_from(["csv", "json"]))
def test_write_table_matches_row_wise_rendering(tmp_path_factory, table, fmt):
    header, columns = table
    path = write_table(tmp_path_factory.mktemp("table") / "table.csv", header, columns, fmt)
    rows = list(zip(*map(expand, columns)))
    assert path.read_text() == render_rows(header, rows, fmt)


class TestSimulateCommand:
    def test_writes_tables(self, tmp_path):
        code, out = run(tmp_path, "simulate", "--config", write_config(tmp_path))
        assert code == 0
        traj = (out / "trajectory.csv").read_text().splitlines()
        assert traj[0] == "replica,t,Q,misclass"
        assert len(traj) == 1 + 2 * 3  # replicas x record times
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "t,Q_mean,Q_std,n_replicas"
        assert (out / "histograms.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 99

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        _, out_a = run(tmp_path / "a", "simulate", "--config", cfg)
        _, out_b = run(tmp_path / "b", "simulate", "--config", cfg)
        for name in ("trajectory.csv", "histograms.csv", "summary.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_threads_do_not_change_output(self, tmp_path):
        cfg = write_config(tmp_path)
        _, out_a = run(tmp_path / "a", "simulate", "--config", cfg)
        _, out_b = run(tmp_path / "b", "simulate", "--config", cfg, "--threads", "2")
        for name in ("trajectory.csv", "histograms.csv", "summary.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_manifest_diagnostics(self, tmp_path):
        code, out = run(tmp_path, "simulate", "--config", write_config(tmp_path))
        assert code == 0
        diagnostics = json.loads((out / "manifest.json").read_text())["diagnostics"]
        assert diagnostics["replica_steps"] == 2 * 32  # replicas x floor(p * t_max)
        assert diagnostics["steps_per_s"] > 0
        assert all(diagnostics[key] >= 0 for key in ("draw_s", "update_s", "record_s"))

    def test_manifest_stage_times(self, tmp_path):
        code, out = run(tmp_path, "simulate", "--config", write_config(tmp_path))
        assert code == 0
        assert all(t >= 0.0 for t in stage_times(out))

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = write_config(tmp_path)
        _, out_a = run(tmp_path / "a", "simulate", "--config", cfg)
        _, out_b = run(tmp_path / "b", "simulate", "--config", cfg, "--seed", "100")
        assert (out_a / "trajectory.csv").read_bytes() != (out_b / "trajectory.csv").read_bytes()

    def test_json_format(self, tmp_path):
        code, out = run(tmp_path, "simulate", "--config", write_config(tmp_path),
                        "--format", "json")
        assert code == 0
        rows = json.loads((out / "trajectory.json").read_text())
        assert {"replica", "t", "Q", "misclass"} == set(rows[0])


class TestPdeCommand:
    def test_writes_tables(self, tmp_path):
        code, out = run(tmp_path, "pde", "--config", write_config(tmp_path))
        assert code == 0
        moments = (out / "moments.csv").read_text().splitlines()
        assert moments[0] == "t,Q,R"
        assert len(moments) == 3
        densities = (out / "densities.csv").read_text().splitlines()
        assert densities[0] == "t,xi_atom,x,density"

    def test_oversized_dt_keeps_mass_and_positivity(self, tmp_path):
        # the implicit step has no stability bound: one step of 0.2, far
        # past dx / max|drift|, keeps every atom's density a density
        cfg = write_config(tmp_path, {"pde": {"dt": 10.0, "n": 96,
                                              "t_max": 0.2,
                                              "record_times": [0.2],
                                              "density_times": [0.2]}})
        code, out = run(tmp_path, "pde", "--config", cfg)
        assert code == 0
        rows = np.loadtxt(out / "densities.csv", delimiter=",", skiprows=1)
        atoms = np.unique(rows[:, 1])
        assert len(atoms) == 2
        for atom in atoms:
            x, dens = rows[rows[:, 1] == atom, 2], rows[rows[:, 1] == atom, 3]
            dx = (x[-1] - x[0]) / (len(x) - 1)
            assert np.all(dens >= 0.0)
            assert abs(dens.sum() * dx - 1.0) <= 1e-8

    def test_manifest_diagnostics(self, tmp_path):
        code, out = run(tmp_path, "pde", "--config", write_config(tmp_path))
        assert code == 0
        diagnostics = json.loads((out / "manifest.json").read_text())["diagnostics"]
        assert diagnostics["n_steps"] >= 1
        assert 0.0 < diagnostics["dt_min"] <= diagnostics["dt_max"]
        assert 0.0 <= diagnostics["mass_error"] <= 1e-8
        assert diagnostics["solve_s"] >= 0.0
        assert diagnostics["write_s"] >= 0.0

    def test_manifest_step_counts(self, tmp_path):
        path = write_config(tmp_path)
        code, out = run(tmp_path, "pde", "--config", path)
        assert code == 0
        diagnostics = json.loads((out / "manifest.json").read_text())["diagnostics"]
        cfg = cfgmod.validate_config(cfgmod.load_config(path))
        prior = cfgmod.build_discrete_prior(cfg)
        solution = pde.solve(cfgmod.build_pde_config(cfg, prior), prior,
                             cfg["pde"]["record_times"],
                             x0_mean=cfg["simulation"]["x0_mean"],
                             x0_var=cfg["simulation"]["x0_var"])
        for key in ("n_steps", "n_rejected", "n_first_order"):
            assert diagnostics[key] == getattr(solution, key)
        assert 0 <= diagnostics["n_first_order"] <= diagnostics["n_steps"]

    def test_densities_match_solver_snapshots(self, tmp_path):
        path = write_config(tmp_path)
        code, out = run(tmp_path, "pde", "--config", path)
        assert code == 0
        cfg = cfgmod.validate_config(cfgmod.load_config(path))
        prior = cfgmod.build_discrete_prior(cfg)
        times = cfg["pde"]["density_times"]
        solution = pde.solve(cfgmod.build_pde_config(cfg, prior), prior,
                             sorted(set(times) | set(cfg["pde"]["record_times"])),
                             x0_mean=cfg["simulation"]["x0_mean"],
                             x0_var=cfg["simulation"]["x0_var"])
        by_time = dict(zip(solution.times.tolist(), solution.snapshots))
        rows = [(t, atom, x, d) for t in times
                for atom, dens in zip(by_time[t].atoms, by_time[t].densities)
                for x, d in zip(by_time[t].grid.centers, dens)]
        assert len(rows) == 2 * 96
        expected = render_rows(["t", "xi_atom", "x", "density"], rows, "csv")
        assert (out / "densities.csv").read_text() == expected

    def test_determinism(self, tmp_path):
        cfg = write_config(tmp_path)
        _, out_a = run(tmp_path / "a", "pde", "--config", cfg)
        _, out_b = run(tmp_path / "b", "pde", "--config", cfg)
        assert (out_a / "moments.csv").read_bytes() == (out_b / "moments.csv").read_bytes()
        assert (out_a / "densities.csv").read_bytes() == (out_b / "densities.csv").read_bytes()

    def test_zero_initial_overlap_rejected(self, tmp_path, capsys):
        # symmetric prior forces a vanishing starting overlap
        cfg = write_config(tmp_path, {"model": {"prior": "signed_two_point"}})
        code, _ = run(tmp_path, "pde", "--config", cfg)
        assert code == 2
        assert "overlap" in capsys.readouterr().err


class TestOjaTheoryCommand:
    def test_writes_curve(self, tmp_path):
        code, out = run(tmp_path, "oja-theory", "--config", write_config(tmp_path))
        assert code == 0
        lines = (out / "oja_theory.csv").read_text().splitlines()
        assert lines[0] == "t,Q"
        assert len(lines) == 4

    def test_plateau_value(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"rho": 0.05, "p": 64},
            "algorithm": {"threshold": "none", "beta": 0.0},
            "simulation": {"t_max": 200.0, "record_times": [0.0, 100.0, 200.0],
                           "histogram_times": [], "replicas": 1, "seed": 1},
        })
        code, out = run(tmp_path, "oja-theory", "--config", cfg)
        assert code == 0
        rows = (out / "oja_theory.csv").read_text().splitlines()[1:]
        values = [float(r.split(",")[1]) for r in rows]
        assert values[0] == pytest.approx(math.sqrt(0.05 / 2.0), abs=1e-9)
        assert values[-1] == pytest.approx(math.sqrt(0.6), abs=1e-5)
        assert values == sorted(values)

    def test_zero_overlap_rejected(self, tmp_path):
        code, _ = run(tmp_path, "oja-theory", "--config", write_config(tmp_path),
                      "--q0", "0.0")
        assert code == 2

    def test_manifest_stage_times(self, tmp_path):
        code, out = run(tmp_path, "oja-theory", "--config", write_config(tmp_path))
        assert code == 0
        assert all(t >= 0.0 for t in stage_times(out))


class TestSteadyCommand:
    def test_branches_reported(self, tmp_path):
        code, out = run(tmp_path, "steady", "--config", write_config(tmp_path))
        assert code == 0
        lines = (out / "fixed_point.csv").read_text().splitlines()
        assert lines[0] == "init_Q,init_R,Q,R,residual,branch,converged,iterations"
        branches = [line.split(",")[5] for line in lines[1:]]
        assert "uninformative" in branches

    def test_manifest_diagnostics(self, tmp_path):
        # one Newton step per attempt leaves at least one init unconverged
        cfg = write_config(tmp_path, {"steady": {"inits": [[0.0, None], [0.5, None]],
                                                 "max_iter": 1}})
        code, out = run(tmp_path, "steady", "--config", cfg)
        assert code == 0
        rows = [line.split(",") for line in
                (out / "fixed_point.csv").read_text().splitlines()[1:]]
        diagnostics = json.loads((out / "manifest.json").read_text())["diagnostics"]
        assert diagnostics["iterations"] == [int(row[7]) for row in rows]
        assert diagnostics["max_residual"] == max(float(row[4]) for row in rows)
        assert diagnostics["unconverged"] == sum(row[6] == "false" for row in rows)
        assert diagnostics["unconverged"] >= 1

    def test_manifest_stage_times(self, tmp_path):
        code, out = run(tmp_path, "steady", "--config", write_config(tmp_path), "--density")
        assert code == 0
        assert all(t >= 0.0 for t in stage_times(out))

    def test_low_snr_density_is_laplace(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"rho": 0.05, "omega": 0.15, "p": 64},
            "steady": {"inits": [[0.0, None], [0.5, None], [0.9, None]]},
        })
        code, out = run(tmp_path, "steady", "--config", cfg, "--density")
        assert code == 0
        rows = (out / "fixed_point.csv").read_text().splitlines()[1:]
        assert all(r.split(",")[5] == "uninformative" for r in rows)
        dens_rows = (out / "steady_density.csv").read_text().splitlines()[1:]
        tau, beta = 0.5, 0.27
        for row in dens_rows:
            _, x, d = (float(v) for v in row.split(","))
            expected = beta / tau ** 2 * math.exp(-2 * beta / tau ** 2 * abs(x))
            assert d == pytest.approx(expected, abs=1e-12)

    def test_low_snr_density_without_threshold(self, tmp_path):
        # plain Oja below the transition: the zero-overlap law is a Gaussian
        cfg = write_config(tmp_path, {
            "model": {"rho": 0.05, "omega": 0.15, "p": 64},
            "algorithm": {"threshold": "none"},
        })
        code, out = run(tmp_path, "steady", "--config", cfg, "--density")
        assert code == 0
        rows = np.loadtxt(out / "steady_density.csv", delimiter=",", skiprows=1)
        for atom in np.unique(rows[:, 0]):
            x, d = rows[rows[:, 0] == atom, 1:].T
            assert np.sum(d) * (x[1] - x[0]) == pytest.approx(1.0, abs=1e-6)


def run_steady_rows(tmp_path, config):
    """`oistlab steady` on the defaults updated by `config`; its fixed_point.csv rows."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out = run(tmp_path, "steady", "--config", str(path))
    assert code == 0
    return [line.split(",") for line in (out / "fixed_point.csv").read_text().splitlines()[1:]]


class TestSteadySearch:
    """`oistlab steady` runs Newton from each init, and the sweep's trace where it fails."""

    def test_h_floor_is_the_exact_uninformative_root(self, tmp_path):
        # init 0 is the exact zero root on the h floor; the other inits
        # reach the attracting informative root (both attract at 0.2325)
        rows = run_steady_rows(tmp_path, {"model": {"omega": 0.2325}})
        assert len(rows) == 4
        assert rows[0] == ["0", "0.0625", "0", "0.125", "0", "uninformative", "true", "0"]
        for row in rows[1:]:
            assert float(row[2]) == pytest.approx(0.660330, abs=1e-6), row
            assert row[5:7] == ["informative", "true"] and float(row[4]) <= 1e-7

    def test_plain_oja_below_transition_is_exactly_zero(self, tmp_path):
        rows = run_steady_rows(tmp_path, {"model": {"omega": 0.15},
                                          "algorithm": {"threshold": "none"}})
        assert all(row[2:] == ["0", "0", "0", "uninformative", "true", "0"]
                   for row in rows), rows

    def test_root_on_the_side_of_the_init(self, tmp_path):
        # q = 0 is invariant, so no init reports a root across it; at 0.2 and
        # -0.2 Newton fails, and the traced root is mirrored for the negative init
        rows = run_steady_rows(tmp_path, {"steady": {"inits": [[0.2, None], [-0.2, None],
                                                               [0.5, None], [-0.5, None]]}})
        assert [row[6] for row in rows] == ["true"] * 4
        q = [float(row[2]) for row in rows]
        assert q[0] == -q[1] and q[2] == -q[3]
        assert q[0] == pytest.approx(0.853864, abs=1e-6) and q[2] == pytest.approx(q[0], abs=1e-6)

    @pytest.mark.parametrize("omega", [0.26, 0.2325, 1.0])
    def test_agrees_with_one_point_sweep(self, tmp_path, omega):
        cfg = cfgmod.load_config(None)
        cfg["model"]["omega"] = omega
        sw = cfg["sweep"]
        rows = run_steady_rows(tmp_path, {
            "model": {"omega": omega},
            "steady": {"inits": [[q0, None] for q0 in sw["starts"]],
                       "tol": sw["tol"], "max_iter": sw["max_iter"]}})
        result = steady.sweep_omega(cfgmod.build_steady_config(cfg),
                                    cfgmod.build_discrete_prior(cfg), [omega],
                                    starts=tuple(sw["starts"]), tol=sw["tol"],
                                    max_iter=sw["max_iter"])
        (point,) = result.points
        assert point.converged and point.branch == "informative"
        for row in rows:
            assert row[5:7] == ["informative", "true"], row
            assert abs(float(row[2])) == pytest.approx(point.q_star, abs=10.0 * sw["tol"])

    def test_newton_failure_reports_the_traced_root(self, tmp_path, monkeypatch):
        # an init_R above the h cap is projected onto the h floor, inside
        # Newton's margin, so Newton fails there and the row is the sweep's root
        cfg = cfgmod.load_config(None)
        cfg["model"]["omega"] = 0.2325
        sw = cfg["sweep"]
        (point,) = steady.sweep_omega(cfgmod.build_steady_config(cfg),
                                      cfgmod.build_discrete_prior(cfg), [0.2325],
                                      starts=tuple(sw["starts"]), tol=sw["tol"]).points
        traces = []
        trace = steady._Newton.trace
        monkeypatch.setattr(steady._Newton, "trace",
                            lambda *args: traces.append(args) or trace(*args))
        rows = run_steady_rows(tmp_path, {"model": {"omega": 0.2325},
                                          "steady": {"inits": [[0.5, 5.0], [0.9, 5.0]]}})
        assert len(traces) == 1
        assert all(float(row[2]).hex() == point.q_star.hex() for row in rows), rows


class TestSweepCommand:
    def test_writes_curve(self, tmp_path):
        code, out = run(tmp_path, "sweep", "--config", write_config(tmp_path))
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "omega,Q_star,converged,branch,distinct_Q"
        assert len(lines) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert "omega_c" in manifest

    def test_default_sweep(self, tmp_path):
        code, out = run(tmp_path, "sweep")
        assert code == 0
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert len(rows) == 40
        for row in rows:
            values = sorted(float(v) for v in row[4].split(";"))
            assert all(b - a > 10 * 1e-7 for a, b in zip(values, values[1:])), row
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["omega_c"] == pytest.approx(0.05 + 7 * 0.95 / 39)
        diagnostics = manifest["diagnostics"]
        assert diagnostics["uninformative_points"] == 7
        assert diagnostics["unconverged_points"] == 0
        assert diagnostics["max_residual"] <= 1e-7
        assert 0 < diagnostics["newton_iterations"] < diagnostics["map_calls"]
        assert len(diagnostics["branch_ends"]) == 1

    def test_plain_oja_default_grid_converges_everywhere(self, tmp_path):
        # just below tau/2 = 0.25 the zero root attracts, and is reported exactly
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"algorithm": {"threshold": "none"}}))
        code, out = run(tmp_path, "sweep", "--config", str(path))
        assert code == 0
        diagnostics = json.loads((out / "manifest.json").read_text())["diagnostics"]
        assert diagnostics["unconverged_points"] == 0
        assert diagnostics["omega_spinodal"] == 0.25
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        (row,) = [row for row in rows if row[0].startswith("0.2448")]
        assert row[1:] == ["0", "true", "uninformative", "0"]

    def test_parallel_matches_serial(self, tmp_path):
        cfg = write_config(tmp_path)
        _, out_a = run(tmp_path / "a", "sweep", "--config", cfg)
        _, out_b = run(tmp_path / "b", "sweep", "--config", cfg, "--threads", "2")
        assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()

    def test_manifest_stage_times(self, tmp_path):
        code, out = run(tmp_path, "sweep", "--config", write_config(tmp_path))
        assert code == 0
        assert all(t >= 0.0 for t in stage_times(out))


class TestValidation:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"modle": {"rho": 0.5}}))
        code, _ = run(tmp_path, "simulate", "--config", str(path))
        assert code == 2

    def test_field_error_message(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": {"rho": 1.5}}))
        code, _ = run(tmp_path, "simulate", "--config", str(path))
        assert code == 2
        assert "model.rho" in capsys.readouterr().err

    @pytest.mark.parametrize("config, field", [
        ({"steady": {"inits": [[0.5]]}}, "steady.inits"),
        ({"simulation": {"histogram_range": [1.0]}}, "simulation.histogram_range"),
        ({"model": {"prior": "discrete", "atoms": [[1.0]]}}, "model.atoms"),
        ({"model": {"rho": "0.05"}}, "model.rho"),
        ({"model": 5}, "model"),
    ])
    def test_malformed_value_rejected(self, tmp_path, capsys, config, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        code, _ = run(tmp_path, "steady", "--config", str(path))
        assert code == 2
        assert f"configuration error: {field}: " in capsys.readouterr().err

    def test_removed_steady_damping_rejected(self, tmp_path, capsys):
        # steady runs the sweep's search, which has no damping knob
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"steady": {"damping": 0.5}}))
        code, out = run(tmp_path, "steady", "--config", str(path))
        assert code == 2
        assert "unknown config key: steady.damping" in capsys.readouterr().err
        assert not out.exists()
        # sweep.damping, unused too, is still accepted
        cfg = write_config(tmp_path, {"sweep": {"damping": 0.5}})
        code, _ = run(tmp_path, "sweep", "--config", cfg)
        assert code == 0

    def test_discrete_prior_checked_with_field_path(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"model": {"prior": "discrete", "atoms": [[0, 0.5], [1.41421356, 0.5]]}}))
        code, out = run(tmp_path, "simulate", "--config", str(path))
        assert code == 2
        assert "configuration error: model.atoms: prior second moment" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = run(tmp_path, "simulate", "--config", str(path))
        assert code == 2

    def test_float_serialization_digits(self, tmp_path):
        code, out = run(tmp_path, "oja-theory", "--config", write_config(tmp_path))
        assert code == 0
        value = (out / "oja_theory.csv").read_text().splitlines()[1].split(",")[1]
        # round-trips through 17 significant digits exactly
        assert format(float(value), ".17g") == value
