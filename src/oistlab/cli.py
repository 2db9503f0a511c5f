"""Command-line entry point.

Subcommands: simulate | pde | oja-theory | steady | sweep. Every run
resolves its configuration (defaults < config file < flags), validates
it up front, writes plot-ready CSV (or JSON) tables plus a manifest
with the resolved config, and is a pure function of (config, seed):
identical invocations produce byte-identical table bodies. Exit codes:
0 success, 2 configuration error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from itertools import chain, islice, repeat
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import __version__, config as cfgmod, pde as pdemod
from .errors import ConfigError, NumericError
from .nonlinearity import Dynamics
from .oja import closed_form_q
from .simulate import run_trajectory
from .steady import SteadyDensity, default_r_init, roots_from_inits, sweep_omega


def _cell(value, fmt: str) -> str:
    """The text of one cell, for the value as a plain bool, int, float or str.

    JSON cells are what `json.dumps` writes (nan and +-inf as NaN and
    Infinity). CSV cells are `true`/`false`, the int, the float to 17
    significant digits, or the text.
    """
    if isinstance(value, (bool, np.bool_)):
        value = bool(value)
    elif isinstance(value, (int, np.integer)):
        value = int(value)
    elif isinstance(value, (float, np.floating)):
        value = float(value)
    else:
        value = str(value)
    if fmt == "json" or isinstance(value, int):  # bools and ints read the same in both
        return json.dumps(value)
    return format(value, ".17g") if isinstance(value, float) else value


class Repeat(NamedTuple):
    """A column of `values`, each repeated `each` times in turn, the whole run `tile` times.

    Its distinct values are formatted once.
    """

    values: Sequence
    each: int = 1
    tile: int = 1


_BLOCK_ROWS = 4096


def _row_count(columns: list) -> int:
    lengths = [len(col.values) * col.each * col.tile if isinstance(col, Repeat) else len(col)
               for col in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns of unequal lengths {lengths}")
    return lengths[0] if lengths else 0


def _cells(column, fmt: str):
    """An iterator over the text of a column's cells, in row order.

    A `Repeat` formats each distinct value once. A plain column of floats
    (CSV: float or np.float64; JSON: float, with a finite sum so that no
    nan or +-inf needs json's constants) is formatted `_BLOCK_ROWS` values
    per `%`: "%.17g" % v equals format(float(v), ".17g") and "%r" % v
    equals float.__repr__(v). Every other cell goes through `_cell`.
    """
    values = column.values if isinstance(column, Repeat) else column
    if isinstance(values, np.ndarray):
        values = values.tolist()
    if isinstance(column, Repeat):
        cells = [_cell(value, fmt) for value in values]
        if column.each != 1:
            cells = list(chain.from_iterable(map(repeat, cells, repeat(column.each))))
        return chain.from_iterable(repeat(cells, column.tile))
    kinds, spec = ({float, np.float64}, "%.17g\0") if fmt == "csv" else ({float}, "%r\0")
    # a finite sum rules out nan and +-inf; an overflowing one only costs speed
    if not (set(map(type, values)) <= kinds and (fmt == "csv" or math.isfinite(sum(values)))):
        return map(_cell, values, repeat(fmt))
    blocks = (values[start:start + _BLOCK_ROWS] for start in range(0, len(values), _BLOCK_ROWS))
    return chain.from_iterable((spec * len(block) % tuple(block)).split("\0")[:-1]
                               for block in blocks)


def write_table(path: Path, header: list[str], columns: list, fmt: str) -> Path:
    """Write a table given one sequence (or `Repeat`) of values per header column.

    Each column yields its cell text (`_cells`), and the rows are joined
    from those cells and written `_BLOCK_ROWS` at a time, so no table is
    held whole. CSV rows are the cells joined by ",". JSON has the bytes
    of `json.dumps` with `indent=1` over one dict per row, and a newline.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} column names for {len(columns)} columns")
    n_rows = _row_count(columns)
    cells = [_cells(column, fmt) for column in columns]
    if fmt == "json":
        path = path.with_suffix(".json")
        leads = [(",\n  " if j else ",\n {\n  ") + json.dumps(name) + ": "
                 for j, name in enumerate(header)]
        head, foot = ("[", "\n]\n") if n_rows else ("[]\n", "")

        def render(block):  # each row opens with the "," after the row before it
            pieces = chain.from_iterable(zip(map(repeat, leads), block))
            return "".join(map("".join, zip(*pieces, repeat("\n }"))))
    else:
        head, foot = ",".join(header) + "\n", ""

        def render(block):
            return "\n".join(map(",".join, zip(*block))) + "\n"
    with path.open("w") as out:
        out.write(head)
        for start in range(0, n_rows, _BLOCK_ROWS):
            text = render([islice(column, _BLOCK_ROWS) for column in cells])
            out.write(text[1:] if fmt == "json" and not start else text)
        out.write(foot)
    return path


def write_manifest(outdir: Path, command: str, cfg: dict, started: float, extras: dict) -> Path:
    manifest = {
        "command": command,
        "config": cfg,
        "seed": cfg["simulation"]["seed"],
        "version": __version__,
        "wall_time_s": time.perf_counter() - started,
        **extras,
    }
    path = outdir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n")
    return path


def _with_stage_times(diagnostics: dict, started: float, solved: float) -> dict:
    """Add the wall seconds of the solve (started to solved) and of the
    table assembly and writing since (`solve_s`, `write_s`)."""
    diagnostics["solve_s"] = solved - started
    diagnostics["write_s"] = time.perf_counter() - solved
    return diagnostics


def cmd_simulate(cfg: dict, outdir: Path, fmt: str, threads: int) -> tuple[list[Path], dict]:
    sim = cfg["simulation"]
    record_times, histogram_times = cfgmod.resolve_times(cfg, "simulation", "record_times",
                                                         "histogram_times")
    started = time.perf_counter()
    run = run_trajectory(
        prior=cfgmod.build_prior(cfg),
        dynamics=cfgmod.build_dynamics(cfg),
        p=int(cfg["model"]["p"]),
        seed=int(sim["seed"]),
        record_times=record_times,
        replicas=int(sim["replicas"]),
        x0_spec=(float(sim["x0_mean"]), float(sim["x0_var"])),
        histogram_times=histogram_times,
        bin_edges=cfgmod.resolve_bin_edges(cfg),
        theta=cfgmod.resolve_theta(cfg),
        n_workers=threads,
    )
    solved = time.perf_counter()

    n_rep, n_times = run.q_values.shape
    traj_cols = [Repeat(range(n_rep), each=n_times), Repeat(run.times, tile=n_rep),
                 run.q_values.ravel(), run.misclass.ravel()]
    # one block per (replica, time, atom) with an occupant, in that order
    totals = run.histogram_counts.sum(axis=3)
    replica, t_idx, atom_idx = np.nonzero(totals)
    edges = run.bin_edges
    n_bins = len(edges) - 1
    density = run.histogram_counts[replica, t_idx, atom_idx] / (
        totals[replica, t_idx, atom_idx][:, None] * np.diff(edges))
    hist_cols = [Repeat(replica, each=n_bins), Repeat(run.histogram_times[t_idx], each=n_bins),
                 Repeat(run.atoms[atom_idx], each=n_bins),
                 Repeat(0.5 * (edges[:-1] + edges[1:]), tile=len(replica)), density.ravel()]
    q_std = run.q_values.std(axis=0, ddof=1) if n_rep > 1 else np.zeros(n_times)
    summary_cols = [run.times, run.q_values.mean(axis=0), q_std, [n_rep] * n_times]
    files = [
        write_table(outdir / "trajectory.csv", ["replica", "t", "Q", "misclass"], traj_cols, fmt),
        write_table(outdir / "histograms.csv",
                    ["replica", "t", "xi_atom", "bin_center", "density"], hist_cols, fmt),
        write_table(outdir / "summary.csv", ["t", "Q_mean", "Q_std", "n_replicas"],
                    summary_cols, fmt),
    ]
    diagnostics = {key: getattr(run, key) for key in (
        "replica_steps", "steps_per_s", "draw_s", "update_s", "record_s")}
    return files, {"diagnostics": _with_stage_times(diagnostics, started, solved)}


def cmd_pde(cfg: dict, outdir: Path, fmt: str) -> tuple[list[Path], dict]:
    prior = cfgmod.build_discrete_prior(cfg)
    dynamics = cfgmod.build_dynamics(cfg)
    sim = cfg["simulation"]
    moment_times, density_times = cfgmod.resolve_times(cfg, "pde", "record_times",
                                                       "density_times")
    all_times = sorted(set(moment_times) | set(density_times))
    grid = cfgmod.build_grid(cfg, prior)
    started = time.perf_counter()
    start = pdemod.initial_density(float(sim["x0_mean"]), float(sim["x0_var"]), grid, prior,
                                   dynamics.beta)
    solution = pdemod.solve(dynamics, start, all_times, cfg["pde"]["dt"])
    solved = time.perf_counter()

    # every table time is one of the distinct solved times, so searchsorted finds its row
    moment_rows = np.searchsorted(solution.times, moment_times)
    density_rows = np.searchsorted(solution.times, density_times)
    atoms, centers = solution.atoms, solution.grid.centers
    density_cols = [
        Repeat(density_times, each=len(atoms) * len(centers)),
        Repeat(atoms, each=len(centers), tile=len(density_times)),
        Repeat(centers, tile=len(density_times) * len(atoms)),
        solution.densities[density_rows].ravel(),
    ]
    files = [
        write_table(outdir / "moments.csv", ["t", "Q", "R"],
                    [moment_times, solution.q_values[moment_rows],
                     solution.r_values[moment_rows]], fmt),
        write_table(outdir / "densities.csv", ["t", "xi_atom", "x", "density"],
                    density_cols, fmt),
    ]
    diagnostics = {key: getattr(solution, key) for key in (
        "n_steps", "n_rejected", "n_first_order", "dt_min", "dt_max", "mass_error")}
    # health over the record times: E[x^2] of the atom mixture stays 1 in a
    # sound run, and mass in an outermost cell means the grid holds too little
    dx, densities = solution.grid.dx, solution.densities
    second_moments = densities @ (centers * centers) * dx @ start.weights
    diagnostics["norm_error"] = float(np.max(np.abs(second_moments - 1.0)))
    diagnostics["edge_mass"] = float(densities[:, :, [0, -1]].max() * dx)
    return files, {"diagnostics": _with_stage_times(diagnostics, started, solved)}


def cmd_oja_theory(cfg: dict, outdir: Path, fmt: str,
                   q0_override: float | None) -> tuple[list[Path], dict]:
    configured = cfgmod.build_dynamics(cfg)
    # the closed form is plain Oja's, whatever the configured shrinkage
    model = Dynamics(configured.tau, configured.omega, 0.0)
    if q0_override is not None and not 0.0 < abs(q0_override) <= 1.0:
        raise ConfigError("--q0 must be a finite nonzero overlap in [-1, 1]")
    q0 = cfgmod.initial_overlap(cfg) if q0_override is None else q0_override
    if q0 == 0.0:
        raise ConfigError(
            "initial overlap q0 is zero for this configuration; the overlap "
            "dynamics are only defined for a nonzero starting overlap"
        )
    (times,) = cfgmod.resolve_times(cfg, "simulation", "record_times")
    started = time.perf_counter()
    q_values = [closed_form_q(t, q0, model) for t in times]
    solved = time.perf_counter()
    files = [write_table(outdir / "oja_theory.csv", ["t", "Q"], [times, q_values], fmt)]
    if configured.beta:
        print(f"oja-theory: the closed form is plain Oja's, so {files[0].name} leaves out "
              f"the configured beta = {configured.beta!r}", file=sys.stderr)
    return files, {"diagnostics": _with_stage_times({"beta": model.beta}, started, solved)}


def _note_unconverged(path: Path, count: int, total: int) -> None:
    """Name a table's unconverged rows on stderr; the table keeps them."""
    if count:
        print(f"{count} of {total} rows of {path.name} are unconverged", file=sys.stderr)


def _selected_fixed_point(results):
    converged = [r for r in results if r.converged]
    pool = converged or results
    return max(pool, key=lambda r: abs(r.q))


def cmd_steady(cfg: dict, outdir: Path, fmt: str,
               with_density: bool) -> tuple[list[Path], dict]:
    prior = cfgmod.build_discrete_prior(cfg)
    dynamics = cfgmod.build_dynamics(cfg)
    st = cfg["steady"]
    inits = [(float(q0), default_r_init(float(q0), dynamics) if r0 is None else float(r0))
             for q0, r0 in st["inits"]]
    started = time.perf_counter()
    results = roots_from_inits(dynamics, prior, inits,
                               starts=tuple(float(v) for v in cfg["sweep"]["starts"]),
                               tol=float(st["tol"]), max_iter=int(st["max_iter"]))
    solved = time.perf_counter()
    fields = ("q", "r", "residual", "branch", "converged", "iterations")
    columns = [*zip(*inits), *([getattr(fp, key) for fp in results] for key in fields)]
    files = [
        write_table(outdir / "fixed_point.csv",
                    ["init_Q", "init_R", "Q", "R", "residual", "branch", "converged", "iterations"],
                    columns, fmt)
    ]
    diagnostics = {
        "iterations": [fp.iterations for fp in results],
        "max_residual": max(fp.residual for fp in results),
        "unconverged": sum(not fp.converged for fp in results),
    }
    _note_unconverged(files[0], diagnostics["unconverged"], len(results))
    if with_density:
        fp = _selected_fixed_point(results)
        centers = cfgmod.build_grid(cfg, prior).centers
        atoms = prior.atom_values
        density = [d for atom in atoms
                   for d in SteadyDensity(atom, fp.q, fp.r, dynamics)(centers).tolist()]
        files.append(write_table(
            outdir / "steady_density.csv", ["xi_atom", "x", "density"],
            [Repeat(atoms, each=len(centers)), Repeat(centers, tile=len(atoms)), density], fmt))
    return files, {"diagnostics": _with_stage_times(diagnostics, started, solved)}


def cmd_sweep(cfg: dict, outdir: Path, fmt: str) -> tuple[list[Path], dict]:
    prior = cfgmod.build_discrete_prior(cfg)
    dynamics = cfgmod.build_dynamics(cfg)
    sw = cfg["sweep"]
    omega_grid = np.linspace(float(sw["omega_min"]), float(sw["omega_max"]), int(sw["n_points"]))
    started = time.perf_counter()
    result = sweep_omega(dynamics, prior, omega_grid,
                         starts=tuple(float(v) for v in sw["starts"]),
                         tol=float(sw["tol"]), max_iter=int(sw["max_iter"]))
    solved = time.perf_counter()
    points = result.points
    columns = [[pt.omega for pt in points], [pt.q_star for pt in points],
               [pt.converged for pt in points], [pt.branch for pt in points],
               [";".join(format(v, ".9g") for v in pt.distinct_q) for pt in points]]
    path = write_table(outdir / "sweep.csv",
                       ["omega", "Q_star", "converged", "branch", "distinct_Q"], columns, fmt)
    diagnostics = result.diagnostics()
    _note_unconverged(path, diagnostics["unconverged_points"], len(points))
    return [path], {"omega_c": result.omega_c,
                    "diagnostics": _with_stage_times(diagnostics, started, solved)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oistlab",
        description="Online sparse PCA laboratory: simulation, scaling limit, steady states.",
    )
    parser.add_argument("--version", action="version", version=f"oistlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--output", type=str, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override simulation seed")
        p.add_argument("--threads", type=int, default=1, help="worker process cap")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="output table format")

    common(sub.add_parser("simulate", help="run Monte Carlo replicas of the online estimator"))
    common(sub.add_parser("pde", help="solve the deterministic scaling limit"))
    p_oja = sub.add_parser("oja-theory", help="closed-form overlap curve for plain Oja")
    common(p_oja)
    p_oja.add_argument("--q0", type=float, default=None, help="override the initial overlap")
    p_steady = sub.add_parser("steady", help="solve the stationary fixed-point system")
    common(p_steady)
    p_steady.add_argument("--density", action="store_true",
                          help="also emit the stationary conditional densities")
    common(sub.add_parser("sweep", help="fixed points across an SNR grid (phase transition)"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = cfgmod.load_config(args.config)
        if args.seed is not None:
            cfg["simulation"]["seed"] = args.seed
        if args.output is not None:
            cfg["output"]["directory"] = args.output
        if args.format is not None:
            cfg["output"]["format"] = args.format
        cfgmod.validate_config(cfg)
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")

        outdir = Path(cfg["output"]["directory"])
        outdir.mkdir(parents=True, exist_ok=True)
        fmt = cfg["output"]["format"]
        extras: dict = {}

        if args.command == "simulate":
            files, extras = cmd_simulate(cfg, outdir, fmt, args.threads)
        elif args.command == "pde":
            files, extras = cmd_pde(cfg, outdir, fmt)
        elif args.command == "oja-theory":
            files, extras = cmd_oja_theory(cfg, outdir, fmt, args.q0)
        elif args.command == "steady":
            files, extras = cmd_steady(cfg, outdir, fmt, args.density)
        else:
            files, extras = cmd_sweep(cfg, outdir, fmt)

        files.append(write_manifest(outdir, args.command, cfg, started, extras))
        for path in files:
            print(path)
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
