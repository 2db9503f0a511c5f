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
from .oja import OjaParams, closed_form_q
from .simulate import run_trajectory
from .steady import g_scale, roots_from_inits, steady_density, sweep_omega


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _native(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return str(value)


# One formatter per single-kind column, each byte-identical to `_fmt` on
# that kind ("%.17g" % v equals format(float(v), ".17g")). bool is not
# in the int set: a column of bools and ints is mixed.
_COLUMN_FORMATS = (
    ({bool, np.bool_}, lambda v: "true" if v else "false"),
    ({int, np.int64}, str),
    ({float, np.float64}, "%.17g".__mod__),
    ({str}, str),
)


class Repeat(NamedTuple):
    """A column of `values`, each repeated `each` times in turn, the whole run `tile` times.

    Its distinct values are formatted once.
    """

    values: Sequence
    each: int = 1
    tile: int = 1


def _strings(values) -> list[str]:
    """CSV cells of one column: one formatter for a single-kind column, `_fmt` per value else."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    kinds = set(map(type, values))
    for types, fmt in _COLUMN_FORMATS:
        if kinds <= types:
            return list(map(fmt, values))
    return list(map(_fmt, values))


# float.__repr__ gives these where json writes its constants
_JSON_CONSTANTS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_cells(values) -> list[str]:
    """JSON cells of one column, each the bytes `json.dumps` writes for `_native` of the value."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    if set(map(type, values)) <= {float}:
        cells = list(map(float.__repr__, values))
        if not _JSON_CONSTANTS.keys().isdisjoint(cells):
            cells = [_JSON_CONSTANTS.get(c, c) for c in cells]
        return cells
    return [json.dumps(_native(v)) for v in values]


# A plain (not `Repeat`) column of these kinds is formatted by the row
# template itself: "%.17g" % v equals format(float(v), ".17g") and
# "%r" % v equals float.__repr__(v).
_PLACEHOLDERS = {"csv": ({float, np.float64}, "%.17g"), "json": ({float}, "%r")}
_BLOCK_ROWS = 4096


def _row_count(columns: list) -> int:
    lengths = [len(col.values) * col.each * col.tile if isinstance(col, Repeat) else len(col)
               for col in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns of unequal lengths {lengths}")
    return lengths[0] if lengths else 0


def _template_column(column, fmt: str):
    """One column of the row template.

    Returns (placeholder, values) for a plain float column, whose values
    the template formats, or (None, its cells in row order, with `%`
    escaped) for any other column, whose cells go into the template as
    text. A JSON float column that holds nan or +-inf is text, so that
    `_json_cells` writes json's constants for them.
    """
    values = column.values if isinstance(column, Repeat) else column
    if isinstance(values, np.ndarray):
        values = values.tolist()
    if not isinstance(column, Repeat):
        kinds, placeholder = _PLACEHOLDERS[fmt]
        # a finite sum rules out nan and +-inf; an overflowing one only costs speed
        if set(map(type, values)) <= kinds and (fmt == "csv" or math.isfinite(sum(values))):
            return placeholder, values
    convert = _strings if fmt == "csv" else _json_cells
    cells = [cell.replace("%", "%%") for cell in convert(values)]
    if not isinstance(column, Repeat):
        return None, cells
    if column.each != 1:
        cells = list(chain.from_iterable(map(repeat, cells, repeat(column.each))))
    return None, chain.from_iterable(repeat(cells, column.tile))


def _blocks(columns: list, n_rows: int, leads: list[str], tail: str, fmt: str):
    """Yield the text of every row, leads[j] before cell j and `tail` after
    the last, `_BLOCK_ROWS` rows at a time, each block formatted by one `%`."""
    # the row template is text pieces, with a text column's cells between each two
    pieces, texts, floats = [""], [], []
    for lead, column in zip(leads, columns):
        placeholder, values = _template_column(column, fmt)
        pieces[-1] += lead.replace("%", "%%")
        if placeholder is None:
            texts.append(values)
            pieces.append("")
        else:
            pieces[-1] += placeholder
            floats.append(values)
    pieces[-1] += tail
    rows = zip(*chain.from_iterable(zip(map(repeat, pieces), texts)), repeat(pieces[-1]))
    for start in range(0, n_rows, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n_rows)
        template = "".join(chain.from_iterable(islice(rows, stop - start)))
        if len(floats) == 1:
            values = tuple(floats[0][start:stop])
        else:
            values = tuple(chain.from_iterable(zip(*(col[start:stop] for col in floats))))
        yield template % values


def write_table(path: Path, header: list[str], columns: list, fmt: str) -> Path:
    """Write a table given one sequence (or `Repeat`) of values per header column.

    JSON has the bytes of `json.dumps` with `indent=1` over one dict per
    row, and a newline.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} column names for {len(columns)} columns")
    n_rows = _row_count(columns)
    if fmt == "json":
        path = path.with_suffix(".json")
        leads = [(",\n  " if j else ",\n {\n  ") + json.dumps(name) + ": "
                 for j, name in enumerate(header)]
        with path.open("w") as out:
            blocks = _blocks(columns, n_rows, leads, "\n }", fmt)
            first = next(blocks, None)
            if first is None:
                out.write("[]\n")
            else:
                out.write("[\n" + first[2:])  # no ",\n" before the first row
                out.writelines(blocks)
                out.write("\n]\n")
    else:
        with path.open("w") as out:
            out.write(",".join(header) + "\n")
            out.writelines(_blocks(columns, n_rows, ["," if j else "" for j in range(len(header))],
                                   "\n", fmt))
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
    prior = cfgmod.build_prior(cfg)
    sim = cfg["simulation"]
    record_times = cfgmod.resolve_record_times(sim)
    diagnostics: dict = {}
    started = time.perf_counter()
    records = run_trajectory(
        prior=prior,
        stream_cfg=cfgmod.build_stream_config(cfg),
        algo_cfg=cfgmod.build_algo_config(cfg),
        t_max=float(sim["t_max"]),
        record_times=record_times,
        replicas=int(sim["replicas"]),
        x0_spec=(float(sim["x0_mean"]), float(sim["x0_var"])),
        histogram_times=cfgmod.resolve_histogram_times(cfg),
        bin_edges=cfgmod.resolve_bin_edges(cfg),
        theta=cfgmod.resolve_theta(cfg),
        n_workers=threads,
        diagnostics=diagnostics,
    )
    solved = time.perf_counter()

    # every record shares the run's record times and histogram bins
    n_times = len(records[0].times)
    traj_cols = [
        Repeat([rec.replica_id for rec in records], each=n_times),
        Repeat(records[0].times, tile=len(records)),
        np.concatenate([rec.q_values for rec in records]),
        np.concatenate([rec.misclass for rec in records]),
    ]
    blocks = [(rec.replica_id, t, hist) for rec in records
              for t, hists in zip(rec.histogram_times, rec.histograms)
              for hist in hists if hist.density is not None]
    edges = records[0].bin_edges
    n_bins = len(edges) - 1
    hist_cols = [
        Repeat([replica for replica, _, _ in blocks], each=n_bins),
        Repeat([t for _, t, _ in blocks], each=n_bins),
        Repeat([hist.atom for _, _, hist in blocks], each=n_bins),
        Repeat(0.5 * (edges[:-1] + edges[1:]), tile=len(blocks)),
        [d for _, _, hist in blocks for d in hist.density.tolist()],
    ]
    q_matrix = np.array([rec.q_values for rec in records])
    n_rep = len(records)
    q_std = q_matrix.std(axis=0, ddof=1) if n_rep > 1 else np.zeros(q_matrix.shape[1])
    summary_cols = [record_times, q_matrix.mean(axis=0), q_std, [n_rep] * len(record_times)]
    files = [
        write_table(outdir / "trajectory.csv", ["replica", "t", "Q", "misclass"], traj_cols, fmt),
        write_table(outdir / "histograms.csv",
                    ["replica", "t", "xi_atom", "bin_center", "density"], hist_cols, fmt),
        write_table(outdir / "summary.csv", ["t", "Q_mean", "Q_std", "n_replicas"],
                    summary_cols, fmt),
    ]
    return files, {"diagnostics": _with_stage_times(diagnostics, started, solved)}


def cmd_pde(cfg: dict, outdir: Path, fmt: str) -> tuple[list[Path], dict]:
    prior = cfgmod.build_discrete_prior(cfg)
    pde_cfg = cfgmod.build_pde_config(cfg, prior)
    sim = cfg["simulation"]
    moment_times = cfgmod.resolve_record_times(cfg["pde"])
    density_times = [float(t) for t in (cfg["pde"]["density_times"] or [])
                     if 0.0 <= float(t) <= pde_cfg.t_max]
    all_times = sorted(set(moment_times) | set(density_times))
    started = time.perf_counter()
    solution = pdemod.solve(pde_cfg, prior, all_times,
                            x0_mean=float(sim["x0_mean"]), x0_var=float(sim["x0_var"]))
    solved = time.perf_counter()

    by_time = dict(zip(solution.times.tolist(), solution.snapshots))
    moments = [by_time[t] for t in moment_times]
    # every snapshot holds the same atoms on the same grid
    atoms = solution.snapshots[0].atoms
    centers = solution.snapshots[0].grid.centers
    density_cols = [
        Repeat(density_times, each=len(atoms) * len(centers)),
        Repeat(atoms, each=len(centers), tile=len(density_times)),
        Repeat(centers, tile=len(density_times) * len(atoms)),
        [d for t in density_times for d in by_time[t].densities.ravel().tolist()],
    ]
    files = [
        write_table(outdir / "moments.csv", ["t", "Q", "R"],
                    [moment_times, [s.q for s in moments], [s.r for s in moments]], fmt),
        write_table(outdir / "densities.csv", ["t", "xi_atom", "x", "density"],
                    density_cols, fmt),
    ]
    diagnostics = {key: getattr(solution, key) for key in (
        "n_steps", "n_rejected", "n_first_order", "dt_min", "dt_max", "mass_error")}
    return files, {"diagnostics": _with_stage_times(diagnostics, started, solved)}


def cmd_oja_theory(cfg: dict, outdir: Path, fmt: str,
                   q0_override: float | None) -> tuple[list[Path], dict]:
    params = OjaParams(tau=cfg["algorithm"]["tau"], omega=cfg["model"]["omega"])
    q0 = cfgmod.initial_overlap(cfg) if q0_override is None else q0_override
    if q0 == 0.0:
        raise ConfigError(
            "initial overlap q0 is zero for this configuration; the overlap "
            "dynamics are only defined for a nonzero starting overlap"
        )
    times = cfgmod.resolve_record_times(cfg["simulation"])
    started = time.perf_counter()
    q_values = [closed_form_q(t, q0, params) for t in times]
    solved = time.perf_counter()
    files = [write_table(outdir / "oja_theory.csv", ["t", "Q"], [times, q_values], fmt)]
    return files, {"diagnostics": _with_stage_times({}, started, solved)}


def _selected_fixed_point(results):
    converged = [r for r in results if r.converged]
    pool = converged or results
    return max(pool, key=lambda r: abs(r.q))


def cmd_steady(cfg: dict, outdir: Path, fmt: str,
               with_density: bool) -> tuple[list[Path], dict]:
    prior = cfgmod.build_discrete_prior(cfg)
    steady_cfg = cfgmod.build_steady_config(cfg)
    st = cfg["steady"]
    inits = [(float(q0), 0.5 * g_scale(float(q0), steady_cfg) if r0 is None else float(r0))
             for q0, r0 in st["inits"]]
    started = time.perf_counter()
    results = roots_from_inits(steady_cfg, prior, inits,
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
    if with_density or st["density"]:
        fp = _selected_fixed_point(results)
        centers = cfgmod.build_grid(cfg, prior).centers
        atoms = prior.atom_values
        density = [d for atom in atoms
                   for d in steady_density(atom, fp.q, fp.r, steady_cfg)(centers).tolist()]
        files.append(write_table(
            outdir / "steady_density.csv", ["xi_atom", "x", "density"],
            [Repeat(atoms, each=len(centers)), Repeat(centers, tile=len(atoms)), density], fmt))
    return files, {"diagnostics": _with_stage_times(diagnostics, started, solved)}


def cmd_sweep(cfg: dict, outdir: Path, fmt: str) -> tuple[list[Path], dict]:
    prior = cfgmod.build_discrete_prior(cfg)
    steady_cfg = cfgmod.build_steady_config(cfg)
    sw = cfg["sweep"]
    omega_grid = np.linspace(float(sw["omega_min"]), float(sw["omega_max"]), int(sw["n_points"]))
    started = time.perf_counter()
    result = sweep_omega(steady_cfg, prior, omega_grid,
                         starts=tuple(float(v) for v in sw["starts"]),
                         tol=float(sw["tol"]), max_iter=int(sw["max_iter"]))
    solved = time.perf_counter()
    points = result.points
    columns = [[pt.omega for pt in points], [pt.q_star for pt in points],
               [pt.converged for pt in points], [pt.branch for pt in points],
               [";".join(format(v, ".9g") for v in pt.distinct_q) for pt in points]]
    path = write_table(outdir / "sweep.csv",
                       ["omega", "Q_star", "converged", "branch", "distinct_Q"], columns, fmt)
    return [path], {"omega_c": result.omega_c,
                    "diagnostics": _with_stage_times(result.diagnostics(), started, solved)}


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
