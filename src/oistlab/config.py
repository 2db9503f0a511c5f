"""Declarative experiment configuration for the CLI.

One JSON document configures every subcommand; unspecified keys fall
back to the defaults below, which are the reference experiment
(two-point prior at rho = 0.05, tau = 0.5, soft threshold beta = 0.27,
omega = 1, p = 10000, x0 ~ N(1/sqrt(2), 1/2)), so `oistlab simulate`
with no arguments reproduces the reference overlap curve.

Schema (all keys optional):

    model:      prior (two_point | signed_two_point | bernoulli_gaussian
                | discrete), rho, atoms ([[value, weight], ...] for
                discrete), omega, p, gh_nodes
    algorithm:  tau, threshold (soft | none), beta
    simulation: t_max, replicas, seed, record_times, histogram_times,
                histogram_bins, histogram_range, theta, x0_mean, x0_var
    pde:        x_min, x_max, n, dt (number | "auto"), t_max,
                record_times, density_times
    steady:     inits ([[q, r | null], ...]), tol, max_iter
    sweep:      omega_min, omega_max, n_points, starts, damping, tol,
                max_iter
    output:     directory, format (csv | json)

The model is one `nonlinearity.Dynamics` (tau, omega, beta). Threshold
"none" reads as beta = 0, plain Oja, the same model as "soft" with
beta 0. Every number, in a list too, must be finite: Python's JSON
reader accepts NaN and Infinity, and they are configuration errors.

A null record_times resolves to a 0.5-spaced grid on [0, t_max], and a
null histogram_times or density_times to 1 and t_max (t_max alone when
t_max <= 1); every time must lie in [0, t_max]. null theta and
histogram_range resolve from the prior sparsity. `simulate` ends each
replica at its last record or histogram time, so `simulation.t_max`
only bounds those lists and sets their null defaults; a run whose lists
end before it stops there.

`sweep.starts` are the overlaps Newton starts from at the sweep's anchor
SNR, above the spinodal, with r = g(q)/2. A null r in `steady.inits` is
that same g(q)/2. `steady` runs Newton from each init, and where Newton
fails reports the root of the sweep's trace from `sweep.starts`, so
`tol` and `max_iter` mean the same in both sections. `sweep.damping` has
no effect, but configs set it (the benchmark's `sweep_transition` among
them) and an unknown key is a configuration error, so it is still
accepted and validated.
"""
from __future__ import annotations

import copy
import json
import math

import numpy as np

from .errors import ConfigError
from .nonlinearity import Dynamics
from .pde import Grid
from .priors import Prior, discretize_prior
from .simulate import default_bin_edges

DEFAULT_CONFIG = {
    "model": {
        "prior": "two_point",
        "rho": 0.05,
        "atoms": None,
        "omega": 1.0,
        "p": 10000,
        "gh_nodes": 21,
    },
    "algorithm": {
        "tau": 0.5,
        "threshold": "soft",
        "beta": 0.27,
    },
    "simulation": {
        "t_max": 15.0,
        "replicas": 120,
        "seed": 1234,
        "record_times": None,
        "histogram_times": None,
        "histogram_bins": 101,
        "histogram_range": None,
        "theta": None,
        "x0_mean": 1.0 / math.sqrt(2.0),
        "x0_var": 0.5,
    },
    "pde": {
        "x_min": -6.0,
        "x_max": 8.0,
        "n": 900,
        "dt": "auto",
        "t_max": 15.0,
        "record_times": None,
        "density_times": None,
    },
    "steady": {
        "inits": [[0.0, None], [0.2, None], [0.5, None], [0.9, None]],
        "tol": 1e-7,
        "max_iter": 10000,
    },
    "sweep": {
        "omega_min": 0.05,
        "omega_max": 1.0,
        "n_points": 40,
        "starts": [0.2, 0.5, 0.9],
        "damping": 0.5,
        "tol": 1e-7,
        "max_iter": 10000,
    },
    "output": {
        "directory": "out",
        "format": "csv",
    },
}

PRIOR_KINDS = ("two_point", "signed_two_point", "bernoulli_gaussian", "discrete")


def _is_number(value) -> bool:
    """A finite int or float; NaN, +-Infinity and booleans are not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _merge(base: dict, override: dict, path: str = "") -> dict:
    """``base`` updated from ``override``; known keys only, and a section stays an object."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(base[key], dict):
            _require(isinstance(value, dict), where, "must be an object")
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path: str | None) -> dict:
    """Defaults merged with an optional JSON config file."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is None:
        return cfg
    try:
        with open(path) as fh:
            user = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config file must contain a JSON object")
    return _merge(cfg, user)


def _require(cond: bool, field: str, message: str):
    if not cond:
        raise ConfigError(f"{field}: {message}")


def _require_whole(value, field: str, minimum: int):
    """``value`` is a whole number (an integral float such as 1e4 too) of at least ``minimum``."""
    _require(_is_number(value) and (isinstance(value, int) or value.is_integer()), field,
             "must be a whole number")
    _require(value >= minimum, field, f"must be >= {minimum}")


def _require_numbers(values, field: str, length: int | None = None):
    """``values`` is null or a list of numbers (of ``length`` items, if given)."""
    if values is not None:
        _require(isinstance(values, (list, tuple)) and all(map(_is_number, values))
                 and length in (None, len(values)), field,
                 "must be a list of finite numbers" if length is None
                 else f"must be {length} finite numbers")


def _require_pairs(values, field: str, message: str, null_second: bool = False):
    """``values`` is a nonempty list of [number, number] pairs; the second may be null."""
    _require(isinstance(values, (list, tuple)) and bool(values), field, message)
    for pair in values:
        _require(isinstance(pair, (list, tuple)) and len(pair) == 2 and _is_number(pair[0])
                 and (_is_number(pair[1]) or (null_second and pair[1] is None)), field, message)


def validate_config(cfg: dict) -> dict:
    """Check every field the subcommands rely on; returns cfg unchanged."""
    for section, defaults in DEFAULT_CONFIG.items():
        for key, default in defaults.items():
            value, where = cfg[section][key], f"{section}.{key}"
            if isinstance(default, bool):
                _require(isinstance(value, bool), where, "must be true or false")
            elif _is_number(default):
                _require(_is_number(value), where, "must be a finite number")

    m = cfg["model"]
    _require(m["prior"] in PRIOR_KINDS, "model.prior", f"must be one of {PRIOR_KINDS}")
    _require(0.0 < m["rho"] <= 1.0, "model.rho", "must lie in (0, 1]")
    _require(m["omega"] >= 0, "model.omega", "must be >= 0")
    _require_whole(m["p"], "model.p", 2)
    _require_whole(m["gh_nodes"], "model.gh_nodes", 1)
    if m["prior"] == "discrete":
        _require_pairs(m["atoms"], "model.atoms",
                       "a discrete prior needs a list of [value, weight] pairs of numbers")
        try:
            Prior.from_atoms(m["atoms"])
        except ConfigError as exc:
            raise ConfigError(f"model.atoms: {exc}") from None

    a = cfg["algorithm"]
    _require(a["tau"] > 0, "algorithm.tau", "must be > 0")
    _require(a["threshold"] in ("soft", "none"), "algorithm.threshold", "must be 'soft' or 'none'")
    _require(a["beta"] >= 0, "algorithm.beta", "must be >= 0")

    s = cfg["simulation"]
    _require(s["t_max"] >= 0, "simulation.t_max", "must be >= 0")
    _require_whole(s["replicas"], "simulation.replicas", 1)
    _require_whole(s["seed"], "simulation.seed", 0)
    _require_whole(s["histogram_bins"], "simulation.histogram_bins", 1)
    _require(s["x0_var"] > 0, "simulation.x0_var", "must be > 0")
    if s["theta"] is not None:
        _require(_is_number(s["theta"]) and s["theta"] > 0, "simulation.theta",
                 "must be a finite number > 0")
    _require_numbers(s["record_times"], "simulation.record_times")
    _require_numbers(s["histogram_times"], "simulation.histogram_times")
    _require_numbers(s["histogram_range"], "simulation.histogram_range", 2)
    if s["histogram_range"] is not None:
        lo, hi = s["histogram_range"]
        _require(hi > lo, "simulation.histogram_range", "must satisfy hi > lo")

    p = cfg["pde"]
    _require(p["x_max"] > p["x_min"], "pde.x_min/x_max", "must satisfy x_max > x_min")
    _require_whole(p["n"], "pde.n", 50)
    _require(p["t_max"] >= 0, "pde.t_max", "must be >= 0")
    _require(p["dt"] == "auto" or (_is_number(p["dt"]) and p["dt"] > 0), "pde.dt",
             "must be a positive number or 'auto'")
    _require_numbers(p["record_times"], "pde.record_times")
    _require_numbers(p["density_times"], "pde.density_times")

    st = cfg["steady"]
    _require(st["tol"] > 0, "steady.tol", "must be > 0")
    _require_whole(st["max_iter"], "steady.max_iter", 1)
    _require_pairs(st["inits"], "steady.inits", "must list [q, r] or [q, null] starts",
                   null_second=True)

    sw = cfg["sweep"]
    _require(sw["omega_min"] >= 0, "sweep.omega_min", "must be >= 0")
    _require(sw["omega_max"] > sw["omega_min"], "sweep.omega_max", "must exceed omega_min")
    _require_whole(sw["n_points"], "sweep.n_points", 2)
    _require_numbers(sw["starts"], "sweep.starts")
    _require(bool(sw["starts"]), "sweep.starts", "must list at least one overlap start")
    _require(0.0 < sw["damping"] <= 1.0, "sweep.damping", "must lie in (0, 1]")
    _require(sw["tol"] > 0, "sweep.tol", "must be > 0")
    _require_whole(sw["max_iter"], "sweep.max_iter", 1)

    o = cfg["output"]
    _require(o["format"] in ("csv", "json"), "output.format", "must be 'csv' or 'json'")
    _require(isinstance(o["directory"], str), "output.directory", "must be a string")
    return cfg


def build_prior(cfg: dict) -> Prior:
    m = cfg["model"]
    kind = m["prior"]
    if kind == "two_point":
        return Prior.two_point(m["rho"])
    if kind == "signed_two_point":
        return Prior.signed_two_point(m["rho"])
    if kind == "bernoulli_gaussian":
        return Prior.bernoulli_gaussian(m["rho"])
    return Prior.from_atoms(m["atoms"])


def build_discrete_prior(cfg: dict) -> Prior:
    """Prior reduced to atoms (Gauss-Hermite for the Bernoulli-Gaussian)."""
    return discretize_prior(build_prior(cfg), int(cfg["model"]["gh_nodes"]))


def build_dynamics(cfg: dict) -> Dynamics:
    """The configured model, as every model-taking command takes it; beta is
    ``algorithm.beta`` under the soft threshold, else 0 (plain Oja)."""
    a = cfg["algorithm"]
    return Dynamics(tau=a["tau"], omega=cfg["model"]["omega"],
                    beta=a["beta"] if a["threshold"] == "soft" else 0.0)


def build_grid(cfg: dict, prior: Prior) -> Grid:
    """PDE grid, automatically widened when prior atoms fall outside it."""
    p = cfg["pde"]
    x_min, x_max, n = float(p["x_min"]), float(p["x_max"]), int(p["n"])
    dx = (x_max - x_min) / n
    values = prior.atom_values if prior.is_discrete else np.array([0.0])
    margin = 3.5
    lo_needed = float(values.min()) - margin
    hi_needed = float(values.max()) + margin
    new_min = min(x_min, lo_needed)
    new_max = max(x_max, hi_needed)
    if new_min != x_min or new_max != x_max:
        n = int(math.ceil((new_max - new_min) / dx))
        x_min, x_max = new_min, new_min + n * dx
    return Grid(x_min=x_min, x_max=x_max, n=n)


def grid_times(t_max: float, spacing: float = 0.5) -> list[float]:
    n = int(math.floor(t_max / spacing + 1e-9))
    times = [round(i * spacing, 12) for i in range(n + 1)]
    if times[-1] < t_max:
        times.append(t_max)
    return times


# Per section: how far past t_max a time may lie (the PDE solver rounds
# by 1e-12), and the lists a run reads, which must not all be empty.
_RUN_TIMES = {"simulation": (0.0, ("record_times",)),
              "pde": (1e-12, ("record_times", "density_times"))}


def resolve_times(cfg: dict, section: str, *fields: str) -> list[list[float]]:
    """Each time list of ``section`` named in ``fields``, as floats within [0, t_max].

    Null lists resolve as the module docstring says; an explicit [] stays empty.
    """
    sec = cfg[section]
    t_max = float(sec["t_max"])
    slack, read = _RUN_TIMES[section]
    resolved = {}
    for field in fields:
        if sec[field] is not None:
            times = [float(t) for t in sec[field]]
        elif field == "record_times":
            times = grid_times(t_max)
        else:
            times = sorted({min(1.0, t_max), t_max})
        if not all(0.0 <= t <= t_max + slack for t in times):
            raise ConfigError(f"{section}.{field}: must lie in [0, t_max]")
        resolved[field] = times
    read = [field for field in read if field in resolved]
    if not any(resolved[field] for field in read):
        raise ConfigError(f"{section}.{'/'.join(read)}: must not be empty")
    return list(resolved.values())


def resolve_bin_edges(cfg: dict) -> np.ndarray:
    s = cfg["simulation"]
    n_bins = int(s["histogram_bins"])
    if s["histogram_range"] is not None:
        lo, hi = (float(v) for v in s["histogram_range"])
        return np.linspace(lo, hi, n_bins + 1)
    return default_bin_edges(build_prior(cfg).rho, n_bins)


def initial_overlap(cfg: dict) -> float:
    """Limiting initial overlap of the configured x0 law: E[x xi]/sqrt(E[x^2]),
    with the exact prior mean (0 for the Bernoulli-Gaussian)."""
    s = cfg["simulation"]
    second = s["x0_mean"] ** 2 + s["x0_var"]
    return s["x0_mean"] * build_prior(cfg).mean / math.sqrt(second)
