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
    steady:     inits ([[q, r | null], ...]), tol, max_iter, density
    sweep:      omega_min, omega_max, n_points, starts, damping, tol,
                max_iter
    output:     directory, format (csv | json)

null record/histogram times resolve to a 0.5-spaced grid on [0, t_max];
null theta and histogram_range resolve from the prior sparsity.

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
from .nonlinearity import SoftThreshold
from .pde import Grid, PdeConfig
from .priors import Prior, SampleStreamConfig, discretize_prior
from .simulate import AlgoConfig, default_bin_edges, default_theta
from .steady import SteadyConfig

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
        "histogram_times": [1.0, 15.0],
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
        "density_times": [1.0, 15.0],
    },
    "steady": {
        "inits": [[0.0, None], [0.2, None], [0.5, None], [0.9, None]],
        "tol": 1e-7,
        "max_iter": 10000,
        "density": False,
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
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _merge(base: dict, override: dict, path: str = "") -> dict:
    """``base`` updated from ``override``; a section must stay an object, a number a number."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(base[key], dict):
            _require(isinstance(value, dict), where, "must be an object")
            out[key] = _merge(base[key], value, where)
            continue
        if _is_number(base[key]):
            _require(_is_number(value), where, "must be a number")
        elif isinstance(base[key], bool):
            _require(isinstance(value, bool), where, "must be true or false")
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


def _require_numbers(values, field: str, length: int | None = None):
    """``values`` is null or a list of numbers (of ``length`` items, if given)."""
    if values is not None:
        _require(isinstance(values, (list, tuple)) and all(map(_is_number, values))
                 and length in (None, len(values)), field,
                 "must be a list of numbers" if length is None else f"must be {length} numbers")


def _require_pairs(values, field: str, message: str, null_second: bool = False):
    """``values`` is a nonempty list of [number, number] pairs; the second may be null."""
    _require(isinstance(values, (list, tuple)) and bool(values), field, message)
    for pair in values:
        _require(isinstance(pair, (list, tuple)) and len(pair) == 2 and _is_number(pair[0])
                 and (_is_number(pair[1]) or (null_second and pair[1] is None)), field, message)


def validate_config(cfg: dict) -> dict:
    """Check every field the subcommands rely on; returns cfg unchanged."""
    m = cfg["model"]
    _require(m["prior"] in PRIOR_KINDS, "model.prior", f"must be one of {PRIOR_KINDS}")
    _require(0.0 < m["rho"] <= 1.0, "model.rho", "must lie in (0, 1]")
    _require(m["omega"] >= 0, "model.omega", "must be >= 0")
    _require(int(m["p"]) >= 2, "model.p", "must be >= 2")
    _require(int(m["gh_nodes"]) >= 1, "model.gh_nodes", "must be >= 1")
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
    _require(int(s["replicas"]) >= 1, "simulation.replicas", "must be >= 1")
    _require(int(s["histogram_bins"]) >= 1, "simulation.histogram_bins", "must be >= 1")
    _require(s["x0_var"] > 0, "simulation.x0_var", "must be > 0")
    if s["theta"] is not None:
        _require(s["theta"] > 0, "simulation.theta", "must be > 0")
    _require_numbers(s["record_times"], "simulation.record_times")
    _require_numbers(s["histogram_times"], "simulation.histogram_times")
    _require_numbers(s["histogram_range"], "simulation.histogram_range", 2)
    if s["histogram_range"] is not None:
        lo, hi = s["histogram_range"]
        _require(hi > lo, "simulation.histogram_range", "must satisfy hi > lo")

    p = cfg["pde"]
    _require(p["x_max"] > p["x_min"], "pde.x_min/x_max", "must satisfy x_max > x_min")
    _require(int(p["n"]) >= 50, "pde.n", "must be >= 50")
    _require(p["t_max"] >= 0, "pde.t_max", "must be >= 0")
    _require(p["dt"] == "auto" or (_is_number(p["dt"]) and p["dt"] > 0), "pde.dt",
             "must be a positive number or 'auto'")
    _require_numbers(p["record_times"], "pde.record_times")
    _require_numbers(p["density_times"], "pde.density_times")

    st = cfg["steady"]
    _require(st["tol"] > 0, "steady.tol", "must be > 0")
    _require(int(st["max_iter"]) >= 1, "steady.max_iter", "must be >= 1")
    _require_pairs(st["inits"], "steady.inits", "must list [q, r] or [q, null] starts",
                   null_second=True)

    sw = cfg["sweep"]
    _require(sw["omega_min"] >= 0, "sweep.omega_min", "must be >= 0")
    _require(sw["omega_max"] > sw["omega_min"], "sweep.omega_max", "must exceed omega_min")
    _require(int(sw["n_points"]) >= 2, "sweep.n_points", "must be >= 2")
    _require_numbers(sw["starts"], "sweep.starts")
    _require(bool(sw["starts"]), "sweep.starts", "must list at least one overlap start")
    _require(0.0 < sw["damping"] <= 1.0, "sweep.damping", "must lie in (0, 1]")
    _require(sw["tol"] > 0, "sweep.tol", "must be > 0")
    _require(int(sw["max_iter"]) >= 1, "sweep.max_iter", "must be >= 1")

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


def build_threshold(cfg: dict) -> SoftThreshold | None:
    a = cfg["algorithm"]
    if a["threshold"] == "none":
        return None
    return SoftThreshold(beta=a["beta"])


def build_algo_config(cfg: dict) -> AlgoConfig:
    return AlgoConfig(tau=cfg["algorithm"]["tau"], threshold=build_threshold(cfg),
                      p=int(cfg["model"]["p"]))


def build_stream_config(cfg: dict) -> SampleStreamConfig:
    return SampleStreamConfig(omega=cfg["model"]["omega"], p=int(cfg["model"]["p"]),
                              seed=int(cfg["simulation"]["seed"]))


def build_steady_config(cfg: dict) -> SteadyConfig:
    return SteadyConfig(tau=cfg["algorithm"]["tau"], omega=cfg["model"]["omega"],
                        threshold=build_threshold(cfg))


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


def build_pde_config(cfg: dict, prior: Prior) -> PdeConfig:
    p = cfg["pde"]
    dt = p["dt"] if isinstance(p["dt"], str) else float(p["dt"])
    return PdeConfig(tau=cfg["algorithm"]["tau"], omega=cfg["model"]["omega"],
                     threshold=build_threshold(cfg), grid=build_grid(cfg, prior),
                     dt=dt, t_max=float(p["t_max"]))


def grid_times(t_max: float, spacing: float = 0.5) -> list[float]:
    n = int(math.floor(t_max / spacing + 1e-9))
    times = [round(i * spacing, 12) for i in range(n + 1)]
    if times[-1] < t_max:
        times.append(t_max)
    return times


def resolve_record_times(section: dict) -> list[float]:
    if section["record_times"] is not None:
        return [float(t) for t in section["record_times"]]
    return grid_times(float(section["t_max"]))


def resolve_histogram_times(cfg: dict) -> list[float]:
    s = cfg["simulation"]
    raw = s["histogram_times"]
    if raw is None:
        return resolve_record_times(s)
    times = [float(t) for t in raw]
    if any(t < 0.0 or t > s["t_max"] for t in times):
        raise ConfigError("simulation.histogram_times: must lie in [0, t_max]")
    return times


def resolve_bin_edges(cfg: dict) -> np.ndarray:
    s = cfg["simulation"]
    n_bins = int(s["histogram_bins"])
    if s["histogram_range"] is not None:
        lo, hi = (float(v) for v in s["histogram_range"])
        return np.linspace(lo, hi, n_bins + 1)
    return default_bin_edges(build_prior(cfg).rho, n_bins)


def resolve_theta(cfg: dict) -> float:
    s = cfg["simulation"]
    if s["theta"] is not None:
        return float(s["theta"])
    return default_theta(build_prior(cfg).rho)


def initial_overlap(cfg: dict, prior: Prior | None = None) -> float:
    """Limiting initial overlap of the configured x0 law: E[x xi]/sqrt(E[x^2])."""
    if prior is None:
        prior = build_discrete_prior(cfg)
    s = cfg["simulation"]
    second = s["x0_mean"] ** 2 + s["x0_var"]
    return s["x0_mean"] * prior.mean / math.sqrt(second)
