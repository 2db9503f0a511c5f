import math

import pytest

from oistlab import ConfigError, Dynamics, Prior
from oistlab.config import (
    DEFAULT_CONFIG,
    build_discrete_prior,
    build_grid,
    grid_times,
    initial_overlap,
    load_config,
    resolve_bin_edges,
    resolve_theta,
    resolve_times,
    validate_config,
)


def default_cfg():
    return load_config(None)


def test_defaults_are_reference_experiment():
    cfg = default_cfg()
    assert cfg["model"]["rho"] == 0.05
    assert cfg["algorithm"]["tau"] == 0.5
    assert cfg["algorithm"]["beta"] == 0.27
    assert cfg["model"]["omega"] == 1.0
    assert cfg["model"]["p"] == 10000
    validate_config(cfg)


def test_grid_times_cover_range():
    assert grid_times(15.0) == [round(0.5 * i, 12) for i in range(31)]
    assert grid_times(1.2)[-1] == 1.2


def test_initial_overlap_reference():
    cfg = default_cfg()
    assert initial_overlap(cfg) == pytest.approx(math.sqrt(0.05 / 2.0), abs=1e-12)


def test_resolved_defaults():
    cfg = default_cfg()
    edges = resolve_bin_edges(cfg)
    assert edges[0] == -2.0
    assert edges[-1] == pytest.approx(2.0 + 1.0 / math.sqrt(0.05))
    assert len(edges) == 102
    assert resolve_theta(cfg) == pytest.approx(0.5 / math.sqrt(0.05))


def test_grid_extends_for_wide_atoms():
    cfg = default_cfg()
    cfg["model"]["rho"] = 0.01  # atom at 10, outside [-6, 8]
    prior = build_discrete_prior(cfg)
    grid = build_grid(cfg, prior)
    assert grid.x_max >= 10.0 + 3.5
    base = build_grid(default_cfg(), build_discrete_prior(default_cfg()))
    assert grid.dx == pytest.approx(base.dx)


def test_validate_rejects_bad_fields():
    for section, key, value in [
        ("model", "rho", 0.0),
        ("model", "p", 1),
        ("model", "omega", -1.0),
        ("algorithm", "tau", 0.0),
        ("algorithm", "threshold", "hard"),
        ("simulation", "replicas", 0),
        ("pde", "n", 10),
        ("pde", "dt", -0.1),
        ("sweep", "n_points", 1),
        ("output", "format", "xml"),
        ("model", "p", 64.7),
        ("model", "gh_nodes", 2.5),
        ("simulation", "replicas", 1.9),
        ("simulation", "seed", 0.5),
        ("simulation", "seed", -3),
        ("simulation", "histogram_bins", 10.1),
        ("pde", "n", 900.5),
        ("sweep", "n_points", 40.2),
        ("steady", "max_iter", math.inf),
        ("sweep", "max_iter", math.nan),
        ("pde", "t_max", math.inf),
        ("sweep", "omega_max", math.inf),
        ("model", "omega", math.inf),
        ("sweep", "starts", [math.nan]),
        ("pde", "record_times", [math.nan, 1.0]),
        ("simulation", "record_times", [math.nan]),
        ("simulation", "record_times", [0.0, math.nan]),
        ("simulation", "t_max", -math.inf),
        ("algorithm", "beta", math.nan),
        ("simulation", "theta", math.inf),
        ("simulation", "histogram_range", [0.0, math.inf]),
        ("steady", "inits", [[math.nan, None]]),
    ]:
        cfg = default_cfg()
        cfg[section][key] = value
        with pytest.raises(ConfigError, match=f"^{section}.{key}: "):
            validate_config(cfg)


def test_validate_accepts_integral_floats():
    cfg = default_cfg()
    cfg["model"]["p"] = 1e4
    cfg["simulation"]["seed"] = 0.0
    cfg["pde"]["n"] = 900.0
    assert validate_config(cfg) is cfg


def test_discrete_prior_requires_atoms():
    cfg = default_cfg()
    cfg["model"]["prior"] = "discrete"
    with pytest.raises(ConfigError):
        validate_config(cfg)
    cfg["model"]["atoms"] = [[0.0, 0.5], [math.sqrt(2.0), 0.5]]
    validate_config(cfg)
    prior = build_discrete_prior(cfg)
    assert isinstance(prior, Prior)
    assert prior.rho == pytest.approx(0.5)


def test_discrete_prior_checked_against_prior_rules():
    # 1.41421356 is sqrt(2) to 8 digits: second moment 1 - 3.4e-9, outside 1e-10
    cfg = default_cfg()
    cfg["model"]["prior"] = "discrete"
    cfg["model"]["atoms"] = [[0, 0.5], [1.41421356, 0.5]]
    with pytest.raises(ConfigError, match=r"^model\.atoms: prior second moment is "):
        validate_config(cfg)
    cfg["model"]["atoms"] = [[0, 0.25], [math.sqrt(2.0), 0.5]]
    with pytest.raises(ConfigError, match=r"^model\.atoms: prior atom weights sum to "):
        validate_config(cfg)


def test_discrete_prior_sets_threshold_and_bins():
    # rho of an explicit prior is its nonzero mass, not the unused model.rho
    cfg = default_cfg()
    cfg["model"]["prior"] = "discrete"
    cfg["model"]["atoms"] = [[0.0, 0.5], [math.sqrt(2.0), 0.5]]
    validate_config(cfg)
    assert resolve_theta(cfg) == 1.0 / (2.0 * math.sqrt(0.5))
    assert resolve_bin_edges(cfg)[-1] == pytest.approx(2.0 + 1.0 / math.sqrt(0.5))


def test_default_config_unchanged_by_load():
    before = DEFAULT_CONFIG["pde"]["n"]
    cfg = default_cfg()
    cfg["pde"]["n"] = 1
    assert DEFAULT_CONFIG["pde"]["n"] == before


def test_sweep_max_iter_message():
    cfg = default_cfg()
    cfg["sweep"]["max_iter"] = 0
    with pytest.raises(ConfigError, match="sweep.max_iter"):
        validate_config(cfg)


@pytest.mark.parametrize("make", [
    lambda tau, omega: Dynamics(tau, omega, 0.0),
    lambda tau, omega: Dynamics(tau=tau, omega=omega, beta=0.0),
], ids=["SteadyConfig", "OjaParams"])
@pytest.mark.parametrize("tau, omega", [(0.0, 1.0), (-0.5, 1.0), (0.5, -0.1),
                                        (math.nan, 1.0), (0.5, math.nan),
                                        (math.inf, 1.0), (0.5, math.inf)])
def test_dynamics_parameters_rejected(make, tau, omega):
    with pytest.raises(ConfigError) as excinfo:
        make(tau, omega)
    assert isinstance(excinfo.value, ValueError)


def test_resolve_times_defaults():
    cfg = default_cfg()
    record, histogram = resolve_times(cfg, "simulation", "record_times", "histogram_times")
    assert record == grid_times(15.0)
    assert histogram == [1.0, 15.0]
    assert resolve_times(cfg, "pde", "record_times", "density_times") == [grid_times(15.0),
                                                                          [1.0, 15.0]]


@pytest.mark.parametrize("t_max, expected", [(15.0, [1.0, 15.0]), (2, [1.0, 2.0]),
                                             (1.0, [1.0]), (0.5, [0.5]), (0.0, [0.0])])
@pytest.mark.parametrize("section, field", [("simulation", "histogram_times"),
                                            ("pde", "density_times")])
def test_null_snapshot_times_follow_t_max(section, field, t_max, expected):
    cfg = default_cfg()
    cfg[section]["t_max"] = t_max
    assert resolve_times(cfg, section, "record_times", field)[1] == expected


def test_null_histogram_times_are_not_the_record_times():
    cfg = default_cfg()
    cfg["simulation"]["record_times"] = [0.0, 1.0]
    assert resolve_times(cfg, "simulation", "record_times", "histogram_times") == [
        [0.0, 1.0], [1.0, 15.0]]


def test_explicit_times_as_floats_and_empty_stays_empty():
    cfg = default_cfg()
    cfg["pde"]["record_times"] = [0, 3]
    cfg["pde"]["density_times"] = []
    record, density = resolve_times(cfg, "pde", "record_times", "density_times")
    assert record == [0.0, 3.0] and all(type(t) is float for t in record)
    assert density == []


def test_only_pde_times_get_rounding_slack():
    cfg = default_cfg()
    cfg["pde"]["density_times"] = [15.0 + 1e-13]
    assert resolve_times(cfg, "pde", "density_times")[0] == [15.0 + 1e-13]
    cfg["simulation"]["histogram_times"] = [15.0 + 1e-13]
    with pytest.raises(ConfigError, match=r"^simulation\.histogram_times: must lie in "):
        resolve_times(cfg, "simulation", "record_times", "histogram_times")


def test_unread_histogram_times_are_not_checked():
    cfg = default_cfg()
    cfg["simulation"]["t_max"] = 0.5
    cfg["simulation"]["histogram_times"] = [1.0, 15.0]
    assert resolve_times(cfg, "simulation", "record_times") == [[0.0, 0.5]]


@pytest.mark.parametrize("section, lists, fields, message", [
    ("simulation", {"record_times": []}, ("record_times", "histogram_times"),
     r"^simulation\.record_times: must not be empty$"),
    ("simulation", {"record_times": [], "histogram_times": [1.0]}, ("record_times",),
     r"^simulation\.record_times: must not be empty$"),
    ("pde", {"record_times": [], "density_times": []}, ("record_times", "density_times"),
     r"^pde\.record_times/density_times: must not be empty$"),
])
def test_empty_read_lists_rejected(section, lists, fields, message):
    cfg = default_cfg()
    cfg[section].update(lists)
    with pytest.raises(ConfigError, match=message):
        resolve_times(cfg, section, *fields)
