import importlib

import pytest

import oistlab


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from oistlab import *", namespace)
    missing = [name for name in oistlab.__all__ if name not in namespace]
    assert not missing
    assert len(set(oistlab.__all__)) == len(oistlab.__all__)


@pytest.mark.parametrize("module, name", [
    ("oistlab", "eta_map"),
    ("oistlab.nonlinearity", "eta_map"),
    ("oistlab.steady", "g_scale"),
    ("oistlab.steady", "h_curvature"),
    ("oistlab.pde", "drift"),
])
def test_removed_names_do_not_resolve(module, name):
    # the limit coefficients are nonlinearity.diffusion_coefficient and
    # nonlinearity.restoring_coefficient; the shrinkage runs inside oist_step
    assert not hasattr(importlib.import_module(module), name)
