"""The lazy package: every public name and submodule resolves, and none is cached."""

import importlib

import pytest

import gjmslab

#: Every public name of `gjmslab`.
EXPORTS = (
    "GjmsSpectrum", "QuadratureRule", "SphereParams", "Workspace", "ZonalFunction",
    "build_quadrature", "gjms_eigenvalues", "gjms_lambda0", "sphere_area", "zonal_basis",
    "angle_from_radius", "bubble_on_sphere", "conformal_factor",
    "iterated_laplacians", "pullback_to_plane", "radius_from_angle",
    "GreenConstants", "KernelSpectrum", "funk_hecke_spectrum", "green_constant", "hls_dual_ratio",
    "MinimizationResult", "OptimizerConfig", "minimize", "sharp_constant",
    "Nonlinearity", "ProbeReport", "SolveResult", "SuperPolyReport",
    "constant_solution", "solve_newton", "uniqueness_probe", "verify_super_polyharmonic",
    "verify_symmetry_monotonicity",
)
SUBMODULES = (
    "checks", "cli", "closed_forms", "conformal", "errors", "kernels", "lane_emden", "rayleigh",
    "spectral",
)


@pytest.mark.parametrize("name", EXPORTS)
def test_export_resolves_as_attribute_and_from_import(name):
    value = getattr(gjmslab, name)
    namespace = {}
    exec(f"from gjmslab import {name}", namespace)
    assert namespace[name] is value
    assert getattr(importlib.import_module(value.__module__), name) is value
    assert name in dir(gjmslab) and name in gjmslab.__all__


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_resolves_as_attribute_and_from_import(name):
    module = importlib.import_module(f"gjmslab.{name}")
    assert getattr(gjmslab, name) is module
    namespace = {}
    exec(f"from gjmslab import {name}", namespace)
    assert namespace[name] is module


def test_all_lists_exactly_the_exports():
    # analysis, synthesis, norms and energies live on Workspace only
    assert gjmslab.__all__ == sorted(EXPORTS)
    for name in ("analyze", "synthesize", "lp_norm", "quadratic_form"):
        assert not hasattr(gjmslab, name)
        assert not hasattr(importlib.import_module("gjmslab.spectral"), name)
    # a bubble is named by its dilation alone; the workspace carries (n, m)
    assert not hasattr(gjmslab, "BubbleParams")
    assert not hasattr(importlib.import_module("gjmslab.conformal"), "BubbleParams")
    # the kernel energy is one dot product with the mu array
    assert not hasattr(gjmslab, "hls_functional")
    assert not hasattr(importlib.import_module("gjmslab.kernels"), "hls_functional")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from gjmslab import *", namespace)
    assert set(EXPORTS) <= set(namespace)


def test_names_are_looked_up_on_every_access(monkeypatch):
    from gjmslab import rayleigh

    gjmslab.minimize
    assert "minimize" not in vars(gjmslab)

    def stand_in(cfg):
        return cfg

    monkeypatch.setattr(rayleigh, "minimize", stand_in)
    assert gjmslab.minimize is stand_in


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        gjmslab.no_such_name
    with pytest.raises(ImportError):
        exec("from gjmslab import no_such_name", {})
