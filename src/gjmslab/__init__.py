"""Zonal spectral toolkit for conformal operators of order 2m on round spheres.

Modules
-------
closed_forms  sphere areas, SphereParams, bottom eigenvalue, sharp constants (no numpy)
spectral      orthonormal zonal basis, quadrature, closed-form operator spectra, Workspace
conformal     stereographic transport, bubbles, iterated Laplacians
kernels       surface Riesz kernel spectrum, inverse operator, duality quotient
rayleigh      sharp subcritical constants and quotient minimization
lane_emden    Newton solves, uniqueness probes, monotone-decay and super-polyharmonic verifiers
checks        the verify suite: independent cross-checks of the closed forms
cli           command-line front end and report emission

The package is lazy (PEP 562): `import gjmslab` loads none of its modules,
and each public name below imports its defining module on first access, so
`gjmslab.sharp_constant` needs no numpy.  Names are looked up on every
access, never stored in the package namespace.
"""

import importlib

__version__ = "0.1.0"

#: Public names by the submodule that defines them.
_MODULE_EXPORTS = {
    "closed_forms": ("SphereParams", "gjms_lambda0", "sharp_constant", "sphere_area"),
    "spectral": (
        "GjmsSpectrum",
        "QuadratureRule",
        "Workspace",
        "ZonalFunction",
        "build_quadrature",
        "gjms_eigenvalues",
        "zonal_basis",
    ),
    "conformal": (
        "angle_from_radius",
        "bubble_on_sphere",
        "conformal_factor",
        "iterated_laplacians",
        "pullback_to_plane",
        "radius_from_angle",
    ),
    "kernels": (
        "GreenConstants",
        "KernelSpectrum",
        "funk_hecke_spectrum",
        "green_constant",
        "hls_dual_ratio",
    ),
    "rayleigh": ("MinimizationResult", "OptimizerConfig", "minimize"),
    "lane_emden": (
        "Nonlinearity",
        "ProbeReport",
        "SolveResult",
        "SuperPolyReport",
        "constant_solution",
        "solve_newton",
        "uniqueness_probe",
        "verify_super_polyharmonic",
        "verify_symmetry_monotonicity",
    ),
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}
_SUBMODULES = (*_MODULE_EXPORTS, "checks", "cli", "errors")

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
