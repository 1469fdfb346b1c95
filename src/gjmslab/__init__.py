"""Zonal spectral toolkit for conformal operators of order 2m on round spheres.

Modules
-------
spectral    orthonormal zonal basis, quadrature, closed-form operator spectra, norms
conformal   stereographic transport, bubbles, iterated Laplacians, norm-invariance checks
kernels     surface Riesz kernel spectrum, inverse operator, duality quotient
rayleigh    sharp subcritical constants and quotient minimization
lane_emden  Newton solves, uniqueness probes, monotone-decay and super-polyharmonic verifiers
checks      the verify suite: independent cross-checks of the closed forms
cli         command-line front end and report emission
"""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    GjmsSpectrum,
    QuadratureRule,
    SphereParams,
    Workspace,
    ZonalFunction,
    analyze,
    build_quadrature,
    gjms_eigenvalues,
    gjms_lambda0,
    lp_norm,
    quadratic_form,
    sphere_area,
    synthesize,
    zonal_basis,
)
from .conformal import (  # noqa: F401
    BubbleParams,
    RadialProfile,
    angle_from_radius,
    bubble_on_sphere,
    conformal_factor,
    iterated_laplacians,
    norm_transport_check,
    pullback_to_plane,
    radius_from_angle,
)
from .kernels import (  # noqa: F401
    GreenConstants,
    KernelSpectrum,
    funk_hecke_spectrum,
    green_constant,
    hls_dual_ratio,
    hls_functional,
)
from .rayleigh import (  # noqa: F401
    MinimizationResult,
    OptimizerConfig,
    minimize,
    sharp_constant,
)
from .lane_emden import (  # noqa: F401
    MonotonicityReport,
    Nonlinearity,
    ProbeReport,
    SolveResult,
    SuperPolyReport,
    constant_solution,
    solve_newton,
    uniqueness_probe,
    verify_super_polyharmonic,
    verify_symmetry_monotonicity,
)
