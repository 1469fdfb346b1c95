"""Property test: the iterative entry points of the library end every tolerance,
iteration cap and start count in a result or a ToolkitError, and none reports
convergence under a tolerance that is not finite."""

import math
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gjmslab.errors import ToolkitError
from gjmslab.kernels import hls_dual_ratio
from gjmslab.lane_emden import (
    Nonlinearity,
    constant_solution,
    probe_start,
    solve_newton,
    uniqueness_probe,
)
from gjmslab.rayleigh import OptimizerConfig, minimize
from gjmslab.spectral import SphereParams, Workspace

TOLERANCES = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 1e-300, 1e-8])
ITERATION_CAPS = st.sampled_from([-3, 0, 1])
COUNTS = st.sampled_from([-1, 0, 1])
SPHERES = st.sampled_from([(3, 1), (5, 2), (7, 2), (7, 3)])


def _outcome(call):
    """What call() returns, or None when it raises a ToolkitError."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return call()
        except ToolkitError:
            return None


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(SPHERES, st.integers(1, 8), TOLERANCES, ITERATION_CAPS, COUNTS)
def test_solvers_return_or_raise_a_toolkit_error(sphere, K, tol, max_iter, count):
    n, m = sphere
    params = SphereParams(n=n, m=m)
    valid_tol = math.isfinite(tol) and tol > 0.0
    f = Nonlinearity.single_power(1.0, 2.0, params)  # subcritical on every sphere drawn
    rng = np.random.default_rng(K)
    init = probe_start(Workspace.shared(params, K), constant_solution(m, n, f), rng)
    p = 0.5 * (2.0 + params.critical_norm_exponent)

    solve = _outcome(lambda: solve_newton(m, n, f, init, tol=tol, max_iter=max_iter))
    assert (solve is not None) == (valid_tol and max_iter >= 0)

    probe = _outcome(lambda: uniqueness_probe(m, n, f, trials=count, seed=0, K=K, tol=tol))
    assert (probe is not None) == (valid_tol and count >= 1)

    best = _outcome(
        lambda: minimize(
            OptimizerConfig(params=params, p=p, K=K, starts=count, tol_grad=tol, max_iter=max_iter)
        )
    )
    assert (best is not None) == (valid_tol and count >= 1 and max_iter >= 1)

    ratio = _outcome(
        lambda: hls_dual_ratio(params, p, trials=count, K=K, max_iter=max_iter, tol_grad=tol)
    )
    assert (ratio is not None) == (valid_tol and count >= 1 and max_iter >= 1)

    # a tolerance that is not a finite positive number never yields a result,
    # so nothing reports convergence under it
    if not valid_tol:
        assert solve is probe is best is ratio is None
