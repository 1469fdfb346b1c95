"""Property tests: the iterative entry points of the library end every tolerance,
iteration cap and start count in a result or a ToolkitError, and none reports
convergence under a tolerance that is not finite; the closed-form spectra are
valid or a DomainError on the whole (n, m, K) domain."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gjmslab.errors import DomainError, ToolkitError
from gjmslab.kernels import IDENTITY_TOLERANCE, funk_hecke_spectrum, green_constant, hls_dual_ratio
from gjmslab.lane_emden import (
    Nonlinearity,
    constant_solution,
    probe_start,
    solve_newton,
    uniqueness_probe,
)
from gjmslab.rayleigh import OptimizerConfig, minimize
from gjmslab.spectral import (
    SphereParams,
    Workspace,
    ZonalFunction,
    basis_values,
    basis_with_derivatives,
    gjms_eigenvalues,
)

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


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(SPHERES, st.integers(1, 25), st.integers(1, 3), st.integers(1, 12), st.integers(0, 3))
def test_minimize_records_every_start(sphere, starts, max_iter, K, seed):
    # the starts run in lockstep and retire on different passes; each keeps
    # its own record
    n, m = sphere
    params = SphereParams(n=n, m=m)
    p = 0.5 * (2.0 + params.critical_norm_exponent)
    res = minimize(OptimizerConfig(params=params, p=p, K=K, starts=starts, seed=seed, max_iter=max_iter))
    records = (res.start_values, res.start_iters, res.start_fallback_steps, res.start_stop_reasons)
    assert [len(r) for r in records] == [starts] * 4
    for iters, fallbacks, reason in zip(res.start_iters, res.start_fallback_steps, res.start_stop_reasons):
        assert 0 <= fallbacks <= iters <= max_iter
        assert reason != "max_iter" or iters == max_iter


def _or_domain_error(call):
    """What call() returns, or None when it raises a DomainError."""
    try:
        return call()
    except DomainError:
        return None


@st.composite
def spectrum_sizes(draw):
    n = draw(st.integers(3, 420))
    return n, draw(st.integers(1, (n - 1) // 2)), draw(st.integers(0, 3000))


@settings(max_examples=400, deadline=None)
@given(spectrum_sizes())
@example((3, 1, 0))
@example((420, 209, 3000))
@example((362, 41, 3000))  # mu reaches 0 while Lambda is finite
@example((341, 52, 700))  # mu is subnormal while Lambda is finite
def test_spectra_are_valid_or_a_domain_error(size):
    # the spectrum records no longer re-check their closed forms, so every
    # draw either raises DomainError or gives spectra with the properties
    # those checks asserted; any other exception fails the test
    n, m, K = size
    params = SphereParams(n=n, m=m)
    gjms = _or_domain_error(lambda: gjms_eigenvalues(params, K))
    if gjms is None:
        return
    lam = gjms.lam
    assert lam.shape == (K + 1,) and np.all(np.isfinite(lam))
    assert lam[0] > 0.0 and np.all(np.diff(lam) > 0.0)
    kernel = _or_domain_error(lambda: funk_hecke_spectrum(params, K))
    if kernel is None:
        return
    mu = kernel.mu
    assert mu.shape == (K + 1,) and np.all(np.isfinite(mu))
    assert np.all(mu >= sys.float_info.min) and np.all(np.diff(mu) < 0.0)
    green = _or_domain_error(lambda: green_constant(params, kernel=kernel, gjms=gjms))
    if green is None:
        return
    assert np.max(np.abs(green.g_mn * mu * lam - 1.0)) <= IDENTITY_TOLERANCE


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 13),
    st.integers(0, 40),
    st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=24),
    st.booleans(),
)
def test_symmetric_cosines_match_the_general_path(n, K, s, middle):
    # t = (-s reversed, [0], s) runs the basis recurrences on t >= 0 and fills
    # the rest by parity; one cosine at a time runs them on all of t, and the
    # bytes, signs of zero included, agree
    s = np.array(s)
    t = np.concatenate((-s[::-1], [0.0] if middle else [], s))
    general = np.vstack([basis_values(n, K, x) for x in t])
    assert basis_values(n, K, t).tobytes() == general.tobytes()
    singles = zip(*(basis_with_derivatives(n, K, x) for x in t))
    for got, rows in zip(basis_with_derivatives(n, K, t), singles):
        assert got.tobytes() == np.vstack(rows).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    SPHERES,
    st.integers(0, 12),
    st.lists(st.floats(-3.0, 3.0), max_size=8),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.integers(0, 8),
)
def test_non_finite_cosines_are_a_domain_error(sphere, K, t, bad, at):
    # any inf or nan among the cosines is refused before the recurrence runs,
    # with no numpy warning; finite cosines outside [-1, 1] are evaluated
    n, m = sphere
    u = ZonalFunction(SphereParams(n=n, m=m), np.ones(K + 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(u.evaluate(t)).all()
        t = t[:at] + [bad] + t[at:]
        for call in (basis_values, basis_with_derivatives, lambda n, K, t: u.evaluate(t)):
            with pytest.raises(DomainError, match="cosines t must be finite"):
                call(n, K, t)
