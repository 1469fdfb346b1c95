"""Solver, uniqueness-probe, and planar-verifier tests."""

import math

import numpy as np
import pytest
import sympy

from gjmslab.conformal import BubbleParams, RadialProfile, bubble_on_sphere
from gjmslab.errors import AccuracyError, DomainError
from gjmslab.lane_emden import (
    Nonlinearity,
    chebyshev_radial_grid,
    check_profile_monotone,
    constant_solution,
    probe_start,
    radial_laplacian,
    solve_newton,
    uniqueness_probe,
    verify_super_polyharmonic,
    verify_symmetry_monotonicity,
)
from gjmslab.spectral import (
    SphereParams,
    Workspace,
    ZonalFunction,
    build_quadrature,
    gjms_lambda0,
    sphere_area,
)


def constant_coeffs(params, value, K):
    c = np.zeros(K + 1)
    c[0] = value * math.sqrt(sphere_area(params.n))
    return ZonalFunction(params, c)


class TestNonlinearity:
    def test_classification(self):
        params = SphereParams(n=3, m=1)  # critical equation power 5
        assert Nonlinearity.single_power(1, 3, params).classification == "subcritical"
        assert Nonlinearity.single_power(1, 5, params).classification == "critical"
        assert Nonlinearity.single_power(1, 6, params).classification == "supercritical"
        assert Nonlinearity.from_terms([], params).classification == "subcritical"

    def test_validation(self):
        params = SphereParams(n=3, m=1)
        with pytest.raises(DomainError):
            Nonlinearity.from_terms([(-1, 2)], params)
        with pytest.raises(DomainError):
            Nonlinearity.from_terms([(1, 0.5)], params)

    def test_terms_sorted(self):
        params = SphereParams(n=5, m=2)
        f = Nonlinearity.from_terms([(2, 3), (1, 1)], params)
        assert f.terms == ((1.0, 1.0), (2.0, 3.0))

    def test_fractional_power_is_odd_extension(self):
        params = SphereParams(n=5, m=2)
        f = Nonlinearity.single_power(1.0, 1.5, params)
        vals = f(np.array([-4.0, 0.0, 4.0]))
        assert vals[0] == -vals[2] and vals[1] == 0.0


class TestConstantSolution:
    def test_cubic_n3(self):
        params = SphereParams(n=3, m=1)
        f = Nonlinearity.single_power(1.0, 3.0, params)
        assert constant_solution(1, 3, f) == pytest.approx(math.sqrt(0.75), rel=1e-14)

    def test_quadratic_n5(self):
        params = SphereParams(n=5, m=2)
        f = Nonlinearity.single_power(1.0, 2.0, params)
        assert constant_solution(2, 5, f) == pytest.approx(105.0 / 16.0, rel=1e-14)

    def test_zero_rhs(self):
        params = SphereParams(n=3, m=1)
        assert constant_solution(1, 3, Nonlinearity.from_terms([], params)) == 0.0

    def test_mixed_terms(self):
        params = SphereParams(n=5, m=2)
        f = Nonlinearity.from_terms([(1, 1), (1, 2)], params)
        assert constant_solution(2, 5, f) == pytest.approx(105.0 / 16.0 - 1.0, rel=1e-13)

    def test_mixed_powers_match_brentq(self):
        from scipy.optimize import brentq

        params = SphereParams(n=5, m=2)
        f = Nonlinearity.from_terms([(0.5, 1.0), (2.0, 1.7), (0.1, 4.0)], params)
        lam0 = gjms_lambda0(2, 5)

        def g(c):
            return lam0 * c - float(f(np.asarray([c]))[0])

        eps = np.finfo(float).eps
        ref = brentq(g, 1e-300, 4.0, xtol=1e-15, rtol=4 * eps, maxiter=200)
        assert abs(constant_solution(2, 5, f) - ref) <= 4 * eps * ref

    def test_no_positive_root(self):
        params = SphereParams(n=3, m=1)
        # linear part already dominates the spectrum bottom
        f = Nonlinearity.from_terms([(1.0, 1.0), (1.0, 3.0)], params)
        assert constant_solution(1, 3, f) is None
        assert constant_solution(1, 3, Nonlinearity.single_power(1.0, 1.0, params)) is None


class TestSolveNewton:
    def test_constant_start_is_immediate(self):
        params = SphereParams(n=3, m=1)
        f = Nonlinearity.single_power(1.0, 3.0, params)
        init = constant_coeffs(params, constant_solution(1, 3, f), 16)
        res = solve_newton(1, 3, f, init)
        assert res.iters <= 2
        assert res.residual <= 1e-12
        assert res.classification == "constant"
        assert res.converged

    def test_perturbed_start_returns_to_constant(self):
        params = SphereParams(n=3, m=1)
        f = Nonlinearity.single_power(1.0, 3.0, params)
        c_star = constant_solution(1, 3, f)
        init = constant_coeffs(params, c_star, 16)
        init.coeffs[2] = 0.3
        res = solve_newton(1, 3, f, init)
        assert res.converged
        assert res.classification == "constant"
        assert abs(res.solution.mean() - c_star) / c_star <= 1e-10

    def test_critical_bubble_is_nonconstant_solution(self):
        # at the critical power the dilated bubbles solve the equation exactly
        # once scaled so the coefficient is one
        params = SphereParams(n=3, m=1)
        p_eq = params.critical_equation_exponent
        f = Nonlinearity.single_power(1.0, p_eq, params)
        ws = Workspace(params, 64, 136)
        vb = bubble_on_sphere(BubbleParams(lam=2.0, params=params), ws.rule, 64)
        scale = (gjms_lambda0(1, 3) * 4.0) ** (1.0 / (p_eq - 1.0))
        init = ZonalFunction(params, scale * vb.coeffs)
        res = solve_newton(1, 3, f, init, tol=1e-8, workspace=ws)
        assert res.converged
        assert res.residual <= 1e-8
        assert res.classification == "nonconstant"
        assert res.negativity >= -1e-12

    def test_divergence_flagged(self):
        params = SphereParams(n=3, m=1)
        f = Nonlinearity.single_power(1.0, 3.0, params)
        init = constant_coeffs(params, 1e7, 8)
        res = solve_newton(1, 3, f, init, max_iter=3)
        assert not res.converged

    def test_workspace_must_match_iterate(self):
        params = SphereParams(n=3, m=1)
        f = Nonlinearity.single_power(1.0, 3.0, params)
        init = constant_coeffs(params, 1.0, 8)
        with pytest.raises(ValueError):
            solve_newton(1, 3, f, init, workspace=Workspace(params, 12))
        with pytest.raises(ValueError):
            solve_newton(1, 3, f, init, workspace=Workspace(SphereParams(n=5, m=1), 8))


class TestUniquenessProbe:
    def test_cubic_all_constant(self):
        params = SphereParams(n=3, m=1)
        f = Nonlinearity.single_power(1.0, 3.0, params)
        rep = uniqueness_probe(1, 3, f, trials=12, seed=5, K=16)
        assert rep.converged == 12
        assert rep.constant == 12
        assert rep.counterexamples == []
        assert rep.max_constant_rel_err <= 1e-8
        assert rep.fraction_constant == 1.0

    def test_one_workspace_per_probe(self, monkeypatch):
        import gjmslab.spectral as spectral

        calls = {"basis_values": 0, "gjms_eigenvalues": 0}
        for name in calls:

            def counted(*args, _name=name, _original=getattr(spectral, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(spectral, name, counted)
        f = Nonlinearity.single_power(1.0, 3.0, SphereParams(n=3, m=1))
        rep = uniqueness_probe(1, 3, f, trials=10, seed=0, K=16)
        assert rep.converged == 10
        assert calls == {"basis_values": 1, "gjms_eigenvalues": 1}

    def test_single_trial_from_near_constant(self):
        params = SphereParams(n=5, m=2)
        f = Nonlinearity.single_power(1.0, 2.0, params)
        rep = uniqueness_probe(2, 5, f, trials=1, seed=0, K=12)
        assert rep.constant == 1

    def test_linear_reports_kernel_dimension(self):
        params = SphereParams(n=3, m=1)
        resonant = Nonlinearity.single_power(0.75, 1.0, params)  # bottom eigenvalue
        rep = uniqueness_probe(1, 3, resonant, trials=5, seed=0, K=12)
        assert rep.kernel_dimension == 1
        assert rep.trials == 0
        off = Nonlinearity.single_power(1.0, 1.0, params)
        assert uniqueness_probe(1, 3, off, trials=5, seed=0, K=12).kernel_dimension == 0

    def test_sign_changing_limit_of_a_positive_start(self):
        # Trial 28 of probe seed 1132453375 on u^3, (n, m) = (7, 2), K = 96
        # (round 0 of perfbench's uniqueness-probes at seed 133) starts with
        # mean 8.4 > c* and converges to a sign-changing solution with mean 0.
        # The probe counts it as negative, not as a counterexample, and
        # perfbench's probe oracle refuses any negative trial.  At the default
        # stop of 1e-12 the trial ends at residual 8.9e-13, so any change of
        # rounding can flip it to nonconverged; at 1e-10 it stops at 1.0e-11.
        # The start is not positive at the nodes (min -1.8): probe_start
        # clips its values at 0.05 c*, but their degree-K projection dips
        # below zero near the poles.
        params = SphereParams(n=7, m=2)
        f = Nonlinearity.single_power(1.0, 3.0, params)
        seed, tol = 1132453375, 1e-10
        rep = uniqueness_probe(2, 7, f, trials=29, seed=seed, K=96, tol=tol)
        assert (rep.negative, rep.nonconstant, rep.fraction_constant) == (1, 0, 1.0)
        assert rep.constant == 28 and rep.counterexamples == []
        ws = Workspace(params, 96)
        c_star = constant_solution(2, 7, f)
        init = probe_start(ws, c_star, np.random.default_rng([seed, 28]))
        assert init.mean() > c_star
        result = solve_newton(2, 7, f, init, tol=tol, workspace=ws)
        assert result.converged and result.residual <= 0.2 * tol
        assert result.negativity == pytest.approx(-52.8185, rel=1e-5)
        assert abs(result.solution.mean()) <= 1e-12
        assert result.solution.distance_to_constant() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_supercritical(self):
        params = SphereParams(n=3, m=1)
        f = Nonlinearity.single_power(1.0, 5.0, params)
        with pytest.raises(DomainError):
            uniqueness_probe(1, 3, f, trials=2, seed=0)

    def test_probe_starts_positive(self):
        ws = Workspace(SphereParams(n=3, m=1), 16, 40)
        for trial in range(10):
            rng = np.random.default_rng([3, trial])
            u = probe_start(ws, 0.866, rng)
            assert np.min(u.evaluate(ws.rule.nodes)) > 0

    def test_jensen_mean_power_under_rule(self):
        # discrete Jensen bound, a sanity property of the positive weights
        rng = np.random.default_rng(13)
        rule = build_quadrature(5, 40)
        area = sphere_area(5)
        for _ in range(25):
            vals = np.abs(rng.standard_normal(rule.order)) + 0.01
            for p in (1.0, 1.7, 2.0, 3.0):
                mean_u = float(np.dot(rule.weights, vals)) / area
                mean_up = float(np.dot(rule.weights, vals**p)) / area
                assert mean_u**p <= mean_up + 1e-12 * mean_up


class TestMonotonicityVerifier:
    def test_constant_solution_profile(self):
        params = SphereParams(n=3, m=1)
        sol = constant_coeffs(params, math.sqrt(0.75), 8)
        rep = verify_symmetry_monotonicity(sol, np.linspace(0.0, 20.0, 400))
        assert rep.passed

    def test_bubble_pushforward(self):
        params = SphereParams(n=3, m=1)
        rule = build_quadrature(3, 64)
        v = bubble_on_sphere(BubbleParams(lam=1.0, params=params), rule, 16)
        rep = verify_symmetry_monotonicity(v, np.linspace(0.0, 15.0, 300))
        assert rep.passed

    def test_negative_control_locates_index(self):
        params = SphereParams(n=3, m=1)
        grid = np.linspace(0.0, 10.0, 200)
        rep = check_profile_monotone(RadialProfile(params, grid, np.sin(grid) + 2.0))
        assert not rep.passed
        assert rep.index is not None
        assert np.sin(grid[rep.index + 1]) > np.sin(grid[rep.index])


class TestSuperPolyharmonic:
    def test_vacuous_for_order_two(self):
        params = SphereParams(n=3, m=1)
        grid = chebyshev_radial_grid(5.0, 65)
        prof = RadialProfile(params, grid, np.exp(-(grid**2)))
        assert verify_super_polyharmonic(prof, 1).passed

    def test_bubble_profile_passes(self):
        params = SphereParams(n=5, m=2)
        grid = chebyshev_radial_grid(6.0, 321)
        prof = RadialProfile(params, grid, (1.0 + grid**2) ** (params.m - params.n / 2))
        rep = verify_super_polyharmonic(prof, 2)
        assert rep.passed
        assert rep.order_minima[0] > 0

    def test_gaussian_fails(self):
        params = SphereParams(n=5, m=2)
        grid = chebyshev_radial_grid(6.0, 321)
        rep = verify_super_polyharmonic(RadialProfile(params, grid, np.exp(-(grid**2))), 2)
        assert not rep.passed

    def test_laplacian_matches_symbolic_oracle(self):
        # differentiate the closed forms with sympy and compare on the grid
        r = sympy.symbols("r", nonnegative=True)
        cases = [
            (5, sympy.exp(-(r**2))),
            (5, (1 + r**2) ** sympy.Rational(-1, 2)),
            (3, sympy.exp(-(r**2)) * (1 + sympy.Rational(1, 4) * sympy.cos(3 * r))),
        ]
        for n, expr in cases:
            m = (n - 1) // 2
            params = SphereParams(n=n, m=m)
            lap_expr = sympy.diff(expr, r, 2) + (n - 1) * sympy.diff(expr, r) / r
            lap_at_zero = sympy.limit(lap_expr, r, 0)
            lap = sympy.lambdify(r, lap_expr, "numpy")
            fn = sympy.lambdify(r, expr, "numpy")
            grid = chebyshev_radial_grid(5.0, 257)
            prof = RadialProfile(params, grid, fn(grid))
            ours = radial_laplacian(prof)
            expected = np.empty_like(grid)
            expected[0] = float(lap_at_zero)
            expected[1:] = lap(grid[1:])
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(ours - expected)) <= 1e-8 * scale

    def test_coarse_grid_raises(self):
        params = SphereParams(n=5, m=2)
        grid = np.linspace(0.0, 6.0, 12)[1:]  # too few points to resolve
        prof = RadialProfile(params, grid, np.cos(9 * grid) + 2)
        with pytest.raises(AccuracyError):
            verify_super_polyharmonic(prof, 3)
