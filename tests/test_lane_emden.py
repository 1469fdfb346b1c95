"""Solver, uniqueness-probe, and planar-verifier tests."""

import math

import mpmath
import numpy as np
import pytest
import sympy

from gjmslab.conformal import (
    bubble_on_sphere,
    iterated_laplacians,
    pullback_to_plane,
    radius_from_angle,
)
from gjmslab import lane_emden
from gjmslab.errors import DomainError
from gjmslab.lane_emden import (
    Nonlinearity,
    constant_solution,
    probe_start,
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

    def test_power_acts_on_positive_part(self):
        # f(u) = sum a (u+)^p: zero with zero slope where u <= 0, and on u > 0
        # the same bits as the literal integer and odd fractional powers
        params = SphereParams(n=9, m=3)
        f = Nonlinearity.from_terms([(0.5, 1.0), (2.0, 1.5), (0.25, 3.0), (1.5, 3.7)], params)
        u = np.random.default_rng(7).standard_normal(200) * 3.0
        u[:3] = (-0.0, 0.0, -4.0)
        low = u <= 0.0
        assert np.all(f(u)[low] == 0.0) and np.all(f.slope(u)[low] == 0.0)
        pos = u[~low]
        old_value = (
            0.5 * pos + 2.0 * np.sign(pos) * np.abs(pos) ** 1.5 + 0.25 * pos**3
            + 1.5 * np.sign(pos) * np.abs(pos) ** 3.7
        )
        old_slope = (
            0.5 * (1.0 * pos**0) + 2.0 * (1.5 * np.abs(pos) ** 0.5) + 0.25 * (3.0 * pos**2)
            + 1.5 * (3.7 * np.abs(pos) ** 2.7)
        )
        np.testing.assert_array_equal(f(pos), old_value)
        np.testing.assert_array_equal(f.slope(pos), old_slope)

    @pytest.mark.parametrize(
        "a,p,u,rtol",
        [
            (1e-300, 3.0, 8.660254037844386e149, 1e-15),
            (1e200, 2.0, 7.5e-201, 1e-15),
            (1e-200, 2.5, 1e120, 1e-15),
            (1e-250, 2.3, 1e140, 2e-13),
        ],
    )
    def test_terms_whose_powers_leave_the_double_range(self, a, p, u, rtol):
        # (u+)^p overflows or underflows where a (u+)^p does not; f and its
        # slope then scale u by a power of two, exactly, and a by its inverse,
        # which is exact too where p is short in binary
        f = Nonlinearity.single_power(a, p, SphereParams(n=3, m=1))
        x = np.array([u, 2.0 * u, -u])
        value, slope = f(x), f.slope(x)
        exact = [mpmath.mpf(a) * mpmath.mpf(float(v)) ** p for v in x[:2]]
        exact_slope = [p * mpmath.mpf(a) * mpmath.mpf(float(v)) ** (p - 1) for v in x[:2]]
        for got, want in zip(value, exact):
            assert abs(got - want) <= rtol * want
        for got, want in zip(slope, exact_slope):
            assert abs(got - want) <= rtol * want
        assert value[2] == 0.0 and slope[2] == 0.0
        assert float(f(np.float64(u))) == value[0]


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

    @pytest.mark.parametrize("n,m,p", [(48, 1, 1.03), (13, 5, 1.05), (9, 3, 1.5)])
    def test_root_above_two_to_the_two_hundred(self, n, m, p):
        # Lambda_0 c = c^p has the root Lambda_0^(1/(p-1)); at (48, 1, 1.03) it is 2.5e91
        f = Nonlinearity.single_power(1.0, p, SphereParams(n=n, m=m))
        expected = gjms_lambda0(m, n) ** (1.0 / (p - 1.0))
        assert constant_solution(m, n, f) == pytest.approx(expected, rel=1e-13)

    def test_root_past_the_double_range_is_a_domain_error(self):
        # 3.75^1000 overflows a double
        f = Nonlinearity.single_power(1.0, 1.001, SphereParams(n=5, m=1))
        with pytest.raises(DomainError, match="overflows a double"):
            constant_solution(1, 5, f)

    @pytest.mark.parametrize(
        "n,m,terms",
        [
            (400, 1, [(2e4, 1.005)]),
            (100, 1, [(1.0, 1.0204)]),
            (48, 1, [(1.0, 1.03)]),
            (13, 5, [(1.0, 1.05)]),
            (9, 2, [(1.0, 1.143)]),
            (3, 1, [(1e60, 1.5)]),  # c* = 5.6e-121
            (3, 1, [(1e-300, 3.0)]),  # c* = 8.7e149
            (11, 5, [(1.0, 20.8)]),
            (5, 2, [(0.5, 1.0), (2.0, 1.7), (0.1, 4.0)]),
            (3, 1, [(1e-200, 2.0), (1e200, 4.0)]),  # c* = 2.0e-67
            (7, 2, [(0.3, 1.0), (1.5, 1.2), (4.0, 2.5), (1e-3, 3.5)]),
        ],
    )
    def test_root_to_sixty_digits(self, n, m, terms):
        # the root of Lambda_0 = sum a_i c^(p_i - 1) for the double inputs, by
        # Newton in x = log c at 60 digits; the bound is 8 eps times the root's
        # condition number sum a_i c^(p_i - 1) / sum (p_i - 1) a_i c^(p_i - 1)
        f = Nonlinearity.from_terms(terms, SphereParams(n=n, m=m))
        got = constant_solution(m, n, f)
        with mpmath.workdps(60):
            lam0 = mpmath.mpf(gjms_lambda0(m, n))
            ap = [(mpmath.mpf(a), mpmath.mpf(p) - 1) for a, p in f.terms]
            x = mpmath.log(got)
            for _ in range(100):
                h = lam0 - sum(a * mpmath.exp(q * x) for a, q in ap)
                step = h / sum(a * q * mpmath.exp(q * x) for a, q in ap)
                x += step
                if abs(step) < mpmath.mpf(10) ** -55:
                    break
            ref = mpmath.exp(x)
            kappa = float(lam0 / sum(a * q * ref**q for a, q in ap))
            rel = float(abs(mpmath.mpf(got) - ref) / ref)
        assert rel <= 8.0 * np.finfo(float).eps * max(1.0, kappa)

    def test_root_below_the_double_range_is_a_domain_error(self):
        # (0.75 / 1e300)^2 = 5.6e-601 underflows a double
        f = Nonlinearity.single_power(1e300, 1.5, SphereParams(n=3, m=1))
        with pytest.raises(DomainError, match="below the smallest normal double"):
            constant_solution(1, 3, f)

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
        assert res.max_tau == 0.0 and res.to_dict()["max_tau"] == 0.0

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
        vb = bubble_on_sphere(2.0, ws)
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

    def test_stop_reasons(self):
        params = SphereParams(n=3, m=1)
        f = Nonlinearity.single_power(1.0, 3.0, params)
        init = constant_coeffs(params, constant_solution(1, 3, f), 16)
        init.coeffs[2] = 0.3
        res = solve_newton(1, 3, f, init)
        assert (res.stop_reason, res.converged) == ("tolerance", True)
        assert res.rel_residual <= 1e-12
        res = solve_newton(1, 3, f, init, max_iter=2)
        assert (res.stop_reason, res.iters, res.converged) == ("max_iter", 2, False)
        # below the rounding of the residual no damped step can lower it
        res = solve_newton(1, 3, f, init, tol=1e-300)
        assert (res.stop_reason, res.converged) == ("line_search_exhausted", False)
        res = solve_newton(1, 3, f, constant_coeffs(params, 1e9, 8))
        assert (res.stop_reason, res.iters, res.classification) == ("diverged", 1, "diverged")
        assert not res.converged

    def test_singular_stack_falls_back_to_minres(self, monkeypatch):
        # a dense-side stack that np.linalg.solve rejects takes its step from
        # MINRES, never from lstsq, and the solve carries on to c*
        calls = {"solve": 0, "lstsq": 0}
        solve, lstsq = np.linalg.solve, np.linalg.lstsq

        def failing_once(*args):
            calls["solve"] += 1
            if calls["solve"] == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(*args)

        def counted(*args, **kwargs):
            calls["lstsq"] += 1
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", failing_once)
        monkeypatch.setattr(np.linalg, "lstsq", counted)
        params = SphereParams(n=3, m=1)
        f = Nonlinearity.single_power(1.0, 3.0, params)
        c_star = constant_solution(1, 3, f)
        init = constant_coeffs(params, c_star, 16)
        init.coeffs[2] = 0.3
        res = solve_newton(1, 3, f, init)
        assert calls["lstsq"] == 0 and calls["solve"] > 1 and res.krylov_iters > 0
        assert (res.stop_reason, res.classification) == ("tolerance", "constant")
        assert abs(res.solution.mean() - c_star) / c_star <= 1e-10

    def test_relative_stop_at_order_three(self):
        # from the exact constant the absolute residual is ~1e-9, all rounding
        params = SphereParams(n=9, m=3)
        f = Nonlinearity.single_power(1.0, 3.0, params)
        c_star = constant_solution(3, 9, f)
        res = solve_newton(3, 9, f, constant_coeffs(params, c_star, 32))
        assert res.converged and res.iters == 0 and res.residual > 1e-12
        assert res.rel_residual <= 1e-14

    def test_workspace_must_match_iterate(self):
        params = SphereParams(n=3, m=1)
        f = Nonlinearity.single_power(1.0, 3.0, params)
        init = constant_coeffs(params, 1.0, 8)
        with pytest.raises(ValueError):
            solve_newton(1, 3, f, init, workspace=Workspace(params, 12))
        with pytest.raises(ValueError):
            solve_newton(1, 3, f, init, workspace=Workspace(SphereParams(n=5, m=1), 8))

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -math.inf, 0.0, -1.0])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        # tol = inf would report the random start itself as converged
        params = SphereParams(n=3, m=1)
        f = Nonlinearity.single_power(1.0, 3.0, params)
        with pytest.raises(DomainError):
            solve_newton(1, 3, f, constant_coeffs(params, 1.0, 8), tol=tol)

    def test_iteration_cap_must_be_nonnegative(self):
        params = SphereParams(n=3, m=1)
        f = Nonlinearity.single_power(1.0, 3.0, params)
        init = constant_coeffs(params, 1.0, 8)
        with pytest.raises(DomainError, match="max_iter"):
            solve_newton(1, 3, f, init, max_iter=-1)
        assert solve_newton(1, 3, f, init, max_iter=0).iters == 0

    def test_zero_solution_is_classified_zero(self):
        # f(0) = 0, so c = 0 is an exact solution, but not the constant c*
        params = SphereParams(n=3, m=1)
        f = Nonlinearity.single_power(1.0, 3.0, params)
        res = solve_newton(1, 3, f, ZonalFunction(params, np.zeros(9)))
        assert (res.stop_reason, res.iters, res.classification) == ("tolerance", 0, "zero")

    def test_dense_steps_count_no_krylov_iterations(self):
        # a batch of one at K = 16 is below the dense work limit: every step is LU
        params = SphereParams(n=3, m=1)
        f = Nonlinearity.single_power(1.0, 3.0, params)
        init = constant_coeffs(params, constant_solution(1, 3, f), 16)
        init.coeffs[2] = 0.3
        res = solve_newton(1, 3, f, init)
        assert res.converged and res.iters > 0
        assert res.krylov_iters == 0 and res.to_dict()["krylov_iters"] == 0

    def test_krylov_solve_at_high_degree_matches_dense(self, monkeypatch):
        # a batch of one at K = 800 runs MINRES; it ends as the dense path does
        params = SphereParams(n=7, m=2)
        f = Nonlinearity.single_power(1.0, 3.0, params)
        ws = Workspace.shared(params, 800)
        init = probe_start(ws, constant_solution(2, 7, f), np.random.default_rng([7, 0]))
        krylov = solve_newton(2, 7, f, init, workspace=ws)
        monkeypatch.setattr(lane_emden, "_DENSE_WORK_LIMIT", math.inf)
        dense = solve_newton(2, 7, f, init, workspace=ws)
        assert (krylov.stop_reason, krylov.iters) == ("tolerance", dense.iters)
        assert dense.krylov_iters == 0 < krylov.krylov_iters <= 30 * krylov.iters
        gap = np.linalg.norm(krylov.solution.coeffs - dense.solution.coeffs)
        assert gap <= 1e-10 * np.linalg.norm(dense.solution.coeffs)

    def test_single_solve_past_the_dense_work_limit_runs_minres(self, monkeypatch):
        # one row at K = 200 has (K+1)^2 past the limit, and one at K = 198
        # does not; past it the steps are MINRES steps, and the solve ends as
        # the dense one does
        assert 199**2 < lane_emden._DENSE_WORK_LIMIT <= 201**2
        params = SphereParams(n=7, m=2)
        f = Nonlinearity.single_power(1.0, 3.0, params)
        ws = Workspace.shared(params, 200)
        init = probe_start(ws, constant_solution(2, 7, f), np.random.default_rng([7, 0]))
        krylov = solve_newton(2, 7, f, init, workspace=ws)
        monkeypatch.setattr(lane_emden, "_DENSE_WORK_LIMIT", math.inf)
        dense = solve_newton(2, 7, f, init, workspace=ws)
        assert (krylov.stop_reason, krylov.iters) == ("tolerance", dense.iters)
        assert dense.krylov_iters == 0 < krylov.krylov_iters
        gap = np.linalg.norm(krylov.solution.coeffs - dense.solution.coeffs)
        assert gap <= 1e-12 * np.linalg.norm(dense.solution.coeffs)

    @pytest.mark.parametrize("dense_work_limit", [0, math.inf])
    def test_iterate_near_zero_lands_on_zero(self, monkeypatch, dense_work_limit):
        # a start of size 1e-15 heads to the exact solution c = 0; by MINRES it
        # once crept down by 1e-12 per step until its norm underflowed, and was
        # then reported as a converged constant
        monkeypatch.setattr(lane_emden, "_DENSE_WORK_LIMIT", dense_work_limit)
        params = SphereParams(n=3, m=1)
        f = Nonlinearity.single_power(1.0, 3.0, params)
        c = np.zeros(9)
        c[0], c[2] = 1e-15, 3e-16
        res = solve_newton(1, 3, f, ZonalFunction(params, c))
        assert (res.stop_reason, res.iters, res.classification) == ("tolerance", 1, "zero")
        assert not res.solution.coeffs.any()

    @pytest.mark.parametrize("a,q", [(1e30, 3.0), (1.0, 1.005), (1e100, 1.5)])
    def test_constant_below_tol_is_not_taken_for_zero(self, a, q):
        # c* is 8.7e-16 for 1e30 t^3, 1e-25 for t^1.005 and 5.6e-201 for
        # 1e100 t^1.5, whose squares underflow a double: a single power is
        # scale-equivariant, so Newton from a random start reaches it as from
        # any other constant, and no floor of 1 on the zero snap may cut it off
        params = SphereParams(n=3, m=1)
        f = Nonlinearity.single_power(a, q, params)
        c_star = constant_solution(1, 3, f)
        assert c_star < 1e-15
        ws = Workspace.shared(params, 16)
        res = solve_newton(1, 3, f, probe_start(ws, c_star, np.random.default_rng([0, 0])))
        assert (res.stop_reason, res.classification) == ("tolerance", "constant")
        assert abs(res.solution.mean() - c_star) <= 1e-10 * c_star

    def test_divergence_bound_scales_with_the_constant(self):
        # c* = 2.4e8 on (9, 1, t^1.143): its coefficient norm 1.4e9 is past the
        # old absolute bound 1e8, and a random start reaches it
        params = SphereParams(n=9, m=1)
        f = Nonlinearity.single_power(1.0, 1.143, params)
        c_star = constant_solution(1, 9, f)
        assert c_star * math.sqrt(params.area) > 1e9
        ws = Workspace.shared(params, 16)
        res = solve_newton(1, 9, f, probe_start(ws, c_star, np.random.default_rng([0, 0])))
        assert (res.stop_reason, res.classification) == ("tolerance", "constant")
        assert abs(res.solution.mean() - c_star) <= 1e-10 * c_star
        # past 1e8 times that scale an iterate still stops as diverged
        init = constant_coeffs(params, 1e9 * c_star, 16)
        res = solve_newton(1, 9, f, init, workspace=ws)
        assert (res.stop_reason, res.iters) == ("diverged", 1)

    def test_dense_step_is_the_scaled_lu_solve(self, monkeypatch):
        # one row at K = 160 is LU-solved.  On (11, 5, t^11) Lambda_K / Lambda_0
        # is about 2e16, and from two of these starts an LU solve of the
        # unscaled J = diag(Lambda) - G is off by 7e-13 and 2e-7
        steps = []

        def recorded(attempt, scales, floor, rows, S, krylov):
            steps.append(S.copy())
            return backtrack(attempt, scales, floor, rows, S, krylov)

        backtrack = lane_emden.backtrack
        monkeypatch.setattr(lane_emden, "backtrack", recorded)
        params, K = SphereParams(n=11, m=5), 160
        assert (K + 1) ** 2 < lane_emden._DENSE_WORK_LIMIT
        f = Nonlinearity.single_power(1.0, 11.0, params)
        ws = Workspace.shared(params, K)
        root = np.sqrt(ws.lam)
        BD = ws.basis / root
        unscaled_gaps = []
        for s in range(5):
            steps.clear()
            c = probe_start(ws, constant_solution(5, 11, f), np.random.default_rng([s, 0])).coeffs
            res = solve_newton(5, 11, f, ZonalFunction(params, c), max_iter=1, workspace=ws)
            assert res.iters == 1 and res.krylov_iters == 0
            # the reference: LU on (I - D G D) y = -D res, D = Lambda^(-1/2), with
            # D G D assembled from the scaled basis B D; the first step is tau = 0
            V = ws.basis @ c
            A = np.eye(K + 1) - BD.T @ ((ws.weights * f.slope(V))[:, None] * BD)
            b = (ws.basis.T @ (ws.weights * f(V)) - ws.lam * c) / root
            y = np.linalg.solve(A, b)
            got = steps[0][0] * root
            assert np.linalg.norm(got - y) <= 1e-12 * np.linalg.norm(y)
            assert np.linalg.norm(A @ got - b) <= 1e-12 * np.linalg.norm(b)
            J = np.diag(ws.lam) - ws.weighted_gram(f.slope(V))
            unscaled = np.linalg.solve(J, b * root) * root
            unscaled_gaps.append(np.linalg.norm(unscaled - y) / np.linalg.norm(y))
        assert max(unscaled_gaps) > 1e-9  # the bound above tells the two solves apart


class TestMinres:
    @pytest.mark.parametrize("shift", [1.0, 1.01])
    def test_stack_matches_dense_solves(self, shift):
        # at the constant of t^3 mode 0 has eigenvalue 2 - p < 0, so the first
        # row is indefinite; the others are perturbed constants
        params, K = SphereParams(n=5, m=2), 24
        f = Nonlinearity.single_power(1.0, 3.0, params)
        c = constant_coeffs(params, constant_solution(2, 5, f), K).coeffs
        rng = np.random.default_rng(3)
        damping = 0.05 * c[0] / (1.0 + np.arange(K + 1.0) ** 2)
        C = np.array([c] + [c + damping * rng.standard_normal(K + 1) for _ in range(4)])
        ws = Workspace.shared(params, K)
        slopes = f.slope(C @ ws.basis.T)
        root, S = np.sqrt(ws.lam), ws.weights * slopes
        DGD = np.array([ws.weighted_gram(s) for s in slopes]) / np.outer(root, root)
        b = rng.standard_normal((5, K + 1))
        A = shift * np.eye(K + 1) - DGD
        assert np.linalg.eigvalsh(A[0])[0] < 0.0 < np.linalg.eigvalsh(A[0])[-1]
        # the error is up to cond times the residual: run to 1e-14 to hold 1e-12
        Y, iters = lane_emden._minres(ws.basis / root, S, shift, b, 2 * (K + 1), rtol=1e-14)
        assert np.all((iters > 0) & (iters < 2 * (K + 1)))
        for y, a, rhs in zip(Y, A, b):
            dense = np.linalg.solve(a, rhs)
            assert np.linalg.norm(y - dense) <= 1e-12 * np.linalg.norm(dense)
        # at the default stop each row's true residual meets 1e-12 ||b||
        Y, _ = lane_emden._minres(ws.basis / root, S, shift, b, 2 * (K + 1))
        for y, a, rhs in zip(Y, A, b):
            assert np.linalg.norm(rhs - a @ y) <= 1.01e-12 * np.linalg.norm(rhs)

    def test_singular_consistent_system_gives_a_finite_step(self):
        # s nonzero at three nodes makes G of rank 3; at shift 0 the system is
        # singular, and a right-hand side in its range is consistent
        params, K = SphereParams(n=3, m=1), 16
        ws = Workspace.shared(params, K)
        root = np.sqrt(ws.lam)
        s = np.zeros(len(ws.nodes))
        s[[3, 10, 20]] = ws.weights[[3, 10, 20]]
        DGD = (ws.basis.T @ (s[:, None] * ws.basis)) / np.outer(root, root)
        b = DGD @ np.random.default_rng(5).standard_normal(K + 1)
        Y, iters = lane_emden._minres(ws.basis / root, s[None], 0.0, b[None], 2 * (K + 1))
        assert np.isfinite(Y).all() and iters[0] <= 4
        assert np.linalg.norm(b + DGD @ Y[0]) <= 1e-12 * np.linalg.norm(b)

    def _order_five_stack(self, K, shift):
        # the constant of t^11 on (11, 5), where Lambda_K / Lambda_0 is 1.5e15
        # at K = 120, and four perturbed constants
        params = SphereParams(n=11, m=5)
        f = Nonlinearity.single_power(1.0, 11.0, params)
        c_star = constant_solution(5, 11, f)
        c = constant_coeffs(params, c_star, K).coeffs
        rng = np.random.default_rng(8)
        ws = Workspace.shared(params, K)
        rows = [c]
        for _ in range(4):  # 5% of c* at the nodes, in damped modes
            d = ws.damped_draw(rng)
            rows.append(c + d * (0.05 * c[0] * ws.basis[0, 0] / np.max(np.abs(ws.basis @ d))))
        C = np.array(rows)
        slopes = f.slope(C @ ws.basis.T)
        root = np.sqrt(ws.lam)
        DGD = np.array([ws.weighted_gram(s) for s in slopes]) / np.outer(root, root)
        M = lane_emden._preconditioner(ws.lam, f, c_star, shift)
        return ws, root, ws.weights * slopes, shift * np.eye(K + 1) - DGD, M, rng

    @pytest.mark.parametrize("shift", [1.0, 1.01])
    def test_preconditioned_stack_matches_dense_solves(self, shift):
        K = 120
        ws, root, S, A, M, rng = self._order_five_stack(K, shift)
        # at u = c* the scaled Jacobian is the preconditioner's diagonal, up to sign
        np.testing.assert_allclose(np.abs(np.diag(A[0])), M, rtol=1e-12)
        b = rng.standard_normal((5, K + 1))
        Y, iters = lane_emden._minres(ws.basis / root, S, shift, b, 2 * (K + 1), 1e-14, M)
        assert np.all((iters > 0) & (iters < 2 * (K + 1)))
        plain = lane_emden._minres(ws.basis / root, S, shift, b, 2 * (K + 1), 1e-14)[1]
        assert iters.sum() < plain.sum()
        for y, a, rhs in zip(Y, A, b):
            dense = np.linalg.solve(a, rhs)
            assert np.linalg.norm(y - dense) <= 1e-12 * np.linalg.norm(dense)
        # a row stops once ||r||_(M^-1) sqrt(max M) <= rtol ||b||, which bounds
        # the 2-norm residual; max M = |shift - 11| is the constant mode's
        assert M.max() == pytest.approx(11.0 - shift, rel=1e-12)
        for rtol in np.logspace(-2, -12, 41):
            Y, _ = lane_emden._minres(ws.basis / root, S, shift, b, 2 * (K + 1), rtol, M)
            for y, a, rhs in zip(Y, A, b):
                r = rhs - a @ y
                bound = rtol * np.linalg.norm(rhs)
                assert np.linalg.norm(r / np.sqrt(M)) * np.sqrt(M.max()) <= 1.001 * bound
                assert np.linalg.norm(r) <= 1.001 * bound

    def test_preconditioned_singular_consistent_stack(self):
        # s nonzero at three nodes of each row makes G of rank 3; at shift 0 the
        # systems are singular, and right-hand sides in their ranges consistent
        params, K = SphereParams(n=3, m=1), 16
        ws = Workspace.shared(params, K)
        root, rng = np.sqrt(ws.lam), np.random.default_rng(5)
        f = Nonlinearity.single_power(1.0, 3.0, params)
        M = lane_emden._preconditioner(ws.lam, f, constant_solution(1, 3, f), 0.0)
        S = np.zeros((2, len(ws.nodes)))
        S[0, [3, 10, 20]], S[1, [1, 7, 30]] = ws.weights[[3, 10, 20]], ws.weights[[1, 7, 30]]
        DGD = np.array([ws.basis.T @ (s[:, None] * ws.basis) for s in S]) / np.outer(root, root)
        b = np.array([g @ rng.standard_normal(K + 1) for g in DGD])
        Y, iters = lane_emden._minres(ws.basis / root, S, 0.0, b, 2 * (K + 1), precond=M)
        assert np.isfinite(Y).all() and np.all(iters <= 4)
        for y, g, rhs in zip(Y, DGD, b):
            assert np.linalg.norm(rhs + g @ y) <= 1e-12 * np.linalg.norm(rhs)

    def test_zero_right_hand_side_takes_no_iteration(self):
        params, K = SphereParams(n=3, m=1), 8
        ws = Workspace.shared(params, K)
        S = np.ones((2, len(ws.nodes)))
        Y, iters = lane_emden._minres(ws.basis / np.sqrt(ws.lam), S, 1.0, np.zeros((2, K + 1)), 18)
        assert not Y.any() and not iters.any()


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

    @pytest.mark.parametrize("trials", [0, -5])
    def test_linear_right_hand_side_needs_a_trial(self, trials):
        # a linear f takes no Newton trials, but a trial count below 1 is
        # rejected as for every other right-hand side
        f = Nonlinearity.from_terms([(1.0, 1.0)], SphereParams(n=3, m=1))
        with pytest.raises(DomainError, match="at least one trial"):
            uniqueness_probe(1, 3, f, trials=trials, seed=0, K=4)

    def test_one_workspace_per_probe(self, monkeypatch):
        import gjmslab.spectral as spectral

        calls = {"basis_values": 0, "gamma_ratio": 0}
        for name in calls:

            def counted(*args, _name=name, _original=getattr(spectral, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(spectral, name, counted)
        # from a cold cache, the first probe builds its workspace once and a
        # second probe on the same (n, m, K) reuses it
        Workspace.shared.cache_clear()
        f = Nonlinearity.single_power(1.0, 3.0, SphereParams(n=3, m=1))
        rep = uniqueness_probe(1, 3, f, trials=10, seed=0, K=16)
        assert rep.converged == 10
        assert calls == {"basis_values": 1, "gamma_ratio": 1}
        again = uniqueness_probe(1, 3, f, trials=10, seed=1, K=16)
        assert again.converged == 10
        assert calls == {"basis_values": 1, "gamma_ratio": 1}

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

    def test_no_sign_changing_limit_from_a_positive_start(self):
        # Probe seed 1132453375 on u^3, (n, m) = (7, 2), K = 96 is round 0 of
        # perfbench's uniqueness-probes at seed 133.  Its trial 28 once
        # converged to a sign-changing solution of the literal cubic, from a
        # start that dipped below zero at the nodes.  With f acting on u+ and
        # starts positive at the nodes, every trial reaches the constant.
        params = SphereParams(n=7, m=2)
        f = Nonlinearity.single_power(1.0, 3.0, params)
        rep = uniqueness_probe(2, 7, f, trials=29, seed=1132453375, K=96)
        assert (rep.negative, rep.nonconstant, rep.fraction_constant) == (0, 0, 1.0)
        assert rep.constant == 29 and rep.counterexamples == []
        assert rep.stop_reasons["tolerance"] == 29
        assert rep.max_constant_rel_err <= 1e-11

    @pytest.mark.parametrize("n,m,K", [(3, 1, 16), (7, 2, 32), (7, 2, 48)])
    def test_lockstep_trials_match_single_solves(self, monkeypatch, n, m, K):
        # the probe solves its trials as one batch; each trial ends as a
        # solve_newton from the same Nehari-scaled start does.  Below the dense
        # work limit both take every step by LU; past it only the batch runs
        # MINRES.  The bits differ: X B^T is one gemm for the batch, a gemv
        # for one row
        batches, starts = [], []

        def recorded(ws, f, C, *args, **kwargs):
            starts.append(C.copy())
            batches.append(newton_batch(ws, f, C, *args, **kwargs))
            return batches[-1]

        newton_batch = lane_emden._newton_batch
        monkeypatch.setattr(lane_emden, "_newton_batch", recorded)
        params = SphereParams(n=n, m=m)
        f = Nonlinearity.single_power(1.0, 3.0, params)
        rep = uniqueness_probe(m, n, f, trials=30, seed=11, K=K)
        (batch,) = batches
        assert len(batch) == rep.trials == 30
        ws = Workspace.shared(params, K)
        dense = 30 * (K + 1) ** 2 < lane_emden._DENSE_WORK_LIMIT
        assert dense == (K < 48)
        for got, start in zip(batch, starts[0]):
            alone = solve_newton(m, n, f, ZonalFunction(params, start), workspace=ws)
            assert (got.stop_reason, got.iters) == (alone.stop_reason, alone.iters)
            gap = np.linalg.norm(got.solution.coeffs - alone.solution.coeffs)
            assert gap <= 1e-12 * np.linalg.norm(alone.solution.coeffs)
            assert alone.krylov_iters == 0 and (got.krylov_iters == 0) == dense
            assert got.max_tau == alone.max_tau
        assert rep.regularized == sum(r.max_tau > 0.0 for r in batch)

    def test_probe_batches_above_the_crossover_run_minres(self, monkeypatch):
        # 50 trials x 49^2 >= _DENSE_WORK_LIMIT, so the first step of every
        # trial is a MINRES step
        batches = []

        def recorded(*args, **kwargs):
            batches.append(newton_batch(*args, **kwargs))
            return batches[-1]

        newton_batch = lane_emden._newton_batch
        monkeypatch.setattr(lane_emden, "_newton_batch", recorded)
        params = SphereParams(n=3, m=1)
        f = Nonlinearity.single_power(1.0, 3.0, params)
        assert 50 * 49**2 >= lane_emden._DENSE_WORK_LIMIT
        rep = uniqueness_probe(1, 3, f, trials=50, seed=4, K=48)
        assert rep.converged == 50
        assert set(rep.to_dict()) == {  # the probe report carries no Krylov count
            "m", "n", "nonlinearity", "trials", "constant_value", "converged", "nonconverged",
            "diverged", "negative", "zero", "constant", "nonconstant", "max_constant_rel_err",
            "fraction_constant", "counterexamples", "kernel_dimension", "stop_reasons",
            "regularized", "median_nehari_scale",
        }
        assert all(r.krylov_iters > 0 for r in batches[0])

    def test_probe_batches_below_the_crossover_run_lu(self, monkeypatch):
        # 50 trials x 25^2 < _DENSE_WORK_LIMIT, so every step is one stacked
        # LU solve
        batches = []

        def recorded(*args, **kwargs):
            batches.append(newton_batch(*args, **kwargs))
            return batches[-1]

        newton_batch = lane_emden._newton_batch
        monkeypatch.setattr(lane_emden, "_newton_batch", recorded)
        f = Nonlinearity.single_power(1.0, 4.0, SphereParams(n=3, m=1))
        assert 50 * 25**2 < lane_emden._DENSE_WORK_LIMIT
        rep = uniqueness_probe(1, 3, f, trials=50, seed=4, K=24)
        assert rep.converged == 50 and rep.nonconstant == 0
        assert len(batches[0]) == 50 and all(r.krylov_iters == 0 for r in batches[0])

    @pytest.mark.parametrize("n,m,p,K", [(5, 2, 5.0, 48), (7, 2, 3.0, 96)])
    def test_energy_merit_leaves_no_stalled_trial(self, n, m, p, K):
        # a line search on the plain ||res||, which Lambda_K dominates, left
        # 16 and 5 of these 500 trials unconverged
        f = Nonlinearity.single_power(1.0, p, SphereParams(n=n, m=m))
        reps = [uniqueness_probe(m, n, f, trials=50, seed=s, K=K) for s in range(1000, 1010)]
        assert sum(r.nonconverged for r in reps) == 0
        assert sum(r.negative + r.nonconstant for r in reps) == 0

    def test_regularized_trials_are_counted(self):
        # (7, 3, t^12, K=24), near p_c = 13, needs the tau ladder in a few trials
        f = Nonlinearity.single_power(1.0, 12.0, SphereParams(n=7, m=3))
        rep = uniqueness_probe(3, 7, f, trials=50, seed=1000, K=24)
        assert 0 < rep.regularized <= rep.trials
        assert rep.to_dict()["regularized"] == rep.regularized

    def test_classification_of_crafted_outcomes(self, monkeypatch):
        # every stop reason and every class the probe tallies, from crafted
        # solves in place of Newton
        params = SphereParams(n=3, m=1)
        f = Nonlinearity.single_power(1.0, 3.0, params)
        c_star, K = constant_solution(1, 3, f), 8
        const = constant_coeffs(params, c_star, K).coeffs
        bump = const.copy()
        bump[2] = 0.1 * const[0]

        def crafted(coeffs, reason, negativity=0.0, max_tau=0.0):
            u = ZonalFunction(params, coeffs)
            return lane_emden.SolveResult(
                solution=u, residual=3e-13, rel_residual=1e-14, iters=4, stop_reason=reason,
                classification=lane_emden._classify(u.coeffs, reason == "diverged"),
                negativity=negativity, converged=reason == "tolerance", max_tau=max_tau,
            )

        outcomes = [
            crafted(const, "tolerance"),  # constant
            crafted(1.01 * const, "tolerance"),  # constant, 1% off c*
            crafted(const, "max_iter"),  # nonconverged
            crafted(const, "line_search_exhausted", max_tau=1e-4),  # nonconverged
            crafted(1e9 * const, "diverged"),  # diverged
            crafted(bump, "tolerance", negativity=-0.5),  # negative
            crafted(np.zeros(K + 1), "tolerance"),  # zero
            crafted(bump, "tolerance"),  # nonconstant
        ]

        def newton_batch(ws, f, starts, tol, max_iter, c_star):
            assert len(starts) == len(outcomes)
            return outcomes

        monkeypatch.setattr(lane_emden, "_newton_batch", newton_batch)
        rep = uniqueness_probe(1, 3, f, trials=8, seed=0, K=K)
        counts = (rep.converged, rep.nonconverged, rep.diverged)
        assert counts == (5, 2, 1)
        assert (rep.negative, rep.zero, rep.constant, rep.nonconstant) == (1, 1, 2, 1)
        assert rep.stop_reasons == {
            "tolerance": 5, "max_iter": 1, "line_search_exhausted": 1, "diverged": 1
        }
        assert rep.regularized == 1
        assert rep.fraction_constant == 0.75
        assert rep.max_constant_rel_err == pytest.approx(0.01, rel=1e-12)
        (example,) = rep.counterexamples
        assert example == {
            "trial": 7,
            "residual": 3e-13,
            "distance_to_constant": outcomes[7].solution.distance_to_constant(),
            "coeffs": bump.tolist(),
        }
        assert 0.0 < example["distance_to_constant"] < 1.0

    @pytest.mark.parametrize(
        "n,m,terms,trials",
        [(3, 1, [(1.0, 3.0)], 20), (5, 2, [(1.0, 1.0), (1.0, 2.0)], 20), (7, 2, [(2.0, 3.5)], 21)],
    )
    def test_starts_are_scaled_onto_the_nehari_manifold(self, monkeypatch, n, m, terms, trials):
        # each start is s > 0 times its random draw with <Pc, c> = int f(u+) u+
        starts = []

        def recorded(ws, f, C, *args, **kwargs):
            starts.append(C.copy())
            return newton_batch(ws, f, C, *args, **kwargs)

        newton_batch = lane_emden._newton_batch
        monkeypatch.setattr(lane_emden, "_newton_batch", recorded)
        params, K = SphereParams(n=n, m=m), 16
        f = Nonlinearity.from_terms(terms, params)
        rep = uniqueness_probe(m, n, f, trials=trials, seed=3, K=K)
        ws, c_star = Workspace.shared(params, K), constant_solution(m, n, f)
        scales = []
        for trial, c in enumerate(starts[0]):
            draw = probe_start(ws, c_star, np.random.default_rng([3, trial])).coeffs
            s = c[0] / draw[0]
            assert s > 0.0
            np.testing.assert_allclose(c, s * draw, rtol=1e-14, atol=0.0)
            u = ws.basis @ c
            assert np.min(u) > 0.0
            energy, power = float(ws.lam @ c**2), float(ws.weights @ (f(u) * u))
            assert abs(energy - power) <= 1e-12 * energy
            scales.append(s)
        assert rep.median_nehari_scale == pytest.approx(np.median(scales), rel=1e-14)
        assert rep.constant == trials and rep.diverged == 0

    @pytest.mark.parametrize("n,m,q", [(9, 2, 1.143), (9, 2, 2.5), (3, 1, 3.0), (5, 2, 7.0)])
    def test_closed_form_scale_matches_the_root_finder(self, monkeypatch, n, m, q):
        # a single power a t^q has the fibre root s^(q-1) = <Pc, c> / (a int (u+)^(q+1)),
        # the root finder's start; the probe's scales are that closed form
        starts = []

        def recorded(ws, f, C, *args, **kwargs):
            starts.append(C.copy())
            return newton_batch(ws, f, C, *args, **kwargs)

        newton_batch = lane_emden._newton_batch
        monkeypatch.setattr(lane_emden, "_newton_batch", recorded)
        params, K = SphereParams(n=n, m=m), 16
        f = Nonlinearity.single_power(2.0, q, params)
        uniqueness_probe(m, n, f, trials=8, seed=5, K=K)
        ws, c_star = Workspace.shared(params, K), constant_solution(m, n, f)
        draws = [probe_start(ws, c_star, np.random.default_rng([5, t])).coeffs for t in range(8)]
        rays = np.array(draws) / c_star
        E, U = rays**2 @ ws.lam, rays @ ws.basis.T
        power = 2.0 * (ws.weights * np.maximum(U, 0.0) ** (q + 1.0)).sum(axis=1)
        closed = (E / power) ** (1.0 / (q - 1.0))
        np.testing.assert_allclose(starts[0][:, 0] / rays[:, 0], closed, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize(
        "n,m,q",
        [
            (3, 1, 1.5), (3, 1, 4.9), (5, 2, 2.0), (5, 2, 8.5), (7, 3, 3.0),
            (9, 1, 1.143), (11, 1, 1.111), (11, 2, 1.286), (9, 4, 4.0),
        ],
    )
    def test_probe_grid_has_no_diverged_or_nonconstant_trial(self, n, m, q):
        # (9,1,1.143), (11,1,1.111) and (11,2,1.286) have c* from 2.4e8 to
        # 3.6e12, and every trial once stopped there as diverged
        f = Nonlinearity.single_power(1.0, q, SphereParams(n=n, m=m))
        rep = uniqueness_probe(m, n, f, trials=20, seed=7, K=16)
        assert (rep.diverged, rep.negative, rep.nonconstant) == (0, 0, 0)
        assert rep.constant == rep.converged > 0 and rep.fraction_constant == 1.0

    def test_probe_with_a_constant_below_tol(self):
        # c* = 8.7e-16: every trial reaches it, none is snapped to zero
        f = Nonlinearity.single_power(1e30, 3.0, SphereParams(n=3, m=1))
        rep = uniqueness_probe(1, 3, f, trials=20, seed=0, K=16)
        assert (rep.constant, rep.zero, rep.fraction_constant) == (20, 0, 1.0)
        assert rep.max_constant_rel_err <= 1e-10

    @pytest.mark.parametrize("terms", [[(1e60, 1.5)], [(1e-200, 2.0), (1e200, 4.0)]])
    def test_probe_with_a_constant_far_below_one(self, terms):
        # c* = 5.6e-121 and 2.0e-67: every trial reaches it
        f = Nonlinearity.from_terms(terms, SphereParams(n=3, m=1))
        rep = uniqueness_probe(1, 3, f, trials=4, seed=0, K=8)
        assert (rep.constant, rep.zero, rep.fraction_constant) == (4, 0, 1.0)
        assert rep.max_constant_rel_err <= 1e-12

    def test_unscaled_starts_report_no_nehari_scale(self):
        # without a positive constant there is no Nehari point to move to
        params = SphereParams(n=3, m=1)
        linear = Nonlinearity.single_power(1.0, 1.0, params)
        assert uniqueness_probe(1, 3, linear, trials=3, seed=0, K=8).median_nehari_scale is None
        rootless = Nonlinearity.from_terms([(1.0, 1.0), (1.0, 3.0)], params)
        rep = uniqueness_probe(1, 3, rootless, trials=3, seed=0, K=8)
        assert rep.constant_value is None and rep.median_nehari_scale is None

    def test_rejects_supercritical(self):
        params = SphereParams(n=3, m=1)
        f = Nonlinearity.single_power(1.0, 5.0, params)
        with pytest.raises(DomainError):
            uniqueness_probe(1, 3, f, trials=2, seed=0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_non_finite_tolerance_is_rejected(self, tol):
        # an infinite tolerance would archive the random starts as counterexamples
        params = SphereParams(n=3, m=1)
        f = Nonlinearity.single_power(1.0, 3.0, params)
        with pytest.raises(DomainError, match="finite"):
            uniqueness_probe(1, 3, f, trials=3, seed=0, K=8, tol=tol)

    @pytest.mark.parametrize("n,m,K", [(3, 1, 24), (7, 2, 96), (9, 3, 64), (11, 5, 32)])
    def test_stacked_starts_are_one_row_draws_bit_for_bit(self, n, m, K):
        # the probe draws its starts as one stack; every row has the bits of
        # probe_start and of the one-row draw, whose node minimum is one gemv
        params = SphereParams(n=n, m=m)
        ws = Workspace.shared(params, K)
        base = constant_solution(m, n, Nonlinearity.single_power(1.0, 3.0, params))
        floor, dips = 0.05 * base, 0
        for seed in range(4):
            rngs = [np.random.default_rng([seed, t]) for t in range(50)]
            for t, row in enumerate(lane_emden._probe_starts(ws, base, rngs)):
                alone = probe_start(ws, base, np.random.default_rng([seed, t])).coeffs
                rng = np.random.default_rng([seed, t])
                c = ws.damped_draw(rng, base * 0.3)
                c[0] = base * rng.uniform(0.7, 2.0) * math.sqrt(params.area)
                mean, low = c[0] * ws.basis[0, 0], float(np.min(ws.basis @ c))
                if low < floor:
                    c[1:] *= (mean - floor) / (mean - low)
                    dips += 1
                np.testing.assert_array_equal(row, alone)
                np.testing.assert_array_equal(row, c)
        assert (dips > 0) == (n > 3)  # on S^3 no draw comes near the floor

    def test_every_krylov_step_meets_the_residual_bound(self, monkeypatch):
        # each MINRES solve of a probe's Newton steps holds the 2-norm residual
        # of every row it stops on the estimate to 1e-12 ||b||
        solves = []

        def recorded(BD, S, shift, b, maxiter, rtol=1e-12, precond=None):
            Y, iters = minres(BD, S, shift, b, maxiter, rtol, precond)
            solves.append((BD, S, shift, b, maxiter, precond, Y, iters))
            return Y, iters

        minres = lane_emden._minres
        monkeypatch.setattr(lane_emden, "_minres", recorded)
        for n, m, K in [(3, 1, 48), (7, 2, 96)]:
            f = Nonlinearity.single_power(1.0, 3.0, SphereParams(n=n, m=m))
            assert uniqueness_probe(m, n, f, trials=20, seed=1000, K=K).converged == 20
        checked = 0
        for BD, S, shift, b, maxiter, precond, Y, iters in solves:
            assert precond is not None and precond.min() >= lane_emden._PRECONDITIONER_FLOOR
            AY = shift * Y - (S * (Y @ BD.T)) @ BD
            stopped = iters < maxiter
            gap = np.linalg.norm(b - AY, axis=1)[stopped]
            assert np.all(gap <= 1e-12 * np.linalg.norm(b, axis=1)[stopped])
            checked += np.count_nonzero(stopped)
        assert checked >= 40

    @pytest.mark.parametrize(
        "n,m,terms,K",
        [
            (3, 1, [(1.0, 3.0)], 48), (3, 1, [(1.0, 4.0)], 24), (7, 2, [(1.0, 3.0)], 96),
            (5, 2, [(1.0, 1.0), (1.0, 2.0)], 64), (9, 3, [(1.0, 3.0)], 64),
        ],
    )
    def test_benchmark_configs_reach_the_constant(self, n, m, terms, K):
        # the probe benchmark's configurations; every trial stopped on tolerance
        # at the constant before the Krylov solves were preconditioned, too
        f = Nonlinearity.from_terms(terms, SphereParams(n=n, m=m))
        reps = [uniqueness_probe(m, n, f, trials=50, seed=s, K=K) for s in (1000, 1001, 1002)]
        for rep in reps:
            assert rep.stop_reasons == {
                "tolerance": 50, "max_iter": 0, "line_search_exhausted": 0, "diverged": 0
            }
            assert (rep.constant, rep.zero, rep.negative, rep.nonconstant) == (50, 0, 0, 0)
            assert rep.max_constant_rel_err <= 1e-11

    def test_probe_starts_positive(self):
        ws = Workspace(SphereParams(n=3, m=1), 16, 40)
        for trial in range(10):
            rng = np.random.default_rng([3, trial])
            u = probe_start(ws, 0.866, rng)
            assert np.min(u.evaluate(ws.nodes)) > 0

    def test_probe_starts_positive_at_high_order(self):
        # the scaled draw keeps every start above 0.05 c* at the nodes
        params = SphereParams(n=7, m=2)
        c_star = constant_solution(2, 7, Nonlinearity.single_power(1.0, 3.0, params))
        ws = Workspace(params, 96)
        low = min(
            float(np.min(ws.basis @ probe_start(ws, c_star, np.random.default_rng([s, t])).coeffs))
            for s in range(40)
            for t in range(50)
        )
        assert low > 0.0
        assert low >= 0.05 * c_star * (1.0 - 1e-12)

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


def sampled_decay(v, N=20000, slack=1e-12):
    """Reference: u = pullback_to_plane(v) is nonincreasing over a dense radial sample.

    The radii are the images of N+1 Chebyshev-Lobatto cosines, so the sample
    crowds towards r = infinity, where u(infinity) = 0 closes the grid.
    """
    t = np.cos(np.pi * np.arange(N) / N)  # t = 1 (r = 0) down to just above t = -1
    u = np.append(pullback_to_plane(v, radius_from_angle(t)), 0.0)
    return bool(np.max(np.diff(u)) <= slack * np.max(np.abs(u)))


def project(ws, values):
    """The zonal function with coefficients B^T(w v) for node values v on ws."""
    return ZonalFunction(ws.params, ws.basis.T @ (ws.weights * values))


def linear_zonal(params, a, b):
    """The zonal v = a + b t."""
    ws = Workspace(params, 1, 8)
    return project(ws, a + b * ws.nodes)


class TestMonotonicityVerifier:
    def test_constant_solution_profile(self):
        params = SphereParams(n=3, m=1)
        sol = constant_coeffs(params, math.sqrt(0.75), 8)
        rep = verify_symmetry_monotonicity(sol)
        assert rep.passed

    def test_bubble_pushforward(self):
        params = SphereParams(n=3, m=1)
        v = bubble_on_sphere(1.0, Workspace(params, 16, 64))
        rep = verify_symmetry_monotonicity(v)
        assert rep.passed

    @pytest.mark.parametrize("n,m", [(3, 1), (5, 2), (7, 3), (9, 3), (11, 4), (13, 5)])
    def test_bubbles_decay(self, n, m):
        params = SphereParams(n=n, m=m)
        ws = Workspace(params, 64)
        for lam in (1.0, 2.0, 4.0):
            v = bubble_on_sphere(lam, ws)
            rep = verify_symmetry_monotonicity(v)
            assert rep.passed and len(rep.order_minima) == 1
            assert rep.order_minima[0] > 0

    def test_rise_beyond_radius_77_fails(self):
        # v = a + b t on (3, 1): h = e v + (1+t) v' = (a/2 + b) + 3b t/2 turns
        # negative only for t < -1 + (b - a)/(3b), that is r > 77.4; a radial
        # grid up to r = 25 sees u decrease throughout
        b = 1.0
        a = (1.0 - 1e-3) * b
        v = linear_zonal(SphereParams(n=3, m=1), a, b)
        rep = verify_symmetry_monotonicity(v)
        assert not rep.passed
        # h(-1) = (a - b)/2 against h(1) = a/2 + 5b/2: about -1.7e-4
        ratio = rep.order_minima[0] / rep.order_scales[0]
        assert ratio == pytest.approx((a - b) / (a + 5.0 * b), rel=1e-9)
        grid = np.linspace(0.0, 25.0, 400)
        assert np.all(np.diff(pullback_to_plane(v, grid)) < 0.0)
        assert not sampled_decay(v)

    def test_agrees_with_dense_sampled_reference(self):
        # random low-degree v around a constant, with perturbations from small
        # (decay holds) to large (u rises somewhere); both verdicts must occur
        rng = np.random.default_rng(17)
        verdicts = []
        for n, m in [(3, 1), (5, 2), (7, 3)]:
            params = SphereParams(n=n, m=m)
            for scale in (0.01, 0.1, 0.3, 1.0):
                for _ in range(5):
                    coeffs = scale * rng.standard_normal(7) / (1.0 + np.arange(7.0)) ** 2
                    coeffs[0] = 1.0
                    v = ZonalFunction(params, coeffs)
                    closed = verify_symmetry_monotonicity(v).passed
                    assert closed == sampled_decay(v)
                    verdicts.append(closed)
        assert any(verdicts) and not all(verdicts)


def pulled_back(params, K, fn):
    """Zonal v = phi^(m-n/2) fn(r(t)) whose planar pullback is fn, phi = 1+t."""
    ws = Workspace(params, K)
    t = ws.nodes
    return project(ws, (1.0 + t) ** (params.m - params.n / 2) * fn(radius_from_angle(t)))


class TestSuperPolyharmonic:
    def test_vacuous_for_order_two(self):
        v = pulled_back(SphereParams(n=3, m=1), 32, lambda r: np.exp(-(r**2)))
        assert iterated_laplacians(v) == []
        assert verify_super_polyharmonic(v).passed

    def test_bubble_profile_passes(self):
        params = SphereParams(n=5, m=2)
        v = pulled_back(params, 64, lambda r: (1.0 + r**2) ** (params.m - params.n / 2))
        rep = verify_super_polyharmonic(v)
        assert rep.passed
        assert rep.order_minima[0] > 0

    @pytest.mark.parametrize("n,m", [(7, 3), (9, 3), (11, 4), (13, 5)])
    def test_bubbles_pass_at_every_order(self, n, m):
        params = SphereParams(n=n, m=m)
        ws = Workspace(params, 64)
        for lam in (1.0, 2.0, 4.0):
            v = bubble_on_sphere(lam, ws)
            rep = verify_super_polyharmonic(v)
            assert rep.passed and len(rep.order_minima) == m - 1
            assert min(rep.order_minima) > 0

    def test_probe_solutions_pass_at_order_three(self):
        params = SphereParams(n=7, m=3)
        f = Nonlinearity.single_power(1.0, 2.5, params)
        ws = Workspace(params, 48)
        base = constant_solution(3, 7, f)
        for trial in range(20):
            init = probe_start(ws, base, np.random.default_rng([7, trial]))
            sol = solve_newton(3, 7, f, init, workspace=ws)
            assert sol.converged
            assert verify_super_polyharmonic(sol.solution).passed

    def test_gaussian_fails(self):
        v = pulled_back(SphereParams(n=5, m=2), 64, lambda r: np.exp(-(r**2)))
        rep = verify_super_polyharmonic(v)
        assert not rep.passed
        assert rep.order_minima[0] == pytest.approx(-0.435, abs=0.005)

    def test_laplacian_matches_symbolic_oracle(self):
        # differentiate the closed forms with sympy and compare on r in [0, 5];
        # each tolerance is three to four times the measured error at order i
        r = sympy.symbols("r", nonnegative=True)
        cases = [
            (5, 2, 96, sympy.exp(-(r**2)), [3e-8]),
            (5, 2, 96, (1 + r**2) ** sympy.Rational(-1, 2), [1e-8]),
            (7, 3, 128, sympy.exp(-(r**2)) * (1 + sympy.cos(3 * r) / 4), [2e-9, 5e-6]),
        ]
        grid = np.linspace(0.0, 5.0, 201)
        for n, m, K, expr, tols in cases:
            v = pulled_back(SphereParams(n=n, m=m), K, sympy.lambdify(r, expr, "numpy"))
            lap = expr
            for w, tol in zip(iterated_laplacians(v), tols, strict=True):
                lap = -(sympy.diff(lap, r, 2) + (n - 1) * sympy.diff(lap, r) / r)
                expected = np.empty_like(grid)
                expected[0] = float(lap.series(r, 0, 1).removeO())
                expected[1:] = sympy.lambdify(r, lap, "numpy")(grid[1:])
                ours = pullback_to_plane(w, grid)
                assert np.max(np.abs(ours - expected)) <= tol * np.max(np.abs(expected))
