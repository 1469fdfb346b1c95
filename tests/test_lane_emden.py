"""Solver, uniqueness-probe, and planar-verifier tests."""

import math

import numpy as np
import pytest
import sympy

from gjmslab.conformal import (
    BubbleParams,
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
        vb = bubble_on_sphere(BubbleParams(lam=2.0, params=params), ws)
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

        calls = {"basis_values": 0, "gjms_eigenvalues": 0}
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
        assert calls == {"basis_values": 1, "gjms_eigenvalues": 1}
        again = uniqueness_probe(1, 3, f, trials=10, seed=1, K=16)
        assert again.converged == 10
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

    @pytest.mark.parametrize("n,m,K", [(3, 1, 16), (7, 2, 32)])
    def test_lockstep_trials_match_single_solves(self, monkeypatch, n, m, K):
        # the probe solves its trials as one batch; each trial ends as a
        # solve_newton from the same start does
        batches = []

        def recorded(*args, **kwargs):
            batches.append(newton_batch(*args, **kwargs))
            return batches[-1]

        newton_batch = lane_emden._newton_batch
        monkeypatch.setattr(lane_emden, "_newton_batch", recorded)
        params = SphereParams(n=n, m=m)
        f = Nonlinearity.single_power(1.0, 3.0, params)
        rep = uniqueness_probe(m, n, f, trials=30, seed=11, K=K)
        (batch,) = batches
        assert len(batch) == rep.trials == 30
        ws = Workspace.shared(params, K)
        c_star = constant_solution(m, n, f)
        for trial, got in enumerate(batch):
            init = probe_start(ws, c_star, np.random.default_rng([11, trial]))
            alone = solve_newton(m, n, f, init, workspace=ws)
            assert (got.stop_reason, got.iters) == (alone.stop_reason, alone.iters)
            gap = np.linalg.norm(got.solution.coeffs - alone.solution.coeffs)
            assert gap <= 1e-12 * np.linalg.norm(alone.solution.coeffs)
            assert got.max_tau == alone.max_tau
        assert rep.regularized == sum(r.max_tau > 0.0 for r in batch)

    @pytest.mark.parametrize("n,m,p,K", [(5, 2, 5.0, 48), (7, 2, 3.0, 96)])
    def test_energy_merit_leaves_no_stalled_trial(self, n, m, p, K):
        # a line search on the plain ||res||, which Lambda_K dominates, left
        # 16 and 5 of these 500 trials unconverged
        f = Nonlinearity.single_power(1.0, p, SphereParams(n=n, m=m))
        reps = [uniqueness_probe(m, n, f, trials=50, seed=s, K=K) for s in range(1000, 1010)]
        assert sum(r.nonconverged for r in reps) == 0
        assert sum(r.negative + r.nonconstant for r in reps) == 0

    def test_regularized_trials_are_counted(self):
        # (3, 1, t^4, K=24) needs the tau ladder in a few trials
        f = Nonlinearity.single_power(1.0, 4.0, SphereParams(n=3, m=1))
        rep = uniqueness_probe(1, 3, f, trials=50, seed=1000, K=24)
        assert 0 < rep.regularized <= rep.trials
        assert rep.to_dict()["regularized"] == rep.regularized

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

    def test_probe_starts_positive(self):
        ws = Workspace(SphereParams(n=3, m=1), 16, 40)
        for trial in range(10):
            rng = np.random.default_rng([3, trial])
            u = probe_start(ws, 0.866, rng)
            assert np.min(u.evaluate(ws.rule.nodes)) > 0

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
    return project(ws, a + b * ws.rule.nodes)


class TestMonotonicityVerifier:
    def test_constant_solution_profile(self):
        params = SphereParams(n=3, m=1)
        sol = constant_coeffs(params, math.sqrt(0.75), 8)
        rep = verify_symmetry_monotonicity(sol)
        assert rep.passed

    def test_bubble_pushforward(self):
        params = SphereParams(n=3, m=1)
        v = bubble_on_sphere(BubbleParams(lam=1.0, params=params), Workspace(params, 16, 64))
        rep = verify_symmetry_monotonicity(v)
        assert rep.passed

    @pytest.mark.parametrize("n,m", [(3, 1), (5, 2), (7, 3), (9, 3), (11, 4), (13, 5)])
    def test_bubbles_decay(self, n, m):
        params = SphereParams(n=n, m=m)
        ws = Workspace(params, 64)
        for lam in (1.0, 2.0, 4.0):
            v = bubble_on_sphere(BubbleParams(lam=lam, params=params), ws)
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
    t = ws.rule.nodes
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
            v = bubble_on_sphere(BubbleParams(lam=lam, params=params), ws)
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
