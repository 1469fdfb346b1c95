"""Sharp-constant formula, quotient/gradient, and minimization tests."""

import math

import numpy as np
import pytest

from gjmslab.errors import DomainError
from gjmslab.rayleigh import (
    SADDLE_FREE_FLOOR,
    MinimizationResult,
    OptimizerConfig,
    _descend,
    _newton_step,
    _starts,
    minimize,
    sharp_constant,
)
from gjmslab.spectral import (
    SphereParams,
    Workspace,
    ZonalFunction,
    gjms_lambda0,
    sphere_area,
)

# frozen from the Gamma-formula oracle: Lambda_0(m,n) |S^n|^(1-2/p)
SHARP_134 = 3.3321622036187746
SHARP_2552 = 13.042451788657035

# (n, m, p) configurations of the sharp-constants benchmark workload
MINIMIZE_CONFIGS = [(3, 1, 4.0), (3, 1, 2.5), (5, 2, 2.5), (7, 2, 3.0), (9, 3, 4.0)]


@pytest.fixture(scope="module")
def multistart_results():
    return {
        (n, m, p, seed): minimize(
            OptimizerConfig(params=SphereParams(n=n, m=m), p=p, K=32, starts=20, seed=seed)
        )
        for n, m, p in MINIMIZE_CONFIGS
        for seed in (0, 1)
    }


def random_positive_function(params, K, rng, scale=0.35):
    k = np.arange(K + 1, dtype=float)
    c = rng.standard_normal(K + 1) * scale / (1.0 + k * k)
    c[0] = 1.0
    u = ZonalFunction(params, c)
    vals = u.evaluate(np.cos(np.linspace(0, np.pi, 512)))
    if np.min(vals) <= 0.05:
        c[1:] *= 0.3
        u = ZonalFunction(params, c)
    return u


def reference_newton_step(ws, c, p, val, grad):
    """The saddle-free step with a complete QR for the tangent basis and an
    eigendecomposition of the tangent Hessian on every step."""
    vals = ws.basis @ c
    a = np.abs(vals) ** (p - 2.0)
    moment = ws.basis.T @ (ws.weights * a * vals)
    scale = 1.0 / np.sqrt(ws.lam)
    H = np.eye(ws.K + 1) - val * (p - 1.0) * (scale[:, None] * ws.weighted_gram(a) * scale)
    Z = np.linalg.qr((scale * moment)[:, None], mode="complete")[0][:, 1:]
    evals, V = np.linalg.eigh(Z.T @ H @ Z)
    coords = V.T @ (Z.T @ (scale * grad))
    return -scale * (Z @ (V @ (coords / (2.0 * np.maximum(np.abs(evals), SADDLE_FREE_FLOOR)))))


class TestSharpConstant:
    def test_order_two_reduction_formula(self):
        # closed-form identity (n(n-2)/4)|S^n|^(1-2/p) for the m = 1 family
        for n in range(3, 9):
            p_crit = 2 * n / (n - 2)
            for i in range(1, 11):
                p = 2 + (p_crit - 2) * i / 11
                lhs = sharp_constant(1, n, p)
                rhs = n * (n - 2) / 4 * sphere_area(n) ** (1 - 2 / p)
                assert abs(lhs - rhs) <= 1e-14 * rhs

    def test_frozen_value_134(self):
        assert sharp_constant(1, 3, 4.0) == pytest.approx(SHARP_134, rel=1e-14)
        # oracle recompute: (3/4) (2 pi^2)^(1/2)
        assert SHARP_134 == pytest.approx(0.75 * math.sqrt(2 * math.pi**2), rel=1e-15)

    def test_frozen_value_2552(self):
        assert sharp_constant(2, 5, 2.5) == pytest.approx(SHARP_2552, rel=1e-14)
        # log-Gamma area oracle: |S^5| = 2 pi^3 / Gamma(3) = pi^3
        area5 = 2 * math.exp(3 * math.log(math.pi) - math.lgamma(3.0))
        assert SHARP_2552 == pytest.approx(105.0 / 16.0 * area5 ** (1 - 2 / 2.5), rel=1e-15)

    def test_critical_endpoint_continuity(self):
        # p -> 2n/(n-2m) limit reproduces Lambda_0 |S^n|^(2m/n)
        for m, n in [(1, 3), (2, 5), (3, 7)]:
            p_crit = 2 * n / (n - 2 * m)
            limit = gjms_lambda0(m, n) * sphere_area(n) ** (2 * m / n)
            assert sharp_constant(m, n, p_crit) == pytest.approx(limit, rel=1e-14)
            ps = p_crit - np.logspace(-6, -2, 5)
            vals = [sharp_constant(m, n, p) for p in ps]
            assert np.max(np.abs(np.asarray(vals) / limit - 1)) < 1e-2
            assert abs(vals[0] / limit - 1) < 1e-5

    def test_domain(self):
        with pytest.raises(DomainError):
            sharp_constant(1, 3, 1.5)
        with pytest.raises(DomainError):
            sharp_constant(1, 3, 6.5)
        with pytest.raises(DomainError):
            sharp_constant(2, 4, 3.0)


class TestQuotient:
    def test_constant_is_exact(self):
        ws = Workspace(SphereParams(n=3, m=1), 0)
        for p in (2.5, 4.0, 5.5):
            assert ws.quotient(np.array([2.7]), p) == pytest.approx(
                sharp_constant(1, 3, p), rel=1e-13
            )

    def test_first_mode_exceeds_sharp_constant(self):
        ws = Workspace(SphereParams(n=3, m=1), 1)
        assert ws.quotient(np.array([0.0, 1.0]), 4.0) > sharp_constant(1, 3, 4.0) * 1.05

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        ws = Workspace(SphereParams(n=5, m=2), 8)
        c = rng.standard_normal(9)
        base = ws.quotient(c, 2.5)
        for alpha in (2.0, -3.5, 0.01):
            assert ws.quotient(alpha * c, 2.5) == pytest.approx(base, rel=1e-12)

    def test_zero_rejected(self):
        ws = Workspace(SphereParams(n=3, m=1), 3)
        with pytest.raises(DomainError):
            ws.normalize(np.zeros(4), 4.0)

    def test_discrete_lower_bound(self):
        # quotient never dips below the sharp constant beyond quadrature slack
        rng = np.random.default_rng(8)
        for m, n, p in [(1, 3, 4.0), (2, 5, 2.5)]:
            params = SphereParams(n=n, m=m)
            S = sharp_constant(m, n, p)
            ws = Workspace(params, 16)
            for _ in range(50):
                assert ws.quotient(rng.standard_normal(17), p) >= S - 1e-8

    def test_strictness_margin_monotone(self):
        # quotient excess grows with the distance to constants along a family
        params = SphereParams(n=3, m=1)
        S = sharp_constant(1, 3, 4.0)
        ws = Workspace(params, 8)
        margins = []
        for theta in (0.1, 0.2, 0.4, 0.8):
            c = np.zeros(9)
            c[0], c[2] = 1.0, theta
            u = ZonalFunction(params, c)
            assert u.distance_to_constant() >= 0.0995
            margins.append(ws.quotient(c, 4.0) - S)
        assert all(m > 0 for m in margins)
        assert all(b > a for a, b in zip(margins, margins[1:]))


class TestGradient:
    def test_zero_at_constant(self):
        for m, n, p in [(1, 3, 4.0), (2, 5, 2.5), (3, 7, 2.25)]:
            ws = Workspace(SphereParams(n=n, m=m), 12)
            c = np.zeros(13)
            c[0] = 1.7
            g = ws.quotient_and_gradient(c, p)[1]
            assert np.max(np.abs(g)) <= 1e-10 * max(1.0, sharp_constant(m, n, p))

    @pytest.mark.parametrize("m,n,p", [(1, 3, 4.0), (2, 5, 2.5)])
    def test_matches_central_differences(self, m, n, p):
        rng = np.random.default_rng(100 * m + n)
        params = SphereParams(n=n, m=m)
        K = 10
        ws = Workspace(params, K)
        h = 1e-5
        for _ in range(10):
            u = random_positive_function(params, K, rng)
            c = ws.normalize(u.coeffs, p)
            grad = ws.quotient_and_gradient(c, p)[1]
            fd = np.zeros_like(grad)
            for k in range(K + 1):
                e = np.zeros(K + 1)
                e[k] = h
                fd[k] = (ws.quotient(c + e, p) - ws.quotient(c - e, p)) / (2 * h)
            scale = max(np.max(np.abs(grad)), np.max(np.abs(fd)), 1e-12)
            assert np.max(np.abs(grad - fd)) <= 1e-6 * scale

    def test_euler_orthogonality(self):
        # degree-zero homogeneity forces the gradient orthogonal to the iterate
        rng = np.random.default_rng(77)
        ws = Workspace(SphereParams(n=5, m=2), 10)
        for _ in range(20):
            c = rng.standard_normal(11)
            g = ws.quotient_and_gradient(c, 2.5)[1]
            scale = np.linalg.norm(g) * np.linalg.norm(c)
            assert abs(np.dot(g, c)) <= 1e-10 * max(scale, 1.0)

    def test_exponent_guard(self):
        # gradients degenerate as p -> 2, so the optimizer keeps a guard band
        with pytest.raises(DomainError):
            OptimizerConfig(params=SphereParams(n=3, m=1), p=2.0005, K=8)


class TestMinimize:
    def test_reproduces_sharp_constant_134(self):
        cfg = OptimizerConfig(params=SphereParams(n=3, m=1), p=4.0, K=32, starts=20, seed=0)
        res = minimize(cfg)
        S = sharp_constant(1, 3, 4.0)
        assert abs(res.value / S - 1) <= 1e-6
        assert res.distance_to_constant <= 1e-5
        assert res.converged

    def test_constant_start_converges_immediately(self):
        cfg = OptimizerConfig(params=SphereParams(n=5, m=2), p=2.5, K=16, starts=1, seed=0)
        res = minimize(cfg)
        assert res.iters <= 1
        assert res.converged

    def test_minimizer_is_p_normalized(self):
        cfg = OptimizerConfig(params=SphereParams(n=3, m=1), p=4.0, K=16, starts=4, seed=1)
        res = minimize(cfg)
        ws = Workspace(cfg.params, cfg.K)
        assert ws.p_norm(res.minimizer.coeffs, 4.0) == pytest.approx(1.0, rel=1e-12)
        assert res.minimizer.mean() >= 0.0

    def test_trace_is_monotone(self):
        cfg = OptimizerConfig(params=SphereParams(n=4, m=1), p=3.0, K=16, starts=5, seed=2)
        res = minimize(cfg)
        vals = [v for _, v, _ in res.trace]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_deterministic(self):
        cfg = OptimizerConfig(params=SphereParams(n=3, m=1), p=4.0, K=12, starts=6, seed=9)
        a, b = minimize(cfg), minimize(cfg)
        assert a.value == b.value
        assert a.iters == b.iters
        assert np.array_equal(a.minimizer.coeffs, b.minimizer.coeffs)
        assert a.start_values == b.start_values
        assert a.start_iters == b.start_iters
        assert a.start_fallback_steps == b.start_fallback_steps

    def test_config_validation(self):
        params = SphereParams(n=3, m=1)
        with pytest.raises(DomainError):
            OptimizerConfig(params=params, p=2.0, K=8)
        with pytest.raises(DomainError):
            OptimizerConfig(params=params, p=6.0, K=8)
        with pytest.raises(DomainError):
            OptimizerConfig(params=params, p=4.0, K=8, starts=0)
        with pytest.raises(DomainError):
            OptimizerConfig(params=params, p=4.0, K=8, tol_grad=0.0)
        for tol in (math.nan, math.inf):
            with pytest.raises(DomainError, match="finite"):
                OptimizerConfig(params=params, p=4.0, K=8, tol_grad=tol)


class TestNewtonMultistart:
    def test_every_start_reaches_sharp_constant(self, multistart_results):
        for (n, m, p, seed), res in multistart_results.items():
            S = sharp_constant(m, n, p)
            assert len(res.start_values) == 20
            worst = max(abs(v / S - 1) for v in res.start_values)
            assert worst <= 1e-9, (n, m, p, seed, worst)

    def test_every_start_converges_quickly(self, multistart_results):
        for key, res in multistart_results.items():
            assert len(res.start_iters) == len(res.start_stop_reasons) == 20
            assert set(res.start_stop_reasons) <= {"tolerance", "rounding_floor"}, key
            assert max(res.start_iters) <= 50, key

    def test_stop_vocabulary_is_shared_with_the_dual_ascent(self):
        from gjmslab import kernels, rayleigh, spectral

        assert rayleigh.STOP_REASONS is kernels.STOP_REASONS is spectral.STOP_REASONS
        assert rayleigh.ROUNDING_FLOOR is kernels.ROUNDING_FLOOR is spectral.ROUNDING_FLOOR

    def test_fallback_steps_are_recorded_per_start(self, multistart_results):
        for key, res in multistart_results.items():
            assert len(res.start_fallback_steps) == 20
            for fallbacks, iters in zip(res.start_fallback_steps, res.start_iters):
                assert 0 <= fallbacks <= iters, key
            # the constant start takes no step; the random draws start beside
            # sign-changing saddles, where the tangent Hessian is indefinite
            assert res.start_fallback_steps[0] == 0, key
            assert sum(res.start_fallback_steps[3:]) > 0, key
            assert res.to_dict()["start_fallback_steps"] == res.start_fallback_steps

    def test_scale_aware_stop_on_high_order(self):
        # on (9,3,4) the quotient is about 1e4 and Lambda_32 about 2e9, so an
        # absolute 1e-9 gradient test fires only at the exact constant start;
        # the relative test also stops the two bubble starts
        cfg = OptimizerConfig(params=SphereParams(n=9, m=3), p=4.0, K=32, starts=20, seed=0)
        res = minimize(cfg)
        assert res.converged
        assert res.start_stop_reasons[1:3] == ["tolerance", "tolerance"]

    def test_max_iter_stop_reason(self):
        cfg = OptimizerConfig(
            params=SphereParams(n=5, m=2), p=2.5, K=16, starts=6, seed=3, max_iter=1
        )
        res = minimize(cfg)
        assert set(res.start_stop_reasons) <= {
            "tolerance", "rounding_floor", "line_search_exhausted", "max_iter"
        }
        assert res.start_stop_reasons[0] == "tolerance" and res.start_iters[0] == 0
        assert "max_iter" in res.start_stop_reasons
        for reason, iters in zip(res.start_stop_reasons, res.start_iters):
            assert iters <= 1
            if reason == "max_iter":
                assert iters == 1

    @pytest.mark.parametrize("n,m,p", MINIMIZE_CONFIGS)
    def test_lockstep_starts_match_single_starts(self, n, m, p):
        # minimize runs its starts as one batch; each start ends as it does
        # in a batch of one
        for seed in (0, 1, 2):
            cfg = OptimizerConfig(params=SphereParams(n=n, m=m), p=p, K=32, starts=20, seed=seed)
            res = minimize(cfg)
            ws = Workspace.shared(cfg.params, cfg.K)
            for i, c0 in enumerate(_starts(cfg, ws)):
                _, (val,), _, _, (iters,), (fallbacks,), (reason,), _ = _descend(ws, c0[None, :], cfg)
                assert (iters, reason, fallbacks) == (
                    res.start_iters[i], res.start_stop_reasons[i], res.start_fallback_steps[i]
                ), (seed, i)
                assert abs(val - res.start_values[i]) <= 1e-15 * abs(val)

    def test_step0_removed(self):
        with pytest.raises(TypeError):
            OptimizerConfig(params=SphereParams(n=3, m=1), p=4.0, step0=1.0)


class TestNewtonStep:
    @pytest.mark.parametrize("n,m,p", MINIMIZE_CONFIGS)
    def test_matches_the_qr_eigh_reference_on_both_branches(self, n, m, p):
        cfg = OptimizerConfig(params=SphereParams(n=n, m=m), p=p, K=32, starts=4, seed=0)
        ws = Workspace(cfg.params, cfg.K)
        k = np.arange(cfg.K + 1, dtype=float)
        near_constant = 1e-3 / (1.0 + k * k)
        near_constant[0] = 1.0
        random_draw = _starts(cfg, ws)[3]
        # near the constant every tangent eigenvalue is about 1 - (p-1) Lambda_0 / Lambda_1
        # > 0, so the Cholesky test certifies the Newton step; a random draw
        # has negative tangent eigenvalues and takes the eigendecomposition
        C = ws.normalize(np.array([near_constant, random_draw]), p)
        vals, grads = ws.quotient_and_gradient(C, p)
        refs = [reference_newton_step(ws, c, p, val, grad) for c, val, grad in zip(C, vals, grads)]
        for i, certified in enumerate((True, False)):
            (step,), (took_cholesky,) = _newton_step(ws, C[i : i + 1], p, vals[i : i + 1], grads[i : i + 1])
            assert took_cholesky == certified
            assert np.linalg.norm(step - refs[i]) <= 1e-12 * np.linalg.norm(refs[i])
        # one stack holding both rows: each keeps its own Cholesky test
        steps, took_cholesky = _newton_step(ws, C, p, vals, grads)
        assert took_cholesky.tolist() == [True, False]
        for step, ref in zip(steps, refs):
            assert np.linalg.norm(step - ref) <= 1e-12 * np.linalg.norm(ref)


class TestReportedStationarity:
    @pytest.mark.parametrize("n,m,p", MINIMIZE_CONFIGS + [(4, 1, 3.0)])
    def test_tolerance_stops_meet_tol_grad(self, n, m, p):
        cfg = OptimizerConfig(params=SphereParams(n=n, m=m), p=p, K=32, starts=20, seed=0)
        ws = Workspace(cfg.params, cfg.K)
        _, _, _, rel_grad_norms, _, _, reasons, _ = _descend(ws, _starts(cfg, ws), cfg)
        for rel_grad_norm, reason in zip(rel_grad_norms, reasons):
            if reason == "tolerance":
                assert rel_grad_norm <= cfg.tol_grad

    def test_reported_field_is_the_relative_test(self):
        cfg = OptimizerConfig(params=SphereParams(n=7, m=2), p=3.0, K=32, starts=20, seed=0)
        res = minimize(cfg)
        assert res.to_dict()["rel_grad_norm"] == res.rel_grad_norm <= cfg.tol_grad

    def test_ties_go_to_the_constant_start(self):
        # a Newton-polished nonconstant start lands within 2 ulp of S here
        cfg = OptimizerConfig(params=SphereParams(n=4, m=1), p=3.0, K=32, starts=20, seed=0)
        res = minimize(cfg)
        assert res.distance_to_constant == 0.0
        assert min(res.start_values) >= res.value * (1.0 - 16.0 * np.finfo(float).eps)
