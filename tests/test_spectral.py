"""Core basis/quadrature/spectrum tests with independent oracles."""

import json
import math

import mpmath
import numpy as np
import pytest
from scipy.special import eval_chebyu, roots_jacobi, roots_legendre

from gjmslab.errors import AliasingError, DomainError
from gjmslab.spectral import (
    GjmsSpectrum,
    SphereParams,
    Workspace,
    ZonalFunction,
    analyze,
    basis_values,
    build_quadrature,
    gamma_ratio,
    gauss_jacobi,
    gjms_eigenvalues,
    gjms_lambda0,
    laplace_beltrami_ode_residual,
    lp_norm,
    quadratic_form,
    sphere_area,
    synthesize,
    zonal_basis,
)


def jacobi_moment(n, j):
    # Oracle: surface integral of t^j over S^n.  Odd moments vanish; even ones
    # reduce to a Beta function, |S^{n-1}| * B((j+1)/2, n/2).
    if j % 2 == 1:
        return 0.0
    lb = math.lgamma((j + 1) / 2) + math.lgamma(n / 2) - math.lgamma((j + 1) / 2 + n / 2)
    return sphere_area(n - 1) * math.exp(lb)


def brute_force_moment(n, j, nodes=10_000):
    # Second oracle: dense Gauss-Legendre applied to the explicit weight.
    x, w = roots_legendre(nodes)
    return sphere_area(n - 1) * float(np.dot(w, x**j * (1 - x * x) ** ((n - 2) / 2)))


class TestSphereArea:
    def test_circle(self):
        assert sphere_area(1) == pytest.approx(2 * math.pi, rel=1e-15)

    def test_two_sphere(self):
        assert sphere_area(2) == pytest.approx(4 * math.pi, rel=1e-15)

    def test_three_sphere_gamma_and_quadrature(self):
        assert sphere_area(3) == pytest.approx(2 * math.pi**2, rel=1e-14)
        rule = build_quadrature(3, 16)
        assert rule.integrate(np.ones(rule.order)) == pytest.approx(2 * math.pi**2, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            sphere_area(0)


class TestQuadrature:
    def test_total_mass_n3(self):
        rule = build_quadrature(3, 8)
        assert abs(np.sum(rule.weights) / (2 * math.pi**2) - 1) < 1e-12

    def test_odd_symmetry(self):
        rule = build_quadrature(3, 8)
        assert abs(rule.integrate(rule.nodes)) < 1e-12 * sphere_area(3)

    def test_second_moment_n5(self):
        rule = build_quadrature(5, 16)
        val = rule.integrate(rule.nodes**2) / sphere_area(5)
        assert val == pytest.approx(1.0 / 6.0, rel=1e-13)
        assert brute_force_moment(5, 2) / sphere_area(5) == pytest.approx(1 / 6, rel=1e-12)

    @pytest.mark.parametrize("n,Q", [(3, 12), (4, 16), (5, 20), (7, 24), (12, 16)])
    def test_moment_exactness_through_degree(self, n, Q):
        rule = build_quadrature(n, Q)
        for j in range(2 * Q):
            num = rule.integrate(rule.nodes**j)
            exact = jacobi_moment(n, j)
            if j % 2 == 1:
                assert abs(num) <= 1e-12 * sphere_area(n)
            else:
                assert abs(num - exact) <= 1e-12 * abs(exact)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            build_quadrature(1, 8)
        with pytest.raises(DomainError):
            build_quadrature(3, 3)


def mp_christoffel_weight(n, Q, t):
    # Oracle: surface Christoffel number 1/sum_{k<Q} Y_k(t)^2 in 30-digit
    # arithmetic, from the ultraspherical recurrence written out afresh.
    with mpmath.workdps(30):
        a = mpmath.mpf(n - 2) / 2
        t = mpmath.mpf(t)
        area = 2 * mpmath.pi ** (mpmath.mpf(n + 1) / 2) / mpmath.gamma(mpmath.mpf(n + 1) / 2)
        prev, cur = mpmath.mpf(0), 1 / mpmath.sqrt(area)
        b_prev, total = mpmath.mpf(0), mpmath.mpf(0)
        for k in range(1, Q + 1):
            total += cur**2
            b = mpmath.sqrt(k * (k + 2 * a) / ((2 * k + 2 * a + 1) * (2 * k + 2 * a - 1)))
            prev, cur = cur, (t * cur - b_prev * prev) / b
            b_prev = b
        return float(1 / total)


class TestGaussJacobi:
    @pytest.mark.parametrize("Q", [4, 5, 24, 72, 73, 408, 1608])
    @pytest.mark.parametrize("n", [2, 3, 5, 9, 13])
    def test_nodes_match_scipy_and_weights_sum_to_area(self, n, Q):
        rule = build_quadrature(n, Q)
        a = (n - 2) / 2
        assert np.max(np.abs(rule.nodes - roots_jacobi(Q, a, a)[0])) <= 1e-14
        assert abs(np.sum(rule.weights) / sphere_area(n) - 1.0) <= 1e-13

    @pytest.mark.parametrize("n,Q", [(3, 72), (5, 73), (9, 408), (2, 200)])
    def test_interior_weights_match_christoffel_oracle(self, n, Q):
        rule = build_quadrature(n, Q)
        for i in np.flatnonzero(np.abs(rule.nodes) <= 0.9)[:: max(1, Q // 12)]:
            ref = mp_christoffel_weight(n, Q, rule.nodes[i])
            assert abs(rule.weights[i] / ref - 1.0) <= 1e-12

    def test_unequal_exponents_match_scipy(self):
        alpha, beta = 1.0, 1.5  # the Funk-Hecke weight of (n, m) = (5, 2)
        x, w = gauss_jacobi(40, alpha, beta)
        xs, ws = roots_jacobi(40, alpha, beta)
        assert np.max(np.abs(x - xs)) <= 1e-14
        assert np.max(np.abs(w / ws - 1.0)) <= 1e-11
        mass = 2 ** (alpha + beta + 1) * math.gamma(alpha + 1) * math.gamma(beta + 1) / math.gamma(alpha + beta + 2)
        assert abs(np.sum(w) / mass - 1.0) <= 1e-13

    @pytest.mark.parametrize("alpha", [14.0, 49.0])
    def test_large_exponents(self, alpha):
        # Gatteschi-Pittaluga guesses are off by a third of a node spacing or
        # more near the endpoints here, where plain Newton steps land on a
        # neighbouring zero; the Aberth correction still finds every node once
        x, _ = gauss_jacobi(72, alpha, alpha)
        assert np.max(np.abs(x - roots_jacobi(72, alpha, alpha)[0])) <= 1e-14

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            gauss_jacobi(0, 0.5, 0.5)
        with pytest.raises(DomainError):
            gauss_jacobi(8, -0.5, 0.5)


class TestBasis:
    def test_constant_mode(self):
        rule = build_quadrature(3, 16)
        B = zonal_basis(rule, SphereParams(n=3, m=1), 4)
        assert np.allclose(B[:, 0], sphere_area(3) ** -0.5, rtol=0, atol=1e-15)

    def test_orthogonality_y1_y2(self):
        rule = build_quadrature(4, 24)
        B = zonal_basis(rule, SphereParams(n=4, m=1), 8)
        assert abs(rule.integrate(B[:, 1] * B[:, 2])) < 1e-12

    @pytest.mark.parametrize("n,m,K,Q", [(3, 1, 16, 36), (5, 2, 24, 56), (7, 3, 32, 72)])
    def test_gram_identity(self, n, m, K, Q):
        rule = build_quadrature(n, Q)
        B = zonal_basis(rule, SphereParams(n=n, m=m), K)
        gram = B.T @ (rule.weights[:, None] * B)
        assert np.max(np.abs(gram - np.eye(K + 1))) <= 1e-10

    def test_n3_matches_chebyshev_u(self):
        # On S^3 the zonal harmonics are second-kind Chebyshev polynomials up to
        # one k-independent constant: int U_k^2 (1-t^2)^(1/2) dt = pi/2, so
        # Y_k = U_k / sqrt(|S^2| pi / 2).  Oracle is scipy's eval_chebyu.
        t = np.linspace(-0.99, 0.99, 31)
        B = basis_values(3, 10, t)
        scale = (sphere_area(2) * np.pi / 2) ** -0.5
        for k in range(11):
            expected = scale * eval_chebyu(k, t)
            assert np.max(np.abs(B[:, k] - expected)) < 1e-11 * max(1.0, np.max(np.abs(expected)))

    def test_aliasing_guard(self):
        rule = build_quadrature(3, 8)
        with pytest.raises(AliasingError):
            zonal_basis(rule, SphereParams(n=3, m=1), 8)


class TestAnalyzeSynthesize:
    def test_constant_synthesis(self):
        rule = build_quadrature(5, 16)
        params = SphereParams(n=5, m=1)
        u = ZonalFunction(params, np.array([1.0]))
        vals = synthesize(u, rule)
        assert np.allclose(vals, sphere_area(5) ** -0.5, rtol=1e-14)

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        rule = build_quadrature(4, 64)
        params = SphereParams(n=4, m=1)
        c = rng.standard_normal(17)
        u = ZonalFunction(params, c)
        back = analyze(synthesize(u, rule), rule, params, 16)
        assert np.max(np.abs(back.coeffs - c)) < 1e-10

    def test_coordinate_function_is_degree_one(self):
        rule = build_quadrature(3, 24)
        params = SphereParams(n=3, m=1)
        u = analyze(rule.nodes, rule, params, 8)
        assert abs(u.coeffs[1]) > 0.1
        others = np.delete(u.coeffs, 1)
        assert np.max(np.abs(others)) < 1e-12
        # quadrature oracle for the surviving coefficient: c_1 = int t Y_1 dsigma
        c1 = rule.integrate(rule.nodes * zonal_basis(rule, params, 1)[:, 1])
        assert u.coeffs[1] == pytest.approx(c1, rel=1e-13)

    def test_dimension_mismatch(self):
        rule = build_quadrature(3, 8)
        with pytest.raises(ValueError):
            analyze(np.ones(7), rule, SphereParams(n=3, m=1), 4)


class TestGjmsSpectrum:
    def test_order_two_bottom_n3(self):
        spec = gjms_eigenvalues(SphereParams(n=3, m=1), 4)
        assert spec.lam[0] == pytest.approx(0.75, rel=1e-15)

    def test_order_four_n5(self):
        spec = gjms_eigenvalues(SphereParams(n=5, m=2), 4)
        # oracle: product (15/4)(15/4 - 2) and Gamma(9/2)/Gamma(1/2)
        assert spec.lam[0] == pytest.approx(105.0 / 16.0, rel=1e-14)
        assert spec.lam[0] == pytest.approx(
            math.exp(math.lgamma(4.5) - math.lgamma(0.5)), rel=1e-13
        )
        # degree one: (35/4)(27/4) and Gamma(11/2)/Gamma(3/2)
        assert spec.lam[1] == pytest.approx(945.0 / 16.0, rel=1e-14)
        assert spec.lam[1] == pytest.approx(
            math.exp(math.lgamma(5.5) - math.lgamma(1.5)), rel=1e-13
        )

    def test_cross_form_agreement_grid(self):
        from scipy.special import gammaln

        for m in range(1, 5):
            for n in range(2 * m + 1, 13):
                spec = gjms_eigenvalues(SphereParams(n=n, m=m), 48)
                k = np.arange(49, dtype=float)
                ref = np.exp(gammaln(k + n / 2 + m) - gammaln(k + n / 2 - m))
                assert np.max(np.abs(spec.lam / ref - 1)) <= 1e-10

    def test_gamma_ratio_against_arbitrary_precision(self):
        for m, n in [(1, 3), (2, 6), (5, 11)]:
            ratio = gamma_ratio(SphereParams(n=n, m=m), 2000)
            h = mpmath.mpf(n) / 2
            with mpmath.workdps(30):
                ref = [float(mpmath.gamma(k + h + m) / mpmath.gamma(k + h - m)) for k in range(0, 2001, 50)]
            assert np.max(np.abs(ratio[::50] / ref - 1)) <= 1e-14
        with pytest.raises(DomainError):
            gamma_ratio(SphereParams(n=3, m=1), -1)

    def test_positive_and_increasing(self):
        for m, n in [(1, 3), (2, 5), (3, 7), (4, 9), (4, 12)]:
            spec = gjms_eigenvalues(SphereParams(n=n, m=m), 32)
            assert np.all(spec.lam > 0)
            assert np.all(np.diff(spec.lam) > 0)

    def test_bottom_eigenvalue_product(self):
        for m, n in [(2, 5), (3, 7), (4, 9)]:
            mu0 = n * (n - 2) / 4
            expected = np.prod([mu0 - j * (j + 1) for j in range(m)])
            assert gjms_lambda0(m, n) == pytest.approx(expected, rel=1e-15)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            gjms_eigenvalues(SphereParams(n=4, m=2), 4)

    def test_laplace_beltrami_ode(self):
        for m, n in [(1, 3), (2, 5), (3, 7)]:
            assert laplace_beltrami_ode_residual(Workspace(SphereParams(n=n, m=m), 24)) <= 1e-8

    @pytest.mark.parametrize("m,n", [(1, 3), (2, 9), (5, 11)])
    def test_laplace_beltrami_ode_at_high_degree(self, m, n):
        # Y_k'' grows like k^4 max|Y_k|; measured against the terms that
        # cancel, the residual stays at rounding level through K = 800
        assert laplace_beltrami_ode_residual(Workspace(SphereParams(n=n, m=m), 800)) <= 1e-12

    def test_laplace_beltrami_ode_detects_wrong_eigenvalue(self, monkeypatch):
        import gjmslab.spectral as spectral

        ws = Workspace(SphereParams(n=3, m=1), 800)
        exact = spectral.laplace_beltrami_eigenvalues

        def perturbed(n, K):
            ev = exact(n, K)
            ev[K // 2] *= 1.0 + 1e-6
            return ev

        monkeypatch.setattr(spectral, "laplace_beltrami_eigenvalues", perturbed)
        assert laplace_beltrami_ode_residual(ws) >= 4e-7


class TestWorkspace:
    def test_bundles_rule_basis_and_spectrum(self):
        params = SphereParams(n=5, m=2)
        ws = Workspace(params, 12, 40)
        assert ws.rule.order == 40 and ws.K == 12
        np.testing.assert_array_equal(ws.basis, zonal_basis(ws.rule, params, 12))
        np.testing.assert_array_equal(ws.lam, gjms_eigenvalues(params, 12).lam)
        assert ws.lam is ws.spectrum.lam and ws.weights is ws.rule.weights
        assert Workspace(params, 12).rule.order == 32

    def test_quotient_unchanged(self):
        # frozen from the quotient workspace before it became public
        ws = Workspace(SphereParams(n=5, m=2), 12)
        c = np.random.default_rng(7).standard_normal(13) / (1.0 + np.arange(13.0) ** 2)
        assert ws.quotient(c, 2.5) == pytest.approx(828.069754565356, rel=1e-15, abs=0.0)


class TestQuadraticForm:
    def test_single_mode(self):
        params = SphereParams(n=5, m=2)
        spec = gjms_eigenvalues(params, 8)
        u = ZonalFunction(params, np.array([0.0, 0.0, 3.0]))
        assert quadratic_form(u, spec) == pytest.approx(9 * spec.lam[2], rel=1e-15)

    def test_constant_function_n3(self):
        params = SphereParams(n=3, m=1)
        spec = gjms_eigenvalues(params, 4)
        u = ZonalFunction(params, np.array([math.sqrt(sphere_area(3))]))
        assert quadratic_form(u, spec) == pytest.approx(0.75 * 2 * math.pi**2, rel=1e-14)

    def test_matches_nodal_evaluation(self):
        # self-consistency oracle: synthesize P u from Lambda_k c_k and integrate
        rng = np.random.default_rng(11)
        params = SphereParams(n=5, m=2)
        K = 12
        rule = build_quadrature(5, 32)
        spec = gjms_eigenvalues(params, K)
        c = rng.standard_normal(K + 1)
        u = ZonalFunction(params, c)
        pu = ZonalFunction(params, spec.lam * c)
        nodal = rule.integrate(synthesize(pu, rule) * synthesize(u, rule))
        assert quadratic_form(u, spec) == pytest.approx(nodal, rel=1e-12)

    def test_spectral_gap(self):
        # energy >= Lambda_0 ||u||^2 with equality only for constants
        rng = np.random.default_rng(3)
        params = SphereParams(n=7, m=3)
        spec = gjms_eigenvalues(params, 10)
        for _ in range(25):
            c = rng.standard_normal(11)
            u = ZonalFunction(params, c)
            gap = quadratic_form(u, spec) - spec.lam[0] * u.l2_norm() ** 2
            assert gap >= -1e-12
            if gap <= 1e-12 * quadratic_form(u, spec):
                assert np.max(np.abs(c[1:])) < 1e-12

    def test_truncation_mismatch(self):
        params = SphereParams(n=3, m=1)
        spec = gjms_eigenvalues(params, 2)
        with pytest.raises(ValueError):
            quadratic_form(ZonalFunction(params, np.ones(5)), spec)


class TestLpNorm:
    def test_constant(self):
        params = SphereParams(n=4, m=1)
        rule = build_quadrature(4, 16)
        one = ZonalFunction(params, np.array([math.sqrt(sphere_area(4))]))
        for p in (1.0, 2.5, 4.0):
            assert lp_norm(one, p, rule) == pytest.approx(sphere_area(4) ** (1 / p), rel=1e-13)

    def test_parseval(self):
        rng = np.random.default_rng(5)
        params = SphereParams(n=5, m=1)
        rule = build_quadrature(5, 40)
        u = ZonalFunction(params, rng.standard_normal(13))
        assert lp_norm(u, 2.0, rule) == pytest.approx(u.l2_norm(), rel=1e-10)

    def test_y1_fourth_power_against_dense_oracle(self):
        params = SphereParams(n=3, m=1)
        rule = build_quadrature(3, 24)
        u = ZonalFunction(params, np.array([0.0, 1.0]))
        # brute-force 10^4-node oracle on the explicit weight
        x, w = roots_legendre(10_000)
        y1 = basis_values(3, 1, x)[:, 1]
        oracle = (sphere_area(2) * float(np.dot(w, np.sqrt(1 - x * x) * y1**4))) ** 0.25
        assert lp_norm(u, 4.0, rule) == pytest.approx(oracle, rel=1e-10)

    def test_rejects_p_below_one(self):
        params = SphereParams(n=3, m=1)
        rule = build_quadrature(3, 8)
        with pytest.raises(DomainError):
            lp_norm(ZonalFunction(params, np.array([1.0])), 0.5, rule)


class TestSerialization:
    def test_round_trip(self):
        # reports carry to_dict(); it holds everything needed to rebuild the function
        params = SphereParams(n=5, m=2)
        u = ZonalFunction(params, np.array([1.0, -2.0, 0.25]))
        d = json.loads(json.dumps(u.to_dict()))
        back = ZonalFunction(SphereParams(n=d["n"], m=d["m"]), d["coeffs"])
        assert back.params == params and d["K"] == 2
        assert np.array_equal(back.coeffs, u.coeffs)
