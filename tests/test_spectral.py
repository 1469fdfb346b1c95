"""Core basis/quadrature/spectrum tests with independent oracles."""

import json
import math
import re
import tracemalloc

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
    _jacobi_recurrence,
    basis_values,
    basis_with_derivatives,
    build_quadrature,
    gamma_ratio,
    gauss_jacobi,
    gjms_eigenvalues,
    gjms_lambda0,
    laplace_beltrami_ode_residual,
    norm2,
    sphere_area,
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

    def test_mass_past_the_double_range_is_a_domain_error(self):
        # the mass needs Gamma(alpha + beta + 2) = Gamma(172) at n = 172
        with pytest.raises(DomainError, match="overflows a double"):
            gauss_jacobi(16, 85.0, 85.0)


def reference_gauss_jacobi(N, alpha, beta):
    # Reference: the same Newton passes with a list of row arrays, its
    # np.array copy, and the full A x N Aberth matrix; gauss_jacobi must
    # reproduce it bit for bit.
    N = int(N)
    ab = alpha + beta
    a, b = _jacobi_recurrence(alpha, beta, N)
    mass = 2.0 ** (ab + 1.0) * math.gamma(alpha + 1.0) / math.gamma(ab + 2.0) * math.gamma(beta + 1.0)
    sym = alpha == beta
    M = (N + 1) // 2 if sym else N
    rho = 2.0 * N + ab + 1.0
    theta = (2.0 * np.arange(1.0, M + 1.0) + alpha - 0.5) * (math.pi / rho)
    half = np.tan(0.5 * theta)
    x = np.cos(theta + ((0.25 - alpha * alpha) / half - (0.25 - beta * beta) * half) / rho**2)
    if sym and N % 2:
        x[-1] = 0.0
    scale = np.cumprod(np.concatenate(([1.0 / math.sqrt(mass)], 0.5 / b)))
    steps = list(zip((2.0 * a).tolist(), [0.0] + (4.0 * b[:-1] ** 2).tolist()))
    shift = N * (alpha - beta) / (2.0 * N + ab)
    c_prev = (2.0 * N + ab + 1.0) * b[-1] * scale[-2] / scale[-1]
    c_darboux = b[-1] * scale[-1] * scale[-2]
    weights = np.empty(M)
    active = np.arange(M)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(100):
            xa = x[active]
            two_x = 2.0 * xa
            prev, cur = np.zeros_like(xa), np.ones_like(xa)
            rows = [cur]
            for two_a, c in steps:
                nxt = (two_x - two_a) * cur if two_a else two_x * cur
                nxt -= c * prev
                prev, cur = cur, nxt
                rows.append(cur)
            rows = np.array(rows[:-1])
            christoffel = scale[:-1] ** 2 @ (rows * rows)
            d = 1.0 - xa * xa
            dp = ((shift - N * xa) * cur + c_prev * prev) / d
            ddp = ((alpha - beta + (ab + 2.0) * xa) * dp - N * (N + ab + 1.0) * cur) / d
            diff = xa[:, None] - (np.concatenate((x, -x[: N // 2])) if sym else x)
            diff[np.arange(active.size), active] = np.inf
            delta = cur / dp
            delta /= 1.0 - delta * np.sum(1.0 / diff, axis=1)
            x[active] = xa - delta
            weights[active] = 1.0 / (christoffel - delta * c_darboux * prev * ddp)
            tol = np.maximum(1e-7 / N * np.sqrt(d), 4.0 * np.finfo(float).eps)
            active = active[~(np.abs(delta) <= tol)]
            if active.size == 0:
                break
    if sym:
        x = np.concatenate((-x[: N // 2], x))
        weights = np.concatenate((weights[: N // 2], weights))
    order = np.argsort(x)
    return x[order], weights[order]


def reference_basis_with_derivatives(n, K, t):
    # Reference: the recurrences written column by column into (len(t), K+1)
    # arrays; the row-major basis must reproduce them bit for bit.
    B = np.empty((t.size, K + 1))
    B[:, 0] = 1.0 / math.sqrt(sphere_area(n))
    D1 = np.zeros_like(B)
    D2 = np.zeros_like(B)
    if K >= 1:
        b = _jacobi_recurrence((n - 2) / 2.0, (n - 2) / 2.0, K)[1]
        B[:, 1] = t * B[:, 0] / b[0]
        D1[:, 1] = B[:, 0] / b[0]
        for k in range(1, K):
            B[:, k + 1] = (t * B[:, k] - b[k - 1] * B[:, k - 1]) / b[k]
            D1[:, k + 1] = (B[:, k] + t * D1[:, k] - b[k - 1] * D1[:, k - 1]) / b[k]
            D2[:, k + 1] = (2.0 * D1[:, k] + t * D2[:, k] - b[k - 1] * D2[:, k - 1]) / b[k]
    return B, D1, D2


class TestBitIdentity:
    @pytest.mark.parametrize("Q", [4, 5, 72, 73, 408, 1608])
    @pytest.mark.parametrize("n", [2, 3, 5, 9, 13])
    def test_rule_and_basis_match_references(self, n, Q):
        a = (n - 2) / 2
        x, w = gauss_jacobi(Q, a, a)
        x_ref, w_ref = reference_gauss_jacobi(Q, a, a)
        assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)
        B = basis_values(n, Q - 1, x)
        assert np.array_equal(B, reference_basis_with_derivatives(n, Q - 1, x)[0])
        K = max((Q - 8) // 2, 1)  # the truncation a Q-node workspace resolves
        for got, ref in zip(basis_with_derivatives(n, K, x), reference_basis_with_derivatives(n, K, x)):
            assert got.flags.c_contiguous and np.array_equal(got, ref)

    @pytest.mark.parametrize(
        "N,alpha,beta", [(72, 14.0, 14.0), (72, 49.0, 49.0), (40, 1.0, 1.5), (408, 0.0, 1.5)]
    )
    def test_jacobi_rules_match_reference(self, N, alpha, beta):
        x, w = gauss_jacobi(N, alpha, beta)
        x_ref, w_ref = reference_gauss_jacobi(N, alpha, beta)
        assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)

    @pytest.mark.parametrize("K", [0, 1, 200])
    def test_basis_is_c_ordered(self, K):
        # B @ c, B.T @ v and B.T diag(s) B round differently on an F-ordered B
        B = basis_values(5, K, np.linspace(-0.9, 0.9, 37))
        assert B.shape == (37, K + 1) and B.flags.c_contiguous

    def test_rule_memory_is_one_row_buffer(self):
        # the Q = 1608 rule of a K = 800 workspace: (N+1) x M rows of q_k for
        # M = 804 active nodes are 10.3 MB; the Aberth sum adds one 64-row block
        N = 1608
        buffer_bytes = (N + 1) * ((N + 1) // 2) * 8
        tracemalloc.start()
        try:
            gauss_jacobi(N, 1.5, 1.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * buffer_bytes


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
    # on a workspace, synthesis is B c and analysis is B^T(w v)
    def test_constant_synthesis(self):
        ws = Workspace(SphereParams(n=5, m=1), 0, 16)
        vals = ws.basis @ np.array([1.0])
        assert np.allclose(vals, sphere_area(5) ** -0.5, rtol=1e-14)

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        ws = Workspace(SphereParams(n=4, m=1), 16, 64)
        c = rng.standard_normal(17)
        back = ws.basis.T @ (ws.weights * (ws.basis @ c))
        assert np.max(np.abs(back - c)) < 1e-10

    def test_coordinate_function_is_degree_one(self):
        params = SphereParams(n=3, m=1)
        ws = Workspace(params, 8, 24)
        rule = ws.rule
        c = ws.basis.T @ (ws.weights * rule.nodes)
        assert abs(c[1]) > 0.1
        others = np.delete(c, 1)
        assert np.max(np.abs(others)) < 1e-12
        # quadrature oracle for the surviving coefficient: c_1 = int t Y_1 dsigma
        c1 = rule.integrate(rule.nodes * zonal_basis(rule, params, 1)[:, 1])
        assert c[1] == pytest.approx(c1, rel=1e-13)

    def test_dimension_mismatch(self):
        rule = build_quadrature(3, 8)
        with pytest.raises(ValueError):
            zonal_basis(rule, SphereParams(n=5, m=1), 4)


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

    def test_spectrum_past_the_double_range_is_a_domain_error(self):
        params = SphereParams(n=101, m=50)
        assert np.isfinite(gamma_ratio(params, 1000)[-1])  # about 1e302
        with pytest.raises(DomainError, match="Lambda_3000 overflows a double"):
            gamma_ratio(params, 3000)

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


class TestSharedWorkspace:
    def test_spellings_of_one_key_share_one_workspace(self):
        params = SphereParams(n=5, m=2)
        ws = Workspace.shared(params, 32)
        assert Workspace.shared(params, 32, 72) is ws
        assert Workspace.shared(params, np.int64(32)) is ws
        assert Workspace.shared(SphereParams(n=5, m=2), 32, np.int64(72)) is ws
        assert ws.K == 32 and ws.rule.order == 72

    def test_other_order_gets_its_own_workspace(self):
        one = Workspace.shared(SphereParams(n=5, m=1), 12)
        two = Workspace.shared(SphereParams(n=5, m=2), 12)
        assert one is not two
        np.testing.assert_array_equal(one.rule.nodes, two.rule.nodes)
        assert not np.array_equal(one.lam, two.lam)

    def test_matches_a_fresh_build(self):
        params = SphereParams(n=7, m=2)
        shared, fresh = Workspace.shared(params, 20, 48), Workspace(params, 20, 48)
        for name in ("basis", "weights", "lam"):
            assert getattr(shared, name).tobytes() == getattr(fresh, name).tobytes()
        assert shared.rule.nodes.tobytes() == fresh.rule.nodes.tobytes()

    def test_cached_arrays_are_read_only(self):
        ws = Workspace.shared(SphereParams(n=3, m=1), 8)
        arrays = (ws.rule.nodes, ws.rule.weights, ws.weights, ws.basis, ws.lam, ws.spectrum.lam)
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            ws.basis *= 2.0

    @pytest.mark.parametrize("K,Q", [(-1, None), (12, 3), (12, 12), (2.5, None)])
    def test_invalid_sizes_raise_as_the_constructor_and_cache_nothing(self, K, Q):
        params = SphereParams(n=5, m=2)
        with pytest.raises(Exception) as direct:
            Workspace(params, K, Q)
        before = Workspace.shared.cache_info().currsize
        with pytest.raises(type(direct.value), match=re.escape(str(direct.value))):
            Workspace.shared(params, K, Q)
        assert Workspace.shared.cache_info().currsize == before

    def test_ninth_key_evicts_the_least_recently_used(self):
        params = SphereParams(n=3, m=1)
        Workspace.shared.cache_clear()
        built = [Workspace.shared(params, K) for K in range(1, 10)]
        assert Workspace.shared.cache_info().currsize == 8
        assert Workspace.shared(params, 9) is built[-1]
        assert Workspace.shared(params, 2) is built[1]
        assert Workspace.shared(params, 1) is not built[0]

    def test_cold_and_warm_cache_give_bit_identical_results(self):
        from gjmslab.kernels import hls_dual_ratio
        from gjmslab.lane_emden import Nonlinearity, uniqueness_probe
        from gjmslab.rayleigh import OptimizerConfig, minimize

        params = SphereParams(n=5, m=2)

        def results():
            res = minimize(OptimizerConfig(params=params, p=2.5, K=16, starts=5, seed=3))
            ratio = hls_dual_ratio(params, 2.5, trials=3, seed=3, K=16)
            f = Nonlinearity.single_power(1.0, 2.0, params)
            probe = uniqueness_probe(2, 5, f, trials=4, seed=3, K=16)
            return (
                res.value,
                res.start_values,
                res.minimizer.coeffs.tobytes(),
                ratio,
                json.dumps(probe.to_dict()),
            )

        Workspace.shared.cache_clear()
        cold = results()
        assert results() == cold


class TestQuadraticForm:
    # the energy sum(Lambda_k c_k^2) is the numerator of Workspace.quotient,
    # whose p = 2 denominator is ||c||^2 by Parseval
    def test_single_mode(self):
        ws = Workspace(SphereParams(n=5, m=2), 8)
        c = np.zeros(9)
        c[2] = 3.0
        assert ws.quotient(c, 2.0) == pytest.approx(ws.lam[2], rel=1e-14)

    def test_constant_function_n3(self):
        ws = Workspace(SphereParams(n=3, m=1), 4)
        c = np.zeros(5)
        c[0] = math.sqrt(sphere_area(3))
        energy = ws.quotient(c, 2.0) * ws.p_norm(c, 2.0) ** 2
        assert energy == pytest.approx(0.75 * 2 * math.pi**2, rel=1e-14)

    def test_matches_nodal_evaluation(self):
        # self-consistency oracle: synthesize P u from Lambda_k c_k and integrate
        rng = np.random.default_rng(11)
        K = 12
        ws = Workspace(SphereParams(n=5, m=2), K, 32)
        c = rng.standard_normal(K + 1)
        nodal = ws.rule.integrate((ws.basis @ (ws.lam * c)) * (ws.basis @ c))
        assert ws.quotient(c, 2.0) * ws.p_norm(c, 2.0) ** 2 == pytest.approx(nodal, rel=1e-12)

    def test_spectral_gap(self):
        # energy >= Lambda_0 ||u||^2 with equality only for constants
        rng = np.random.default_rng(3)
        ws = Workspace(SphereParams(n=7, m=3), 10)
        for _ in range(25):
            c = rng.standard_normal(11)
            gap = ws.quotient(c, 2.0) / ws.lam[0] - 1.0
            assert gap >= -1e-12
            if gap <= 1e-12:
                assert np.max(np.abs(c[1:])) < 1e-12

    def test_truncation_mismatch(self):
        ws = Workspace(SphereParams(n=3, m=1), 2)
        with pytest.raises(ValueError):
            ws.quotient(np.ones(5), 2.0)


class TestLpNorm:
    def test_constant(self):
        ws = Workspace(SphereParams(n=4, m=1), 0, 16)
        one = np.array([math.sqrt(sphere_area(4))])
        for p in (1.0, 2.5, 4.0):
            assert ws.p_norm(one, p) == pytest.approx(sphere_area(4) ** (1 / p), rel=1e-13)

    def test_parseval(self):
        rng = np.random.default_rng(5)
        ws = Workspace(SphereParams(n=5, m=1), 12, 40)
        c = rng.standard_normal(13)
        assert ws.p_norm(c, 2.0) == pytest.approx(np.linalg.norm(c), rel=1e-10)

    def test_y1_fourth_power_against_dense_oracle(self):
        ws = Workspace(SphereParams(n=3, m=1), 1, 24)
        # brute-force 10^4-node oracle on the explicit weight
        x, w = roots_legendre(10_000)
        y1 = basis_values(3, 1, x)[:, 1]
        oracle = (sphere_area(2) * float(np.dot(w, np.sqrt(1 - x * x) * y1**4))) ** 0.25
        assert ws.p_norm(np.array([0.0, 1.0]), 4.0) == pytest.approx(oracle, rel=1e-10)

    def test_rejects_p_below_one(self):
        ws = Workspace(SphereParams(n=3, m=1), 0, 8)
        with pytest.raises(DomainError):
            ws.p_norm(np.array([1.0]), 0.5)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_rejects_non_finite_p(self, p):
        ws = Workspace(SphereParams(n=3, m=1), 0, 8)
        with pytest.raises(DomainError):
            ws.p_norm(np.array([1.0]), p)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestNorm2:
    def test_in_range_bits_are_numpys(self):
        rng = np.random.default_rng(8)
        for scale in (1e-300, 1e-5, 1.0, 1e150):
            x = scale * rng.standard_normal((7, 13))
            assert norm2(x) == np.linalg.norm(x)
            assert np.array_equal(norm2(x, axis=1), np.linalg.norm(x, axis=1))

    def test_finite_entries_past_the_square_root_of_the_double_range(self):
        # squaring 3e200 overflows; the rescaled norm is 5e200
        x = np.array([3e200, -4e200])
        assert np.isinf(np.linalg.norm(x))
        assert norm2(x) == pytest.approx(5e200, rel=1e-15)
        rows = np.array([[3.0, 4.0], [3e200, -4e200], [0.0, 0.0]])
        got = norm2(rows, axis=1)
        assert got[0] == 5.0 and got[2] == 0.0
        assert got[1] == pytest.approx(5e200, rel=1e-15)

    def test_non_finite_entries_and_true_overflow_stay_non_finite(self):
        assert np.isinf(norm2(np.array([np.inf, 1.0])))
        assert np.isnan(norm2(np.array([np.nan, 1e200])))
        assert np.isinf(norm2(np.array([1.5e308, 1.5e308])))
        assert np.isinf(norm2(np.array([[np.inf, 1.0], [1e200, 1e200]]), axis=1)[0])

    def test_zonal_norms_do_not_overflow(self):
        u = ZonalFunction(SphereParams(n=3, m=1), np.array([3e200, 0.0, 4e200]))
        assert u.l2_norm() == pytest.approx(5e200, rel=1e-15)
        assert u.distance_to_constant() == pytest.approx(0.8, rel=1e-15)


class TestSerialization:
    def test_round_trip(self):
        # reports carry to_dict(); it holds everything needed to rebuild the function
        params = SphereParams(n=5, m=2)
        u = ZonalFunction(params, np.array([1.0, -2.0, 0.25]))
        d = json.loads(json.dumps(u.to_dict()))
        back = ZonalFunction(SphereParams(n=d["n"], m=d["m"]), d["coeffs"])
        assert back.params == params and d["K"] == 2
        assert np.array_equal(back.coeffs, u.coeffs)
