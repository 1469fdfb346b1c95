"""Kernel spectrum, inverse-operator identity, and duality tests."""

import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_jacobi, roots_legendre

from gjmslab import kernels
from gjmslab.errors import DomainError
from gjmslab.kernels import (
    ball_volume,
    funk_hecke_spectrum,
    green_constant,
    hls_dual_ratio,
)
from gjmslab.rayleigh import sharp_constant
from gjmslab.spectral import (
    SphereParams,
    ZonalFunction,
    basis_values,
    build_quadrature,
    gjms_eigenvalues,
    gjms_lambda0,
    sphere_area,
)


def green_constant_at(params, K=8):
    return green_constant(
        params, kernel=funk_hecke_spectrum(params, K), gjms=gjms_eigenvalues(params, K)
    )


def kernel_energy(v, kernel):
    # the bilinear kernel energy is diagonal in the basis: sum(mu_k c_k^2)
    return float(np.dot(kernel.mu[: v.K + 1], v.coeffs**2))


def kernel_eigenvalue_bruteforce(params, k):
    # adaptive oracle on the raw singular integrand, no Jacobi-weight shortcut
    n, m = params.n, params.m
    at_one = basis_values(n, k, np.array([1.0]))[0][k]

    def f(t):
        gk = basis_values(n, k, np.array([t]))[0][k] / at_one
        return (2 - 2 * t) ** (-(n - 2 * m) / 2) * (1 - t * t) ** ((n - 2) / 2) * gk

    val, err = quad(f, -1, 1, points=[1.0 - 1e-12], limit=400)
    return sphere_area(n - 1) * val


class TestKernelSpectrum:
    def test_mu0_n3_bruteforce_and_beta(self):
        params = SphereParams(n=3, m=1)
        spec = funk_hecke_spectrum(params, 8)
        # analytic Beta-function oracle: |S^{n-1}| 2^{2m-1} Gamma(m)Gamma(n/2)/Gamma(m+n/2)
        beta = (
            sphere_area(2)
            * 2.0
            * math.gamma(1)
            * math.gamma(1.5)
            / math.gamma(2.5)
        )
        assert beta == pytest.approx(16 * math.pi / 3, rel=1e-14)
        assert spec.mu[0] == pytest.approx(beta, rel=1e-12)
        assert spec.mu[0] == pytest.approx(kernel_eigenvalue_bruteforce(params, 0), rel=1e-9)

    @pytest.mark.parametrize("m,n", [(1, 3), (1, 5), (2, 5), (3, 7)])
    def test_monotone_decreasing(self, m, n):
        spec = funk_hecke_spectrum(SphereParams(n=n, m=m), 16)
        assert np.all(np.diff(spec.mu) < 0)

    def test_n3_product_with_conformal_spectrum_constant(self):
        # mu_k (k+1/2)(k+3/2) should be degree-independent on S^3 at order two
        spec = funk_hecke_spectrum(SphereParams(n=3, m=1), 24)
        k = np.arange(25, dtype=float)
        prod = spec.mu * (k + 0.5) * (k + 1.5)
        assert np.max(np.abs(prod / prod[0] - 1)) <= 1e-8

    @pytest.mark.parametrize("m,n,K", [(5, 11, 800), (5, 11, 2000), (1, 3, 2000)])
    def test_closed_form_against_arbitrary_precision(self, m, n, K):
        # mpmath oracle at 30 digits: float log-Gamma differences (scipy or
        # math.lgamma) themselves err by 1e-12 relative at these degrees
        spec = funk_hecke_spectrum(SphereParams(n=n, m=m), K)
        h = mpmath.mpf(n) / 2
        with mpmath.workdps(30):
            scale = 4**m * mpmath.pi**h * mpmath.gamma(m) / mpmath.gamma(h - m)
            ref = np.array(
                [float(scale * mpmath.gamma(k + h - m) / mpmath.gamma(k + h + m)) for k in range(K + 1)]
            )
        assert np.max(np.abs(spec.mu / ref - 1)) <= 1e-12

    def test_underflow_is_a_domain_error(self):
        # mu_K = scale / Lambda_K leaves the normal range while Lambda_K is
        # finite (about 1e296 here); a subnormal or zero mu is refused
        params = SphereParams(n=341, m=52)
        assert funk_hecke_spectrum(params, 536).mu[-1] >= sys.float_info.min
        for K in (537, 700):
            with pytest.raises(DomainError, match=f"mu_{K} underflows a double"):
                funk_hecke_spectrum(params, K)
        with pytest.raises(DomainError, match="mu_3000 underflows a double"):
            funk_hecke_spectrum(SphereParams(n=362, m=41), 3000)

    def test_low_degrees_against_bruteforce(self):
        params = SphereParams(n=5, m=2)
        spec = funk_hecke_spectrum(params, 6)
        for k in range(4):
            assert spec.mu[k] == pytest.approx(
                kernel_eigenvalue_bruteforce(params, k), rel=1e-8
            )


class TestGreenConstants:
    def test_laplace_green_constant_n3(self):
        gc = green_constant_at(SphereParams(n=3, m=1))
        assert ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-15)
        assert gc.c_n == pytest.approx(1 / (4 * math.pi), rel=1e-14)

    def test_overflow_is_a_domain_error(self):
        # Gamma(172) in the ball volume; Gamma(199) in the kernel's scale
        with pytest.raises(DomainError, match="overflows a double"):
            ball_volume(342)
        with pytest.raises(DomainError, match="overflows a double"):
            funk_hecke_spectrum(SphereParams(n=400, m=1), 4)

    def test_identity_at_zero_by_construction(self):
        params = SphereParams(n=5, m=2)
        kernel = funk_hecke_spectrum(params, 8)
        gjms = gjms_eigenvalues(params, 8)
        gc = green_constant(params, kernel=kernel, gjms=gjms)
        assert gc.g_mn * kernel.mu[0] * gjms.lam[0] == pytest.approx(1.0, rel=1e-15)

    def test_identity_through_degree_32(self):
        params = SphereParams(n=5, m=2)
        kernel = funk_hecke_spectrum(params, 32)
        gjms = gjms_eigenvalues(params, 32)
        gc = green_constant(params, kernel=kernel, gjms=gjms)
        dev = np.abs(gc.g_mn * kernel.mu * gjms.lam - 1)
        assert np.max(dev) <= 1e-8

    def test_order_two_normalization_matches_euclidean(self):
        # at order two the sphere kernel normalization equals the Euclidean
        # Laplace Green constant (conformal invariance of the Green kernel)
        for n in (3, 5, 7):
            gc = green_constant_at(SphereParams(n=n, m=1))
            assert gc.g_mn == pytest.approx(gc.c_n, rel=1e-11)


class TestGreenInputs:
    # spectra of another (n, m), or a gjms spectrum shorter than the kernel's,
    # are the caller's error
    P, Q = SphereParams(n=5, m=2), SphereParams(n=7, m=2)

    def test_kernel_for_other_params(self):
        with pytest.raises(ValueError, match=r"kernel for SphereParams\(n=7"):
            green_constant(
                self.P, kernel=funk_hecke_spectrum(self.Q, 8), gjms=gjms_eigenvalues(self.Q, 8)
            )

    def test_gjms_for_other_params(self):
        with pytest.raises(ValueError, match=r"gjms for SphereParams\(n=7"):
            green_constant(
                self.P, kernel=funk_hecke_spectrum(self.P, 8), gjms=gjms_eigenvalues(self.Q, 8)
            )

    def test_gjms_shorter_than_kernel(self):
        with pytest.raises(ValueError, match="gjms ends at degree 4, kernel at 8"):
            green_constant(
                self.P, kernel=funk_hecke_spectrum(self.P, 8), gjms=gjms_eigenvalues(self.P, 4)
            )

    def test_longer_gjms_is_cut_to_the_kernel(self):
        gc = green_constant(
            self.P, kernel=funk_hecke_spectrum(self.P, 8), gjms=gjms_eigenvalues(self.P, 12)
        )
        assert gc.g_mn == green_constant_at(self.P).g_mn


class TestGreenApply:
    def test_matches_kernel_integral(self):
        # oracle: apply the kernel by quadrature to each basis mode and compare
        # g_mn * (kernel integral) with the spectral inverse 1 / Lambda_k
        params = SphereParams(n=5, m=2)
        K = 8
        kernel = funk_hecke_spectrum(params, K)
        gjms = gjms_eigenvalues(params, K)
        gc = green_constant(params, kernel=kernel, gjms=gjms)
        for k in range(K + 1):
            mu_k = kernel_eigenvalue_bruteforce(params, k)
            assert gc.g_mn * mu_k == pytest.approx(1.0 / gjms.lam[k], rel=1e-8)


class TestHlsFunctional:
    def test_single_mode(self):
        params = SphereParams(n=3, m=1)
        kernel = funk_hecke_spectrum(params, 4)
        v = ZonalFunction(params, np.array([1.0]))
        assert kernel_energy(v, kernel) == pytest.approx(kernel.mu[0], rel=1e-15)

    def test_constant_function(self):
        params = SphereParams(n=3, m=1)
        kernel = funk_hecke_spectrum(params, 4)
        one = ZonalFunction(params, np.array([math.sqrt(sphere_area(3))]))
        assert kernel_energy(one, kernel) == pytest.approx(
            kernel.mu[0] * sphere_area(3), rel=1e-13
        )

    def test_double_quadrature_oracle(self):
        # Brute-force double surface integral for zonal v on S^3, never touching
        # the basis diagonalization.  Coordinates centered at the outer point:
        # c = cosine of the separation angle, x = cosine within the orthogonal
        # S^2 orbit, so the inner point has polar cosine t c + sqrt(1-t^2)
        # sqrt(1-c^2) x and the kernel depends on c alone.  With the kernel
        # exponent -1/2 the c-weight reduces to 2^{-1/2} (1+c)^{1/2}; every
        # remaining integrand is polynomial, so each Gauss rule is exact.
        params = SphereParams(n=3, m=1)
        K = 4
        rng = np.random.default_rng(9)
        v = ZonalFunction(params, rng.standard_normal(K + 1))
        kernel = funk_hecke_spectrum(params, K)
        spectral = kernel_energy(v, kernel)

        tg, tw = roots_jacobi(24, 0.5, 0.5)  # outer polar cosine, weight (1-t^2)^{1/2}
        cg, cw = roots_jacobi(24, 0.0, 0.5)  # separation cosine after cancelling (1-c)^{1/2}
        xg, xw = roots_legendre(24)  # uniform orbit average (factor 1/2)

        total = 0.0
        for ti, wi in zip(tg, tw):
            s = math.sqrt(1 - ti * ti)
            inner = 0.0
            for cj, wj in zip(cg, cw):
                arg = ti * cj + s * math.sqrt(1 - cj * cj) * xg
                inner += wj * 0.5 * float(np.dot(xw, v.evaluate(arg)))
            inner *= 2.0 ** (-0.5) * sphere_area(2)
            total += wi * float(v.evaluate(np.array([ti]))[0]) * inner
        total *= sphere_area(2)
        assert spectral == pytest.approx(total, rel=1e-6)

    def test_upper_bound_equality_iff_constant(self):
        rng = np.random.default_rng(21)
        params = SphereParams(n=5, m=2)
        kernel = funk_hecke_spectrum(params, 10)
        for _ in range(20):
            v = ZonalFunction(params, rng.standard_normal(11))
            bound = kernel.mu[0] * v.l2_norm() ** 2
            val = kernel_energy(v, kernel)
            assert val <= bound + 1e-12 * bound
        one = ZonalFunction(params, np.array([2.5]))
        assert kernel_energy(one, kernel) == pytest.approx(
            kernel.mu[0] * one.l2_norm() ** 2, rel=1e-14
        )


class TestDualRatio:
    def test_constant_value_formula(self):
        # at v = const the quotient is exactly 1/(Lambda_0 |S^n|^(1-2/p))
        params = SphereParams(n=3, m=1)
        p = 4.0
        predicted = 1.0 / (gjms_lambda0(1, 3) * sphere_area(3) ** (1 - 2 / p))
        best = hls_dual_ratio(params, p, trials=1, seed=0, K=16)
        assert best == pytest.approx(predicted, rel=1e-10)

    def test_multistart_does_not_beat_constant(self):
        params = SphereParams(n=3, m=1)
        p = 4.0
        predicted = 1.0 / (gjms_lambda0(1, 3) * sphere_area(3) ** (1 - 2 / p))
        best = hls_dual_ratio(params, p, trials=6, seed=3, K=16)
        assert best >= predicted * (1 - 1e-10)
        assert best == pytest.approx(predicted, rel=1e-5)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            hls_dual_ratio(SphereParams(n=3, m=1), 7.0)
        with pytest.raises(DomainError):
            hls_dual_ratio(SphereParams(n=3, m=1), 2.0)

    @pytest.mark.parametrize("tol_grad", [math.nan, math.inf, -1.0, 0.0])
    def test_gradient_tolerance_must_be_positive_and_finite(self, tol_grad):
        # the constant start has slope 0, so a nan or negative tolerance used
        # to reach the step formula and divide by it
        with pytest.raises(DomainError, match="tolerance"):
            hls_dual_ratio(SphereParams(n=3, m=1), 4.0, K=8, tol_grad=tol_grad)

    def test_trial_step_clipped_to_zero_is_rejected(self, monkeypatch):
        # below the rounding of the constant's zero gradient the capped trial
        # step can clip every node value; its predicted gain is below the
        # rounding floor, so the trial stops there instead of reporting a
        # collapsed iterate: that is no max_iter stop, so nothing warns
        stops = []

        def recorded(*args):
            stops.append(ascend(*args))
            return stops[-1]

        ascend = kernels._ascend
        monkeypatch.setattr(kernels, "_ascend", recorded)
        # (at K = 1 the constant's gradient rounds to exactly 0 on the
        # closed-form rule, a tolerance stop; at K = 3 it is rounding noise)
        params = SphereParams(n=3, m=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            best = hls_dual_ratio(params, 4.0, trials=1, K=3, max_iter=1, tol_grad=1e-300)
        assert best == pytest.approx(1.0 / (0.75 * math.sqrt(2.0 * math.pi**2)), rel=1e-12)
        assert stops[-1][1:] == ([0], ["rounding_floor"])

    def test_converged_trials_stop_at_the_rounding_floor(self, monkeypatch):
        # trials 2, 3 and 6 here reach 1/S to the last bits, where the
        # gradient tolerance is out of reach; without the rounding-floor
        # stop each halved its trial step 60 times and ran out of line search
        stops = []

        def recorded(*args):
            stops.append(ascend(*args))
            return stops[-1]

        ascend = kernels._ascend
        monkeypatch.setattr(kernels, "_ascend", recorded)
        params, p = SphereParams(n=3, m=1), 2.5
        best = hls_dual_ratio(params, p, seed=1)
        vals, _, reasons = stops[-1]
        assert [reasons[i] for i in (2, 3, 6)] == ["rounding_floor"] * 3
        assert "line_search_exhausted" not in reasons
        S = sharp_constant(1, 3, p)
        assert np.all(np.abs(vals[[2, 3, 6]] * S - 1.0) <= 1e-14)
        assert abs(best * S - 1.0) <= 1e-14

    def test_only_max_iter_stops_warn(self, monkeypatch):
        # the constant start passes its first gradient test without moving;
        # an ascent that stops on gradient test number max_iter is no
        # max_iter stop
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hls_dual_ratio(SphereParams(n=3, m=1), 4.0, trials=1, max_iter=1)
        stops = []

        def recorded(*args):
            stops.append(ascend(*args))
            return stops[-1]

        ascend = kernels._ascend
        monkeypatch.setattr(kernels, "_ascend", recorded)
        hls_dual_ratio(SphereParams(n=3, m=1), 4.0, trials=1, max_iter=1)
        assert stops[-1][1:] == ([0], ["tolerance"])
        with pytest.warns(UserWarning, match="max_iter=1"):
            hls_dual_ratio(SphereParams(n=3, m=1), 4.0, trials=3, max_iter=1)
        assert stops[-1][1].tolist() == [0, 1, 1]
        assert stops[-1][2] == ["tolerance", "max_iter", "max_iter"]

    @pytest.mark.parametrize("n,m,p", [(3, 1, 4.0), (3, 1, 2.5), (5, 2, 2.5), (7, 2, 3.0), (9, 3, 4.0)])
    def test_lockstep_trials_match_single_trials(self, monkeypatch, n, m, p):
        # the ascent runs its trials as one batch; each trial ends as it
        # does in a batch of one
        calls = []

        def recorded(*args):
            calls.append(args)
            return ascend(*args)

        ascend = kernels._ascend
        monkeypatch.setattr(kernels, "_ascend", recorded)
        for seed in (0, 1, 2):
            hls_dual_ratio(SphereParams(n=n, m=m), p, seed=seed)
            ws, g, mu, pp, V0, max_iter, tol_grad = calls[-1]
            vals, iters, reasons = ascend(*calls[-1])
            assert len(vals) == len(V0) == 8
            for i in range(len(V0)):
                (val,), (it,), (reason,) = ascend(ws, g, mu, pp, V0[i : i + 1], max_iter, tol_grad)
                assert (it, reason) == (iters[i], reasons[i]), (seed, i)
                assert abs(val - vals[i]) <= 1e-14 * abs(val)

    @pytest.mark.parametrize("max_iter", [0, -2])
    def test_needs_an_iteration(self, max_iter):
        with pytest.raises(DomainError, match="max_iter"):
            hls_dual_ratio(SphereParams(n=3, m=1), 4.0, K=8, max_iter=max_iter)

    @pytest.mark.parametrize("n,m,p", [(3, 1, 4.0), (3, 1, 2.5), (5, 2, 2.5), (7, 2, 3.0), (9, 3, 4.0)])
    def test_ascent_converges_fast_on_benchmark_configs(self, n, m, p):
        # the step these quotients need grows like S (about 3e3 on (9,3,p=4)),
        # so the trial step must take its scale from the iterates
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(10):
                hls_dual_ratio(SphereParams(n=n, m=m), p, seed=seed, max_iter=40)

    @pytest.mark.parametrize(
        "n,m,p,K", [(11, 5, 2.3, 16), (3, 1, 5.995, 32), (9, 2, 3.595, 32), (4, 1, 3.995, 32)]
    )
    def test_ascent_converges_across_the_domain(self, n, m, p, K):
        S = sharp_constant(m, n, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in (0, 1):
                best = hls_dual_ratio(SphereParams(n=n, m=m), p, seed=seed, K=K)
                assert abs(best * S - 1.0) <= 1e-12
