"""Stereographic map, pullback, and bubble-family tests."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from gjmslab.conformal import (
    angle_from_radius,
    bubble_on_sphere,
    bubble_values,
    conformal_factor,
    pullback_to_plane,
    radius_from_angle,
)
from gjmslab.errors import DomainError, TruncationWarning
from gjmslab.spectral import (
    SphereParams,
    Workspace,
    ZonalFunction,
    build_quadrature,
    sphere_area,
)


class TestMaps:
    def test_pole(self):
        assert angle_from_radius(0.0) == 1.0
        assert radius_from_angle(1.0) == 0.0

    def test_unit_radius_to_equator(self):
        assert angle_from_radius(1.0) == 0.0

    def test_half_angle(self):
        assert radius_from_angle(0.5) == pytest.approx(1 / math.sqrt(3), rel=1e-15)

    def test_round_trip_r_side(self):
        r = np.linspace(0.0, 20.0, 401)
        back = radius_from_angle(angle_from_radius(r))
        assert np.max(np.abs(back - r) / np.maximum(1.0, r)) <= 1e-14

    def test_round_trip_t_side(self):
        t = np.linspace(-1 + 1e-6, 1.0, 401)
        back = angle_from_radius(radius_from_angle(t))
        assert np.max(np.abs(back - t)) <= 1e-14

    def test_infinite_radius_signal(self):
        with pytest.raises(DomainError):
            radius_from_angle(-1.0)
        for r in (-0.1, np.inf, np.nan):
            with pytest.raises(DomainError):
                angle_from_radius(r)

    def test_conformal_factor(self):
        assert conformal_factor(0.0) == 2.0
        assert conformal_factor(1.0) == 1.0
        assert conformal_factor(3.0) == pytest.approx(0.2, rel=1e-15)


class TestPullback:
    def test_constant_gives_planar_bubble(self):
        # v == 2^(m - n/2) pulls back to (1 + r^2)^(m - n/2) pointwise
        for m, n in [(1, 3), (2, 5)]:
            params = SphereParams(n=n, m=m)
            c0 = 2.0 ** (m - n / 2) * math.sqrt(sphere_area(n))
            v = ZonalFunction(params, np.array([c0]))
            grid = np.linspace(0.0, 12.0, 200)
            u = pullback_to_plane(v, grid)
            expected = (1.0 + grid**2) ** (m - n / 2)
            assert np.max(np.abs(u - expected)) <= 1e-12

    def test_zero(self):
        params = SphereParams(n=3, m=1)
        u = pullback_to_plane(ZonalFunction(params, np.array([0.0])), [0.0, 1.0, 2.0])
        assert np.all(u == 0.0)

    def test_unit_factor_at_r_one(self):
        # at r = 1 the conformal factor is 1, so u(1) = v(t(1)) = Y_1(0) here
        params = SphereParams(n=3, m=1)
        v = ZonalFunction(params, np.array([0.0, 1.0]))
        u = pullback_to_plane(v, [1.0])
        assert u[0] == pytest.approx(float(v.evaluate(0.0)[0]), rel=1e-14)

    def test_sup_bound(self):
        # dominates a dense sample, and is attained at t = 1 for nonnegative coefficients
        rng = np.random.default_rng(5)
        t = np.cos(np.linspace(0, np.pi, 4096))
        for m, n in [(1, 3), (1, 4), (2, 5), (3, 9)]:
            params = SphereParams(n=n, m=m)
            for _ in range(20):
                v = ZonalFunction(params, rng.standard_normal(17))
                assert np.max(np.abs(v.evaluate(t))) <= v.sup_bound()
            w = ZonalFunction(params, np.abs(rng.standard_normal(17)))
            assert w.sup_bound() == pytest.approx(float(w.evaluate(1.0)[0]), rel=1e-13)

    def test_decay_bound(self):
        rng = np.random.default_rng(2)
        params = SphereParams(n=5, m=2)
        v = ZonalFunction(params, rng.standard_normal(9))
        grid = np.linspace(0.0, 40.0, 500)
        u = pullback_to_plane(v, grid)
        sup_v = np.max(np.abs(v.evaluate(np.cos(np.linspace(0, np.pi, 4096)))))
        bound = sup_v * 2.0 ** (params.n / 2 - params.m) + 1e-9
        assert np.all(np.abs(u) * (1 + grid**2) ** (params.n / 2 - params.m) <= bound)


class TestBubble:
    def test_lam_one_is_constant(self):
        params = SphereParams(n=3, m=1)
        u = bubble_on_sphere(1.0, Workspace(params, 16, 40))
        assert u.coeffs[0] == pytest.approx(2 ** (1 - 1.5) * math.sqrt(sphere_area(3)), rel=1e-13)
        assert np.max(np.abs(u.coeffs[1:])) < 1e-13

    def test_critical_norm_invariance(self):
        params = SphereParams(n=3, m=1)
        ws = Workspace(params, 72, 160)
        p_crit = params.critical_norm_exponent
        norms = []
        for lam in (0.25, 0.5, 1.0, 2.0, 4.0):
            u = bubble_on_sphere(lam, ws)
            norms.append(ws.p_norm(u.coeffs, p_crit))
        norms = np.array(norms)
        assert np.max(np.abs(norms / norms[2] - 1.0)) <= 1e-6

    def test_concentration_trend(self):
        params = SphereParams(n=3, m=1)
        ws = Workspace(params, 128, 300)
        c0 = [
            bubble_on_sphere(lam, ws).coeffs[0]
            for lam in (2.0, 4.0, 8.0)
        ]
        assert c0[0] > c0[1] > c0[2] > 0

    def test_tail_warning(self):
        params = SphereParams(n=3, m=1)
        with pytest.warns(TruncationWarning):
            bubble_on_sphere(20.0, Workspace(params, 12, 64))

    def test_dilation_and_its_inverse_mirror_the_sphere(self):
        # v_lam(t) = v_(1/lam)(-t): the two bubbles concentrate at opposite poles
        t = np.linspace(-0.99, 0.99, 41)
        for params in (SphereParams(n=3, m=1), SphereParams(n=7, m=2), SphereParams(n=13, m=5)):
            for lam in (0.3, 2.0, 7.5, 40.0):
                got, mirrored = bubble_values(params, lam, t), bubble_values(params, 1.0 / lam, -t)
                assert np.max(np.abs(got / mirrored - 1.0)) <= 1e-12

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf, 1e200, 1.2e154])
    def test_dilation_must_be_positive_with_a_double_square(self, lam):
        # past 9.48e153 the denominator (1+lam^2) + (1-lam^2) t overflows near
        # t = -1; the guard runs before any array work, so numpy never warns
        params = SphereParams(n=3, m=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="dilation"):
                bubble_values(params, lam, np.linspace(-0.999, 0.999, 9))
            with pytest.raises(DomainError, match="dilation"):
                bubble_on_sphere(lam, Workspace(params, 8))

    def test_largest_dilation_is_finite(self):
        params = SphereParams(n=3, m=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = bubble_values(params, 9.48e153, np.linspace(-0.999, 0.999, 9))
        assert np.all(np.isfinite(v)) and np.all(v > 0.0)

    def test_closed_form_matches_planar_definition(self):
        # push the dilated planar profile forward by hand and compare
        params = SphereParams(n=5, m=2)
        lam = 3.0
        t = np.linspace(-0.95, 1.0, 50)
        r = radius_from_angle(t)
        planar = lam ** ((params.n - 2 * params.m) / 2) * (1 + (lam * r) ** 2) ** (
            params.m - params.n / 2
        )
        expected = conformal_factor(r) ** (params.m - params.n / 2) * planar
        got = bubble_values(params, lam, t)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def transport_gap(v, q, rule):
    """Relative gap between the integral of |v|^q on S^n and its planar form.

    The plane side integrates |u|^q (2/(1+r^2))^(n - q(n/2-m)) over R^n, u the
    pullback of v, with adaptive quadrature on [0, infinity).  At
    q = 2n/(n-2m) the weight is 1 and both sides are one conformal invariant.
    """
    n, m = v.params.n, v.params.m
    sphere = float(np.dot(rule.weights, np.abs(v.evaluate(rule.nodes)) ** q))
    weight = n - q * (n / 2 - m)

    def integrand(r):
        u = pullback_to_plane(v, r)[0]
        return abs(u) ** q * conformal_factor(r) ** weight * r ** (n - 1)

    radial = quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    plane = sphere_area(n - 1) * radial
    scale = max(abs(sphere), abs(plane))
    return abs(sphere - plane) / scale if scale else 0.0


class TestNormTransport:
    def test_constant_critical_exponent(self):
        params = SphereParams(n=3, m=1)
        rule = build_quadrature(3, 40)
        one = ZonalFunction(params, np.array([math.sqrt(sphere_area(3))]))
        q = params.critical_norm_exponent
        assert transport_gap(one, q, rule) <= 1e-8

    def test_constant_q_two(self):
        params = SphereParams(n=3, m=1)
        rule = build_quadrature(3, 40)
        one = ZonalFunction(params, np.array([math.sqrt(sphere_area(3))]))
        assert transport_gap(one, 2.0, rule) <= 1e-8

    def test_zero(self):
        params = SphereParams(n=3, m=1)
        rule = build_quadrature(3, 16)
        zero = ZonalFunction(params, np.array([0.0]))
        assert transport_gap(zero, 3.0, rule) == 0.0

    def test_nonconstant_positive(self):
        # keep v positive so |v|^q stays smooth and both sides resolve fully
        params = SphereParams(n=5, m=2)
        rule = build_quadrature(5, 64)
        v = ZonalFunction(params, np.array([4.0, 0.3, -0.2, 0.05]))
        assert transport_gap(v, 2.5, rule) <= 1e-8
        assert transport_gap(v, params.critical_norm_exponent, rule) <= 1e-8

