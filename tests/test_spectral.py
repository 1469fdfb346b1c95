"""Core basis/quadrature/spectrum tests with independent oracles."""

import json
import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_chebyu, roots_chebyu, roots_jacobi, roots_legendre

from gjmslab import spectral
from gjmslab.checks import _kernel_rule, laplace_beltrami_ode_residual
from gjmslab.errors import AliasingError, DomainError
from gjmslab.spectral import (
    _FINISH_MIN_NODES,
    _ROW_BLOCK,
    SphereParams,
    Workspace,
    ZonalFunction,
    _recurrence_offdiag,
    basis_values,
    basis_with_derivatives,
    build_quadrature,
    gamma_ratio,
    gauss_legendre,
    gjms_eigenvalues,
    gjms_lambda0,
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


def rule_size(n, Q):
    # the node count of the order-Q rule: the least even N >= Q + (n-3)/2
    # for odd n, >= Q + (n-2)/2 for even n
    N = Q + (n - 2) // 2
    return N + N % 2


class TestSphereArea:
    def test_circle(self):
        assert sphere_area(1) == pytest.approx(2 * math.pi, rel=1e-15)

    def test_two_sphere(self):
        assert sphere_area(2) == pytest.approx(4 * math.pi, rel=1e-15)

    def test_three_sphere_gamma_and_quadrature(self):
        assert sphere_area(3) == pytest.approx(2 * math.pi**2, rel=1e-14)
        rule = build_quadrature(3, 16)
        total = np.dot(rule.weights, np.ones(len(rule.nodes)))
        assert total == pytest.approx(2 * math.pi**2, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            sphere_area(0)


class TestQuadrature:
    def test_total_mass_n3(self):
        rule = build_quadrature(3, 8)
        assert abs(np.sum(rule.weights) / (2 * math.pi**2) - 1) < 1e-12

    def test_odd_symmetry(self):
        rule = build_quadrature(3, 8)
        assert abs(np.dot(rule.weights, rule.nodes)) < 1e-12 * sphere_area(3)

    def test_second_moment_n5(self):
        rule = build_quadrature(5, 16)
        val = np.dot(rule.weights, rule.nodes**2) / sphere_area(5)
        assert val == pytest.approx(1.0 / 6.0, rel=1e-13)
        assert brute_force_moment(5, 2) / sphere_area(5) == pytest.approx(1 / 6, rel=1e-12)

    @pytest.mark.parametrize("n,Q", [(3, 12), (4, 16), (5, 20), (7, 24), (12, 16)])
    def test_moment_exactness_through_degree(self, n, Q):
        rule = build_quadrature(n, Q)
        for j in range(2 * Q):
            num = np.dot(rule.weights, rule.nodes**j)
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


def mp_legendre_zero(N, t):
    # Oracle: the zero z of the Legendre polynomial P_N next to t, by Newton
    # steps in 30-digit arithmetic from t, and its Christoffel number
    # 1/sum_{k<N} p_k(z)^2 for the orthonormal p_k (p_0 = 1/sqrt(2)), from the
    # recurrence z p_k = b_{k+1} p_{k+1} + b_k p_{k-1}, b_k = k/sqrt(4k^2-1),
    # written out afresh.  Near t = 1 the Christoffel function moves by about
    # 1e-11 per ulp of its argument, so it is not taken at the rounded node.
    with mpmath.workdps(30):
        bs = [k / mpmath.sqrt(4 * k * k - 1) for k in range(1, N + 1)]

        def values(z):  # p_N(z), p_N'(z) and sum_{k<N} p_k(z)^2
            prev, cur, dprev, dcur = mpmath.mpf(0), 1 / mpmath.sqrt(2), mpmath.mpf(0), mpmath.mpf(0)
            b_prev, total = mpmath.mpf(0), mpmath.mpf(0)
            for b in bs:
                total += cur**2
                prev, cur, dprev, dcur = cur, (z * cur - b_prev * prev) / b, dcur, (cur + z * dcur - b_prev * dprev) / b
                b_prev = b
            return cur, dcur, total

        z = mpmath.mpf(t)
        for _ in range(3):
            p, dp, _ = values(z)
            z -= p / dp
        return z, 1 / values(z)[2]


def mp_rule_point(n, N, t):
    # Oracle: the exact node of build_quadrature's N-node rule on S^n next to
    # t and the weight the rule gives the node t, in 30-digit arithmetic.
    # Odd n: the closed form cos(theta), pi/(N+1) sin^(n-1)(theta) |S^(n-1)|
    # at the theta = j pi/(N+1) nearest acos(t).  Even n: the Legendre zero z
    # next to t and its Christoffel number (mp_legendre_zero), times
    # (1-t^2)^((n-2)/2) |S^(n-1)| at the node t itself, as the rule takes it.
    with mpmath.workdps(30):
        area = 2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2)
        t = mpmath.mpf(t)
        if n % 2:
            theta = mpmath.nint(mpmath.acos(t) * (N + 1) / mpmath.pi) * mpmath.pi / (N + 1)
            return float(mpmath.cos(theta)), float(mpmath.pi / (N + 1) * mpmath.sin(theta) ** (n - 1) * area)
        z, christoffel = mp_legendre_zero(N, t)
        return float(z), float(christoffel * (1 - t * t) ** ((n - 2) // 2) * area)


class TestGaussJacobi:
    # The zonal weight (1-t^2)^((n-2)/2) is the Jacobi weight alpha = beta =
    # (n-2)/2.  Its rules are Gauss-Chebyshev-U in closed form for odd n and
    # Gauss-Legendre times a polynomial for even n; no Gauss-Jacobi solve.

    @pytest.mark.parametrize("Q", [4, 5, 24, 72, 73, 408, 1608])
    @pytest.mark.parametrize("n", [2, 3, 5, 9, 13])
    def test_nodes_match_scipy_and_weights_sum_to_area(self, n, Q):
        rule = build_quadrature(n, Q)
        N = rule_size(n, Q)
        assert rule.order == Q and rule.nodes.size == N
        roots = roots_chebyu(N)[0] if n % 2 else roots_legendre(N)[0]
        assert np.max(np.abs(rule.nodes - roots)) <= 1e-14
        assert abs(np.sum(rule.weights) / sphere_area(n) - 1.0) <= (1e-15 if n % 2 else 1e-13)

    @pytest.mark.parametrize("n,Q", [(3, 72), (5, 73), (9, 408), (2, 200)])
    def test_interior_weights_match_christoffel_oracle(self, n, Q):
        # the weights are Christoffel numbers of the Chebyshev-U weight (odd
        # n) or the Legendre weight (even n) times the polynomial factor
        rule = build_quadrature(n, Q)
        N = rule.nodes.size
        for i in np.flatnonzero(np.abs(rule.nodes) <= 0.9)[:: max(1, Q // 12)]:
            node, ref = mp_rule_point(n, N, rule.nodes[i])
            assert abs(rule.nodes[i] - node) <= 2.3e-16
            assert abs(rule.weights[i] / ref - 1.0) <= (4e-15 if n % 2 else 1e-12)

    @pytest.mark.parametrize(
        "n,Q", [(n, Q) for n in (4, 5, 7, 9, 13) for Q in (72, 408)] + [(5, 1608), (9, 1608), (13, 1608)]
    )
    def test_boundary_weights_match_christoffel_at_true_roots(self, monkeypatch, n, Q):
        # the 6 nodes nearest t = 1 and 4 inner nodes (their mirror images
        # have the same weights).  For even n the inner ones are Legendre
        # nodes finished from the Legendre equation; their Christoffel
        # numbers are taken at the true zeros.  For odd n the closed form
        # is exact to a few ulps of its sine's (n-1)th power.
        finished = []
        finish = spectral._ode_finish

        def recording(N, x0, *args):
            h, change, ok = finish(N, x0, *args)
            finished.extend((x0 + h)[ok])
            return h, change, ok

        monkeypatch.setattr(spectral, "_ode_finish", recording)
        rule = build_quadrature(n, Q)
        N = rule.nodes.size
        if n % 2:
            assert finished == []
            inner = np.arange(N // 2, N - 6)
        else:
            inner = np.flatnonzero(np.isin(rule.nodes, finished))
            inner = inner[inner < N - 6]
        assert inner.size >= 4
        for i in [*range(N - 6, N), *inner[np.linspace(0, inner.size - 1, 4).astype(int)]]:
            _, ref = mp_rule_point(n, N, rule.nodes[i])
            assert abs(rule.weights[i] / ref - 1.0) <= (4e-15 if n % 2 else 1e-12 if Q <= 408 else 2e-12)

    @pytest.mark.parametrize("Q", [72, 408, 1608])
    @pytest.mark.parametrize("n", range(2, 14))
    def test_one_recurrence_pass(self, monkeypatch, n, Q):
        # odd n is a closed form and runs no recurrence; even n runs one pass
        # of plain Newton steps, whose long steps the Legendre equation finishes
        calls = []
        f = spectral._christoffel_pass
        monkeypatch.setattr(spectral, "_christoffel_pass", lambda *args: calls.append(1) or f(*args))
        build_quadrature(n, Q)
        assert len(calls) == (0 if n % 2 else 1)

    def test_unequal_exponents_match_scipy(self):
        # the Funk-Hecke weight (1-t)^(m-1) (1+t)^((n-2)/2) of (n, m) = (5, 2):
        # checks._kernel_rule integrates it through degree K = 36 from a
        # Gauss-Legendre rule in s = sqrt((1+t)/2), as scipy's 40-node
        # Gauss-Jacobi rule does
        alpha, beta = 1.0, 1.5
        x, w = _kernel_rule(SphereParams(n=5, m=2), 36)
        xs, ws = roots_jacobi(40, alpha, beta)
        for j in range(37):
            assert abs(w @ x**j - ws @ xs**j) <= 1e-14 * (ws @ np.abs(xs) ** j)
        mass = 2 ** (alpha + beta + 1) * math.gamma(alpha + 1) * math.gamma(beta + 1) / math.gamma(alpha + beta + 2)
        assert abs(np.sum(w) / mass - 1.0) <= 1e-13

    @pytest.mark.parametrize("alpha", [14.0, 20.0, 30.0, 49.0, 70.0])
    def test_large_exponents(self, alpha):
        # n = 2 alpha + 2 = 30..142: Gauss-Legendre nodes with weights times
        # (1-t^2)^alpha, which falls below the double range at the outermost
        # nodes of the larger rules; those pairs are dropped
        n = int(2 * alpha + 2)
        for Q in (5, 9, 16, 24, 40, 72, 73, 200):
            rule = build_quadrature(n, Q)
            N, kept = rule_size(n, Q), rule.nodes.size
            assert kept % 2 == 0 and kept <= N and np.all(rule.weights > 0.0)
            drop = (N - kept) // 2
            assert np.max(np.abs(rule.nodes - roots_legendre(N)[0][drop : N - drop])) <= 1e-14
            assert abs(np.sum(rule.weights) / sphere_area(n) - 1.0) <= 1e-13
            B = basis_values(n, Q - 1, rule.nodes)
            assert np.max(np.abs(B.T @ (rule.weights[:, None] * B) - np.eye(Q))) <= 1e-12

    def test_rejects_bad_inputs(self):
        for N in (0, 2.5):
            with pytest.raises(DomainError):
                gauss_legendre(N)
        for n, Q in ((3.5, 8), (3, 8.5)):
            with pytest.raises(DomainError):
                build_quadrature(n, Q)

    def test_mass_past_the_gamma_range_matches_mpmath(self):
        # the Gauss-Jacobi mass of n = 172 needed Gamma(172), past the double
        # range; the Legendre rule needs no mass, and the weights sum to
        # |S^172| = 2 pi^86.5 / Gamma(86.5)
        rule = build_quadrature(172, 16)
        area = float(2 * mpmath.pi ** mpmath.mpf(86.5) / mpmath.gamma(mpmath.mpf(86.5)))
        assert abs(np.sum(rule.weights) / area - 1.0) <= 1e-13


class TestClosedForm:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), Q=st.integers(4, 400))
    def test_rules_are_symmetric_positive_and_exact(self, n, Q):
        rule = build_quadrature(n, Q)
        t, w = rule.nodes, rule.weights
        N = t.size
        assert N == rule_size(n, Q) and N % 2 == 0 and N >= Q and rule.order == Q
        assert np.array_equal(t, -t[::-1]) and np.all(np.diff(t) > 0.0)
        assert np.all(w > 0.0) and np.array_equal(w, w[::-1])
        assert abs(np.sum(w) / sphere_area(n) - 1.0) <= 1e-14
        B = basis_values(n, Q - 1, t)
        assert np.max(np.abs(B.T @ (w[:, None] * B) - np.eye(Q))) <= 1e-12

    @pytest.mark.parametrize("N", [1608, 1614])
    @pytest.mark.parametrize("n", [5, 13])
    def test_outermost_weights_match_the_closed_form(self, n, N):
        # the weights pi/(N+1) sin^(n-1)(theta_j) |S^(n-1)| at theta_j =
        # j pi/(N+1), j = 1..6 (and their mirror images), against 30 digits;
        # N = 1614 is the rule of a K = 800 workspace on S^13
        rule = build_quadrature(n, N - (n - 3) // 2)
        assert rule.nodes.size == N
        with mpmath.workdps(30):
            area = 2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2)
            ref = [float(mpmath.pi / (N + 1) * mpmath.sin(j * mpmath.pi / (N + 1)) ** (n - 1) * area) for j in range(1, 7)]
        got = rule.weights[::-1][:6]
        assert np.array_equal(got, rule.weights[:6])
        assert abs(got[0] / ref[0] - 1.0) <= 1e-15
        assert np.max(np.abs(got / ref - 1.0)) <= 4e-15


def reference_ode_finish(N, x0, c0, c1, delta):
    # Reference for the finish of the long steps, node by node in Python
    # floats: the Taylor terms of q_N about x0 from the Legendre equation, as
    # many as the whole batch needs, Newton on them from the pass's step, and
    # the Christoffel-Darboux change at the new node.
    # Returns (h, change) for a finished node and None for any other.
    eps = np.finfo(float).eps
    series = []
    for x, q, dq, dl in zip(x0.tolist(), c0.tolist(), c1.tolist(), delta.tolist()):
        d0 = (1.0 - x) * (1.0 + x)
        r = 2.0 * abs(dl)
        v = r / d0
        e = [q / dq / r, 1.0]
        for k in range(38):
            den = k + 2.0
            lin = (2.0 - 2.0 / den) * (x * v)
            con = (den - (N + 2.0)) * (den + (N - 1.0)) / ((den - 1.0) * den) * (r * v)
            e.append(lin * e[-1] + con * e[-2])
        series.append((x, d0, r, e))
    # terms stop at the first odd k whose next two terms are below 1e-17 on
    # every node of the batch
    T = 40
    for k in range(1, 38, 2):
        if all(abs(e[k + 1]) <= 1e-17 and abs(e[k + 2]) <= 1e-17 for _, _, _, e in series):
            T = k + 3
            break
    # Newton on every node in step until every step is below 4 eps / r (at
    # most 11 steps), then P' at the final s
    series = [(x, d0, r, e[:T], [(k + 1.0) * e[k + 1] for k in range(T - 1)]) for x, d0, r, e in series]
    s = [-0.5 if dl > 0 else 0.5 for dl in delta.tolist()]
    converged = [False] * len(s)
    for it in range(12):
        values = []
        for (_, _, _, e, e1), sj in zip(series, s):
            powers = [1.0, sj]
            for _ in range(T - 2):
                powers.append(powers[-1] * sj)
            values.append([sum(c * p for c, p in zip(cs, powers)) for cs in (e, e1)])
        if all(converged) or it == 11:
            break
        steps = [P / P1 for P, P1 in values]
        s = [sj - step for sj, step in zip(s, steps)]
        converged = [abs(step) <= 4.0 * eps / r for step, (_, _, r, _, _) in zip(steps, series)]
    out = []
    for (x, d0, r, e, _), sj, (_, slope), done, dl in zip(series, s, values, converged, delta.tolist()):
        h = r * sj
        change = (d0 - h * (2.0 * x + h)) * (slope * slope) - d0 * (1.0 - 2.0 * e[0] * e[2])
        change -= r * e[0] * (2.0 * x - N * r * e[0])
        tail = T < 40 or (abs(e[38]) <= 1e-17 and abs(e[39]) <= 1e-17)
        out.append((h, change) if done and tail and abs(h + dl) <= 0.25 * abs(dl) else None)
    return out


def reference_gauss_legendre(N):
    # Reference: the same plain Newton passes with a list of row arrays and
    # its np.array copy summed over the same row blocks; each iterate's
    # distance to the nearest other one comes from the full A x N matrix of
    # differences.  A pass finishes its long steps by reference_ode_finish
    # when every one is within 0.8 of its half-gap.  gauss_legendre must
    # reproduce it bit for bit.
    N = int(N)
    b = _recurrence_offdiag(2, N)
    # the Christoffel sums' row blocks: the last holds up to _ROW_BLOCK + 1 rows
    lo, blocks = 0, []
    while N - lo > _ROW_BLOCK + 1:
        blocks.append((lo, lo + _ROW_BLOCK))
        lo += _ROW_BLOCK
    blocks.append((lo, N))
    M = (N + 1) // 2
    rho = 2.0 * N + 1.0
    theta = (2.0 * np.arange(1.0, M + 1.0) - 0.5) * (math.pi / rho)
    half = np.tan(0.5 * theta)
    x = np.cos(theta + (0.25 / half - 0.25 * half) / rho**2)
    if N % 2:
        x[-1] = 0.0
    # scale_k^2 = (1/2) prod_{j<=k} (1 - 1/(4j^2)), built up degree by degree
    s2 = [0.5]
    for j in range(1, N + 1):
        s2.append(s2[-1] * (1.0 - 0.25 / (j * j)))
    s2 = np.array(s2)
    steps = [0.0] + (4.0 * b[:-1] ** 2).tolist()
    c_prev = 2.0 * rho * b[-1] ** 2
    c_darboux = b[-1] * math.sqrt(s2[-1] * s2[-2])
    c_finish = s2[-1] / rho
    weights = np.empty(M)
    active = np.arange(M)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(100):
            xa = x[active]
            two_x = 2.0 * xa
            prev, cur = np.zeros_like(xa), np.ones_like(xa)
            rows = [cur]
            for c in steps:
                nxt = two_x * cur
                nxt -= c * prev
                prev, cur = cur, nxt
                rows.append(cur)
            rows = np.array(rows[:-1])
            christoffel = 0.0
            for lo, hi in blocks:
                christoffel = christoffel + s2[lo:hi] @ (rows[lo:hi] * rows[lo:hi])
            d = 1.0 - xa * xa
            dp = (c_prev * prev - N * xa * cur) / d
            ddp = (2.0 * xa * dp - N * (N + 1.0) * cur) / d
            diff = xa[:, None] - np.concatenate((x, -x[: N // 2]))
            diff[np.arange(active.size), active] = np.inf
            gaps = 0.5 * np.minimum(np.min(np.abs(diff), axis=1), np.minimum(1.0 - xa, 1.0 + xa))
            tol = np.maximum(1e-7 / N * np.sqrt(d), 4.0 * np.finfo(float).eps)
            delta = cur / dp
            far = ~(np.abs(delta) <= tol)
            finish = N >= _FINISH_MIN_NODES and np.all(1.25 * np.abs(delta[far]) < gaps[far])
            x[active] = xa - delta
            weights[active] = 1.0 / (christoffel - delta * c_darboux * prev * ddp)
            i = np.flatnonzero(far)
            if finish and i.size:
                x0 = xa[i]
                c1 = (c_prev * prev[i] - N * x0 * cur[i]) / ((1.0 - x0) * (1.0 + x0))
                finished = reference_ode_finish(N, x0, cur[i], c1, delta[i])
                for j, f, dq in zip(i, finished, c1.tolist()):
                    if f is not None:
                        h, change = f
                        x[active[j]] = xa[j] + h
                        weights[active[j]] = 1.0 / (christoffel[j] + c_finish * dq * dq * change)
                        far[j] = False
            active = active[far]
            if active.size == 0:
                break
    x = np.concatenate((-x[: N // 2], x))
    weights = np.concatenate((weights[: N // 2], weights))
    order = np.argsort(x)
    return x[order], weights[order]


def reference_rule(n, Q):
    # Reference: build_quadrature's rule from the whole index range at once.
    # Odd n: node j = 1..N is sin((N+1-2j) pi / (2N+2)) and its weight takes
    # the sine at min(j, N+1-j) pi / (N+1), so mirror images agree; even n:
    # reference_gauss_legendre's weights times the polynomial factor.
    N = rule_size(n, Q)
    if n % 2:
        j = np.arange(1, N + 1)
        x = np.sin((N + 1 - 2 * j) * (math.pi / (2 * N + 2)))
        w = np.sin(np.minimum(j, N + 1 - j) * math.pi / (N + 1)) ** (n - 1) * (math.pi / (N + 1))
    else:
        x, w = reference_gauss_legendre(N)
        w = w * ((1.0 - x) * (1.0 + x)) ** ((n - 2) // 2)
    w = w * sphere_area(n - 1)
    keep = w > 0.0
    order = np.argsort(x[keep])
    return x[keep][order], w[keep][order]


def reference_basis_with_derivatives(n, K, t):
    # Reference: the recurrences written column by column into (len(t), K+1)
    # arrays; the row-major basis must reproduce them bit for bit.
    B = np.empty((t.size, K + 1))
    B[:, 0] = 1.0 / math.sqrt(sphere_area(n))
    D1 = np.zeros_like(B)
    D2 = np.zeros_like(B)
    if K >= 1:
        b = _recurrence_offdiag(n, K)
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
        rule = build_quadrature(n, Q)
        x, w = rule.nodes, rule.weights
        x_ref, w_ref = reference_rule(n, Q)
        assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)
        if n % 2 == 0:
            assert all(map(np.array_equal, gauss_legendre(x.size), reference_gauss_legendre(x.size)))
        B = basis_values(n, Q - 1, x)
        assert np.array_equal(B, reference_basis_with_derivatives(n, Q - 1, x)[0])
        K = max((Q - 8) // 2, 1)  # the truncation an order-Q workspace resolves
        for got, ref in zip(basis_with_derivatives(n, K, x), reference_basis_with_derivatives(n, K, x)):
            assert got.flags.c_contiguous and np.array_equal(got, ref)

    @pytest.mark.parametrize(
        "N,alpha,beta", [(72, 14.0, 14.0), (72, 49.0, 49.0), (40, 1.0, 1.5), (408, 0.0, 1.5)]
    )
    def test_jacobi_rules_match_reference(self, N, alpha, beta):
        # the rules for the Jacobi weights (1-t)^alpha (1+t)^beta that the
        # toolkit integrates against: the zonal rule of S^(2 alpha + 2) of
        # order N, and the Funk-Hecke rule of (n, m) = (2 beta + 2, alpha + 1)
        # on N Legendre nodes in s = sqrt((1+t)/2)
        if alpha == beta:
            n = int(2 * alpha + 2)
            rule = build_quadrature(n, N)
            x_ref, w_ref = reference_rule(n, N)
            assert np.array_equal(rule.nodes, x_ref) and np.array_equal(rule.weights, w_ref)
            return
        n, m = int(2 * beta + 2), int(alpha + 1)
        x, w = _kernel_rule(SphereParams(n=n, m=m), N - m - (n - 1) // 2)
        s_ref, w_ref = reference_gauss_legendre(N)
        s, one_minus_s = 0.5 * (1.0 + s_ref), 0.5 * (1.0 - s_ref)
        w_ref = w_ref * 2.0 ** (m + (n - 2) / 2.0) * ((1.0 + s) * one_minus_s) ** (m - 1) * s ** (n - 1)
        assert np.array_equal(x, 2.0 * s * s - 1.0) and np.array_equal(w, w_ref)

    @pytest.mark.parametrize("K", [0, 1, 200])
    def test_basis_is_c_ordered(self, K):
        # B @ c, B.T @ v and B.T diag(s) B round differently on an F-ordered B
        B = basis_values(5, K, np.linspace(-0.9, 0.9, 37))
        assert B.shape == (37, K + 1) and B.flags.c_contiguous

    def test_rule_memory_is_one_row_buffer(self):
        # the 1608-node Legendre rule: one block of q_k rows and the two
        # before it for M = 804 active nodes are 0.84 MB, where all N + 1 rows
        # would be 10.3 MB; the finish's series and the node-sized arrays add
        # about 0.4 MB
        N = 1608
        buffer_bytes = (_ROW_BLOCK + 2) * ((N + 1) // 2) * 8
        tracemalloc.start()
        try:
            gauss_legendre(N)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * buffer_bytes


class TestMirroredBasis:
    # A symmetric t (t[Q-1-i] = -t[i], as in every Gauss rule) runs the basis
    # recurrences on t >= 0 and fills the rest by parity.  tobytes() equality
    # with the column-by-column reference also checks the sign of every zero.

    def test_basis_memory_is_one_output(self):
        # the Q = 1608 basis of a K = 800 workspace is 10.3 MB; the recurrence
        # runs in the memory of its first half, so nothing else of that size
        t = build_quadrature(7, 1608).nodes
        tracemalloc.start()
        try:
            B = basis_values(7, 800, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * B.nbytes

    @pytest.mark.parametrize("Q", [4, 5, 72, 73])
    @pytest.mark.parametrize("n", [2, 3, 7, 13])
    def test_gauss_rules_match_the_reference_bytes(self, n, Q):
        t = build_quadrature(n, Q).nodes
        assert np.array_equal(t, -t[::-1]) and t.size % 2 == 0
        for K in (0, 1, 2, Q - 1):
            ref = reference_basis_with_derivatives(n, K, t)
            B = basis_values(n, K, t)
            assert B.flags.c_contiguous and B.tobytes() == ref[0].tobytes()
            for got, want in zip(basis_with_derivatives(n, K, t), ref):
                assert got.flags.c_contiguous and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("Q", [12, 13])
    def test_vanishing_derivative_columns_are_positive_zeros(self, Q):
        # Y_0' and Y_1'' vanish, and the odd parity of Y_0' must not make -0.0
        _, D1, D2 = basis_with_derivatives(5, 4, build_quadrature(5, Q).nodes)
        for column in (D1[:, 0], D2[:, 1]):
            assert np.all(column == 0.0) and not np.any(np.signbit(column))

    @pytest.mark.parametrize("n,m,K", [(3, 1, 24), (5, 2, 40), (7, 3, 16), (9, 2, 200)])
    def test_kernel_moment_nodes_take_the_general_path(self, n, m, K):
        # checks._kernel_rule's nodes t = 2s^2 - 1 for the (m-1, (n-2)/2)
        # Jacobi weight are not symmetric
        x, _ = _kernel_rule(SphereParams(n=n, m=m), K)
        assert not np.array_equal(x, -x[::-1])
        ref = reference_basis_with_derivatives(n, K, x)
        assert basis_values(n, K, x).tobytes() == ref[0].tobytes()

    @pytest.mark.parametrize("N", [16, 40, 136])
    def test_lobatto_points_take_the_general_path(self, N):
        # verify_symmetry_monotonicity's points cos(pi i / N) round asymmetrically
        t = np.cos(np.pi * np.arange(N + 1) / N)
        assert not np.array_equal(t, -t[::-1])
        ref = reference_basis_with_derivatives(7, N // 8, t)
        for got, want in zip(basis_with_derivatives(7, N // 8, t), ref):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "t", [[0.0, 0.0], [-0.0, 0.0, 0.0], [-5e-324, 5e-324], [-5e-324, 0.0, 5e-324], [-1.0, 1.0]]
    )
    def test_signed_zeros_and_underflow_keep_their_bits(self, t):
        # +0 and -0 compare equal, and subnormal products underflow to signed
        # zeros, so mirrored pairs of either run the full recurrence
        t = np.array(t)
        for K in (0, 1, 5, 12):
            ref = reference_basis_with_derivatives(3, K, t)
            for got, want in zip(basis_with_derivatives(3, K, t), ref):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("t", [np.zeros((2, 3)), np.zeros((1, 1)), [[0.5]]])
    @pytest.mark.parametrize("K", [0, 4])
    def test_two_dimensional_cosines_are_a_domain_error(self, t, K):
        u = ZonalFunction(SphereParams(n=3, m=1), np.ones(K + 1))
        for call in (basis_values, basis_with_derivatives, lambda n, K, t: u.evaluate(t)):
            with pytest.raises(DomainError, match="cosines t must be a scalar or a 1-D array"):
                call(3, K, t)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_cosines_are_a_domain_error(self, bad):
        u = ZonalFunction(SphereParams(n=3, m=1), np.ones(6))
        t = [bad, 1e200, 2.0, 0.5]
        for call in (basis_values, basis_with_derivatives, lambda n, K, t: u.evaluate(t)):
            with pytest.raises(DomainError, match="cosines t must be finite"):
                call(3, 5, t)
        # so are finite ones where the polynomials overflow, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call, K, t in [(basis_values, 5, 1e200), (basis_with_derivatives, 5, [0.5, -1e200])]:
                with pytest.raises(DomainError, match="overflows a double"):
                    call(3, K, t)
            with pytest.raises(DomainError, match="overflows a double"):
                u.evaluate([2.0, 1e200])
            with pytest.raises(DomainError, match="overflows a double"):
                basis_values(3, 600, 2.0)  # U_600(2) is about 1e343
        # finite cosines outside [-1, 1] keep the polynomial's value, here
        # sum_k U_k(t) / sqrt(|S^2| pi / 2) on S^3
        t = np.array([2.0, -3.0])
        expected = sum(eval_chebyu(k, t) for k in range(6)) * (sphere_area(2) * np.pi / 2) ** -0.5
        assert np.allclose(u.evaluate(t), expected, rtol=1e-13)

    def test_scalar_and_one_dimensional_cosines_keep_their_shapes(self):
        assert basis_values(3, 4, 0.5).shape == (1, 5)
        assert basis_values(3, 4, [0.5, -0.5]).shape == (2, 5)
        assert basis_values(3, 4, np.empty(0)).shape == (0, 5)
        u = ZonalFunction(SphereParams(n=3, m=1), np.ones(5))
        assert u.evaluate(0.5).shape == (1,) and u.evaluate(np.linspace(-1, 1, 7)).shape == (7,)


class TestBasis:
    def test_constant_mode(self):
        rule = build_quadrature(3, 16)
        B = zonal_basis(rule, SphereParams(n=3, m=1), 4)
        assert np.allclose(B[:, 0], sphere_area(3) ** -0.5, rtol=0, atol=1e-15)

    def test_orthogonality_y1_y2(self):
        rule = build_quadrature(4, 24)
        B = zonal_basis(rule, SphereParams(n=4, m=1), 8)
        assert abs(np.dot(rule.weights, B[:, 1] * B[:, 2])) < 1e-12

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
        c = ws.basis.T @ (ws.weights * ws.nodes)
        assert abs(c[1]) > 0.1
        others = np.delete(c, 1)
        assert np.max(np.abs(others)) < 1e-12
        # quadrature oracle for the surviving coefficient: c_1 = int t Y_1 dsigma
        c1 = np.dot(ws.weights, ws.nodes * basis_values(params.n, 1, ws.nodes)[:, 1])
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
        import gjmslab.checks as checks

        ws = Workspace(SphereParams(n=3, m=1), 800)
        exact = checks.laplace_beltrami_eigenvalues

        def perturbed(n, K):
            ev = exact(n, K)
            ev[K // 2] *= 1.0 + 1e-6
            return ev

        monkeypatch.setattr(checks, "laplace_beltrami_eigenvalues", perturbed)
        assert laplace_beltrami_ode_residual(ws) >= 4e-7


class TestWorkspace:
    def test_bundles_rule_basis_and_spectrum(self):
        params = SphereParams(n=5, m=2)
        ws = Workspace(params, 12, 40)
        rule = build_quadrature(5, 40)
        assert ws.Q == 40 and len(ws.nodes) == 42 and ws.K == 12
        np.testing.assert_array_equal(ws.nodes, rule.nodes)
        np.testing.assert_array_equal(ws.weights, rule.weights)
        np.testing.assert_array_equal(ws.basis, zonal_basis(rule, params, 12))
        np.testing.assert_array_equal(ws.lam, gjms_eigenvalues(params, 12).lam)
        assert not hasattr(ws, "rule") and not hasattr(ws, "spectrum")
        ws = Workspace(params, 12)
        assert ws.Q == 32 and len(ws.nodes) == 34

    def test_quotient_unchanged(self):
        # the quotient sum_k Lambda_k c_k^2 / (sum_i w_i |u(t_i)|^p)^(2/p)
        # against the same sum in 30-digit arithmetic on the workspace's own
        # nodes and weights, with u from the ultraspherical recurrence written
        # out afresh.  u changes sign twice, so |u|^2.5 is not a polynomial and
        # the value moves with the rule: 828.0698 on the Gauss-Jacobi rule it
        # was first frozen on, 827.9810 here, 828.0510 at Q = 1000
        ws = Workspace(SphereParams(n=5, m=2), 12)
        c = np.random.default_rng(7).standard_normal(13) / (1.0 + np.arange(13.0) ** 2)
        with mpmath.workdps(30):
            a = mpmath.mpf(3) / 2
            bs = [mpmath.sqrt(k * (k + 2 * a) / ((2 * k + 2 * a + 1) * (2 * k + 2 * a - 1))) for k in range(1, 13)]
            y0 = 1 / mpmath.sqrt(2 * mpmath.pi**3 / mpmath.gamma(3))
            total = mpmath.mpf(0)
            for t, w in zip(ws.nodes, ws.weights):
                t = mpmath.mpf(t)
                y = [y0, t * y0 / bs[0]]
                for k in range(1, 12):
                    y.append((t * y[k] - bs[k - 1] * y[k - 1]) / bs[k])
                u = mpmath.fsum(mpmath.mpf(ck) * yk for ck, yk in zip(c, y))
                total += mpmath.mpf(w) * abs(u) ** mpmath.mpf(2.5)
            num = mpmath.fsum(mpmath.mpf(lam) * mpmath.mpf(ck) ** 2 for lam, ck in zip(ws.lam, c))
            ref = float(num / total ** (2 / mpmath.mpf(2.5)))
        assert ws.quotient(c, 2.5) == pytest.approx(ref, rel=1e-15, abs=0.0)

    def test_default_rule_of_n_100_at_K_396_builds(self):
        # the order-800 rule of n = 100 (alpha = 49), which the Gauss-Jacobi
        # solve once failed to converge on: 849 Legendre nodes, rounded up to
        # 850, with weights times (1-t^2)^49
        ws = Workspace(SphereParams(n=100, m=1), 396)
        assert ws.Q == 800 and ws.nodes.size == 850 and np.isfinite(ws.basis).all()
        assert np.max(np.abs(ws.nodes - roots_legendre(850)[0])) <= 1e-14
        assert abs(np.sum(ws.weights) / sphere_area(100) - 1.0) <= 1e-13
        for i in (849, 848, 840, 425):
            node, ref = mp_rule_point(100, 850, ws.nodes[i])
            assert abs(ws.nodes[i] - node) <= 2.3e-16
            assert abs(ws.weights[i] / ref - 1.0) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_damped_draw_reproduces_the_inline_draws(self, seed):
        # probe_start drew base * 0.3 * z / (1 + k^2); minimize's starts and
        # the dual ascent's starts drew z / (1 + k^2)
        ws = Workspace.shared(SphereParams(n=5, m=2), 24)
        k = np.arange(25, dtype=float)
        base = 0.8660254037844386
        probe = base * 0.3 * np.random.default_rng([seed, 2]).standard_normal(25) / (1.0 + k * k)
        plain = np.random.default_rng([seed, 2]).standard_normal(25) / (1.0 + k * k)
        got = ws.damped_draw(np.random.default_rng([seed, 2]), base * 0.3)
        np.testing.assert_array_equal(got, probe)
        np.testing.assert_array_equal(ws.damped_draw(np.random.default_rng([seed, 2])), plain)


class TestSharedWorkspace:
    def test_spellings_of_one_key_share_one_workspace(self):
        params = SphereParams(n=5, m=2)
        ws = Workspace.shared(params, 32)
        assert Workspace.shared(params, 32, 72) is ws
        assert Workspace.shared(params, np.int64(32)) is ws
        assert Workspace.shared(SphereParams(n=5, m=2), 32, np.int64(72)) is ws
        assert ws.K == 32 and ws.Q == 72 and len(ws.nodes) == 74

    def test_other_order_gets_its_own_workspace(self):
        one = Workspace.shared(SphereParams(n=5, m=1), 12)
        two = Workspace.shared(SphereParams(n=5, m=2), 12)
        assert one is not two
        np.testing.assert_array_equal(one.nodes, two.nodes)
        assert not np.array_equal(one.lam, two.lam)

    def test_matches_a_fresh_build(self):
        params = SphereParams(n=7, m=2)
        shared, fresh = Workspace.shared(params, 20, 48), Workspace(params, 20, 48)
        for name in ("nodes", "weights", "basis", "lam"):
            assert getattr(shared, name).tobytes() == getattr(fresh, name).tobytes()

    def test_cached_arrays_are_read_only(self):
        ws = Workspace.shared(SphereParams(n=3, m=1), 8)
        for array in (ws.nodes, ws.weights, ws.basis, ws.lam):
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
        nodal = np.dot(ws.weights, (ws.basis @ (ws.lam * c)) * (ws.basis @ c))
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
        for scale in (1e-140, 1e-5, 1.0, 1e150):
            x = scale * rng.standard_normal((7, 13))
            assert norm2(x) == np.linalg.norm(x)
            assert np.array_equal(norm2(x, axis=1), np.linalg.norm(x, axis=1))

    @pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-300, 1e-320])
    def test_entries_below_the_square_root_of_the_smallest_double(self, scale):
        # their squares are subnormal or zero: norm2([3e-200, 0]) once read 0.0
        rng = np.random.default_rng(8)
        x = scale * rng.standard_normal((7, 13))
        assert norm2(x) == pytest.approx(math.hypot(*x.ravel()), rel=1e-15, abs=0.0)
        for got, row in zip(norm2(x, axis=1), x):
            assert got == pytest.approx(math.hypot(*row), rel=1e-15, abs=0.0)
        assert norm2(np.array([3e-200, 0.0])) == 3e-200

    def test_zero_and_empty_slices(self):
        assert norm2(np.zeros(3)) == 0.0 and norm2(np.zeros(0)) == 0.0
        np.testing.assert_array_equal(norm2(np.zeros((2, 3)), axis=1), [0.0, 0.0])
        assert norm2(np.zeros((3, 0)), axis=1).tolist() == [0.0, 0.0, 0.0]
        assert norm2(np.zeros((0, 4)), axis=1).shape == (0,)
        got = norm2(np.array([[0.0, 0.0], [3e-200, 4e-200], [3.0, 4.0]]), axis=1)
        assert got[0] == 0.0 and got[2] == 5.0
        assert got[1] == pytest.approx(5e-200, rel=1e-15, abs=0.0)

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
