"""The verify suite: independent numerical cross-checks of the closed forms.

Production code evaluates every spectrum in closed form and does not
re-check it; each row here recomputes one fact another way (a second
formula, a quadrature, a finite difference) and reports its margin against
a tolerance.  The Laplace-Beltrami helpers serve only these rows.
"""

from __future__ import annotations

import math

import numpy as np

from .closed_forms import sharp_constant
from .conformal import angle_from_radius, bubble_on_sphere, pullback_to_plane, radius_from_angle
from .errors import DomainError
from .kernels import IDENTITY_TOLERANCE, funk_hecke_spectrum, green_constant
from .lane_emden import Nonlinearity, _minres, _preconditioner, constant_solution
from .spectral import (
    GjmsSpectrum,
    SphereParams,
    Workspace,
    ZonalFunction,
    basis_values,
    basis_with_derivatives,
    gauss_jacobi,
    sphere_area,
)


def laplace_beltrami_eigenvalues(n: int, K: int) -> np.ndarray:
    """Eigenvalues k(k+n-1) of -Delta on degree-k zonal harmonics."""
    k = np.arange(K + 1, dtype=float)
    return k * (k + n - 1.0)


def laplace_beltrami_ode_residual(workspace: Workspace) -> float:
    """Largest relative residual of (1-t^2) Y_k'' - n t Y_k' + k(k+n-1) Y_k, k >= 1.

    Numerical confirmation that the basis diagonalizes -Delta with the claimed
    eigenvalues before they are composed into higher-order spectra.  For each
    degree the largest residual over the workspace's nodes is divided by the
    largest |(1-t^2) Y_k''| + |n t Y_k'| + |k(k+n-1) Y_k|, the size of the
    terms that cancel, which grows like k^2 max|Y_k|; a relative error e in
    one eigenvalue reads about e/2.
    """
    n, K, t = workspace.params.n, workspace.K, workspace.nodes
    B, D1, D2 = basis_with_derivatives(n, K, t)
    second = (1.0 - t * t)[:, None] * D2
    first = n * t[:, None] * D1
    zeroth = laplace_beltrami_eigenvalues(n, K)[None, :] * B
    resid = np.max(np.abs(second - first + zeroth), axis=0)
    size = np.max(np.abs(second) + np.abs(first) + np.abs(zeroth), axis=0)
    return float(np.max(resid[1:] / size[1:], initial=0.0))


def _kernel_moments(params: SphereParams, K: int, nodes: int) -> np.ndarray:
    # mu_k = |S^{n-1}| 2^((2m-n)/2) * int G_k(t) (1-t)^(m-1) (1+t)^((n-2)/2) dt
    # with G_k the degree-k ultraspherical polynomial normalized to 1 at t=1:
    # the Funk-Hecke weight (2 - 2t)^((2m-n)/2) (1 - t^2)^((n-2)/2) is a
    # Jacobi weight, so each eigenvalue is a Jacobi integral of a polynomial.
    n, m = params.n, params.m
    x, w = gauss_jacobi(nodes, m - 1.0, (n - 2.0) / 2.0)
    B = basis_values(n, K, x)
    at_one = basis_values(n, K, np.array([1.0]))[0]
    scale = sphere_area(n - 1) * 2.0 ** ((2.0 * m - n) / 2.0)
    return scale * ((w @ B) / at_one)


def verify_checks(m: int, n: int, K: int, seed: int, trials: int):
    """Return (name, margin, tolerance, passed) rows; margin <= tolerance passes."""
    if trials < 1:
        raise DomainError("need at least one trial")
    params = SphereParams(n=n, m=m)
    ws = Workspace.shared(params, K)
    Q = len(ws.nodes)
    area = sphere_area(n)
    rng = np.random.default_rng(seed)

    rows = []

    def add(name, margin, tol):
        rows.append((name, float(margin), float(tol), bool(margin <= tol)))

    add("quadrature-total-mass", abs(float(np.sum(ws.weights)) / area - 1.0), 1e-12)

    # a Q-node rule integrates Y_j Y_k exactly for j, k < Q
    full = basis_values(n, Q - 1, ws.nodes)
    gram = full.T @ (ws.weights[:, None] * full)
    add("quadrature-moments", float(np.max(np.abs(gram - np.eye(Q)))), 1e-12)

    gram = ws.weighted_gram(np.ones(Q))
    add("basis-gram-identity", float(np.max(np.abs(gram - np.eye(K + 1)))), 1e-10)

    add("laplace-beltrami-ode", laplace_beltrami_ode_residual(ws), 1e-8)

    # Lambda_k = prod_{j<m} (mu_k - j(j+1)), mu_k the conformal Laplacian's eigenvalue
    mu = laplace_beltrami_eigenvalues(n, K) + n * (n - 2.0) / 4.0
    factored = np.ones_like(mu)
    for j in range(m):
        factored *= mu - j * (j + 1.0)
    add("spectrum-cross-form", np.max(np.abs(factored / ws.lam - 1.0)), 1e-10)
    add("spectrum-monotone", 0.0 if np.all(np.diff(ws.lam) > 0) else 1.0, 0.5)

    gap_worst = 0.0
    for _ in range(trials):
        u = ZonalFunction(params, rng.standard_normal(K + 1))
        energy = float(np.dot(ws.lam, u.coeffs**2))
        gap_worst = max(gap_worst, (ws.lam[0] * u.l2_norm() ** 2 - energy) / energy)
    add("spectral-gap", gap_worst, 1e-12)

    kernel = funk_hecke_spectrum(params, K)
    gjms = GjmsSpectrum(params, ws.lam)
    gc = green_constant(params, kernel=kernel, gjms=gjms)  # raises on gross violation
    add(
        "green-identity",
        float(np.max(np.abs(gc.g_mn * kernel.mu * ws.lam - 1.0))),
        IDENTITY_TOLERANCE,
    )

    # the constant solution of P u = u^q is a fixed point of u -> P^{-1} f(u)
    f = Nonlinearity.single_power(1.0, (1.0 + params.critical_equation_exponent) / 2.0, params)
    c_value = constant_solution(m, n, f)
    c_star = np.zeros(K + 1)
    c_star[0] = c_value * math.sqrt(area)
    image = ws.basis.T @ (ws.weights * f(ws.basis @ c_star)) / ws.lam
    add(
        "constant-green-fixed-point",
        np.linalg.norm(image - c_star) / np.linalg.norm(c_star),
        1e-12,
    )

    # one Jacobi rule of K//2 + 8 nodes integrates the degree-K integrand exactly
    quad_gap = np.max(np.abs(_kernel_moments(params, K, K // 2 + 8) - kernel.mu)) / kernel.mu[0]
    add("kernel-funk-hecke-quadrature", quad_gap, 1e-12)
    add("kernel-monotone", 0.0 if np.all(np.diff(kernel.mu) < 0) else 1.0, 0.5)

    hls_worst = 0.0
    for _ in range(trials):
        v = ZonalFunction(params, rng.standard_normal(K + 1))
        excess = float(np.dot(kernel.mu, v.coeffs**2)) - kernel.mu[0] * v.l2_norm() ** 2
        hls_worst = max(hls_worst, excess / (kernel.mu[0] * v.l2_norm() ** 2))
    add("kernel-energy-bound", hls_worst, 1e-12)

    jensen_worst = 0.0
    for _ in range(trials):
        vals = np.abs(rng.standard_normal(Q)) + 0.01
        for p_test in (1.5, 2.0, 3.0):
            mean_u = float(np.dot(ws.weights, vals)) / area
            mean_up = float(np.dot(ws.weights, vals**p_test)) / area
            jensen_worst = max(jensen_worst, (mean_u**p_test - mean_up) / mean_up)
    add("jensen-mean-power", jensen_worst, 1e-12)

    r = np.linspace(0.0, 20.0, 200)
    rt = np.max(np.abs(radius_from_angle(angle_from_radius(r)) - r) / np.maximum(1.0, r))
    t = np.linspace(-1 + 1e-6, 1.0, 200)
    rt = max(rt, float(np.max(np.abs(angle_from_radius(radius_from_angle(t)) - t))))
    add("stereographic-roundtrip", rt, 1e-14)

    v = ZonalFunction(params, rng.standard_normal(K + 1))
    grid = np.linspace(0.0, 30.0, 300)
    u = pullback_to_plane(v, grid)
    bound = v.sup_bound() * 2.0 ** (n / 2 - m) * (1.0 + 1e-9)
    decay = float(np.max(np.abs(u) * (1 + grid**2) ** (n / 2 - m))) - bound
    add("pullback-decay-bound", max(decay, 0.0), 0.0)

    p_crit = params.critical_norm_exponent
    big = Workspace.shared(params, 72)
    norms = [big.p_norm(bubble_on_sphere(lam_b, big).coeffs, p_crit) for lam_b in (0.5, 2.0)]
    add("bubble-critical-norm", abs(norms[0] / norms[1] - 1.0), 1e-6)

    p_mid = 0.5 * (2.0 + p_crit)
    S = sharp_constant(m, n, p_mid)
    const = np.zeros(K + 1)
    const[0] = 1.0
    add("quotient-at-constant", abs(ws.quotient(const, p_mid) / S - 1.0), 1e-12)

    low_worst = 0.0
    for _ in range(trials):
        u = rng.standard_normal(K + 1)
        low_worst = max(low_worst, (S - ws.quotient(u, p_mid)) / S)
    add("quotient-lower-bound", low_worst, 1e-8)

    fd_worst = 0.0
    euler_worst = 0.0
    # Q(c +- h e_k) carries Lambda_k h^2, whose rounding over 2h is eps Lambda_k h;
    # h_k = 1e-5 sqrt(Lambda_0/Lambda_k) holds Lambda_k h_k^2 at 1e-10 Lambda_0
    h = 1e-5 * np.sqrt(ws.lam[0] / ws.lam)
    for _ in range(max(trials // 4, 2)):
        kk = np.arange(K + 1, dtype=float)
        c = rng.standard_normal(K + 1) * 0.3 / (1.0 + kk * kk)
        c[0] = 1.0
        c = ws.normalize(c, p_mid)
        val, grad = ws.quotient_and_gradient(c, p_mid)
        # |g| |c| shrinks to rounding noise as c nears a ray of constant Q (all
        # of them at K = 0), so Q, the gradient scale times |c|, floors it
        euler_worst = max(
            euler_worst,
            abs(float(np.dot(grad, c))) / max(np.linalg.norm(grad) * np.linalg.norm(c), val),
        )
        fd = np.zeros_like(grad)
        for k in range(K + 1):
            e = np.zeros(K + 1)
            e[k] = h[k]
            fd[k] = (ws.quotient(c + e, p_mid) - ws.quotient(c - e, p_mid)) / (2 * h[k])
        err = np.max(np.abs(grad - fd))
        if K == 0:
            # Q is constant on rays, so the exact gradient is 0 and both sides
            # are rounding noise: hold the error to the gradient scale Q / |c|
            fd_worst = max(fd_worst, err * np.linalg.norm(c) / val)
        else:
            scale = max(np.max(np.abs(grad)), np.max(np.abs(fd)))
            fd_worst = max(fd_worst, err / scale)
    add("gradient-finite-difference", fd_worst, 1e-6)
    add("gradient-euler-orthogonality", euler_worst, 1e-10)

    # a MINRES step near the constant of t^q against LU on the Newton system
    # scaled by D = Lambda^(-1/2) (unscaled LU loses digits at high K), in the
    # scaled norm, unpreconditioned and with the preconditioner Newton uses;
    # its error is cond times its residual, so it runs to 1e-14
    c = ws.damped_draw(np.random.default_rng([seed, 1]))
    c = c_star + c * (0.1 * c_star[0] * ws.basis[0, 0] / np.max(np.abs(ws.basis @ c)))
    V, root = ws.basis @ c, np.sqrt(ws.lam)
    b, s = (ws.basis.T @ (ws.weights * f(V)) - ws.lam * c) / root, ws.weights * f.slope(V)
    DGD = ws.weighted_gram(f.slope(V)) / np.outer(root, root)
    krylov_gap = 0.0
    for shift in (1.0, 1.01):  # tau = 0 and 1e-2
        dense = np.linalg.solve(shift * np.eye(K + 1) - DGD, b)
        for M in (None, _preconditioner(ws.lam, f, c_value, shift)):
            Y, _ = _minres(ws.basis / root, s[None], shift, b[None], 2 * K + 2, 1e-14, M)
            krylov_gap = max(krylov_gap, np.linalg.norm(Y[0] - dense) / np.linalg.norm(dense))
    add("newton-krylov-step", krylov_gap, 1e-12)

    return rows
