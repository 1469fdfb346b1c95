"""Stereographic transport of radial/zonal data between R^n and S^n.

The conformal diffeomorphism sends x in R^n to the sphere point with polar
cosine t = (1 - |x|^2)/(1 + |x|^2), pulling the round metric back to
(2/(1+|x|^2))^2 dx^2.  Functions move with the covariant weight
(2/(1+r^2))^(n/2-m); the dilation family of extremal profiles on R^n then
corresponds to the one-parameter bubble family on the sphere, named by the
dilation lam alone (the sphere is the workspace's); lam = 1 is the constant.

Conformal covariance (Graham, Jenne, Mason & Sparling, J. LMS 46, 1992)
carries the order-2m operator through the same weight: for u = phi^(n/2-m) v
with phi = 2/(1+r^2) = 1+t, (-Delta)^m u = phi^(n/2+m) P_m v.  The
order-2(m-i) Riesz potential inverts (-Delta)^(m-i) on R^n and P_(m-i) on the
sphere alike (Beckner, Ann. Math. 138, 1993), so every intermediate iterated
Laplacian of u is again a weighted zonal function, computed in coefficient
space by iterated_laplacians.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import DomainError, TruncationWarning
from .spectral import SphereParams, Workspace, ZonalFunction, _recurrence_offdiag, gamma_ratio


def angle_from_radius(r):
    """Polar cosine t = (1 - r^2)/(1 + r^2) of the image of a point at radius r."""
    r = np.asarray(r, dtype=float)
    if not np.all((r >= 0) & np.isfinite(r)):  # r = inf would give t = nan
        raise DomainError("radius must be finite and nonnegative")
    out = (1.0 - r * r) / (1.0 + r * r)
    return float(out) if out.ndim == 0 else out


def radius_from_angle(t):
    """Inverse map r = sqrt((1 - t)/(1 + t)); t = -1 is the infinite-radius pole."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= -1.0) or np.any(t > 1.0):
        raise DomainError("need t in (-1, 1]; t = -1 corresponds to infinite radius")
    out = np.sqrt((1.0 - t) / (1.0 + t))
    return float(out) if out.ndim == 0 else out


def conformal_factor(r):
    """Metric factor 2/(1 + r^2), in (0, 2]."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("radius must be nonnegative")
    out = 2.0 / (1.0 + r * r)
    return float(out) if out.ndim == 0 else out


def pullback_to_plane(v: ZonalFunction, grid) -> np.ndarray:
    """Transport a zonal function to R^n: u(r) = (2/(1+r^2))^(n/2-m) v(t(r)) on the grid.

    The result obeys the decay bound u(r) (1+r^2)^(n/2-m) <= sup|v| 2^(n/2-m);
    the verify row pullback-decay-bound checks it.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    exponent = v.params.n / 2.0 - v.params.m
    return conformal_factor(grid) ** exponent * v.evaluate(angle_from_radius(grid))


def iterated_laplacians(v: ZonalFunction) -> list[ZonalFunction]:
    """Zonal w_1..w_(m-1) with (-Delta)^i u = phi^(n/2-m+i) w_i for u the pullback of v.

    w_i = P_(m-i)^(-1) [(1+t)^i P_m v], and it carries the parameters (n, m-i),
    so pullback_to_plane(w_i, r) samples (-Delta)^i u itself.  Multiplying
    by 1+t is I + J with J the Jacobi matrix of the orthonormal basis, so
    w_i has degree K+i; no derivative, fit or radial cutoff is involved.

    The map is exact on the truncated v, but P_m scales c_k by about k^(2m)
    before P_(m-i)^(-1) divides by about k^(2(m-i)), so rounding in the top
    coefficients reaches w_i magnified by about K^(2i).  The bubbles of (7,3),
    (9,3), (11,4) and (13,5) read positive at K <= 64, but the constant of
    (13,5) at K = 96 reads min w_i / max |w_i| = -1 for i >= 3, from rounding
    alone.
    """
    n, m, K = v.params.n, v.params.m, v.K
    a = np.zeros(K + m)
    a[: K + 1] = gamma_ratio(v.params, K) * v.coeffs
    b = _recurrence_offdiag(n, K + m - 1)
    out = []
    for i in range(1, m):
        ta = np.zeros_like(a)  # t q_k = b_(k+1) q_(k+1) + b_k q_(k-1)
        ta[1:] += b * a[:-1]
        ta[:-1] += b * a[1:]
        a = a + ta
        params = SphereParams(n=n, m=m - i)
        out.append(ZonalFunction(params, a[: K + i + 1] / gamma_ratio(params, K + i)))
    return out


def bubble_values(params: SphereParams, lam: float, t) -> np.ndarray:
    """Pointwise bubble v_lam(t) = (lam / ((1+lam^2) + (1-lam^2) t))^((n-2m)/2).

    Pushforward of the dilated planar profile lam^((n-2m)/2) (1+lam^2 r^2)^(m-n/2);
    lam = 1 is the constant 2^(m-n/2).  Near t = -1 the denominator is about
    2 lam^2, so the dilation must be positive with 2 lam^2 a double.
    """
    if not (lam > 0 and math.isfinite(2.0 * lam * lam)):
        raise DomainError(f"dilation must be in (0, 9.48e153], got {lam}")
    t = np.asarray(t, dtype=float)
    e = (params.n - 2.0 * params.m) / 2.0
    return (lam / ((1.0 + lam * lam) + (1.0 - lam * lam) * t)) ** e


def bubble_on_sphere(lam: float, workspace: Workspace) -> ZonalFunction:
    """Expand the dilation-lam bubble in the workspace's basis, c = B^T(w v) from its node values.

    The bubble is for the workspace's (n, m).  Warns when the degree-K tail is
    not negligible.
    """
    K, values = workspace.K, bubble_values(workspace.params, lam, workspace.nodes)
    u = ZonalFunction(workspace.params, workspace.basis.T @ (workspace.weights * values))
    norm = u.l2_norm()
    tail = abs(float(u.coeffs[-1])) / norm if norm > 0 else 0.0
    if tail > 1e-6:
        # geometric decay estimate from the last few coefficients suggests the
        # degree needed to push the tail below threshold
        c = np.abs(u.coeffs)
        j = min(4, K)
        ratio = (c[-1] / c[-1 - j]) ** (1.0 / j) if j > 0 and c[-1 - j] > 0 else 0.5
        ratio = min(max(ratio, 1e-3), 0.999)
        extra = int(math.ceil(math.log(1e-6 / tail) / math.log(ratio)))
        warnings.warn(
            f"bubble lam={lam} tail {tail:.2e} above 1e-6 at K={K}; "
            f"suggest K >= {K + max(extra, 1)}",
            TruncationWarning,
            stacklevel=2,
        )
    return u
