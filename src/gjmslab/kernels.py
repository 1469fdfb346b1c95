"""Surface Riesz kernel |xi - eta|^(2m-n) on S^n: spectrum, inverse operator, duality.

A rotation-invariant kernel acts diagonally on spherical harmonics; Funk-Hecke
gives the Riesz kernel's eigenvalues in closed form (Lieb, Ann. Math. 118, 1983;
Beckner, Ann. Math. 138, 1993); the Funk-Hecke integral and the monotonicity of
the plain-data spectra run only as verify rows (gjmslab.checks).  The kernel
inverts the order-2m conformal operator up to one normalization g_mn, fixed
here spectrally and then certified degree by degree.  The dual check
hls_dual_ratio is a projected ascent whose trial steps are Barzilai-Borwein
steps (IMA J. Numer. Anal. 8, 1988), capped so one step moves the iterate by
at most its own size.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .closed_forms import in_double_range
from .errors import DomainError, InconsistencyError
from .spectral import GjmsSpectrum, SphereParams, Workspace, gamma_ratio

IDENTITY_TOLERANCE = 1e-8  #: largest |g_mn mu_k Lambda_k - 1| green_constant accepts


@in_double_range
def ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n."""
    if n < 1:
        raise DomainError(f"ball dimension must be >= 1, got n={n}")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@dataclass
class KernelSpectrum:
    """Eigenvalues mu_k of convolution with |xi - eta|^(2m-n) on degree-k harmonics."""

    params: SphereParams
    mu: np.ndarray


@in_double_range
def funk_hecke_spectrum(params: SphereParams, K: int) -> KernelSpectrum:
    """Kernel eigenvalues mu_0..mu_K from the Funk-Hecke closed form.

    mu_k = 2^(2m) pi^(n/2) Gamma(m) Gamma(k+n/2-m) / (Gamma(n/2-m) Gamma(k+n/2+m)),
    a multiple of the reciprocal of the Gamma ratio that gives the operator spectrum.
    A mu_K below the normal double range raises DomainError, as Lambda_K past it does.
    """
    h, m = params.n / 2.0, params.m
    scale = 4.0**m * math.pi**h * math.gamma(m) / math.gamma(h - m)
    mu = scale / gamma_ratio(params, K)
    if mu[-1] < np.finfo(float).tiny:  # the smallest normal double
        raise DomainError(f"mu_{K} underflows a double for n={params.n}, m={params.m}")
    return KernelSpectrum(params=params, mu=mu)


@dataclass(frozen=True)
class GreenConstants:
    """Normalizations tying the kernel to inverse operators.

    c_n is the Euclidean Laplace Green constant 1/(n(n-2)v_n); g_mn scales the
    surface Riesz kernel into the exact inverse of the order-2m operator, so
    that g_mn * mu_k * Lambda_k = 1 for every degree k.
    """

    c_n: float
    g_mn: float


def green_constant(
    params: SphereParams, kernel: KernelSpectrum, gjms: GjmsSpectrum
) -> GreenConstants:
    """Fix g_mn = 1/(mu_0 Lambda_0) and certify the inverse identity spectrally.

    Both spectra must be for params, and gjms must reach the kernel's top
    degree; otherwise ValueError.  Raises an inconsistency error if
    max_k |g_mn mu_k Lambda_k - 1| exceeds IDENTITY_TOLERANCE, which would
    indicate a spectrum bug.
    """
    if not kernel.params == gjms.params == params:
        raise ValueError(f"kernel for {kernel.params}, gjms for {gjms.params}, params {params}")
    if len(gjms.lam) < len(kernel.mu):
        raise ValueError(f"gjms ends at degree {len(gjms.lam) - 1}, kernel at {len(kernel.mu) - 1}")
    lam = gjms.lam[: len(kernel.mu)]
    g = 1.0 / (kernel.mu[0] * lam[0])
    deviation = float(np.max(np.abs(g * kernel.mu * lam - 1.0)))
    if deviation > IDENTITY_TOLERANCE:
        raise InconsistencyError(
            f"inverse-kernel identity violated by {deviation:.3e} "
            f"for n={params.n}, m={params.m}"
        )
    n = params.n
    c_n = 1.0 / (n * (n - 2.0) * ball_volume(n))
    return GreenConstants(c_n=c_n, g_mn=g)


def hls_dual_ratio(
    params: SphereParams,
    p: float,
    trials: int = 8,
    seed: int = 0,
    K: int = 32,
    max_iter: int = 800,
    tol_grad: float = 1e-8,
) -> float:
    """Maximize g_mn * (kernel energy) / ||v||_{p'}^2 over nonnegative zonal v.

    p' = p/(p-1) is the conjugate exponent.  Duality predicts the maximum
    1/(Lambda_0 |S^n|^(1 - 2/p)), attained at constants; a multistart
    projected ascent over node values (clipped to the nonnegative cone,
    renormalized to the p' sphere) probes for anything larger.

    Each iteration tries the step min(s.s / (-s.y), ||v||_w / ||d||_w), with
    s the last accepted move, y its gradient change, d the cone-feasible
    direction and w-weighted inner products; without a pair, or when
    s.y >= 0, it tries the cap alone.  Armijo halving then accepts the first
    strict increase.  The step needed grows like 1/value, so it is read off
    the iterates rather than fixed.
    """
    if not (2.0 < p < params.critical_norm_exponent):
        raise DomainError(
            f"need 2 < p < {params.critical_norm_exponent}, got p={p} "
            f"for n={params.n}, m={params.m}"
        )
    if trials < 1:
        raise DomainError("need at least one ascent start")
    if max_iter < 1:
        raise DomainError(f"need max_iter >= 1, got {max_iter}")
    if not (math.isfinite(tol_grad) and tol_grad > 0.0):
        raise DomainError(f"gradient tolerance must be positive and finite, got {tol_grad}")
    pp = p / (p - 1.0)
    ws = Workspace.shared(params, K)
    B, w = ws.basis, ws.weights
    kernel = funk_hecke_spectrum(params, K)
    g = green_constant(params, kernel=kernel, gjms=GjmsSpectrum(params, ws.lam)).g_mn
    mu = kernel.mu

    def ratio_and_grad(vals):
        # evaluated on the p'-sphere only, so the denominator is 1; the
        # functional (weight-preconditioned) gradient is 2 (g K v - R v^(p'-1))
        c = B.T @ (w * vals)
        val = g * float(np.dot(mu, c * c))
        smooth = B @ (mu * c)
        grad = 2.0 * (g * smooth - val * vals ** (pp - 1.0))
        return val, grad

    def normalize(vals):
        # a trial step the cone clips to zero keeps value 0 and is rejected
        vals = np.clip(vals, 0.0, None)
        ip = float(np.dot(w, vals**pp))
        return vals / ip ** (1.0 / pp) if ip > 0.0 else vals

    def ascend(v0):
        vals = normalize(v0)
        val, grad = ratio_and_grad(vals)
        s = y = None  # last accepted move and its gradient change
        it = 0
        for it in range(1, max_iter + 1):
            direction = grad.copy()
            direction[(vals <= 0.0) & (grad < 0.0)] = 0.0  # cone-feasible part
            slope = float(np.dot(w, direction * direction))
            if math.sqrt(slope) <= tol_grad * max(1.0, abs(val)):
                break
            # Barzilai-Borwein trial step, capped so one step moves the
            # iterate by at most its own w-norm
            step = math.sqrt(float(np.dot(w, vals * vals)) / slope)
            if s is not None:
                sy = float(np.dot(w, s * y))
                if sy < 0.0:
                    step = min(float(np.dot(w, s * s)) / -sy, step)
            while step > 1e-18:
                cand = normalize(vals + step * direction)
                cand_val, cand_grad = ratio_and_grad(cand)
                # strict increase guards against accepting a float plateau
                if cand_val > val and cand_val >= val + 1e-4 * step * slope:
                    s, y = cand - vals, cand_grad - grad
                    vals, val, grad = cand, cand_val, cand_grad
                    break
                step *= 0.5
            else:
                break  # no representable improvement left
        return val, it

    starts = [np.ones(len(ws.nodes))]
    for i in range(trials - 1):
        rng = np.random.default_rng([seed, i])
        k = np.arange(K + 1, dtype=float)
        c = rng.standard_normal(K + 1) / (1.0 + k * k)
        c[0] = abs(c[0]) + 0.5
        starts.append(np.clip(B @ c, 0.0, None) + 1e-3)

    best, converged = -np.inf, True
    for v0 in starts:
        val, it = ascend(v0)
        best = max(best, val)
        converged = converged and it < max_iter
    if not converged:
        warnings.warn(
            f"kernel-quotient ascent hit max_iter={max_iter}; best value {best:.12e}",
            stacklevel=2,
        )
    return float(best)
