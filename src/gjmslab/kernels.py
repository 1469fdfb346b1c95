"""Surface Riesz kernel |xi - eta|^(2m-n) on S^n: spectrum, inverse operator, duality.

A rotation-invariant kernel acts diagonally on spherical harmonics; Funk-Hecke
gives the Riesz kernel's eigenvalues in closed form (Lieb, Ann. Math. 118, 1983;
Beckner, Ann. Math. 138, 1993); the Funk-Hecke integral and the monotonicity of
the plain-data spectra run only as verify rows (gjmslab.checks).  The kernel
inverts the order-2m conformal operator up to one normalization g_mn, fixed
here spectrally and then certified degree by degree.  The dual check
hls_dual_ratio is a projected ascent whose trial steps are Barzilai-Borwein
steps (IMA J. Numer. Anal. 8, 1988), capped so one step moves the iterate by
at most its own size; its trials ascend in lockstep as one stack, and each
records its stop reason in minimize's vocabulary, spectral.STOP_REASONS.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .closed_forms import in_double_range
from .errors import DomainError, InconsistencyError
from .spectral import ROUNDING_FLOOR, STOP_REASONS, GjmsSpectrum, SphereParams, Workspace
from .spectral import backtrack, gamma_ratio, rowdot, rowwise

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
    the iterates rather than fixed.  The trials run in lockstep, one batched
    line search per iteration.  A trial stops at the gradient tolerance, at
    the rounding floor (a predicted gain step * ||d||_w^2 <= 16 eps |value|),
    after max_iter accepted steps, or when its line search runs out, tested
    in minimize's order; only max_iter stops warn.
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
    ws = Workspace.shared(params, K)
    kernel = funk_hecke_spectrum(params, K)
    g = green_constant(params, kernel=kernel, gjms=GjmsSpectrum(params, ws.lam)).g_mn
    starts = [np.ones(len(ws.nodes))]
    for i in range(trials - 1):
        c = ws.damped_draw(np.random.default_rng([seed, i]))
        c[0] = abs(c[0]) + 0.5
        starts.append(np.clip(ws.basis @ c, 0.0, None) + 1e-3)
    vals, _, reasons = _ascend(ws, g, kernel.mu, p / (p - 1), np.array(starts), max_iter, tol_grad)
    best = float(np.max(vals))
    if "max_iter" in reasons:
        warnings.warn(
            f"kernel-quotient ascent hit max_iter={max_iter}; best value {best:.12e}",
            stacklevel=2,
        )
    return best


# a candidate the cone clips to zero is nan, a step at slope 0 inf, a first BB step nan
@np.errstate(divide="ignore", invalid="ignore")
def _ascend(
    ws: Workspace, g: float, mu: np.ndarray, pp: float, V0: np.ndarray, max_iter: int, tol: float
):
    """hls_dual_ratio's ascent from every row of node values V0, in lockstep.

    The state is one (trials, Q) array per quantity, indexed by the rows
    still running, and rows multiply through spectral.rowwise and rowdot, so
    each rounds as it would alone.  Returns per row the value, the accepted
    steps and the stop reason, one of STOP_REASONS.
    """
    B, w = ws.basis, ws.weights

    def normalize(V):
        V = np.maximum(V, 0.0)
        return np.divide(V, np.float_power(rowdot(V**pp, w), 1.0 / pp)[:, None], out=V)

    def ratio(V):
        # evaluated on the p'-sphere only, so the denominator is 1
        C = rowwise(w * V, B)
        return g * rowdot(C * C, mu), C

    def gradient(V, val, C):
        # the functional (weight-preconditioned) gradient 2 (g K v - R v^(p'-1))
        return 2.0 * (g * rowwise(mu * C, B.T) - val[:, None] * V ** (pp - 1.0))

    def attempt(steps, rows, base, base_val, direction, slope):
        cand = normalize(base + steps[:, None] * direction)
        cand_val, C = ratio(cand)
        # strict increase guards against accepting a float plateau
        ok = (cand_val > base_val) & (cand_val >= base_val + 1e-4 * steps * slope)
        if np.count_nonzero(ok):
            rows, cand, cand_val = rows[ok], cand[ok], cand_val[ok]
            cand_grad = gradient(cand, cand_val, C[ok])
            S[rows], Y[rows] = cand - V[rows], cand_grad - grad[rows]
            V[rows], val[rows], grad[rows] = cand, cand_val, cand_grad
        return ok

    V = normalize(V0)
    val, C = ratio(V)
    grad = gradient(V, val, C)
    S, Y = np.zeros_like(V), np.zeros_like(V)  # last accepted move and its gradient change
    iters, stop = np.zeros(len(V), dtype=int), np.full(len(V), -1)  # stop indexes STOP_REASONS
    while True:
        act = np.flatnonzero(stop < 0)
        base, s, value = V[act], S[act], val[act]
        direction = np.where((base <= 0.0) & (grad[act] < 0.0), 0.0, grad[act])  # cone-feasible
        slope = rowdot(direction * direction, w)
        # Barzilai-Borwein trial step (none while s = y = 0), capped so one
        # step moves the iterate by at most its own w-norm
        sy = rowdot(s * Y[act], w)
        step = np.sqrt(rowdot(base * base, w) / slope)
        step = np.where(sy < 0.0, np.minimum(rowdot(s * s, w) / -sy, step), step)
        # tolerance, then a predicted gain below the rounding of the value, then max_iter
        at_tol = np.sqrt(slope) <= tol * np.maximum(1.0, np.abs(value))
        at_floor = step * slope <= ROUNDING_FLOOR * np.abs(value)
        stop[act] = np.select((at_tol, at_floor, iters[act] == max_iter), (0, 1, 3), -1)
        keep = stop[act] < 0
        if not np.count_nonzero(keep):
            break
        act, args = act[keep], (base[keep], value[keep], direction[keep], slope[keep])
        ran_out = backtrack(attempt, step[keep], 1e-18, act, *args)
        stop[act[ran_out]] = 2
        iters[act[~ran_out]] += 1
    return val, iters, [STOP_REASONS[code] for code in stop]
