"""Sharp subcritical Sobolev constants and quotient minimization on S^n.

The quotient Q(u) = (energy of u) / ||u||_p^2 is scale invariant; over
2 < p < 2n/(n-2m) its infimum is Lambda_0 |S^n|^(1-2/p), attained exactly at
the constants; sharp_constant, re-exported here from closed_forms, is that
closed form.  minimize() reproduces this numerically by multistart
saddle-free Riemannian Newton on the p-sphere ||u||_p = 1 (Absil, Mahony &
Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008).  The tangent
Hessian is scaled by Lambda^(-1/2), so its quadratic part is the identity at
every order, and its eigenvalues are replaced by their absolute values
(floored at 1e-2), so every step descends and moves away from the
sign-changing saddles.  The tangent basis is the closed-form Householder
reflector of the scaled constraint normal.  A Cholesky factorization of the
tangent Hessian minus the floor decides each step: when it succeeds, no
eigenvalue is at or below the floor, the saddle-free step is the plain Newton
step and one linear solve gives it; when it fails, the step falls back to a
full eigendecomposition.  Each start records how many of its steps fell back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .closed_forms import SphereParams, gjms_lambda0, sharp_constant, sphere_area  # noqa: F401
from .conformal import BubbleParams, bubble_values
from .errors import DomainError
from .spectral import Workspace, ZonalFunction, norm2

#: Quotient gradients degenerate as p -> 2 (|u|^(p-2) loses smoothness at zeros),
#: and the admissible range is open anyway, so a small guard band is enforced.
MIN_EXPONENT_GAP = 1e-3

#: Floor on the absolute eigenvalues of the scaled tangent Hessian in the
#: saddle-free Newton step; the high modes sit at 1, so this caps the step
#: at 100 times the Newton step of a perfectly conditioned mode.
SADDLE_FREE_FLOOR = 1e-2
#: A start stops when its Newton decrement -g.s falls to this many units of
#: roundoff in the quotient value.
ROUNDING_FLOOR = 16.0 * np.finfo(float).eps
#: Why a start stopped: the first two count as converged.
STOP_REASONS = ("tolerance", "rounding_floor", "line_search_exhausted", "max_iter")


def _check_exponent(params: SphereParams, p: float) -> None:
    p_crit = params.critical_norm_exponent
    if not 2.0 + MIN_EXPONENT_GAP < p < p_crit:
        raise DomainError(
            f"need 2 + {MIN_EXPONENT_GAP} < p < {p_crit} for n={params.n}, m={params.m}, got p={p}"
        )


@dataclass(frozen=True)
class OptimizerConfig:
    """Multistart Newton settings for one (n, m, p) instance.

    A start stops once ||g / (2 Lambda)|| <= tol_grad ||c|| at its p-normalized
    coefficients c, where g is the quotient gradient; the test is relative, so
    one tolerance serves every (n, m, p).
    """

    params: SphereParams
    p: float
    K: int = 32
    starts: int = 20
    seed: int = 0
    tol_grad: float = 1e-9
    max_iter: int = 2000

    def __post_init__(self):
        _check_exponent(self.params, self.p)
        if self.starts < 1:
            raise DomainError("need at least one start")
        if not (math.isfinite(self.tol_grad) and self.tol_grad > 0):
            raise DomainError(f"tolerance must be positive and finite, got {self.tol_grad}")
        if self.K < 1:
            raise DomainError("need K >= 1")
        if self.max_iter < 1:
            raise DomainError("need max_iter >= 1")


@dataclass
class MinimizationResult:
    """Best iterate over all starts, normalized to ||u||_p = 1.

    `grad_norm` is the absolute quotient gradient norm ||g|| at the minimizer;
    `rel_grad_norm` is ||g / (2 Lambda)|| / ||c||, the quantity the stop test
    holds to tol_grad.  `start_values`, `start_iters`, `start_fallback_steps`
    and `start_stop_reasons` hold one entry per start, in start order; a
    fallback step is an accepted Newton step whose tangent Hessian had an
    eigenvalue at or below SADDLE_FREE_FLOOR, so it took the eigendecomposition
    path of _newton_step; a stop reason is one of STOP_REASONS.
    """

    minimizer: ZonalFunction
    value: float
    grad_norm: float
    rel_grad_norm: float
    iters: int
    distance_to_constant: float
    converged: bool
    trace: list = field(default_factory=list)
    start_values: list = field(default_factory=list)
    start_iters: list = field(default_factory=list)
    start_fallback_steps: list = field(default_factory=list)
    start_stop_reasons: list = field(default_factory=list)

    def to_dict(self) -> dict:
        fields = {k: v for k, v in vars(self).items() if k != "trace"}
        return {**fields, "minimizer": self.minimizer.to_dict()}


def _newton_step(ws: Workspace, c: np.ndarray, p: float, val: float, grad: np.ndarray):
    """Saddle-free Newton step on the p-sphere at the p-normalized c.

    The tangent directions s satisfy M^T s = 0 with M = B^T(w |u|^(p-2) u), and
    the Hessian there is 2H with H = Lambda - Q (p-1) B^T diag(w |u|^(p-2)) B.
    In the variables y = Lambda^(1/2) s, H restricted to the tangent space is
    the K x K symmetric matrix T = Z^T H Z, where Z is the last K columns of
    the Householder reflector that maps x = Lambda^(-1/2) M onto a multiple of
    e_0 (the reflector a complete QR of x would form).  The eigenvalues of T
    enter by absolute value, floored at SADDLE_FREE_FLOOR.  When a Cholesky
    factorization of T - SADDLE_FREE_FLOOR I succeeds, every eigenvalue of T
    is above the floor, so the saddle-free step is the Newton step, solved
    from T directly; otherwise the step falls back to an eigendecomposition
    of T.  Returns the step and whether it was certified by the Cholesky test.
    """
    vals = ws.basis @ c
    a = np.abs(vals) ** (p - 2.0)
    moment = ws.basis.T @ (ws.weights * a * vals)
    scale = 1.0 / np.sqrt(ws.lam)
    H = np.eye(ws.K + 1) - val * (p - 1.0) * (scale[:, None] * ws.weighted_gram(a) * scale)
    v = scale * moment
    v[0] += math.copysign(np.linalg.norm(v), v[0])
    Z = np.eye(ws.K + 1)[:, 1:] - (2.0 / np.dot(v, v)) * np.outer(v, v[1:])
    T = Z.T @ H @ Z
    r = Z.T @ (scale * grad)
    try:
        np.linalg.cholesky(T - SADDLE_FREE_FLOOR * np.eye(ws.K))
    except np.linalg.LinAlgError:
        evals, V = np.linalg.eigh(T)
        y = V @ ((V.T @ r) / (2.0 * np.maximum(np.abs(evals), SADDLE_FREE_FLOOR)))
        return -scale * (Z @ y), False
    return -scale * (Z @ (np.linalg.solve(T, r) / 2.0)), True


def _descend(ws: Workspace, c0: np.ndarray, p: float, cfg: OptimizerConfig):
    c = ws.normalize(c0, p)
    it = fallbacks = 0
    with np.errstate(over="ignore", invalid="ignore"):
        val, grad = ws.quotient_and_gradient(c, p)
        gnorm = float(norm2(grad))
        trace = [(0, val, gnorm)]
        while True:
            rel_gnorm = float(norm2(grad / (2.0 * ws.lam)) / norm2(c))
            if rel_gnorm <= cfg.tol_grad:
                reason = "tolerance"
                break
            direction, certified = _newton_step(ws, c, p, val, grad)
            slope = float(np.dot(grad, direction))
            # a decrease below the rounding of the quotient cannot be verified
            if -slope <= ROUNDING_FLOOR * abs(val):
                reason = "rounding_floor"
                break
            if it == cfg.max_iter:
                reason = "max_iter"
                break
            step, accepted = 1.0, False
            while step > 1e-18:
                cand = c + step * direction
                cand_norm = ws.p_norm(cand, p)
                if math.isfinite(cand_norm) and cand_norm > 0.0:
                    cand = cand / cand_norm
                    cand_val = ws.quotient(cand, p)
                    if cand_val <= val + 1e-4 * step * slope:
                        c, val = cand, cand_val
                        accepted = True
                        break
                step *= 0.5
            if not accepted:
                reason = "line_search_exhausted"
                break
            it += 1
            fallbacks += not certified
            grad = ws.quotient_and_gradient(c, p)[1]
            gnorm = float(norm2(grad))
            trace.append((it, val, gnorm))
    return c, val, gnorm, rel_gnorm, it, fallbacks, reason, trace


def _starts(cfg: OptimizerConfig, ws: Workspace) -> list[np.ndarray]:
    K = cfg.K
    out = [np.eye(K + 1)[0]]  # the constant
    for lam in (2.0, 4.0):
        vals = bubble_values(BubbleParams(lam=lam, params=cfg.params), ws.nodes)
        out.append(ws.basis.T @ (ws.weights * vals))
    k = np.arange(K + 1, dtype=float)
    for i in range(max(cfg.starts - len(out), 0)):
        rng = np.random.default_rng([cfg.seed, i])
        out.append(rng.standard_normal(K + 1) / (1.0 + k * k))
    return out[: cfg.starts]


def minimize(cfg: OptimizerConfig) -> MinimizationResult:
    """Best-of-multistart quotient minimization on the p-sphere.

    Starts at the constant, two bubble profiles, and damped random coefficient
    draws seeded per (seed, index).  Each start takes saddle-free Newton
    steps (see _newton_step), backtracks from the unit step with Armijo
    parameter 1e-4, shrink 0.5, and renormalizes every candidate to the
    p-sphere.  It stops at the relative gradient tolerance, at the rounding
    floor of its Newton decrement, when the line search finds no decrease, or
    at max_iter; the trace records the values the line search accepted.
    The reported start has the lowest value, and a later start displaces an
    earlier one only when lower by more than the rounding floor 16 eps |Q|,
    so a tie with the constant start reports the constant.
    Non-convergent starts are kept (flagged through `converged` and their stop
    reason), never hidden.
    """
    ws = Workspace.shared(cfg.params, cfg.K)
    best = None
    start_values, start_iters, start_fallback_steps, start_stop_reasons = [], [], [], []
    for c0 in _starts(cfg, ws):
        c, val, gnorm, rel_gnorm, iters, fallbacks, reason, trace = _descend(ws, c0, cfg.p, cfg)
        start_values.append(val)
        start_iters.append(iters)
        start_fallback_steps.append(fallbacks)
        start_stop_reasons.append(reason)
        # a later start must beat the best by more than the rounding floor, so
        # ties go to the earliest start, the constant
        if best is None or val < best[1] - ROUNDING_FLOOR * abs(best[1]):
            best = (c, val, gnorm, rel_gnorm, iters, reason, trace)
    c, val, gnorm, rel_gnorm, iters, reason, trace = best
    if c[0] < 0:
        c = -c  # report the nonnegative-mean representative
    u = ZonalFunction(cfg.params, c)
    return MinimizationResult(
        minimizer=u,
        value=val,
        grad_norm=gnorm,
        rel_grad_norm=rel_gnorm,
        iters=iters,
        distance_to_constant=u.distance_to_constant(),
        converged=reason in STOP_REASONS[:2],
        trace=trace,
        start_values=start_values,
        start_iters=start_iters,
        start_fallback_steps=start_fallback_steps,
        start_stop_reasons=start_stop_reasons,
    )
