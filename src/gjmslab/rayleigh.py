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
full eigendecomposition.  All starts run in lockstep as one stack, each with
its own Cholesky test, and round as they would alone; each records its
steps, how many of them fell back, and its stop reason, from the vocabulary
spectral.STOP_REASONS that the dual ascent of kernels.hls_dual_ratio shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .closed_forms import SphereParams, gjms_lambda0, sharp_constant, sphere_area  # noqa: F401
from .conformal import bubble_values
from .errors import DomainError
from .spectral import ROUNDING_FLOOR, STOP_REASONS, Workspace, ZonalFunction
from .spectral import backtrack, norm2, rowdot, rowwise

#: Quotient gradients degenerate as p -> 2 (|u|^(p-2) loses smoothness at zeros),
#: and the admissible range is open anyway, so a small guard band is enforced.
MIN_EXPONENT_GAP = 1e-3

#: Floor on the absolute eigenvalues of the scaled tangent Hessian in the
#: saddle-free Newton step; the high modes sit at 1, so this caps the step
#: at 100 times the Newton step of a perfectly conditioned mode.
SADDLE_FREE_FLOOR = 1e-2


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


# np.linalg.cholesky raises for a whole stack; the private gufunc behind it
# gives a failed matrix nan.  Any numpy release may drop that name, so it is
# looked up once, and per-row np.linalg.cholesky calls stand in when it is gone
_CHOLESKY_LO = getattr(getattr(np.linalg, "_umath_linalg", None), "cholesky_lo", None)


def _cholesky_succeeds(L: np.ndarray) -> np.ndarray:
    """Whether a Cholesky factorization of each matrix of the stack L succeeds; L is overwritten."""
    if _CHOLESKY_LO is not None:
        with np.errstate(invalid="ignore"):
            return ~np.isnan(_CHOLESKY_LO(L, out=L)[:, -1, -1])
    ok = np.ones(len(L), dtype=bool)
    for i, a in enumerate(L):
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            ok[i] = False
    return ok


def _newton_step(ws: Workspace, X: np.ndarray, p: float, val: np.ndarray, grad: np.ndarray):
    """Saddle-free Newton steps on the p-sphere at the p-normalized rows of X.

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
    of T.  Each row of X is one iterate with its own Cholesky test; returns
    the steps and whether that test certified each.
    """
    V = rowwise(X, ws.basis.T)
    a = np.abs(V) ** (p - 2.0)
    moment = rowwise(ws.weights * a * V, ws.basis)
    scale = 1.0 / np.sqrt(ws.lam)
    # H = I - Q (p-1) Lambda^(-1/2) G Lambda^(-1/2) and Z = (I - b v v^T)[:, 1:] are
    # built in place, with the roundings of those expressions and fewer stacks alive
    H = ws.weighted_gram(a)
    H *= scale[:, None]
    H *= scale
    H *= -(val * (p - 1.0))[:, None, None]
    H += np.eye(ws.K + 1)
    v = scale * moment
    v[:, 0] += np.copysign(np.sqrt(rowdot(v, v)), v[:, 0])
    Z = v[:, :, None] * v[:, None, 1:]
    Z *= -(2.0 / rowdot(v, v))[:, None, None]
    Z += np.eye(ws.K + 1)[:, 1:]
    H = Z.transpose(0, 2, 1) @ H
    T = H @ Z  # Z^T H Z
    del H
    r = rowwise(scale * grad, Z)
    certified = _cholesky_succeeds(T - SADDLE_FREE_FLOOR * np.eye(ws.K))
    y = np.empty_like(r)
    y[certified] = np.linalg.solve(T[certified], r[certified][..., None])[..., 0] / 2.0
    evals, E = np.linalg.eigh(T[~certified])
    coords = rowwise(r[~certified], E) / (2.0 * np.maximum(np.abs(evals), SADDLE_FREE_FLOOR))
    y[~certified] = rowwise(coords, E.transpose(0, 2, 1))
    return -scale * rowwise(y, Z.transpose(0, 2, 1)), certified


def _descend(ws: Workspace, C0: np.ndarray, cfg: OptimizerConfig):
    """Saddle-free Newton from every row of C0 in lockstep, each rounded as alone.

    Returns per row: iterate, value, gradient norm, relative gradient norm,
    steps, fallback steps, stop reason and trace.
    """
    p = cfg.p

    def attempt(steps, rows, base, base_val, direction, slope, certified):
        # Armijo on the candidate renormalized to the p-sphere
        cand = base + steps[:, None] * direction
        norm = ws.p_norm(cand, p)
        cand = cand / norm[:, None]
        cand_val = ws.quotient(cand, p)
        ok = np.isfinite(norm) & (norm > 0.0) & (cand_val <= base_val + 1e-4 * steps * slope)
        X[rows[ok]], val[rows[ok]] = cand[ok], cand_val[ok]
        iters[rows[ok]] += 1
        fallbacks[rows[ok]] += ~certified[ok]
        return ok

    X = ws.normalize(C0, p)
    iters, fallbacks, rel = np.zeros(len(X), int), np.zeros(len(X), int), np.zeros(len(X))
    stop = np.full(len(X), -1)  # index into STOP_REASONS once a row stops
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        val, grad = ws.quotient_and_gradient(X, p)
        gnorm = norm2(grad, axis=1)
        traces = [[(0, float(v), float(g))] for v, g in zip(val, gnorm)]
        while True:
            act = np.flatnonzero(stop < 0)
            rel[act] = norm2(grad[act] / (2.0 * ws.lam), axis=1) / norm2(X[act], axis=1)
            stop[act[rel[act] <= cfg.tol_grad]] = 0
            act = act[stop[act] < 0]
            if not act.size:
                break
            direction, certified = _newton_step(ws, X[act], p, val[act], grad[act])
            slope = rowdot(grad[act], direction)
            # a decrease below the rounding of the quotient cannot be verified
            stop[act[-slope <= ROUNDING_FLOOR * np.abs(val[act])]] = 1
            stop[act[(stop[act] < 0) & (iters[act] == cfg.max_iter)]] = 3
            keep = stop[act] < 0
            act = act[keep]
            args = act, X[act], val[act], direction[keep], slope[keep], certified[keep]
            stop[act[backtrack(attempt, np.ones(act.size), 1e-18, *args)]] = 2
            act = act[stop[act] < 0]
            grad[act] = ws.quotient_and_gradient(X[act], p)[1]
            gnorm[act] = norm2(grad[act], axis=1)
            for i in act:
                traces[i].append((int(iters[i]), float(val[i]), float(gnorm[i])))
    reasons = [STOP_REASONS[code] for code in stop]
    return X, val, gnorm, rel, iters, fallbacks, reasons, traces


def _starts(cfg: OptimizerConfig, ws: Workspace) -> np.ndarray:
    out = [np.eye(cfg.K + 1)[0]]  # the constant
    for lam in (2.0, 4.0):
        out.append(ws.basis.T @ (ws.weights * bubble_values(cfg.params, lam, ws.nodes)))
    for i in range(max(cfg.starts - len(out), 0)):
        out.append(ws.damped_draw(np.random.default_rng([cfg.seed, i])))
    return np.array(out[: cfg.starts])


def minimize(cfg: OptimizerConfig) -> MinimizationResult:
    """Best-of-multistart quotient minimization on the p-sphere.

    Starts at the constant, two bubble profiles, and damped random coefficient
    draws seeded per (seed, index).  Each start takes saddle-free Newton
    steps (see _newton_step), backtracks from the unit step with Armijo
    parameter 1e-4, shrink 0.5, and renormalizes every candidate to the
    p-sphere.  It stops at the relative gradient tolerance, at the rounding
    floor of its Newton decrement, at max_iter, or when the line search finds
    no decrease, tested in that order; the trace records the values the line
    search accepted.  The starts run in lockstep: every pass is one batched
    Newton step and one batched line search over the starts still running.
    The reported start has the lowest value, and a later start displaces an
    earlier one only when lower by more than the rounding floor 16 eps |Q|,
    so a tie with the constant start reports the constant.
    Non-convergent starts are kept (flagged through `converged` and their stop
    reason), never hidden.
    """
    ws = Workspace.shared(cfg.params, cfg.K)
    X, vals, gnorms, rels, iters, fallbacks, reasons, traces = _descend(ws, _starts(cfg, ws), cfg)
    best = 0
    for i, val in enumerate(vals):
        # a later start must beat the best by more than the rounding floor, so
        # ties go to the earliest start, the constant
        if val < vals[best] - ROUNDING_FLOOR * abs(vals[best]):
            best = i
    c, val, reason = X[best], float(vals[best]), reasons[best]
    if c[0] < 0:
        c = -c  # report the nonnegative-mean representative
    u = ZonalFunction(cfg.params, c)
    return MinimizationResult(
        minimizer=u,
        value=val,
        grad_norm=float(gnorms[best]),
        rel_grad_norm=float(rels[best]),
        iters=int(iters[best]),
        distance_to_constant=u.distance_to_constant(),
        converged=reason in STOP_REASONS[:2],
        trace=traces[best],
        start_values=vals.tolist(),
        start_iters=iters.tolist(),
        start_fallback_steps=fallbacks.tolist(),
        start_stop_reasons=reasons,
    )
