"""Zonal Newton solver and verifiers for P u = f(u) on S^n with polynomial f.

Newton runs in coefficient space on a Workspace (basis B, weights w): the
residual is Lambda c - B^T(w f(B c)), the Jacobian diag(Lambda) - G with
G = B^T diag(w f'(u)) B.  A solve stops once the Lambda-scaled residual is
small relative to the iterate, ||res / Lambda|| <= tol ||c||: Lambda magnifies
the rounding in c, so an absolute stop is out of reach on high orders.  Steps
are damped on the dual energy norm ||Lambda^(-1/2) res|| (Deuflhard, Newton
Methods for Nonlinear Problems, 2004), not on ||res||, which Lambda_K
dominates.  One loop runs a stack of iterates in lockstep: a probe's trials
are one batch, a solve a batch of one.  Every step solves the scaled system
(1+tau) I - D G D, D = Lambda^(-1/2), which is I minus a compact operator: a
batch of rows * (K+1)^2 < 4e4 by one LU solve of the stacked matrices, a
larger or singular one by MINRES in lockstep to a residual of 1e-12 ||D res||.
MINRES is preconditioned by the matrix at the constant c*, where f'(c*) is
constant and the Gauss rule makes B^T diag(w) B = I, so the system is the
diagonal (1+tau) - f'(c*) / Lambda exactly (Wathen, Acta Numerica 24, 2015,
on such spectrally equivalent preconditioners).  A probe is lockstep from
draw to tally: its starts are one stack, its results are classified and
counted with array operations.
Iterates are measured against the coefficient norm c* sqrt|S^n| of the
constant c*: past 1e8 times max(1, c* sqrt|S^n|) a row diverges, and within
tol times c* sqrt|S^n| (tol when there is no positive c*) of c = 0, an exact
solution, it is taken as that solution.

f acts on the positive part u+ = max(u, 0).  The Green kernel of P is
positive, so the nonnegative solutions of P u = f(u) are exactly the
solutions of P u = f(u+); a solve of the latter cannot settle on a
sign-changing solution of an extension of f to negative values.  For
subcritical f the nonnegative solutions are constants; multistart probes
collect numerical evidence and archive anything that converges elsewhere.
A probe scales each random start onto the Nehari manifold
<Pu, u> = int f(u+) u+, which holds every nontrivial solution and meets each
positive ray once because f(t)/t increases (Nehari, Trans. AMS 95, 1960), so
Newton starts at the right amplitude and keeps the start's shape.  That
point, like c* on the ray u = 1, is the root of a concave fibre map in the
per-term moments int (u+)^(p_i+1), which one monotone Newton finds for any f.

The verifiers check the planar conclusions on pulled back profiles: monotone
decay, and nonnegativity of the intermediate iterated Laplacians.  Both are
signs of polynomials in t on the sphere, the derivative of the weighted
profile and conformal.iterated_laplacians, so each check covers all of R^n
through both poles t = 1 (r = 0) and t = -1 (r = infinity).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .conformal import iterated_laplacians
from .errors import DomainError
from .spectral import SphereParams, Workspace, ZonalFunction, backtrack, basis_with_derivatives
from .spectral import gjms_lambda0, norm2, rowdot, rowwise

CONSTANT_CLASS_TOL = 1e-7
_DENSE_WORK_LIMIT = 4e4  # rows * (K+1)^2 below which a Newton batch is LU-solved
_PRECONDITIONER_FLOOR = 1e-3  # the least entry of the MINRES preconditioner


def _check_tolerance(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tolerance must be positive and finite, got {tol}")


def _term_power(u: np.ndarray, p: float) -> np.ndarray:
    # f acts on u+ = max(u, 0); integer exponents keep the exact integer power
    pos = np.maximum(u, 0.0)
    q = round(p)
    if abs(p - q) < 1e-12:
        return pos ** int(q)
    return pos**p


def _term_slope(u: np.ndarray, p: float) -> np.ndarray:
    pos = np.maximum(u, 0.0)
    q = round(p)
    if abs(p - q) < 1e-12:
        return np.where(u > 0.0, float(q) * pos ** (int(q) - 1), 0.0)
    return np.where(u > 0.0, p * pos ** (p - 1.0), 0.0)


@dataclass(frozen=True)
class Nonlinearity:
    """Right-hand side f(t) = sum a_i (t+)^(p_i) with a_i >= 0 and p_i >= 1 nondecreasing.

    f and its slope vanish where t <= 0.
    """

    terms: tuple
    classification: str

    @classmethod
    def from_terms(cls, terms, params: SphereParams) -> "Nonlinearity":
        clean = []
        for a, p in terms:
            a, p = float(a), float(p)
            if not (math.isfinite(a) and math.isfinite(p)):
                raise DomainError(f"coefficients and exponents must be finite, got {a}:{p}")
            if a < 0:
                raise DomainError(f"coefficients must be nonnegative, got {a}")
            if p < 1:
                raise DomainError(f"exponents must be >= 1, got {p}")
            if a > 0:
                clean.append((a, p))
        clean.sort(key=lambda t: t[1])
        p_crit = params.critical_equation_exponent
        if not clean:
            cls_name = "subcritical"
        else:
            p_max = clean[-1][1]
            if abs(p_max - p_crit) <= 1e-12:
                cls_name = "critical"
            elif p_max < p_crit:
                cls_name = "subcritical"
            else:
                cls_name = "supercritical"
        return cls(terms=tuple(clean), classification=cls_name)

    @classmethod
    def single_power(cls, a: float, p: float, params: SphereParams) -> "Nonlinearity":
        return cls.from_terms([(a, p)], params)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self._sum(u, _term_power, False)

    def slope(self, u: np.ndarray) -> np.ndarray:
        return self._sum(u, _term_slope, True)

    @np.errstate(over="ignore", invalid="ignore")
    def _sum(self, u, power, chain: bool) -> np.ndarray:
        # each term is a power(u, p) as written wherever that is finite and
        # nonzero.  Where power(u, p) overflows or underflows, a = m 2^e and
        # r = 2^round(e/p) give the term as b h(r u), b = m 2^(e - p log2 r),
        # h = (u+)^p, and its slope as b r h'(r u): the powers of two scale
        # exactly, so an integer p keeps the bits of the unscaled form
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        for a, p in self.terms:
            term = a * power(u, p)
            off = ~np.isfinite(term) | ((term == 0.0) & (u > 0.0))
            if off.any():
                m, e = math.frexp(a)
                k = round(e / p)
                b, r = m * 2.0 ** (e - k * p), 2.0**k
                term = np.where(off, (b * r if chain else b) * power(r * u, p), term)
            out += term
        return out

    @property
    def max_exponent(self) -> float:
        return self.terms[-1][1] if self.terms else 1.0

    @property
    def is_linear(self) -> bool:
        return bool(self.terms) and all(p == 1.0 for _, p in self.terms)

    def describe(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{a:g} t^{p:g}" for a, p in self.terms)


def constant_solution(m: int, n: int, f: Nonlinearity) -> float | None:
    """Positive root of Lambda_0 c = f(c), the constant the solver should find.

    Returns 0.0 when f vanishes identically, None when no positive root exists
    (including the resonant all-linear cases); raises DomainError when the
    root is above the largest or below the smallest normal double.  The root
    is the fibre root on the ray u = 1, where <Pu, u> = int f(u+) u+ reads
    Lambda_0 c = f(c) and every moment is 1.
    """
    lam0 = gjms_lambda0(m, n)
    if not f.terms:
        return 0.0
    linear = sum(a for a, p in f.terms if p == 1.0)
    if f.is_linear:
        return None  # either only c = 0, or a whole ray when linear == lam0
    if linear >= lam0:
        return None  # no root: superlinear terms only push lam0 c - f(c) further down
    return float(_fibre_roots(f, np.array([lam0]), np.ones((1, len(f.terms))))[0])


@np.errstate(over="ignore", divide="ignore")
def _fibre_roots(f: Nonlinearity, E: np.ndarray, M: np.ndarray) -> np.ndarray:
    """The positive root s of s E = sum_i a_i M_i s^(p_i) for each entry of E and row of M.

    M[r, i] = sum_j w_j (u_j+)^(p_i+1) and E = <Pc, c> for a ray c with node
    values u = B c put s c on the Nehari manifold (f(t)/t increasing).  Linear
    terms fold into E' = E - sum_{p_i=1} a_i M_i > 0; g(s) = s E' - sum a_i
    M_i s^(p_i) is concave, so Newton from the least root of one superlinear
    term alone, min_i (E' / (a_i M_i))^(1/(p_i-1)), falls monotonically onto
    the root.  Its step s (1 - h/g'), h = g/s, forms no s^(p_i).  Raises
    DomainError when a root lies past either end of the double range.
    """
    a, p = np.array(f.terms).T
    linear = p == 1.0
    E = E - (a[linear] * M[:, linear]).sum(axis=1)
    aM, q = a[~linear] * M[:, ~linear], p[~linear] - 1.0
    s = np.min((E[:, None] / aM) ** (1.0 / q), axis=1)
    if np.isinf(s).any():
        raise DomainError("the positive root of s <Pu, u> = int f(s u+) u+ overflows a double")
    while True:
        t = aM * s[:, None] ** q
        h = E - t.sum(axis=1)
        # g' = h - sum (p_i - 1) a_i M_i s^(p_i - 1) < 0 near and past the root
        step = s * (1.0 - h / (h - (q * t).sum(axis=1)))
        lower = step < s  # h > 0 below the root, so a step never lowers s there
        if not lower.any():
            break
        s = np.where(lower, step, s)
    if (s < np.finfo(float).tiny).any():
        raise DomainError(
            "the positive root of s <Pu, u> = int f(s u+) u+ is below the smallest normal double"
        )
    return s


STOP_REASONS = ("tolerance", "max_iter", "line_search_exhausted", "diverged")


@dataclass
class SolveResult:
    """One solve outcome.

    `residual` is the absolute ||Lambda c - B^T(w f(B c))||; `rel_residual` is
    ||res / Lambda|| / ||c||, the quantity the stop compares with tol.  `iters`
    counts accepted steps, `stop_reason` is one of STOP_REASONS,
    `negativity` is the most negative node value (0 if none), `max_tau`
    the largest regularization tau an accepted step used (0 for plain Newton),
    and `krylov_iters` the MINRES iterations of the accepted steps (0 if dense).
    """

    solution: ZonalFunction
    residual: float
    rel_residual: float
    iters: int
    stop_reason: str
    classification: str
    negativity: float
    converged: bool
    max_tau: float
    krylov_iters: int = 0

    def to_dict(self) -> dict:
        return {**vars(self), "solution": self.solution.to_dict()}


def _classify(C: np.ndarray, diverged: np.ndarray) -> list:
    """The class of each row of coefficients C, or of one coefficient vector."""
    total, rest = norm2(C, axis=-1), norm2(C[..., 1:], axis=-1)
    distance = np.divide(rest, total, out=np.zeros_like(total), where=total > 0.0)
    classes = np.where(distance <= CONSTANT_CLASS_TOL, "constant", "nonconstant")
    classes[total == 0.0] = "zero"  # f(0) = 0, so c = 0 solves every equation
    classes[diverged] = "diverged"
    return classes.tolist()


def solve_newton(
    m: int,
    n: int,
    f: Nonlinearity,
    init: ZonalFunction,
    tol: float = 1e-12,
    max_iter: int = 60,
    workspace: Workspace | None = None,
) -> SolveResult:
    """Newton iteration on spectral coefficients for P u = f(u), f acting on u+.

    The solve stops with reason "tolerance" once ||res / Lambda|| <= tol ||c||,
    a relative test, so one tol serves every (n, m, K) however large Lambda_K
    is.  Each step solves J + tau diag(Lambda) with tau = 0 first and halves
    the step from 1 down to 1/1024 until the merit ||Lambda^(-1/2) res||, the
    dual energy norm of the Euler-Lagrange equation of <Pu, u>/2 - int F(u+),
    drops; when no scale does, it retries at tau = 1e-8, 1e-4, 1e-2, 1 and
    100, and then stops with "line_search_exhausted".  Iterates with
    coefficient norm beyond 1e8 max(1, c* sqrt|S^n|), c* the constant
    solution (0 when there is none), stop as "diverged"; one within
    tol c* sqrt|S^n| of c = 0 (tol when c* is not positive) becomes exactly
    0.  After max_iter accepted steps the solve stops as "max_iter".  A batch
    of one on the probe's lockstep loop: its steps are LU solves up to K = 198,
    MINRES past it.  The workspace (default: Workspace.shared(params, init.K))
    must match init's (n, m, K).  Raises DomainError when c* lies past the
    double range, as constant_solution does.
    """
    _check_tolerance(tol)
    if max_iter < 0:
        raise DomainError(f"need max_iter >= 0, got {max_iter}")
    params = SphereParams(n=n, m=m)
    if init.params != params:
        raise ValueError("initial iterate carries different (n, m)")
    ws = workspace or Workspace.shared(params, init.K)
    if ws.params != params or ws.K != init.K:
        raise ValueError(f"workspace is for {ws.params}, K={ws.K}; init has K={init.K}")
    c_star = constant_solution(m, n, f)
    return _newton_batch(ws, f, init.coeffs[None, :], tol, max_iter, c_star)[0]


# a candidate that overflows has a non-finite merit, and no row accepts it
@np.errstate(over="ignore", invalid="ignore")
def _newton_batch(
    ws: Workspace, f: Nonlinearity, C: np.ndarray, tol: float, max_iter: int, c_star: float | None
):
    """solve_newton in lockstep on the rows of C: one SolveResult per row.

    c_star is constant_solution(m, n, f), which sets the problem scale.

    Each row keeps its own iterate, merit, counts, largest tau and stop
    reason.  A step is one LU solve of the (rows, K+1, K+1) stack of scaled
    Jacobians below _DENSE_WORK_LIMIT, else (or for a singular stack) one
    MINRES run preconditioned at c*; each halving scale is one batched
    synthesis X B^T and analysis (w f(V)) B over the rows still searching.
    Residuals, negativity and classes are computed for all rows at once.
    """
    B, w, lam = ws.basis, ws.weights, ws.lam
    root = np.sqrt(lam)
    # the scaled Newton system, D = Lambda^(-1/2): BD = B D, and -D G D = G / neg_outer
    BD, neg_outer = B / root, -np.outer(root, root)
    # the problem scale: the coefficient norm c* sqrt|S^n| of the constant;
    # the divergence bound takes it at least 1, the zero snap as it is
    scale = min((c_star or 0.0) * math.sqrt(ws.params.area), np.finfo(float).max)
    bound, near_zero = 1e8 * max(1.0, scale), tol * scale if scale > 0.0 else tol

    def residuals(X):
        V = X @ B.T
        return X * lam - (w * f(V)) @ B, V

    def search(rows, tau):
        # the Newton steps of rows at tau, then one batched backtracking pass;
        # returns the rows no scale moved
        slopes, b, Y = f.slope(V[rows]), -R[rows] / root, None
        if rows.size * lam.size**2 < _DENSE_WORK_LIMIT:
            A = ws.weighted_gram(slopes) / neg_outer
            A.reshape(rows.size, -1)[:, :: lam.size + 1] += 1.0 + tau  # (1+tau) I - D G D
            # a singular stack goes to MINRES, which solves a consistent one
            with contextlib.suppress(np.linalg.LinAlgError):
                Y, krylov = np.linalg.solve(A, b[..., None])[..., 0], np.zeros(rows.size, int)
        if Y is None:
            M = _preconditioner(lam, f, c_star, 1.0 + tau)
            Y, krylov = _minres(BD, w * slopes, 1.0 + tau, b, 2 * lam.size, precond=M)
        S = Y / root
        finite = np.isfinite(S).all(axis=1)
        left, rows, S, krylov = rows[~finite], rows[finite], S[finite], krylov[finite]

        def attempt(steps, rows, S, krylov):
            cand = C[rows] + steps[:, None] * S
            cand_R, cand_V = residuals(cand)
            cand_merit = norm2(cand_R / root, axis=1)
            ok = cand_merit < merit[rows]  # never true for a nan or inf merit
            took = rows[ok]
            C[took], R[took], V[took], merit[took] = cand[ok], cand_R[ok], cand_V[ok], cand_merit[ok]
            max_tau[took] = np.maximum(max_tau[took], tau)
            krylov_iters[took] += krylov[ok]
            return ok

        ran_out = backtrack(attempt, np.ones(rows.size), 1.0 / 1024.0, rows, S, krylov)
        return np.concatenate((left, rows[ran_out]))

    C = C.copy()
    R, V = residuals(C)
    merit, cnorm = norm2(R / root, axis=1), norm2(C, axis=1)
    (iters, krylov_iters), max_tau = np.zeros((2, len(C)), dtype=int), np.zeros(len(C))
    stop = np.full(len(C), -1)  # index into STOP_REASONS once a row stops
    while True:
        # f(0) = 0, so c = 0 is an exact solution with a zero residual
        rel = np.divide(norm2(R / lam, axis=1), cnorm, out=np.zeros(len(C)), where=cnorm > 0.0)
        stop[(stop < 0) & (rel <= tol)] = 0
        stop[(stop < 0) & (iters == max_iter)] = 1
        pending = np.flatnonzero(stop < 0)
        if not pending.size:
            break
        moved = stop < 0  # the active rows, less those that exhaust the ladder
        for tau in (0.0, 1e-8, 1e-4, 1e-2, 1.0, 1e2):
            if pending.size:
                pending = search(pending, tau)
        stop[pending] = 2
        moved &= stop < 0
        iters[moved] += 1
        cnorm[moved] = norm2(C[moved], axis=1)
        stop[moved & ~(cnorm <= bound)] = 3
        # f(0) = 0, so c = 0 solves every equation, but a test relative to ||c||
        # never accepts an iterate that tends to it: one within tol of it on the
        # problem scale is taken as that exact solution
        zero = moved & (cnorm <= near_zero)
        for a in (C, R, V, merit, cnorm):
            a[zero] = 0.0
    rows = zip(
        ZonalFunction._rows(ws.params, C), norm2(R, axis=1).tolist(), rel.tolist(),
        iters.tolist(), stop.tolist(), _classify(C, stop == 3),
        np.minimum(np.min(V, axis=1), 0.0).tolist(), max_tau.tolist(), krylov_iters.tolist(),
    )
    return [
        SolveResult(
            solution=u,
            residual=res,
            rel_residual=rel_i,
            iters=it,
            stop_reason=STOP_REASONS[code],
            classification=cls,
            negativity=neg,
            converged=code == 0,
            max_tau=tau,
            krylov_iters=kry,
        )
        for u, res, rel_i, it, code, cls, neg, tau, kry in rows
    ]


def _preconditioner(lam, f: Nonlinearity, c_star: float | None, shift: float):
    """The diagonal that shift I - D G D, D = Lambda^(-1/2), is exactly at u = c*.

    There f'(u) = f'(c*) is constant and the Gauss rule makes B^T diag(w) B
    = I, so the matrix is diag(shift - f'(c*) / Lambda).  Its magnitudes,
    floored at _PRECONDITIONER_FLOOR, are an SPD preconditioner for _minres;
    None (the identity) when there is no positive c*.
    """
    if not c_star:
        return None
    return np.maximum(np.abs(shift - f.slope(np.array(c_star)) / lam), _PRECONDITIONER_FLOOR)


def _minres(BD, S, shift, b, maxiter, rtol=1e-12, precond=None):
    """MINRES (Paige & Saunders, 1975) on (shift I - BD^T diag(s) BD) y = b in
    lockstep for each row s of S and row of b, BD a scaled basis: the y and
    iteration counts.

    precond, a positive diagonal M (None: the identity), enters split: the
    recurrence runs on M^(-1/2) A M^(-1/2) and M^(-1/2) b, the same iterates
    as Paige and Saunders' preconditioned form, with no extra product per
    iteration and every norm a norm2.  Its residual estimate phibar is then
    ||r||_(M^-1) >= ||r|| / sqrt(max M), so a row stops once phibar
    sqrt(max M) <= rtol ||b||, which holds the true residual to rtol ||b||;
    or at beta = 0 (an invariant Krylov space, as for a singular consistent
    system), or after maxiter iterations.  Only running rows enter the
    products.
    """
    Y, iters, beta = np.zeros_like(b), np.zeros(len(b), dtype=int), norm2(b, axis=1)
    idx = np.flatnonzero(beta > 0.0)  # y = 0 solves b = 0
    stop, split = rtol * beta[idx], 1.0
    if precond is not None:
        split = 1.0 / np.sqrt(precond)
        BD, shift, b = BD * split, shift * split**2, b * split
        stop *= np.min(split)  # 1 / sqrt(max M)
        beta = norm2(b, axis=1)
    S, r2, phibar = S[idx], b[idx], beta[idx]
    beta, it = phibar.copy(), 0
    x, r1, w, w2 = (np.zeros_like(r2) for _ in range(4))
    oldb, cs, sn, dbar, epsln = np.ones(idx.size), -np.ones(idx.size), *np.zeros((3, idx.size))
    while idx.size:
        it += 1
        # one Lanczos step: the next vector of the tridiagonal reduction
        v = r2 / beta[:, None]
        z = shift * v - (S * (v @ BD.T)) @ BD - (beta / oldb)[:, None] * r1
        alpha = rowdot(v, z)
        z -= (alpha / beta)[:, None] * r2
        r1, r2, oldb, beta = r2, z, beta, norm2(z, axis=1)
        # one plane rotation extends the QR factors of the tridiagonal matrix
        delta, gbar = cs * dbar + sn * alpha, sn * dbar - cs * alpha
        oldeps, epsln, dbar = epsln, sn * beta, -cs * beta
        gamma = np.maximum(np.hypot(gbar, beta), np.finfo(float).eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w, w2 = (v - oldeps[:, None] * w2 - delta[:, None] * w) / gamma[:, None], w
        x += phi[:, None] * w
        done = (phibar <= stop) | (beta == 0.0) | (it == maxiter)
        if np.count_nonzero(done):
            Y[idx[done]], iters[idx[done]] = x[done], it
            state = (idx, S, x, r1, r2, w, w2, beta, oldb, phibar, stop, cs, sn, dbar, epsln)
            idx, S, x, r1, r2, w, w2, beta, oldb, phibar, stop, cs, sn, dbar, epsln = (
                a[~done] for a in state
            )
    return Y * split, iters


@dataclass
class ProbeReport:
    """Aggregate of multistart Newton solves for one subcritical right-hand side.

    `stop_reasons` counts the trials by SolveResult.stop_reason,
    `regularized` the trials that took a step with max_tau > 0, and
    `median_nehari_scale` is the median factor that moved the random starts
    onto the Nehari manifold (None when the starts were not scaled).
    """

    m: int
    n: int
    nonlinearity: str
    trials: int
    constant_value: float | None
    converged: int = 0
    nonconverged: int = 0
    diverged: int = 0
    negative: int = 0
    zero: int = 0
    constant: int = 0
    nonconstant: int = 0
    max_constant_rel_err: float = 0.0
    fraction_constant: float = 0.0
    counterexamples: list = field(default_factory=list)
    kernel_dimension: int | None = None
    stop_reasons: dict = field(default_factory=lambda: dict.fromkeys(STOP_REASONS, 0))
    regularized: int = 0
    median_nehari_scale: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def probe_start(workspace: Workspace, base: float, rng: np.random.Generator) -> ZonalFunction:
    """Positive random start: scaled constant plus damped modes.

    When the draw dips below 0.05 base at a node, the nonconstant part c[1:]
    is scaled down just enough that the minimum over the nodes is that floor.
    The one-row case of the probe's stacked draw.
    """
    return ZonalFunction(workspace.params, _probe_starts(workspace, base, [rng])[0])


def _probe_starts(ws: Workspace, base: float, rngs) -> np.ndarray:
    # one probe_start row per generator: each draws its damped modes, then its
    # mean; the node minima come one row per BLAS call (spectral.rowwise), so
    # every row has the bits it has alone
    C = np.array([ws.damped_draw(rng, base * 0.3) for rng in rngs])
    C[:, 0] = base * np.array([rng.uniform(0.7, 2.0) for rng in rngs]) * math.sqrt(ws.params.area)
    mean, low = C[:, 0] * ws.basis[0, 0], np.min(rowwise(C, ws.basis.T), axis=1)  # Y_0 is constant
    floor = 0.05 * base
    dip = low < floor
    C[dip, 1:] *= ((mean - floor) / (mean - low))[dip, None]
    return C


def uniqueness_probe(
    m: int,
    n: int,
    f: Nonlinearity,
    trials: int,
    seed: int,
    K: int = 24,
    tol: float = 1e-12,
) -> ProbeReport:
    """Run `trials` seeded Newton solves from random positive starts on one workspace.

    Each start is a probe_start draw c, made for all trials as one stack
    with each trial's own generator, scaled to s c on the Nehari manifold
    s^2 <Pc, c> = int f(s u+) s u+, u = B c, by one root-finder call on the
    moments int (u+)^(p_i+1) of each term; a c* past either end of the double
    range is a DomainError.  Without a positive constant the draws stay as
    they are.  The trials run as one _newton_batch, and the tallies are
    array masks over its results: every converged outcome with nonnegative
    values is classified against the constant; anything nonconstant is
    archived with full coefficients.  For purely linear f the equation is
    diagonal and the report carries the kernel dimension instead of Newton
    runs.
    """
    _check_tolerance(tol)
    if trials < 1:
        raise DomainError("need at least one trial")
    params = SphereParams(n=n, m=m)
    p_crit = params.critical_equation_exponent
    if f.terms and f.max_exponent >= p_crit - 1e-12 and not f.is_linear:
        raise DomainError(
            f"probe requires subcritical growth: max exponent {f.max_exponent} "
            f">= critical {p_crit}"
        )
    c_star = constant_solution(m, n, f)
    report = ProbeReport(
        m=m, n=n, nonlinearity=f.describe(), trials=trials, constant_value=c_star
    )
    ws = Workspace.shared(params, K)
    if f.is_linear:
        a = sum(coef for coef, _ in f.terms)
        lam = ws.lam
        report.kernel_dimension = int(np.sum(np.abs(lam - a) <= 1e-9 * np.abs(lam)))
        report.trials = 0
        return report

    base = c_star if (c_star is not None and c_star > 0) else 1.0
    starts = _probe_starts(ws, base, [np.random.default_rng([seed, t]) for t in range(trials)])
    if c_star:  # f(t)/t increases, so each positive ray meets the Nehari manifold once
        rays = starts / base  # rows of order 1, so <Pc, c> and int (u+)^(p+1) stay in range
        U, w = rays @ ws.basis.T, ws.weights
        M = np.stack([(w * _term_power(U, p + 1.0)).sum(axis=1) for _, p in f.terms], axis=1)
        scale = _fibre_roots(f, rays**2 @ ws.lam, M) / base
        starts *= scale[:, None]
        report.median_nehari_scale = float(np.median(scale))
    results = _newton_batch(ws, f, starts, tol, 60, c_star)
    reasons = [r.stop_reason for r in results]
    report.stop_reasons = {reason: reasons.count(reason) for reason in STOP_REASONS}
    report.regularized = sum(r.max_tau > 0.0 for r in results)
    C = np.array([r.solution.coeffs for r in results])
    converged = np.array([r.converged for r in results])
    negativity = np.array([r.negativity for r in results])
    # negative nodes and the zero function, both against the problem scale
    negative = converged & (negativity < -1e-8 * np.maximum(np.max(np.abs(C), axis=1), 1e-30))
    zero = converged & ~negative & (norm2(C, axis=1) <= 1e-8 * base * math.sqrt(params.area))
    rest = converged & ~negative & ~zero
    constant = rest & bool(c_star) & np.array([r.classification == "constant" for r in results])
    rel = np.abs(C[constant, 0] / math.sqrt(params.area) - base) / base  # base = c* here
    report.negative, report.zero = int(np.count_nonzero(negative)), int(np.count_nonzero(zero))
    report.constant = int(np.count_nonzero(constant))
    report.max_constant_rel_err = float(np.max(rel, initial=0.0))
    for trial in np.flatnonzero(rest & ~constant).tolist():
        sol = results[trial].solution
        report.counterexamples.append(
            {
                "trial": trial,
                "residual": results[trial].residual,
                "distance_to_constant": sol.distance_to_constant(),
                "coeffs": [float(v) for v in sol.coeffs],
            }
        )
    report.nonconstant = len(report.counterexamples)
    report.converged, report.diverged = reasons.count("tolerance"), reasons.count("diverged")
    report.nonconverged = reasons.count("max_iter") + reasons.count("line_search_exhausted")
    pool = report.zero + report.constant + report.nonconstant
    report.fraction_constant = (
        (report.zero + report.constant) / pool if pool else 0.0
    )
    return report


@dataclass
class SuperPolyReport:
    """Signs on [-1, 1] of zonal functions whose nonnegativity certifies a planar claim.

    One entry per function: the minimum and the largest magnitude over the
    sample points; the report passes when every minimum >= -tolerance * scale.
    """

    passed: bool
    order_minima: list
    order_scales: list
    tolerance: float


def _sign_report(v: ZonalFunction, fns, rtol: float) -> SuperPolyReport:
    # 8(K+m)+1 Chebyshev-Lobatto points on [-1, 1], both poles included: about
    # eight per degree of the highest-degree function the verifiers sample
    N = 8 * (v.K + v.params.m)
    t = np.cos(np.pi * np.arange(N + 1) / N)
    minima, scales = [], []
    for fn in fns:
        values = fn(t)
        minima.append(float(np.min(values)))
        scales.append(max(float(np.max(np.abs(values))), 1e-300))
    passed = all(low >= -rtol * scale for low, scale in zip(minima, scales))
    return SuperPolyReport(passed, minima, scales, rtol)


def verify_symmetry_monotonicity(v: ZonalFunction, rtol: float = 1e-6) -> SuperPolyReport:
    """Check that the pullback u of v to R^n is nonincreasing in r = |x|.

    u(r) = (1+t)^e v(t) with e = n/2 - m, and t decreases in r, so
    du/dt = (1+t)^(e-1) h with h = e v + (1+t) v' a polynomial of degree K.
    u is nonincreasing on all of R^n, r = infinity included, exactly when
    h >= 0 on [-1, 1]; the check is min h >= -rtol max |h| at the points
    verify_super_polyharmonic samples.
    """
    n, m, K = v.params.n, v.params.m, v.K
    e = n / 2.0 - m

    def h(t):
        B, D1, _ = basis_with_derivatives(n, K, t)
        return e * (B @ v.coeffs) + (1.0 + t) * (D1 @ v.coeffs)

    return _sign_report(v, [h], rtol)


def verify_super_polyharmonic(v: ZonalFunction, rtol: float = 1e-6) -> SuperPolyReport:
    """Check (-Delta)^i u >= -rtol * scale_i for i = 1..m-1, u the pullback of v.

    (-Delta)^i u has the sign of w_i from iterated_laplacians, so each order
    passes when min w_i >= -rtol max |w_i| over 8(K+m)+1 Chebyshev-Lobatto
    points on [-1, 1], both poles included: about eight per degree of w_i.
    Vacuous for m = 1.  The rounding limit stated in iterated_laplacians
    applies.
    """
    return _sign_report(v, [w.evaluate for w in iterated_laplacians(v)], rtol)
