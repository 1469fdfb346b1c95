"""Zonal Newton solver and verifiers for P u = f(u) on S^n with polynomial f.

Newton runs in coefficient space on a Workspace (basis B, weights w): the
residual is Lambda c - B^T(w f(B c)), the Jacobian diag(Lambda) minus the
quadrature-assembled multiplication operator f'(u).  A solve stops once the
Lambda-scaled residual is small relative to the iterate, ||res / Lambda|| <=
tol ||c||: Lambda magnifies the rounding in c, so an absolute stop is out of
reach on high orders.  Steps are damped on the dual energy norm
||Lambda^(-1/2) res|| (Deuflhard, Newton Methods for Nonlinear Problems,
2004), not on ||res||, which Lambda_K dominates.  One loop runs a stack of
iterates in lockstep: a probe's trials are one batch, a solve a batch of one.

f acts on the positive part u+ = max(u, 0).  The Green kernel of P is
positive, so the nonnegative solutions of P u = f(u) are exactly the
solutions of P u = f(u+); a solve of the latter cannot settle on a
sign-changing solution of an extension of f to negative values.  For
subcritical f the nonnegative solutions are constants; multistart probes
collect numerical evidence and archive anything that converges elsewhere.

The verifiers check the planar conclusions on pulled back profiles: monotone
decay, and nonnegativity of the intermediate iterated Laplacians.  Both are
signs of polynomials in t on the sphere, the derivative of the weighted
profile and conformal.iterated_laplacians, so each check covers all of R^n
through both poles t = 1 (r = 0) and t = -1 (r = infinity).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .conformal import iterated_laplacians
from .errors import DomainError
from .spectral import (
    SphereParams, Workspace, ZonalFunction, basis_with_derivatives, gjms_lambda0, norm2
)

CONSTANT_CLASS_TOL = 1e-7


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
        out = np.zeros_like(np.asarray(u, dtype=float))
        for a, p in self.terms:
            out += a * _term_power(u, p)
        return out

    def slope(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(np.asarray(u, dtype=float))
        for a, p in self.terms:
            out += a * _term_slope(u, p)
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


# f(c) overflows to inf, where g < 0, when c nears the top of the double range
@np.errstate(over="ignore")
def constant_solution(m: int, n: int, f: Nonlinearity) -> float | None:
    """Positive root of Lambda_0 c = f(c), the constant the solver should find.

    Returns 0.0 when f vanishes identically, None when no positive root exists
    (including the resonant all-linear cases); raises DomainError when the
    root lies past the double range.
    """
    lam0 = gjms_lambda0(m, n)
    if not f.terms:
        return 0.0
    linear = sum(a for a, p in f.terms if p == 1.0)
    if f.is_linear:
        return None  # either only c = 0, or a whole ray when linear == lam0

    def g(c):
        return lam0 * c - float(f(np.asarray([c]))[0])

    if linear >= lam0:
        return None  # g < 0 for all c > 0, superlinear terms only push further down
    lo = 1e-300  # the linear part dominates as c -> 0+, so g(lo) > 0
    hi = 1.0
    while not g(hi) < 0.0:  # not >= 0, so a nan g (inf - inf) keeps doubling
        hi *= 2.0
        if math.isinf(hi):
            raise DomainError("the positive root of Lambda_0 c = f(c) overflows a double")
    # g is concave with g(0) = 0, so Newton from hi, where g < 0, falls
    # monotonically onto the root; bisection keeps every iterate in (lo, hi)
    # against rounding
    c = hi
    for _ in range(200):
        gc = g(c)
        if gc == 0.0:
            return c
        if gc > 0.0:
            lo = c
        else:
            hi = c
        slope = lam0 - float(f.slope(np.asarray([c]))[0])
        nxt = c - gc / slope if slope < 0.0 else 0.5 * (lo + hi)
        if abs(nxt - c) <= 2.0 * np.finfo(float).eps * c:
            return c
        c = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    return c


STOP_REASONS = ("tolerance", "max_iter", "line_search_exhausted", "diverged")


@dataclass
class SolveResult:
    """One solve outcome.

    `residual` is the absolute ||Lambda c - B^T(w f(B c))||; `rel_residual` is
    ||res / Lambda|| / ||c||, the quantity the stop compares with tol.  `iters`
    counts accepted steps, `stop_reason` is one of STOP_REASONS,
    `negativity` is the most negative node value (0 if none), and `max_tau`
    the largest regularization tau an accepted step used (0 for plain Newton).
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

    def to_dict(self) -> dict:
        return {**vars(self), "solution": self.solution.to_dict()}


def _classify(u: ZonalFunction, diverged: bool) -> str:
    if diverged:
        return "diverged"
    return "constant" if u.distance_to_constant() <= CONSTANT_CLASS_TOL else "nonconstant"


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
    coefficient norm beyond 1e8 stop as "diverged"; after max_iter accepted
    steps the solve stops as "max_iter".  This is a batch of one on the loop
    that runs a probe's trials in lockstep.  The workspace (default:
    Workspace.shared(params, init.K)) must match init's (n, m, K).
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
    return _newton_batch(ws, f, init.coeffs[None, :], tol, max_iter)[0]


# a candidate that overflows has a non-finite merit, and no row accepts it
@np.errstate(over="ignore", invalid="ignore")
def _newton_batch(ws: Workspace, f: Nonlinearity, C: np.ndarray, tol: float, max_iter: int):
    """solve_newton in lockstep on the rows of C: one SolveResult per row.

    Each row keeps its own iterate, merit, iteration count, largest tau and
    stop reason.  Jacobians are assembled and solved one row at a time, so
    no (rows, K+1, K+1) stack is formed; each halving scale is one batched
    synthesis X B^T and analysis (w f(V)) B over the rows still searching.
    """
    B, w, lam = ws.basis, ws.weights, ws.lam
    root = np.sqrt(lam)

    def residuals(X):
        V = X @ B.T
        return X * lam - (w * f(V)) @ B, V

    def search(rows, tau):
        # the Newton steps of rows at tau, then one batched backtracking pass;
        # returns the rows no scale moved
        shifted, S = (1.0 + tau) * lam, np.empty((rows.size, lam.size))
        for j, (i, slope) in enumerate(zip(rows, f.slope(V[rows]))):
            J = np.negative(ws.weighted_gram(slope))
            J.ravel()[:: lam.size + 1] += shifted  # J + tau diag(Lambda)
            try:
                S[j] = np.linalg.solve(J, -R[i])
            except np.linalg.LinAlgError:
                S[j] = np.linalg.lstsq(J, -R[i], rcond=None)[0]
        finite = np.isfinite(S).all(axis=1)
        left, rows, S, scale = rows[~finite], rows[finite], S[finite], 1.0
        while rows.size and scale >= 1.0 / 1024.0:
            cand = C[rows] + scale * S
            cand_R, cand_V = residuals(cand)
            cand_merit = norm2(cand_R / root, axis=1)
            ok = cand_merit < merit[rows]  # never true for a nan or inf merit
            took = rows[ok]
            C[took], R[took], V[took], merit[took] = cand[ok], cand_R[ok], cand_V[ok], cand_merit[ok]
            max_tau[took] = np.maximum(max_tau[took], tau)
            rows, S, scale = rows[~ok], S[~ok], 0.5 * scale
        return np.concatenate((left, rows))

    C = C.copy()
    R, V = residuals(C)
    merit, cnorm = norm2(R / root, axis=1), norm2(C, axis=1)
    iters, max_tau = np.zeros(len(C), dtype=int), np.zeros(len(C))
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
        stop[moved & ~(cnorm <= 1e8)] = 3
    results = []
    for c, v, res, rel_i, it, code, tau in zip(C, V, norm2(R, axis=1), rel, iters, stop, max_tau):
        u, reason = ZonalFunction(ws.params, c), STOP_REASONS[code]
        results.append(
            SolveResult(
                solution=u,
                residual=float(res),
                rel_residual=float(rel_i),
                iters=int(it),
                stop_reason=reason,
                classification=_classify(u, reason == "diverged"),
                negativity=float(min(np.min(v), 0.0)),
                converged=reason == "tolerance",
                max_tau=float(tau),
            )
        )
    return results


@dataclass
class ProbeReport:
    """Aggregate of multistart Newton solves for one subcritical right-hand side.

    `stop_reasons` counts the trials by SolveResult.stop_reason, and
    `regularized` the trials that took a step with max_tau > 0.
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

    def to_dict(self) -> dict:
        return asdict(self)


def probe_start(workspace: Workspace, base: float, rng: np.random.Generator) -> ZonalFunction:
    """Positive random start: scaled constant plus damped modes.

    When the draw dips below 0.05 base at a node, the nonconstant part c[1:]
    is scaled down just enough that the minimum over the nodes is that floor.
    """
    params, K, B = workspace.params, workspace.K, workspace.basis
    k = np.arange(K + 1, dtype=float)
    c = base * 0.3 * rng.standard_normal(K + 1) / (1.0 + k * k)
    c[0] = base * rng.uniform(0.7, 2.0) * math.sqrt(params.area)
    mean, low = c[0] * B[0, 0], float(np.min(B @ c))  # Y_0 is constant
    floor = 0.05 * base
    if low < floor:
        c[1:] *= (mean - floor) / (mean - low)
    return ZonalFunction(params, c)


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

    Every converged outcome with nonnegative values is classified against the
    constant; anything nonconstant is archived with full coefficients.  For
    purely linear f the equation is diagonal and the report carries the kernel
    dimension instead of Newton runs.
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
    starts = np.array(
        [probe_start(ws, base, np.random.default_rng([seed, t])).coeffs for t in range(trials)]
    )
    for trial, result in enumerate(_newton_batch(ws, f, starts, tol, max_iter=60)):
        report.stop_reasons[result.stop_reason] += 1
        report.regularized += result.max_tau > 0.0
        if result.classification == "diverged":
            report.diverged += 1
            continue
        if not result.converged:
            report.nonconverged += 1
            continue
        report.converged += 1
        sol = result.solution
        scale = max(abs(float(np.max(np.abs(sol.coeffs)))), 1e-30)
        if result.negativity < -1e-8 * scale:
            report.negative += 1
            continue
        # measured against the problem scale, not the (possibly tiny) iterate
        if sol.l2_norm() <= 1e-8 * base * math.sqrt(params.area):
            report.zero += 1
            continue
        if result.classification == "constant" and c_star:
            rel = abs(sol.mean() - c_star) / c_star
            report.constant += 1
            report.max_constant_rel_err = max(report.max_constant_rel_err, rel)
        else:
            report.nonconstant += 1
            report.counterexamples.append(
                {
                    "trial": trial,
                    "residual": result.residual,
                    "distance_to_constant": sol.distance_to_constant(),
                    "coeffs": [float(v) for v in sol.coeffs],
                }
            )
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
