"""Orthonormal zonal-harmonic calculus on the round unit sphere S^n.

A zonal (rotationally symmetric) function is stored as a coefficient vector
c_0..c_K in an L^2(S^n)-orthonormal basis of ultraspherical polynomials in
t = cos(theta).  The surface measure restricted to zonal functions is
|S^{n-1}| (1-t^2)^{(n-2)/2} dt on [-1, 1], so Gauss-Jacobi rules integrate
the basis exactly.  A Workspace holds plain arrays (nodes t, weights w, basis
B, spectrum lam); on it analysis is B^T(w v), synthesis B c, and every norm
and quadratic form diagonal or one product.  The rules are symmetric, so the
basis recurrence runs on the nodes t >= 0 and Y_k(-t) = (-1)^k Y_k(t) fills
in the rest, bit for bit.

The Gauss-Jacobi rules come from the same three-term recurrence as the
basis, whose Jacobi matrix has the nodes as eigenvalues and the Christoffel
numbers 1/sum_k p_k(t_i)^2 as weights (Golub & Welsch, Math. Comp. 23,
1969).  The nodes are found without that matrix: Gatteschi-Pittaluga
guesses polished by Newton steps on the recurrence (Hale & Townsend, SIAM
J. Sci. Comput. 35, 2013) with the Aberth-Ehrlich correction.  One pass of
the recurrence serves a whole rule: nodes that need more than its step are
finished by Newton on their Taylor series, whose terms the Jacobi
differential equation gives from the two values the pass holds, and their
Christoffel numbers follow by the exact Christoffel-Darboux change.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .closed_forms import SphereParams, gjms_lambda0, sharp_constant, sphere_area  # noqa: F401
from .closed_forms import in_double_range
from .errors import AliasingError, DomainError, InconsistencyError

#: Why a sharp-constant solve (minimize's starts, the dual ascent's trials)
#: stopped: the first two count as converged.
STOP_REASONS = ("tolerance", "rounding_floor", "line_search_exhausted", "max_iter")
#: A solve stops when its predicted change falls to this many units of
#: roundoff in the value it optimizes.
ROUNDING_FLOOR = 16.0 * np.finfo(float).eps


def default_rule_size(K: int) -> int:
    return 2 * K + 8


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes t_i in (-1, 1) and weights w_i > 0 integrating zonal functions on S^n.

    sum(w_i f(t_i)) equals the surface integral of f for polynomial f of degree
    up to 2*order - 1; in particular sum(w_i) = |S^n|.
    """

    n: int
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def order(self) -> int:
        return len(self.nodes)


def _jacobi_recurrence(alpha: float, beta: float, K: int) -> tuple[np.ndarray, np.ndarray]:
    # Recurrence t p_k = b_{k+1} p_{k+1} + a_k p_k + b_k p_{k-1} of the
    # polynomials orthonormal for (1-t)^alpha (1+t)^beta: returns a_0..a_{K-1}
    # and b_1..b_K.  Rescaling the measure leaves both unchanged.  For
    # alpha = beta and half-integer alpha every factor is an exact integer and
    # the second one is exactly 1, so b_k is bit for bit the ultraspherical
    # sqrt(k(k+2a)/((2k+2a+1)(2k+2a-1))).
    k = np.arange(1.0, K + 1.0)
    s = 2.0 * k + alpha + beta
    b2 = k * (k + alpha + beta) / ((s + 1.0) * (s - 1.0)) * (4.0 * (k + alpha) * (k + beta) / (s * s))
    a = np.zeros(K)
    if alpha != beta and K > 0:
        a[0] = (beta - alpha) / (alpha + beta + 2.0)
        a[1:] = (beta * beta - alpha * alpha) / (s[:-1] * (s[:-1] + 2.0))
    return a, np.sqrt(b2)


#: Active nodes per block of the Aberth sum.  A 64 x N block is 0.8 MB at
#: N = 1608, against 10 MB for the whole A x N matrix, and runs as fast as
#: that matrix from N = 72 to 1608; 8-row blocks pay numpy's per-call
#: overhead, 20% slower at N = 1608 and twice as slow at N = 408.
_ABERTH_BLOCK = 64


def _aberth_sums(xa: np.ndarray, active: np.ndarray, zeros: np.ndarray) -> np.ndarray:
    # sum_{j != i} 1/(x_i - z_j) for the active nodes x_i = zeros[active[i]],
    # built a block of rows at a time; each row is summed exactly as a row of
    # the full A x N matrix would be, so the sums do not depend on the block
    sums = np.empty(xa.size)
    for lo in range(0, xa.size, _ABERTH_BLOCK):
        hi = min(lo + _ABERTH_BLOCK, xa.size)
        diff = np.subtract(xa[lo:hi, None], zeros)
        diff[np.arange(hi - lo), active[lo:hi]] = np.inf
        np.divide(1.0, diff, out=diff)
        sums[lo:hi] = np.sum(diff, axis=1)
    return sums


#: Rules of fewer nodes take a second recurrence pass instead of the ODE
#: finish, which costs about 100 us of numpy calls whatever its size; a pass
#: costs about 1.7 us per degree (2 vCPU, numpy 2.4), so below about 72
#: nodes it is the cheaper one.
_FINISH_MIN_NODES = 72


def _half_gaps(x0: np.ndarray, zeros: np.ndarray) -> np.ndarray:
    # half the distance from each x0 (an entry of zeros) to the nearest other
    # entry or endpoint; 0 where x0 is repeated
    zs = np.concatenate(([-1.0], np.sort(zeros), [1.0]))
    i = np.searchsorted(zs, x0)
    return 0.5 * np.minimum(x0 - zs.take(i - 1, mode="clip"), zs.take(i + 1, mode="clip") - x0)


def _ode_finish(N, alpha, beta, x0, d0, e0, delta):
    # Newton on P(s) = q_N(x0 + r s) / (r q_N'(x0)), r = 2|delta|, from the
    # Aberth step s = -delta/r, on its Taylor series sum e_k s^k: e_1 = 1 and
    # the Jacobi equation gives (k+2)(k+1)(1-x0^2) c_{k+2} = ((2k+a+b+2) x0
    # - (b-a))(k+1) c_{k+1} + (k-N)(k+N+a+b+1) c_k for c_k = q_N^(k)(x0)/k!.
    # Terms stop once two in a row are below 1e-17 at |s| = 1 on every node
    # (at most 40), and Newton once every step is below 4 eps / r (at most 11
    # steps).  Returns the offsets h, the change (1-x^2) P'^2 - F(x0) /
    # q_N'(x0)^2 of F = (1-x^2)(q'^2 - q q'') + 2x q q' - N q^2
    # (Christoffel-Darboux: the Christoffel sum is F scale_N^2 / (2N+a+b+1),
    # and q = 0 at the end), and the mask of nodes that converged within
    # |delta|/4 of the Aberth step.
    ab, r = alpha + beta, 2.0 * np.abs(delta)
    v, den = r / d0, np.arange(2.0, 40.0)[:, None]  # den = k + 2
    lin = (2.0 + (ab - 2.0) / den) * (x0 * v)
    if beta != alpha:
        lin -= (beta - alpha) / den * v
    con = (den - (N + 2.0)) * (den + (N + ab - 1.0)) / ((den - 1.0) * den) * (r * v)
    C = np.zeros((2, 40, x0.size))  # the series of P and P'
    E, tmp = C[0], np.empty(x0.size)
    E[0], E[1] = e0 / r, 1.0
    for j, (a, c, e, e1, e2) in enumerate(zip(lin, con, E, E[1:], E[2:])):
        np.multiply(a, e1, out=e2)
        np.add(e2, np.multiply(c, e, out=tmp), out=e2)
        if j % 2 and np.abs(E[j + 1 : j + 3]).max() <= 1e-17:
            break
    T = j + 3
    C, V = C[:, :T], np.ones((T, x0.size))
    np.multiply(np.arange(1.0, T)[:, None], E[1:T], out=C[1, :-1])
    s, tol = -0.5 * np.sign(delta), 4.0 * np.finfo(float).eps / r
    converged = np.zeros(x0.size, dtype=bool)
    for it in range(12):  # the last evaluation gives P' at the final s
        V[1:] = s
        np.multiply.accumulate(V[1:], axis=0, out=V[1:])
        P, P1 = np.add.accumulate(C * V, axis=1)[:, -1]
        if converged.all() or it == 11:
            break
        step = P / P1
        s = s - step
        converged = np.abs(step) <= tol
    h = r * s
    change = (d0 - h * (2.0 * x0 + h)) * (P1 * P1) - d0 * (1.0 - 2.0 * E[0] * E[2])
    change -= r * E[0] * (2.0 * x0 - N * r * E[0])
    ok = converged & (np.abs(h + delta) <= 0.25 * np.abs(delta))
    if T == 40:  # the terms did not fall below 1e-17 on every node
        ok &= np.abs(E[38:]).max(axis=0) <= 1e-17
    return h, change, ok


@in_double_range
def gauss_jacobi(N: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """N-point Gauss rule for the weight (1-t)^alpha (1+t)^beta on [-1, 1].

    Returns ascending nodes and their weights; the weights sum to the total
    mass 2^(alpha+beta+1) Gamma(alpha+1) Gamma(beta+1) / Gamma(alpha+beta+2).
    Nodes start from the Gatteschi-Pittaluga asymptotics and take Newton
    steps on the orthonormal recurrence, with p_N' from the identity
    (1-t^2) p_N' = (N(alpha-beta)/(2N+alpha+beta) - N t) p_N
    + (2N+alpha+beta+1) b_N p_{N-1}; the Aberth-Ehrlich correction keeps
    every iterate on its own zero when the guesses are poor (large alpha or
    beta).  Only unconverged nodes are iterated, and for alpha = beta only
    the nonnegative half.  The weights are the Christoffel numbers
    1/sum_{k<N} p_k(t_i)^2, moved to the final node by the first-order
    Christoffel-Darboux term.

    One pass of the recurrence per rule: a node whose step is too long to
    stop on is finished without another pass (Glaser, Liu & Rokhlin, SIAM J.
    Sci. Comput. 29, 2007).  The Jacobi differential equation gives every
    Taylor coefficient of p_N about the iterate from p_N and p_N' there;
    Newton on that series from the Aberth step ends within 4 eps of the
    zero, and the Christoffel sum moves to it by the exact
    Christoffel-Darboux change (F(t) - F(t_0)) / (2N+alpha+beta+1), F =
    (1-t^2)(p'^2 - p p'') + 2t p p' - N p^2 for p = p_N, with 1-t^2 from
    the unrounded offset.  It
    runs once every long step is within 0.8 of half the gap to any other
    iterate or endpoint, and keeps a node that ends within a quarter of its
    step from the Aberth one; any other node takes another Aberth pass.
    Rules of fewer than 72 nodes take the second pass instead, which costs
    less there.  On 2 vCPU with one BLAS thread, the 1608-node rules of
    n = 5..13 take 9.6-11.0 ms, against 12.7-18.9 ms in two or three
    passes; nodes agree with scipy's roots_jacobi to 2.2e-16, and the
    weights with 30-digit Christoffel numbers at the true zeros to 1.5e-12
    at N = 1608 and 2.3e-13 at N <= 408.

    Memory: each pass writes the recurrence rows q_0..q_N of its A active
    nodes into one (N+1) x A view of a buffer allocated once, squares rows
    0..N-1 in place for the Christoffel sums, and builds the Aberth sums
    sum_j 1/(x_i - x_j) a block of 64 rows at a time, so no A x N matrix is
    formed.  Every product and sum runs in the same order and memory layout
    as with per-degree row arrays, a full Aberth matrix and a node-by-node
    finish, so nodes and weights are bit-identical to that form.
    """
    if int(N) != N or N < 1:
        raise DomainError(f"Gauss-Jacobi rule needs N >= 1 nodes, got N={N}")
    if not (alpha >= 0.0 and beta >= 0.0):
        raise DomainError(f"Gauss-Jacobi rule needs alpha, beta >= 0, got {alpha}, {beta}")
    N = int(N)
    ab = alpha + beta
    a, b = _jacobi_recurrence(alpha, beta, N)
    mass = 2.0 ** (ab + 1.0) * math.gamma(alpha + 1.0) / math.gamma(ab + 2.0) * math.gamma(beta + 1.0)
    sym = alpha == beta
    M = (N + 1) // 2 if sym else N
    rho = 2.0 * N + ab + 1.0
    theta = (2.0 * np.arange(1.0, M + 1.0) + alpha - 0.5) * (math.pi / rho)
    half = np.tan(0.5 * theta)
    x = np.cos(theta + ((0.25 - alpha * alpha) / half - (0.25 - beta * beta) * half) / rho**2)
    if sym and N % 2:
        x[-1] = 0.0
    # p_k = scale_k q_k with q_{k+1} = 2(t - a_k) q_k - 4 b_k^2 q_{k-1}: three
    # array operations per degree, and q stays O(1) because 2 b_k -> 1
    scale = np.cumprod(np.concatenate(([1.0 / math.sqrt(mass)], 0.5 / b)))
    two_a = (2.0 * a).tolist()
    four_b2 = (4.0 * b[:-1] ** 2).tolist()
    shift = N * (alpha - beta) / (2.0 * N + ab)
    c_prev = (2.0 * N + ab + 1.0) * b[-1] * scale[-2] / scale[-1]
    c_darboux = b[-1] * scale[-1] * scale[-2]
    c_finish = scale[-1] ** 2 / rho
    weights = np.empty(M)
    active = np.arange(M)
    # rows q_0..q_N of every pass, as one C-ordered (N+1) x A view at its start
    buf = np.empty((N + 1) * M)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(100):
            A = active.size
            xa = x[active]
            two_x = 2.0 * xa
            tmp = np.empty(A)
            rows = buf[: (N + 1) * A].reshape(N + 1, A)
            rows[0] = 1.0
            rows[1] = two_x - two_a[0] if two_a[0] else two_x
            views = list(rows)
            for nxt, cur, prev, ta, c in zip(views[2:], views[1:], views, two_a[1:], four_b2):
                np.multiply(two_x - ta if ta else two_x, cur, nxt)
                np.multiply(prev, c, tmp)
                np.subtract(nxt, tmp, nxt)
            # prev = p_{N-1} and cur = p_N in q units; p_N' from the identity,
            # p_N'' from the Jacobi differential equation
            prev, cur = rows[N - 1].copy(), rows[N]
            head = rows[:N]
            np.multiply(head, head, out=head)
            christoffel = scale[:-1] ** 2 @ head
            d = 1.0 - xa * xa
            dp = ((shift - N * xa) * cur + c_prev * prev) / d
            ddp = ((alpha - beta + (ab + 2.0) * xa) * dp - N * (N + ab + 1.0) * cur) / d
            # the iterates of this pass, kept apart from x for the half-gaps
            zeros = np.concatenate((x, -x[: N // 2])) if sym else x.copy()
            delta = cur / dp
            delta /= 1.0 - delta * _aberth_sums(xa, active, zeros)
            x[active] = xa - delta
            weights[active] = 1.0 / (christoffel - delta * c_darboux * prev * ddp)
            # a step below 1e-7 sqrt(1 - t^2) / N leaves second-order errors
            # near 1e-14 in the node and in its corrected weight; 4 eps is the
            # rounding floor of the step near the endpoints
            tol = np.maximum(1e-7 / N * np.sqrt(d), 4.0 * np.finfo(float).eps)
            far = ~(np.abs(delta) <= tol)
            i = np.flatnonzero(far)
            # once every long step stays well inside its half-gaps, finish
            # those nodes from the Jacobi ODE instead of taking another pass;
            # each moves by at most 1.25 |delta|, so no two reach one zero
            if (
                N >= _FINISH_MIN_NODES
                and i.size
                and (1.25 * np.abs(delta[i]) < _half_gaps(xa[i], zeros)).all()
            ):
                x0 = xa[i]
                d0 = (1.0 - x0) * (1.0 + x0)
                c1 = ((shift - N * x0) * cur[i] + c_prev * prev[i]) / d0
                h, change, ok = _ode_finish(N, alpha, beta, x0, d0, cur[i] / c1, delta[i])
                done = i[ok]
                x[active[done]] = (x0 + h)[ok]
                weights[active[done]] = 1.0 / (christoffel[i] + c_finish * c1 * c1 * change)[ok]
                far[done] = False
            active = active[far]
            if active.size == 0:
                break
        else:
            raise InconsistencyError(
                f"Gauss-Jacobi nodes did not converge for N={N}, alpha={alpha}, beta={beta}"
            )
    if sym:
        x = np.concatenate((-x[: N // 2], x))
        weights = np.concatenate((weights[: N // 2], weights))
    order = np.argsort(x)
    x, weights = x[order], weights[order]
    distinct = (np.diff(x) > 0.0).all() and -1.0 < x[0] and x[-1] < 1.0
    if not (distinct and (weights > 0.0).all() and np.isfinite(weights).all()):
        raise InconsistencyError(
            f"degenerate Gauss-Jacobi rule for N={N}, alpha={alpha}, beta={beta}"
        )
    return x, weights


def build_quadrature(n: int, Q: int) -> QuadratureRule:
    """Gauss-Jacobi rule for the zonal surface measure on S^n.

    Parameters
    ----------
    n : ambient sphere dimension, n >= 2.
    Q : node count, Q >= 4; exact for integrands of polynomial degree <= 2Q-1.
    """
    if n < 2:
        raise DomainError(f"quadrature needs n >= 2, got n={n}")
    if Q < 4:
        raise DomainError(f"quadrature needs Q >= 4, got Q={Q}")
    a = (n - 2) / 2.0
    nodes, weights = gauss_jacobi(Q, a, a)
    return QuadratureRule(n=n, nodes=nodes, weights=weights * sphere_area(n - 1))


def _recurrence_offdiag(n: int, K: int) -> np.ndarray:
    # Off-diagonal entries b_1..b_K of the symmetric Jacobi matrix for the
    # zonal measure: t q_k = b_{k+1} q_{k+1} + b_k q_{k-1} with q_k orthonormal.
    a = (n - 2) / 2.0
    return _jacobi_recurrence(a, a, K)[1]


def basis_values(n: int, K: int, t) -> np.ndarray:
    """Values of the orthonormal zonal harmonics Y_0..Y_K at cosines t.

    Returns an array of shape (len(t), K+1).  Y_k is the degree-k ultraspherical
    polynomial normalized so that its squared surface integral is 1; Y_0 is the
    constant |S^n|^(-1/2).  An infinite or NaN cosine is a DomainError; finite
    cosines outside [-1, 1] give the polynomials' values, or a DomainError
    where those overflow a double.
    """
    return _basis_tables(n, K, t, 1)[0]


@np.errstate(over="ignore", invalid="ignore")
def _basis_tables(n: int, K: int, t, count: int) -> list[np.ndarray]:
    # Y_k(t_i), then with count = 3 its first two t-derivatives, as C-ordered
    # (len(t), K+1) arrays, since BLAS rounds B @ c, B.T @ v and B.T diag(s) B
    # differently on an F-ordered B.  The recurrences fill contiguous rows k
    # of a (K+1) x m table, whose transpose is copied out.  On a symmetric t
    # (any Gauss rule) with normal doubles in the mirrored half, they run on
    # the m = Q - Q//2 nodes t >= 0, in the first half of each output for even
    # Q; the rest follows by parity, (-1)^k for Y_k and Y_k'', (-1)^(k+1) for
    # Y_k'.  Negation as 0 - x is exact and keeps +0, so no bit moves.  A
    # value past the double range stays inf or nan in every later row.
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.ndim > 1:
        raise DomainError("cosines t must be a scalar or a 1-D array")
    if not np.isfinite(t).all():
        raise DomainError("cosines t must be finite")
    if K < 0:
        raise DomainError("truncation degree must be >= 0")
    Q, half = t.size, t.size // 2
    if not (np.array_equal(t, -t[::-1]) and np.all(np.abs(t[:half]) >= np.finfo(float).tiny)):
        half = 0
    t, m = t[half:], Q - half
    outs = [np.empty((Q, K + 1)) for _ in range(count)]
    tables = [out[:m].reshape(K + 1, m) if half == m else np.empty((K + 1, m)) for out in outs]
    Y, tmp = tables[0], np.empty(m)
    Y[0] = 1.0 / math.sqrt(sphere_area(n))
    b = _recurrence_offdiag(n, K).tolist()
    if K >= 1:
        np.divide(np.multiply(t, Y[0], Y[1]), b[0], Y[1])
    for nxt, cur, prev, b_prev, b_k in zip(Y[2:], Y[1:], Y, b, b[1:]):
        np.multiply(t, cur, nxt)
        np.subtract(nxt, np.multiply(prev, b_prev, tmp), nxt)
        np.divide(nxt, b_k, nxt)
    if count == 3:
        _, D1, D2 = tables
        D1[0] = D2[:2] = 0.0
        if K >= 1:
            D1[1] = Y[0] / b[0]
        for k in range(1, K):
            D1[k + 1] = (Y[k] + t * D1[k] - b[k - 1] * D1[k - 1]) / b[k]
            D2[k + 1] = (2.0 * D1[k] + t * D2[k] - b[k - 1] * D2[k - 1]) / b[k]
    if not all(np.isfinite(table[-1]).all() for table in tables):
        raise DomainError("cosines t are too large: the zonal basis overflows a double")
    for out, table, odd in zip(outs, tables, (1, 0, 1)):  # first column of odd parity
        out[half:] = table.T
        if half:
            np.copyto(out[:half], out[m:][::-1])
            np.subtract(0.0, out[:half, odd::2], out=out[:half, odd::2])
    return outs


def basis_with_derivatives(n: int, K: int, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, first, and second t-derivatives of Y_0..Y_K at cosines t."""
    return tuple(_basis_tables(n, K, t, 3))


def zonal_basis(rule: QuadratureRule, params: SphereParams, K: int) -> np.ndarray:
    """Basis matrix B[i, k] = Y_k(t_i) at the rule's nodes; requires K < rule.order."""
    if rule.n != params.n:
        raise ValueError(f"rule is for n={rule.n}, params have n={params.n}")
    if K >= rule.order:
        raise AliasingError(
            f"truncation K={K} is not resolved by a {rule.order}-node rule; need K < Q"
        )
    return basis_values(params.n, K, rule.nodes)


def norm2(x: np.ndarray, axis: int | None = None):
    """2-norm of x, or of each slice along axis, without overflow or underflow.

    np.linalg.norm squares the entries: finite ones past about 1e154 give inf
    (and numpy's overflow warning, unless the caller ignores overflow), and
    a norm below 1e-150 has lost bits to subnormal or zero squares.  Only such
    finite, nonzero slices are divided by their largest magnitude and taken
    again, so every other norm keeps np.linalg.norm's bits.
    """
    r = np.linalg.norm(x, axis=axis)
    redo = np.isinf(r) | (r < 1e-150)
    if redo.any():
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            s = np.max(np.abs(x), axis=axis, keepdims=True, initial=0.0)
            top = np.squeeze(s, axis)
            redo &= np.isfinite(top) & (top > 0.0)
            return np.where(redo, top * np.linalg.norm(x / s, axis=axis), r)
    return r


@dataclass
class ZonalFunction:
    """Coefficients of a zonal function in the orthonormal basis.

    Parseval holds exactly: the squared L^2(S^n) norm is sum(coeffs**2).
    """

    params: SphereParams
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if not np.all(np.isfinite(c)):
            raise DomainError("zonal coefficients must be finite")
        self.coeffs = c

    @classmethod
    def _rows(cls, params: SphereParams, C: np.ndarray) -> list:
        """One function per row of a float stack C, checked finite once for the stack."""
        if not np.isfinite(C).all():
            raise DomainError("zonal coefficients must be finite")
        rows = []
        for c in C:
            u = cls.__new__(cls)
            u.params, u.coeffs = params, c
            rows.append(u)
        return rows

    @property
    def K(self) -> int:
        return len(self.coeffs) - 1

    def l2_norm(self) -> float:
        return float(norm2(self.coeffs))

    def mean(self) -> float:
        """Average value over the sphere."""
        return float(self.coeffs[0]) / math.sqrt(self.params.area)

    def evaluate(self, t) -> np.ndarray:
        """Pointwise values at finite cosines t via the stable recurrence."""
        return basis_values(self.params.n, self.K, t) @ self.coeffs

    def sup_bound(self) -> float:
        """Bound sum |c_k| Y_k(1) on sup |u|: for n >= 2, |Y_k(t)| <= Y_k(1) on [-1, 1]."""
        return float(np.abs(self.coeffs) @ basis_values(self.params.n, self.K, 1.0)[0])

    def distance_to_constant(self) -> float:
        """Relative L^2 distance from the mean, ||u - mean(u)|| / ||u||, in [0, 1]."""
        total = self.l2_norm()
        if total == 0.0:
            return 0.0
        return float(norm2(self.coeffs[1:]) / total)

    def to_dict(self) -> dict:
        return {
            "n": self.params.n,
            "m": self.params.m,
            "K": self.K,
            "coeffs": [float(c) for c in self.coeffs],
        }


@dataclass
class GjmsSpectrum:
    """Eigenvalues of the order-2m conformal operator on degree-k zonal harmonics."""

    params: SphereParams
    lam: np.ndarray


def gamma_ratio(params: SphereParams, K: int) -> np.ndarray:
    """Gamma(k+n/2+m) / Gamma(k+n/2-m) for k = 0..K.

    Evaluated as the rising factorial prod_{j=-m}^{m-1} (k+n/2+j), which costs
    2m roundings; a log-Gamma difference loses about 1e-12 relative by k = 800.
    closed_forms.gjms_lambda0 multiplies the k = 0 factors in the same order,
    so the two agree bit for bit.  For n > 2m every factor is at least 1/2, so
    the entries are positive and increase with k.
    """
    if K < 0:
        raise DomainError("truncation degree must be >= 0")
    x = np.arange(K + 1, dtype=float) + params.n / 2.0
    with np.errstate(over="ignore"):
        lam = np.prod([x + j for j in range(-params.m, params.m)], axis=0)
    if not math.isfinite(lam[-1]):  # the largest entry
        raise DomainError(f"Lambda_{K} overflows a double for n={params.n}, m={params.m}")
    return lam


def gjms_eigenvalues(params: SphereParams, K: int) -> GjmsSpectrum:
    """Spectrum of the order-2m conformal operator on degrees 0..K.

    Lambda_k = Gamma(k+n/2+m) / Gamma(k+n/2-m) (Beckner, Ann. Math. 138, 1993),
    evaluated by gamma_ratio.  The equivalent product over the conformally
    shifted Laplacian is the independent form of the verify row
    spectrum-cross-form.
    """
    return GjmsSpectrum(params=params, lam=gamma_ratio(params, K))


class Workspace:
    """Nodes, weights, basis and spectrum for one (n, m, K), built once and shared.

    Plain arrays: the Gauss-Jacobi `nodes` and `weights` (Q = 2K + 8 nodes
    unless given), the `basis` B[i, k] = Y_k(t_i) and the eigenvalues `lam`.
    Every solve, probe, quotient evaluation, bubble projection and verify row
    runs on one of these.  Production code takes its workspace from
    `Workspace.shared`, which builds each (n, m, K, Q) once per process;
    calling the constructor builds a fresh, writable one.
    """

    def __init__(self, params: SphereParams, K: int, Q: int | None = None):
        self.params = params
        self.K = K
        rule = build_quadrature(params.n, default_rule_size(K) if Q is None else Q)
        self.nodes, self.weights = rule.nodes, rule.weights
        self.basis = zonal_basis(rule, params, K)
        self.lam = gamma_ratio(params, K)

    @staticmethod
    def shared(params: SphereParams, K: int, Q: int | None = None) -> Workspace:
        """The process-wide workspace for (params, K, Q), built on first use.

        Q = None means default_rule_size(K), and integer-like K and Q (numpy
        integers) are turned into int, so every spelling of one rule hits
        one entry.  The cache is an LRU of at most 8 workspaces; a ninth key
        evicts the least recently used.  Its nodes, weights, basis and lam
        are read-only, so no caller can change what the next one reads.  An
        invalid K or Q raises what the constructor raises and leaves no
        entry.  `Workspace.shared.cache_clear()` empties the cache.
        """
        K = operator.index(K)
        Q = default_rule_size(K) if Q is None else operator.index(Q)
        return _shared_workspace(params, K, Q)

    def damped_draw(
        self, rng: np.random.Generator, scale: float = 1.0, rows: int | None = None
    ) -> np.ndarray:
        """Random coefficients scale * z_k / (1 + k^2), z standard normal, k = 0..K.

        rows = None draws one vector; an integer draws a (rows, K+1) stack in
        one call, row after row from the stream, so row 0 is the one-vector
        draw and the first rows do not depend on how many are drawn.
        """
        k = np.arange(self.K + 1, dtype=float)
        shape = self.K + 1 if rows is None else (rows, self.K + 1)
        return scale * rng.standard_normal(shape) / (1.0 + k * k)

    # c may be a stack of rows (see rowwise); np.float_power rounds as float ** does

    def p_norm(self, c: np.ndarray, p: float):
        """L^p(S^n) norm of coefficients c by quadrature, finite p >= 1; Parseval at p = 2."""
        if not (math.isfinite(p) and p >= 1):
            raise DomainError(f"need finite p >= 1, got p={p}")
        ip = rowdot(np.abs(rowwise(c, self.basis.T)) ** p, self.weights)
        return np.float_power(ip, 1.0 / p)

    def normalize(self, c: np.ndarray, p: float) -> np.ndarray:
        norm = self.p_norm(c, p)
        if not np.all((norm > 0.0) & np.isfinite(norm)):
            raise DomainError("cannot normalize the zero (or overflowing) function")
        return c / norm[..., None]

    def quotient(self, c: np.ndarray, p: float):
        return rowdot(c * c, self.lam) / np.float_power(self.p_norm(c, p), 2)

    def quotient_and_gradient(self, c: np.ndarray, p: float):
        vals = rowwise(c, self.basis.T)
        ip = rowdot(np.abs(vals) ** p, self.weights)
        den = np.float_power(ip, 2.0 / p)
        num = rowdot(c * c, self.lam)
        moment = rowwise(self.weights * np.abs(vals) ** (p - 2.0) * vals, self.basis)
        coef = 2.0 * num * np.float_power(ip, -1.0 - 2.0 / p)
        grad = 2.0 * self.lam * c / den[..., None] - coef[..., None] * moment
        return num / den, grad

    def weighted_gram(self, s: np.ndarray) -> np.ndarray:
        """B^T diag(w s) B for node values s, or one such matrix per row of a stack s."""
        return self.basis.T @ ((self.weights * s)[..., None] * self.basis)


def rowwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a vector a, or for each row of a stack a (b a matrix or a matching stack),
    each row in its own BLAS call: one gemm over the stack would round the rows otherwise."""
    return (a[..., None, :] @ b)[..., 0, :]


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of a with b (a vector or a matching stack), as np.dot."""
    return rowwise(a, b[..., None])[..., 0]


def backtrack(attempt, steps: np.ndarray, floor: float, *arrays: np.ndarray) -> np.ndarray:
    """One batched backtracking pass: the mask of rows that ran out of steps.

    Row i tries steps[i], steps[i]/2, ... while >= floor.  attempt(steps,
    *arrays) gets the rows still searching, as their steps and rows of each
    array, keeps the candidates it accepts and returns their mask.
    """
    rows, ran_out = np.arange(steps.size), np.zeros(steps.size, dtype=bool)
    smallest = np.min(steps, initial=np.inf)  # halves with steps; stale only on the low side
    while rows.size:
        if not smallest >= floor:  # a nan step is never tried
            leave = ~(steps >= floor)
            ran_out[rows[leave]] = True
            smallest = np.min(steps[~leave], initial=np.inf)
        else:
            leave = attempt(steps, *arrays)
            steps, smallest = 0.5 * steps, 0.5 * smallest
        if np.count_nonzero(leave):  # the cheapest any() on these short masks
            keep = ~leave
            rows, steps, arrays = rows[keep], steps[keep], [a[keep] for a in arrays]
    return ran_out


@functools.lru_cache(maxsize=8)
def _shared_workspace(params: SphereParams, K: int, Q: int) -> Workspace:
    ws = Workspace(params, K, Q)
    for array in (ws.nodes, ws.weights, ws.basis, ws.lam):
        array.flags.writeable = False
    return ws


Workspace.shared.cache_clear = _shared_workspace.cache_clear
Workspace.shared.cache_info = _shared_workspace.cache_info
