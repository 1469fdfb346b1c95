"""Orthonormal zonal-harmonic calculus on the round unit sphere S^n.

A zonal (rotationally symmetric) function is stored as a coefficient vector
c_0..c_K in an L^2(S^n)-orthonormal basis of ultraspherical polynomials in
t = cos(theta).  The surface measure restricted to zonal functions is
|S^{n-1}| (1-t^2)^{(n-2)/2} dt on [-1, 1].  A Workspace holds plain arrays
(nodes t, weights w, basis B, spectrum lam); on it analysis is B^T(w v),
synthesis B c, and every norm and quadratic form diagonal or one product.
The rules are symmetric, so the basis recurrence runs on the nodes t >= 0
and Y_k(-t) = (-1)^k Y_k(t) fills in the rest, bit for bit.

No rule needs a general Gauss-Jacobi solve.  For odd n the zonal weight is
the Chebyshev-U weight sqrt(1-t^2) times the polynomial (1-t^2)^{(n-3)/2},
so the Gauss-Chebyshev rule of the second kind with (n-3)/2 more nodes
integrates the basis exactly, and it is a closed form.  For even n it is
the Legendre weight times (1-t^2)^{(n-2)/2}: a Gauss-Legendre rule with
(n-2)/2 more nodes, its weights times that polynomial.  Gauss-Legendre
nodes are Gatteschi-Pittaluga guesses polished by Newton steps on the
basis's own three-term recurrence (Hale & Townsend, SIAM J. Sci. Comput.
35, 2013), with the Christoffel numbers 1/sum_k p_k(t_i)^2 as weights.  One
pass of the recurrence serves a whole rule, and builds its Christoffel sums
a block of rows at a time: nodes that need more than its step are finished
by Newton on their Taylor series, whose terms the Legendre differential
equation gives from the two values the pass holds (Glaser, Liu & Rokhlin,
SIAM J. Sci. Comput. 29, 2007), and their Christoffel numbers follow by the
exact Christoffel-Darboux change.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .closed_forms import SphereParams, gjms_lambda0, sharp_constant, sphere_area  # noqa: F401
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
    up to 2*order - 1; in particular sum(w_i) = |S^n|.  The node count is
    len(nodes): at least order, less the pairs build_quadrature drops where
    their weights underflow at large n.
    """

    n: int
    nodes: np.ndarray
    weights: np.ndarray
    order: int


def _recurrence_offdiag(n: int, K: int) -> np.ndarray:
    # Off-diagonal entries b_1..b_K of the symmetric Jacobi matrix for the
    # zonal measure: t q_k = b_{k+1} q_{k+1} + b_k q_{k-1} with q_k orthonormal,
    # b_k = sqrt(k(k+2a) / ((2k+2a+1)(2k+2a-1))) for a = (n-2)/2.  Every
    # factor is an exact integer.  n = 2 gives the Legendre recurrence.
    k = np.arange(1.0, K + 1.0)
    s = 2.0 * k + (n - 2.0)
    return np.sqrt(k * (k + (n - 2.0)) / ((s + 1.0) * (s - 1.0)))


#: Recurrence rows per block of the Christoffel sums.  A pass holds one
#: block and the two rows before it: 130 rows of 804 nodes are 0.8 MB at
#: N = 1608, squared in place and summed by one gemv while they are still in
#: L2, against 10 MB for all N + 1 rows.
_ROW_BLOCK = 128


def _christoffel_pass(xa, four_b2, s2, buf):
    # One pass of q_{k+1} = 2 x q_k - 4 b_k^2 q_{k-1} from q_0 = 1 over the
    # nodes xa, three array operations per degree.  Row j of a C-ordered
    # (_ROW_BLOCK + 2) x A view of buf (N + 1 rows if fewer) holds degree
    # lo + j; once it is full, rows 0.._ROW_BLOCK-1 are squared in place and
    # added to the Christoffel sums sum_{k<N} s2_k q_k^2 by one gemv, and the
    # last two rows move to the front.  Returns the sums, q_{N-1} and q_N.
    N, A = len(s2), xa.size
    two_x = 2.0 * xa
    tmp = np.empty(A)
    rows = buf[: min(N + 1, _ROW_BLOCK + 2) * A].reshape(-1, A)
    views = list(rows)
    rows[0] = 1.0
    rows[1] = two_x
    christoffel, lo = 0.0, 0
    while True:
        top = min(_ROW_BLOCK + 1, N - lo)  # the row of the last degree in this block
        for nxt, cur, prev, c in zip(views[2 : top + 1], views[1:top], views, four_b2[lo:]):
            np.multiply(two_x, cur, nxt)
            np.multiply(prev, c, tmp)
            np.subtract(nxt, tmp, nxt)
        if lo + top == N:
            break
        head = rows[:_ROW_BLOCK]
        np.multiply(head, head, out=head)
        christoffel = christoffel + s2[lo : lo + _ROW_BLOCK] @ head
        rows[:2] = rows[_ROW_BLOCK:]
        lo += _ROW_BLOCK
    prev, cur = rows[top - 1].copy(), rows[top]
    head = rows[:top]
    np.multiply(head, head, out=head)
    return christoffel + s2[lo:] @ head, prev, cur


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


def _finishable(delta, far, xa, zeros) -> bool:
    # every long step is within 0.8 of the half-gaps of its iterate
    return (1.25 * np.abs(delta[far]) < _half_gaps(xa[far], zeros)).all()


def _ode_finish(N, x0, d0, e0, delta):
    # Newton on P(s) = q_N(x0 + r s) / (r q_N'(x0)), r = 2|delta|, from the
    # pass's step s = -delta/r, on its Taylor series sum e_k s^k: e_1 = 1 and
    # the Legendre equation gives (k+2)(k+1)(1-x0^2) c_{k+2} = 2(k+1)^2 x0
    # c_{k+1} + (k-N)(k+N+1) c_k for c_k = q_N^(k)(x0)/k!.  Terms stop once
    # two in a row are below 1e-17 at |s| = 1 on every node (at most 40), and
    # Newton once every step is below 4 eps / r (at most 11 steps), with P
    # and P' summed term by term over the outer axis of one (T, 2, F) stack.
    # Returns the offsets h, the change (1-x^2) P'^2 - F(x0) / q_N'(x0)^2 of
    # F = (1-x^2)(q'^2 - q q'') + 2x q q' - N q^2 (Christoffel-Darboux: the
    # Christoffel sum is F scale_N^2 / (2N+1), and q = 0 at the end), and the
    # mask of nodes that converged within |delta|/4 of the pass's step.
    r = 2.0 * np.abs(delta)
    v, den = r / d0, np.arange(2.0, 40.0)[:, None]  # den = k + 2
    lin = (2.0 - 2.0 / den) * (x0 * v)
    con = (den - (N + 2.0)) * (den + (N - 1.0)) / ((den - 1.0) * den) * (r * v)
    C = np.zeros((40, 2, x0.size))  # the series of P and P', term by term
    E, tmp = C[:, 0], np.empty(x0.size)
    E[0], E[1] = e0 / r, 1.0
    for j, (a, c, e, e1, e2) in enumerate(zip(lin, con, E, E[1:], E[2:])):
        np.multiply(a, e1, out=e2)
        np.add(e2, np.multiply(c, e, out=tmp), out=e2)
        if j % 2 and np.abs(E[j + 1 : j + 3]).max() <= 1e-17:
            break
    T = j + 3
    C, V = C[:T], np.ones((T, 1, x0.size))
    np.multiply(np.arange(1.0, T)[:, None], E[1:T], out=C[:-1, 1])
    s, tol = -0.5 * np.sign(delta), 4.0 * np.finfo(float).eps / r
    converged = np.zeros(x0.size, dtype=bool)
    for it in range(12):  # the last evaluation gives P' at the final s
        V[1:] = s
        np.multiply.accumulate(V[1:], axis=0, out=V[1:])
        P, P1 = np.add.reduce(C * V, axis=0)
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


def _legendre_half(N: int) -> tuple[np.ndarray, np.ndarray]:
    # the nodes t >= 0 of the N-point Gauss-Legendre rule, ascending (t[0] = 0
    # for odd N), and their weights; see gauss_legendre
    if int(N) != N or N < 1:
        raise DomainError(f"Gauss-Legendre rule needs N >= 1 nodes, got N={N}")
    N = int(N)
    b = _recurrence_offdiag(2, N)
    M = (N + 1) // 2
    rho = 2.0 * N + 1.0
    theta = (2.0 * np.arange(1.0, M + 1.0) - 0.5) * (math.pi / rho)
    half = np.tan(0.5 * theta)
    x = np.cos(theta + (0.25 / half - 0.25 * half) / rho**2)
    if N % 2:
        x[-1] = 0.0
    # p_k = scale_k q_k with q_{k+1} = 2t q_k - 4 b_k^2 q_{k-1}: three array
    # operations per degree, and q stays O(1) because 2 b_k -> 1.  The
    # squares s2_k = scale_k^2 = (1/2) prod_{j<=k} (1 - 1/(4j^2)) take one
    # rounded factor per degree, within 2e-15 of exact at k = 1600 where the
    # product of the rounded 0.5/b_j drifts 6e-15
    k = np.arange(1.0, N + 1.0)
    s2 = 0.5 * np.cumprod(np.concatenate(([1.0], 1.0 - 0.25 / (k * k))))
    four_b2 = (4.0 * b[:-1] ** 2).tolist()
    c_prev = 2.0 * rho * b[-1] ** 2  # (2N+1) b_N scale_{N-1} / scale_N
    c_darboux = b[-1] * math.sqrt(s2[-1] * s2[-2])
    c_finish = s2[-1] / rho
    s2 = s2[:-1]
    weights = np.empty(M)
    active = np.arange(M)
    buf = np.empty(min(N + 1, _ROW_BLOCK + 2) * M)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(100):
            xa = x[active]
            christoffel, prev, cur = _christoffel_pass(xa, four_b2, s2, buf)
            # p_N' from (1-t^2) p_N' = (2N+1) b_N p_{N-1} - N t p_N, p_N'' from
            # the Legendre differential equation
            d = 1.0 - xa * xa
            dp = (c_prev * prev - N * xa * cur) / d
            ddp = (2.0 * xa * dp - N * (N + 1.0) * cur) / d
            # a step below 1e-7 sqrt(1 - t^2) / N leaves second-order errors
            # near 1e-14 in the node and in its corrected weight; 4 eps is the
            # rounding floor of the step near the endpoints
            tol = np.maximum(1e-7 / N * np.sqrt(d), 4.0 * np.finfo(float).eps)
            delta = cur / dp
            far = ~(np.abs(delta) <= tol)
            # the Legendre ODE finishes the long steps if each stays well
            # inside the half-gaps of this pass's iterates, so that each moves
            # by at most 1.25 |delta| and no two reach one zero
            zeros = np.concatenate((x, -x[: N // 2]))
            finish = N >= _FINISH_MIN_NODES and _finishable(delta, far, xa, zeros)
            x[active] = xa - delta
            weights[active] = 1.0 / (christoffel - delta * c_darboux * prev * ddp)
            i = np.flatnonzero(far)
            if finish and i.size:
                x0 = xa[i]
                d0 = (1.0 - x0) * (1.0 + x0)
                c1 = (c_prev * prev[i] - N * x0 * cur[i]) / d0
                h, change, ok = _ode_finish(N, x0, d0, cur[i] / c1, delta[i])
                done = i[ok]
                x[active[done]] = (x0 + h)[ok]
                weights[active[done]] = 1.0 / (christoffel[i] + c_finish * c1 * c1 * change)[ok]
                far[done] = False
            active = active[far]
            if active.size == 0:
                break
        else:
            raise InconsistencyError(f"Gauss-Legendre nodes did not converge for N={N}")
    x, weights = x[::-1], weights[::-1]
    distinct = (np.diff(x) > 0.0).all() and x[-1] < 1.0 and (x[0] == 0.0 if N % 2 else x[0] > 0.0)
    if not (distinct and (weights > 0.0).all() and np.isfinite(weights).all()):
        raise InconsistencyError(f"degenerate Gauss-Legendre rule for N={N}")
    return x, weights


def _mirrored(t: np.ndarray, w: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    # the symmetric rule from its nodes t >= 0, ascending, and their weights;
    # an odd N has its middle node at t[0] = 0
    k = t.size - N % 2
    return np.concatenate((-t[::-1][:k], t)), np.concatenate((w[::-1][:k], w))


def gauss_legendre(N: int) -> tuple[np.ndarray, np.ndarray]:
    """N-point Gauss-Legendre rule on [-1, 1]: ascending nodes, weights summing to 2.

    The nodes t >= 0 start from the Gatteschi-Pittaluga asymptotics and take
    plain Newton steps on the orthonormal recurrence, with p_N' from
    (1-t^2) p_N' = (2N+1) b_N p_{N-1} - N t p_N; the rest follow by
    symmetry.  The weights are the Christoffel numbers 1/sum_{k<N} p_k(t_i)^2,
    moved to the final node by the first-order Christoffel-Darboux term.

    One pass of the recurrence per rule of 72 nodes or more: when every step
    too long to stop on is within 0.8 of half the gap to any other iterate
    or endpoint, the pass finishes those nodes without another one.  The
    Legendre equation gives every Taylor coefficient of p_N about the
    iterate from p_N and p_N' there; Newton on that series from the step
    ends within 4 eps of the zero, and the Christoffel sum moves to it by
    the exact Christoffel-Darboux change (F(t) - F(t_0)) / (2N+1),
    F = (1-t^2)(p'^2 - p p'') + 2t p p' - N p^2 for p = p_N, with 1-t^2 from
    the unrounded offset.  A node that does not end within a quarter of its
    step takes another pass, as does every node of a smaller rule.  Nodes
    agree with scipy's roots_legendre to 2.2e-16.  The scales of the
    orthonormal p_k come squared from (1/2) prod_{j<=k} (1 - 1/(4j^2)), one
    rounding per degree, so the weights sum to 2 within a few ulps; the
    outermost weights of a 1610-node rule read up to 7e-13 from 30-digit
    Christoffel numbers at the true zeros, the interior ones about 5e-15.

    Memory: a pass writes the recurrence rows q_k of its A active nodes
    into a (128 + 2) x A view of one buffer allocated per rule; each full
    block of 128 rows is squared in place and added to the Christoffel sums
    by one gemv while it is in L2, and its last two rows carry the
    recurrence into the next block, so no (N+1) x A matrix is formed.
    """
    x, w = _legendre_half(N)
    return _mirrored(x, w, int(N))


def build_quadrature(n: int, Q: int) -> QuadratureRule:
    """Gauss rule of order Q for the zonal surface measure on S^n.

    The rule integrates zonal polynomials of degree up to 2Q-1 exactly.  The
    zonal weight (1-t^2)^((n-2)/2) is a classical weight times a polynomial,
    which a few more nodes absorb; N is the least even count that does, so
    the nodes pair off as t and -t and the basis runs on the half t > 0:

    - odd n: the Chebyshev-U weight sqrt(1-t^2) times (1-t^2)^((n-3)/2), and
      N >= Q + (n-3)/2.  The Gauss-Chebyshev rule of the second kind is a
      closed form: t_j = cos(theta_j), theta_j = j pi / (N+1), with weights
      pi / (N+1) sin^(n-1)(theta_j) |S^(n-1)|; no recurrence, no iteration.
    - even n: the Legendre weight times (1-t^2)^((n-2)/2), and
      N >= Q + (n-2)/2.  The Gauss-Legendre rule (gauss_legendre), its
      weights times (1-t_j^2)^((n-2)/2) |S^(n-1)|.

    At large n the outermost weights underflow to 0.  Those nodes are
    dropped, in pairs, so N stays even and a sum over the rule does not
    change: each dropped weight is below the smallest subnormal double, so
    the rule's error grows by less than 5e-324 |f(t_j)| per dropped node.

    Parameters
    ----------
    n : ambient sphere dimension, n >= 2.
    Q : the order, Q >= 4; exact for integrands of polynomial degree <= 2Q-1.
    """
    if int(n) != n or n < 2:
        raise DomainError(f"quadrature needs an integer n >= 2, got n={n}")
    if int(Q) != Q or Q < 4:
        raise DomainError(f"quadrature needs an integer Q >= 4, got Q={Q}")
    n, Q = int(n), int(Q)
    N = Q + (n - 2) // 2
    N += N % 2
    if n % 2:
        j = np.arange(N // 2, 0, -1)
        # t_j = cos(j pi / (N+1)) as sin((N+1-2j) pi / (2N+2)), within an ulp
        # of the exact node also near t = 0
        t = np.sin((N + 1 - 2 * j) * (math.pi / (2 * N + 2)))
        w = np.sin(j * math.pi / (N + 1)) ** (n - 1) * (math.pi / (N + 1))
    else:
        t, w = _legendre_half(N)
        w = w * ((1.0 - t) * (1.0 + t)) ** ((n - 2) // 2)
    w = w * sphere_area(n - 1)
    keep = w > 0.0
    nodes, weights = _mirrored(t[keep], w[keep], N)
    return QuadratureRule(n=n, nodes=nodes, weights=weights, order=Q)


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
    # (any zonal rule) with normal doubles in the mirrored half, they run on
    # the m = N - N//2 nodes t >= 0, in the first half of each output for even
    # N; the rest follows by parity, (-1)^k for Y_k and Y_k'', (-1)^(k+1) for
    # Y_k'.  Negation as 0 - x is exact and keeps +0, so no bit moves.  A
    # value past the double range stays inf or nan in every later row.
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.ndim > 1:
        raise DomainError("cosines t must be a scalar or a 1-D array")
    if not np.isfinite(t).all():
        raise DomainError("cosines t must be finite")
    if K < 0:
        raise DomainError("truncation degree must be >= 0")
    N, half = t.size, t.size // 2
    if not (np.array_equal(t, -t[::-1]) and np.all(np.abs(t[:half]) >= np.finfo(float).tiny)):
        half = 0
    t, m = t[half:], N - half
    outs = [np.empty((N, K + 1)) for _ in range(count)]
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
            f"truncation K={K} is not resolved by a rule of order Q={rule.order}; need K < Q"
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

    Plain arrays: the `nodes` and `weights` of build_quadrature's rule of
    order `Q` (exact through degree 2Q - 1; Q = 2K + 8 unless given), the
    closed-form Gauss-Chebyshev-U rule for odd n and Gauss-Legendre times a
    polynomial for even n, on len(nodes) nodes (see QuadratureRule); the
    `basis` B[i, k] = Y_k(t_i) and the eigenvalues `lam`.  Every solve,
    probe, quotient evaluation, bubble projection and verify row runs on
    one of these.  Production code takes its workspace from
    `Workspace.shared`, which builds each (n, m, K, Q) once per process;
    calling the constructor builds a fresh, writable one.
    """

    def __init__(self, params: SphereParams, K: int, Q: int | None = None):
        self.params = params
        self.K = K
        rule = build_quadrature(params.n, default_rule_size(K) if Q is None else Q)
        self.Q = rule.order
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
