"""Orthonormal zonal-harmonic calculus on the round unit sphere S^n.

A zonal (rotationally symmetric) function is stored as a coefficient vector
c_0..c_K in an L^2(S^n)-orthonormal basis of ultraspherical polynomials in
t = cos(theta).  The surface measure restricted to zonal functions is
|S^{n-1}| (1-t^2)^{(n-2)/2} dt on [-1, 1], so Gauss-Jacobi rules integrate
the basis exactly.  A Workspace holds plain arrays (nodes t, weights w, basis
B, spectrum lam); on it analysis is B^T(w v), synthesis B c, and every norm
and quadratic form diagonal or one product.

The Gauss-Jacobi rules come from the same three-term recurrence as the
basis, whose Jacobi matrix has the nodes as eigenvalues and the Christoffel
numbers 1/sum_k p_k(t_i)^2 as weights (Golub & Welsch, Math. Comp. 23,
1969).  The nodes are found without that matrix: Gatteschi-Pittaluga
guesses polished by Newton steps on the recurrence (Hale & Townsend, SIAM
J. Sci. Comput. 35, 2013) with the Aberth-Ehrlich correction.
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

    Memory: each pass writes the recurrence rows q_0..q_N of its A active
    nodes into one (N+1) x A view of a buffer allocated once, squares rows
    0..N-1 in place for the Christoffel sums, and builds the Aberth sums
    sum_j 1/(x_i - x_j) a block of 64 rows at a time, so no A x N matrix is
    formed.  Every product and sum runs in the same order and memory layout
    as with per-degree row arrays and a full Aberth matrix, so nodes and
    weights are bit-identical to that form.
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
            zeros = np.concatenate((x, -x[: N // 2])) if sym else x
            delta = cur / dp
            delta /= 1.0 - delta * _aberth_sums(xa, active, zeros)
            x[active] = xa - delta
            weights[active] = 1.0 / (christoffel - delta * c_darboux * prev * ddp)
            # a step below 1e-7 sqrt(1 - t^2) / N leaves second-order errors
            # near 1e-14 in the node and in its corrected weight; 4 eps is the
            # rounding floor of the step near the endpoints
            tol = np.maximum(1e-7 / N * np.sqrt(d), 4.0 * np.finfo(float).eps)
            active = active[~(np.abs(delta) <= tol)]
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
    distinct = np.all(np.diff(x) > 0.0) and np.all(np.abs(x) < 1.0)
    if not (distinct and np.all(weights > 0.0) and np.all(np.isfinite(weights))):
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
    constant |S^n|^(-1/2).
    """
    return np.ascontiguousarray(_basis_rows(n, K, t)[1].T)


def _basis_rows(n: int, K: int, t) -> tuple[np.ndarray, np.ndarray]:
    # Cosines t as a 1-d array, and Y_k(t) as row k of a (K+1) x len(t)
    # array: the recurrence reads and writes contiguous rows.  Callers
    # transpose to one C-ordered copy, since the BLAS products B @ c, B.T @ v
    # and B.T diag(s) B round differently on an F-ordered B.
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if K < 0:
        raise DomainError("truncation degree must be >= 0")
    Y = np.empty((K + 1, t.size))
    Y[0] = 1.0 / math.sqrt(sphere_area(n))
    if K >= 1:
        b = _recurrence_offdiag(n, K)
        Y[1] = t * Y[0] / b[0]
        for k in range(1, K):
            Y[k + 1] = (t * Y[k] - b[k - 1] * Y[k - 1]) / b[k]
    return t, Y


def basis_with_derivatives(n: int, K: int, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, first, and second t-derivatives of Y_0..Y_K at cosines t."""
    t, Y = _basis_rows(n, K, t)
    D1 = np.zeros_like(Y)
    D2 = np.zeros_like(Y)
    if K >= 1:
        b = _recurrence_offdiag(n, K)
        D1[1] = Y[0] / b[0]
        for k in range(1, K):
            D1[k + 1] = (Y[k] + t * D1[k] - b[k - 1] * D1[k - 1]) / b[k]
            D2[k + 1] = (2.0 * D1[k] + t * D2[k] - b[k - 1] * D2[k - 1]) / b[k]
    return tuple(np.ascontiguousarray(R.T) for R in (Y, D1, D2))


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
        """Pointwise values at arbitrary cosines t via the stable recurrence."""
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

    def damped_draw(self, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
        """Random coefficients scale * z_k / (1 + k^2), z standard normal, k = 0..K."""
        k = np.arange(self.K + 1, dtype=float)
        return scale * rng.standard_normal(self.K + 1) / (1.0 + k * k)

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
