"""Closed forms the benchmark checks the program against.

Everything here is computed with `math` alone, apart from the program:

- Lambda_k = Gamma(k + n/2 + m) / Gamma(k + n/2 - m), the GJMS eigenvalues;
- |S^n| = 2 pi^((n+1)/2) / Gamma((n+1)/2);
- S = Lambda_0 |S^n|^(1 - 2/p), the sharp subcritical constant;
- mu_k = 2^(2m) pi^(n/2) Gamma(m) Gamma(k + n/2 - m) / (Gamma(n/2 - m) Gamma(k + n/2 + m)),
  the Funk-Hecke eigenvalues of |xi - eta|^(2m - n) (Lieb 1983, Beckner 1993);
- c* = Lambda_0^(1/(p-1)) for f = t^p, and Lambda_0 - 1 for f = t + t^2.
"""

from __future__ import annotations

import math

EPS = 2.220446049250313e-16


def sphere_area(n: int) -> float:
    return 2.0 * math.exp((n + 1) / 2.0 * math.log(math.pi) - math.lgamma((n + 1) / 2.0))


def gjms_lambda(n: int, m: int, k: int) -> float:
    return math.exp(math.lgamma(k + n / 2.0 + m) - math.lgamma(k + n / 2.0 - m))


def sharp_constant(m: int, n: int, p: float) -> float:
    return gjms_lambda(n, m, 0) * sphere_area(n) ** (1.0 - 2.0 / p)


def riesz_mu(n: int, m: int, k: int) -> float:
    log_mu = (
        2 * m * math.log(2.0)
        + n / 2.0 * math.log(math.pi)
        + math.lgamma(m)
        + math.lgamma(k + n / 2.0 - m)
        - math.lgamma(n / 2.0 - m)
        - math.lgamma(k + n / 2.0 + m)
    )
    return math.exp(log_mu)


def riesz_allowed(n: int, m: int, k: int, tol: float = 1e-9) -> float:
    """Relative accuracy the program certifies for mu_k.

    `funk_hecke_spectrum` accepts max(tol, 32 eps mu_0 / mu_k): above the
    cancellation floor the stated tol, on it the floor.
    """
    return max(tol, 32.0 * EPS * riesz_mu(n, m, 0) / riesz_mu(n, m, k))


def constant_root_power(m: int, n: int, p: float) -> float:
    """Positive root of Lambda_0 c = c^p."""
    return gjms_lambda(n, m, 0) ** (1.0 / (p - 1.0))


def constant_root_linear_plus_square(m: int, n: int) -> float:
    """Positive root of Lambda_0 c = c + c^2."""
    return gjms_lambda(n, m, 0) - 1.0


def rel_err(value: float, exact: float) -> float:
    return abs(value / exact - 1.0)
