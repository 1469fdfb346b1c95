"""Closed forms that need no arrays: sphere areas, the bottom GJMS eigenvalue, sharp constants.

This module imports only the standard library, so the `sharp-constant` and
`sweep --starts 0` subcommands run without loading numpy.  `spectral` and
`rayleigh` re-export every name defined here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import DomainError


def in_double_range(closed_form):
    """Raise DomainError where `closed_form` leaves the double range.

    An OverflowError (math.gamma, float powers) or a float result that is not
    finite both mean the arguments lie past what a double holds; values in
    range pass through with their bits.
    """

    @functools.wraps(closed_form)
    def checked(*args, **kwargs):
        try:
            value = closed_form(*args, **kwargs)
        except OverflowError:
            value = math.inf
        if isinstance(value, float) and not math.isfinite(value):
            at = ", ".join(map(repr, [*args, *kwargs.values()]))
            raise DomainError(f"{closed_form.__name__}({at}) overflows a double")
        return value

    return checked


@in_double_range
def sphere_area(n: int) -> float:
    """Surface measure |S^n| = 2 pi^((n+1)/2) / Gamma((n+1)/2) of the unit n-sphere."""
    if not (math.isfinite(n) and n >= 1):
        raise DomainError(f"sphere dimension must be finite and >= 1, got n={n}")
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def _is_integer(value) -> bool:
    try:
        return math.isfinite(value) and int(value) == value
    except TypeError:
        return False


@dataclass(frozen=True)
class SphereParams:
    """Ambient dimension n and order parameter m of the conformal operator (order 2m).

    Requires n > 2m, the range in which the operator is positive definite.
    """

    n: int
    m: int

    def __post_init__(self):
        if not (_is_integer(self.n) and _is_integer(self.m)):
            raise DomainError(f"n and m must be integers, got n={self.n}, m={self.m}")
        if self.m < 1:
            raise DomainError(f"order parameter must satisfy m >= 1, got m={self.m}")
        if self.n <= 2 * self.m:
            raise DomainError(f"need n > 2m, got n={self.n}, m={self.m}")
        # integral floats become ints, which range() and the caches need
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "m", int(self.m))

    @property
    def area(self) -> float:
        return sphere_area(self.n)

    @property
    def critical_norm_exponent(self) -> float:
        """Upper endpoint 2n/(n-2m) of the admissible Lebesgue exponents."""
        return 2.0 * self.n / (self.n - 2 * self.m)

    @property
    def critical_equation_exponent(self) -> float:
        """Critical power (n+2m)/(n-2m) for polynomial right-hand sides."""
        return (self.n + 2.0 * self.m) / (self.n - 2.0 * self.m)


@in_double_range
def gjms_lambda0(m: int, n: int) -> float:
    """Bottom eigenvalue Gamma(n/2+m) / Gamma(n/2-m) of the order-2m operator.

    The rising factorial prod_{j=-m}^{m-1} (n/2+j), multiplied in the order
    `spectral.gamma_ratio` uses, so the two agree bit for bit at k = 0.
    """
    params = SphereParams(n=n, m=m)
    return float(math.prod(params.n / 2.0 + j for j in range(-params.m, params.m)))


@in_double_range
def sharp_constant(m: int, n: int, p: float) -> float:
    """Best constant Lambda_0 |S^n|^(1-2/p) of the subcritical quotient.

    Admits the closed endpoints p = 2 and p = 2n/(n-2m) for reporting; the
    sharp statement lives on the open interval.
    """
    params = SphereParams(n=n, m=m)
    p_crit = params.critical_norm_exponent
    if not (2.0 <= p <= p_crit):
        raise DomainError(f"need 2 <= p <= {p_crit} for n={n}, m={m}, got p={p}")
    return gjms_lambda0(m, n) * sphere_area(n) ** (1.0 - 2.0 / p)
