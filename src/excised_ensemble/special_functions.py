"""Complex-capable special functions: log-Gamma, Barnes G, and Jacobi
polynomials of general (complex) order.

Jacobi polynomials are evaluated by one explicit sum (DLMF 18.5.7), which is a
polynomial in the orders alpha, beta and so holds for any complex values: no
order needs a separate route, and nothing divides by an order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np
from scipy.special import loggamma as _loggamma

from .errors import DomainError

__all__ = [
    "JacobiOrder",
    "log_gamma",
    "barnes_g",
    "log_barnes_g",
    "jacobi_p",
    "jacobi_p_deriv",
]

ZETA_PRIME_AT_MINUS_ONE = -0.16542114370045092921

# Correction terms B_{2k+2} / (2k (2k+2) z^{2k}) of the Barnes G asymptotic.
_BARNES_COEFFS = (
    -1.0 / 240.0,   # B4 / (2*4)
    1.0 / 1008.0,   # B6 / (4*6)
    -1.0 / 1440.0,  # B8 / (6*8)
    1.0 / 1056.0,   # B10 / (8*10)
)
_BARNES_SHIFT = 32.0


def log_gamma(z):
    """Principal branch of log Gamma(z); exp of the result is Gamma(z).

    Accepts complex scalars or arrays.  Raises DomainError at the poles
    (nonpositive real integers).
    """
    arr = np.asarray(z, dtype=complex)
    poles = (arr.imag == 0) & (arr.real <= 0) & (arr.real == np.round(arr.real))
    if np.any(poles):
        raise DomainError("log_gamma evaluated at a pole of Gamma")
    out = _loggamma(arr)
    return complex(out) if arr.ndim == 0 else out


def _log_gamma_real(x: float) -> float:
    return _loggamma(complex(x)).real


def log_barnes_g(z: float) -> float:
    """log G(z) for real z > 0, via upward recurrence plus the asymptotic series.

    The recurrence G(z+1) = Gamma(z) G(z) shifts the argument to z >= 32 where
    the asymptotic expansion of log G(y+1) (with Bernoulli-number corrections
    through y^-8) is accurate to well below 1e-12 absolute.
    """
    if not z > 0:
        raise DomainError("barnes_g requires z > 0")
    n = max(0, int(np.ceil(_BARNES_SHIFT - z)))
    shift = sum(_log_gamma_real(z + j) for j in range(n))
    y = z + n - 1.0
    out = (
        y * y * (0.5 * np.log(y) - 0.75)
        + 0.5 * y * np.log(2.0 * np.pi)
        - np.log(y) / 12.0
        + ZETA_PRIME_AT_MINUS_ONE
    )
    y2 = y * y
    power = y2
    for coeff in _BARNES_COEFFS:
        out += coeff / power
        power *= y2
    return out - shift


def barnes_g(z: float) -> float:
    """Barnes G-function for real z > 0."""
    return float(np.exp(log_barnes_g(z)))


@dataclass(frozen=True)
class JacobiOrder:
    """Degree and (possibly complex) weight exponents of a Jacobi polynomial."""

    n: int
    alpha: complex
    beta: complex

    def __post_init__(self):
        if self.n < 0:
            raise DomainError("Jacobi degree must be nonnegative")


def jacobi_p(order: JacobiOrder, x):
    """P_n^(alpha,beta)(x) = sum_s binom(n+alpha, n-s) binom(n+beta, s) y^s w^(n-s)
    with y = (x-1)/2 and w = (x+1)/2 (DLMF 18.5.7), summed in nested form.

    term_s = binom(n+beta, s) y^s / (n-s)! is built up in s, and each step
    multiplies the running total by (alpha+s) w, so the binomials in alpha are
    never formed and nothing divides by an order.  y, w and term keep the shape
    of x (and beta); only the total broadcasts against alpha.
    """
    n, a, b = order.n, order.alpha, order.beta
    x = np.asarray(x, dtype=complex)
    y, w = (x - 1) / 2, (x + 1) / 2
    term = total = 1.0 / factorial(n)
    for s in range(1, n + 1):
        term = term * ((n + b - s + 1) * (n - s + 1) / s) * y
        total = term + (a + s) * (w * total)
    # degree 0 never entered the loop; its value still takes the shape of x and the orders
    total = total + np.zeros(np.broadcast(x, a, b).shape, dtype=complex)
    return complex(total) if total.ndim == 0 else total


def jacobi_p_deriv(order: JacobiOrder, x):
    """d/dx P_n^(alpha,beta)(x) = (n+alpha+beta+1)/2 P_(n-1)^(alpha+1,beta+1)(x)
    (DLMF 18.9.15)."""
    n, a, b = order.n, order.alpha, order.beta
    if n == 0:
        return 0 * jacobi_p(order, x)
    return (n + a + b + 1) / 2 * jacobi_p(JacobiOrder(n - 1, a + 1, b + 1), x)
