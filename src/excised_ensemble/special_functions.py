"""Complex-capable special functions: log-Gamma, Barnes G, terminating 2F1,
generalized binomials, and Jacobi polynomials of general (complex) order.

Jacobi polynomials come in two independent evaluation routes: a terminating
hypergeometric series (the default) and the three-term recurrence, which is a
polynomial identity in the order parameters and therefore valid for arbitrary
complex alpha, beta.  The recurrence doubles as a fallback where the
hypergeometric parameter c = alpha + 1 sits near a nonpositive integer.
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
    "hyp2f1_terminating",
    "generalized_binomial",
    "jacobi_p",
    "jacobi_p_recurrence",
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
# distance from a nonpositive integer at which the series parameter c = alpha + 1
# hands Jacobi evaluation over to the recurrence
_NEAR_POLE_RADIUS = 0.25


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


def hyp2f1_terminating(a, b, c, z):
    """2F1(a, b; c; z) for a a nonpositive integer: the exact finite sum.

    The series terminates after -a + 1 terms; b, c, z may be complex.
    """
    a_real = float(np.real(a))
    if np.imag(a) != 0 or not a_real.is_integer() or a_real > 0:
        raise DomainError("hyp2f1_terminating requires a to be a nonpositive integer")
    m = int(-a_real)
    b = np.asarray(b, dtype=complex)
    c = np.asarray(c, dtype=complex)
    z = np.asarray(z, dtype=complex)
    total = np.ones(np.broadcast(b, c, z).shape, dtype=complex)
    term = np.ones_like(total)
    for k in range(m):
        term = term * (-m + k) * (b + k) / ((c + k) * (k + 1)) * z
        total = total + term
    if total.ndim == 0:
        return complex(total)
    return total


def generalized_binomial(x, n: int):
    """binom(x, n) = x (x-1) ... (x-n+1) / n!, entire in x."""
    if n < 0:
        raise DomainError("generalized_binomial requires n >= 0")
    x = np.asarray(x, dtype=complex)
    out = np.ones_like(x)
    for i in range(n):
        out = out * (x - i)
    out = out / factorial(n)
    return complex(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class JacobiOrder:
    """Degree and (possibly complex) weight exponents of a Jacobi polynomial."""

    n: int
    alpha: complex
    beta: complex

    def __post_init__(self):
        if self.n < 0:
            raise DomainError("Jacobi degree must be nonnegative")


def _near_nonpositive_integer(c) -> bool:
    c = np.asarray(c, dtype=complex)
    nearest = np.round(c.real)
    return bool(np.any((nearest <= 0) & (np.abs(c - nearest) < _NEAR_POLE_RADIUS)))


def jacobi_p_recurrence(order: JacobiOrder, x):
    """P_n^(alpha,beta)(x) by the three-term recurrence (valid for complex orders)."""
    n, a, b = order.n, order.alpha, order.beta
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    x = np.asarray(x, dtype=complex)
    shape = np.broadcast(a, b, x).shape
    p_prev = np.ones(shape, dtype=complex)
    if n == 0:
        return complex(p_prev) if p_prev.ndim == 0 else p_prev
    p = (a + 1) + (a + b + 2) * (x - 1) / 2 + np.zeros(shape, dtype=complex)
    for m in range(2, n + 1):
        s = a + b
        c1 = 2 * m * (m + s) * (2 * m + s - 2)
        c2 = (2 * m + s - 1) * ((2 * m + s) * (2 * m + s - 2) * x + a * a - b * b)
        c3 = 2 * (m + a - 1) * (m + b - 1) * (2 * m + s)
        p_prev, p = p, (c2 * p - c3 * p_prev) / c1
    return complex(p) if p.ndim == 0 else p


def jacobi_p(order: JacobiOrder, x):
    """P_n^(alpha,beta)(x) via the terminating hypergeometric series.

    Falls back to the recurrence when c = alpha + 1 approaches a nonpositive
    integer, where the series parametrization is singular although the
    polynomial itself is not.
    """
    n, a, b = order.n, order.alpha, order.beta
    if n == 0:
        shape = np.broadcast(np.asarray(a), np.asarray(x)).shape
        return 1.0 + 0.0j if shape == () else np.ones(shape, dtype=complex)
    if _near_nonpositive_integer(np.asarray(a, dtype=complex) + 1):
        return jacobi_p_recurrence(order, x)
    z = (1 - np.asarray(x, dtype=complex)) / 2
    return generalized_binomial(np.asarray(a, dtype=complex) + n, n) * hyp2f1_terminating(
        -n, n + a + b + 1, a + 1, z
    )


def jacobi_p_deriv(order: JacobiOrder, x):
    """d/dx P_n^(alpha,beta)(x), by the shifted terminating series.

    Uses d/dz 2F1(a,b;c;z) = (ab/c) 2F1(a+1,b+1;c+1;z) applied to the series
    representation; equivalently (n+alpha+beta+1)/2 * P_(n-1)^(alpha+1,beta+1),
    which is what the recurrence fallback evaluates.
    """
    n, a, b = order.n, order.alpha, order.beta
    if n == 0:
        shape = np.broadcast(np.asarray(a), np.asarray(x)).shape
        return 0.0 + 0.0j if shape == () else np.zeros(shape, dtype=complex)
    a_arr = np.asarray(a, dtype=complex)
    if _near_nonpositive_integer(a_arr + 1) or _near_nonpositive_integer(a_arr + 2):
        shifted = JacobiOrder(n - 1, a + 1, b + 1)
        return (n + a + b + 1) / 2 * jacobi_p_recurrence(shifted, x)
    z = (1 - np.asarray(x, dtype=complex)) / 2
    pref = generalized_binomial(a_arr + n, n) * (-n) * (n + a + b + 1) / (a + 1) * (-0.5)
    return pref * hyp2f1_terminating(-(n - 1), n + a + b + 2, a + 2, z)
