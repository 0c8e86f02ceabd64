"""Complex-capable special functions: log-Gamma, Barnes G, and Jacobi
polynomials of general (complex) order.

log-Gamma is the principal branch by the scheme of Hare (J. Algorithms 25,
1997), the one scipy.special.loggamma implements: Stirling's series with eight
Bernoulli terms where Re z > 7 or |Im z| > 7; elsewhere an upward shift to
Re > 7, less the sum of the principal logarithms of the shift's factors; and
the reflection formula for Re z < 0.1.  The shifts of an array run in
lockstep, each entry taking its own number of steps, so no entry depends on
the others.  Real positive scalars go to math.lgamma.

Jacobi polynomials are evaluated by one explicit sum (DLMF 18.5.7), which is a
polynomial in the orders alpha, beta and so holds for any complex values: no
order needs a separate route, and nothing divides by an order.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
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


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)
# B_2k / (2k (2k-1)) for k = 8, ..., 2: Stirling's series in z^-2 after its leading 1/12
_STIRLING_COEFFS = (
    -2.955065359477124183e-2,
    6.4102564102564102564e-3,
    -1.9175269175269175269e-3,
    8.4175084175084175084e-4,
    -5.952380952380952381e-4,
    7.9365079365079365079e-4,
    -2.7777777777777777778e-3,
)
_STIRLING_FROM = 7.0
_REFLECT_BELOW = 0.1


def _log(z):
    """Principal logarithm of a complex array, from real ufuncs: numpy
    vectorizes those and not its complex log, which is several times slower."""
    out = np.empty_like(z)
    np.log(np.hypot(z.real, z.imag), out=out.real)
    np.arctan2(z.imag, z.real, out=out.imag)
    return out


def _stirling(z):
    """log Gamma(z) by Stirling's series; accurate where Re z > 7 or |Im z| > 7."""
    rz = 1.0 / z
    rzz = rz * rz
    series = _STIRLING_COEFFS[0] * rzz
    for coeff in _STIRLING_COEFFS[1:]:
        series += coeff
        series *= rzz
    series += 1.0 / 12.0
    series *= rz
    out = z - 0.5
    out *= _log(z)
    out -= z
    out += series
    out += _HALF_LOG_2PI
    return out


def _log_shift(w):
    """(n, log Gamma(w+n) - log Gamma(w)) for Re w >= 0.1, n per entry the fewest
    steps to Re w + n > 7: the sum of the principal logs of w, w+1, ..., w+n-1.
    log Gamma(z+1) = log Gamma(z) + log z holds on the principal branches off
    the negative real axis, and every factor has Re > 0, so the sum needs no
    branch correction."""
    steps = np.floor(_STIRLING_FROM - w.real) + 1.0
    out = _log(w)
    for k in range(1, int(np.max(steps, initial=1.0))):
        take = k < steps
        out[take] += _log(w[take] + k)
    return steps, out


def _log_pi_over_sin(z):
    """log(pi / sin(pi z)) on the branch of the reflection formula
    log Gamma(z) = log(pi / sin(pi z)) - log Gamma(1 - z).  sin(pi z) is
    (-1)^m sin(pi (z - m)), m the nearest integer to Re z, taken by its real
    and imaginary parts; the latter keeps the sign of a zero Im z, which picks
    the side of the cut on the negative real axis.  Raises DomainError where
    it vanishes, at the poles."""
    x, y = z.real, z.imag
    m = np.round(x)
    frac = x - m
    poles = (frac == 0) & (y == 0)
    if poles.any():
        raise DomainError(f"log_gamma evaluated at a pole of Gamma, z = {float(x[poles][0])!r}")
    sign = np.pi * (1.0 - 2.0 * np.mod(m, 2.0))
    a, b = frac * sign, y * sign
    sin = np.empty_like(z)
    np.multiply(np.sin(a), np.cosh(b), out=sin.real)
    np.multiply(np.cos(a), np.sinh(b), out=sin.imag)
    out = _log(sin)
    out.imag -= np.copysign(2.0 * np.pi, y) * np.floor(0.5 * x + 0.25)
    return _LOG_PI - out


def log_gamma(z):
    """Principal branch of log Gamma(z); exp of the result is Gamma(z).

    Accepts complex scalars or arrays.  Raises DomainError at the poles
    (nonpositive real integers) and at an argument that is not finite.
    """
    if isinstance(z, (int, float)) and 0 < z < math.inf:
        return complex(math.lgamma(z))
    arr = np.asarray(z, dtype=complex)
    if not np.isfinite(arr).all():
        raise DomainError(f"log_gamma requires a finite argument, got {complex(arr[~np.isfinite(arr)][0])!r}")
    z = arr.ravel()
    small_im = np.abs(z.imag) <= _STIRLING_FROM
    reflect = small_im & (z.real < _REFLECT_BELOW)
    w = np.where(reflect, 1.0 - z, z)
    near = small_im & (w.real <= _STIRLING_FROM)
    steps, log_shift = _log_shift(w[near])
    w[near] += steps
    out = _stirling(w)
    out[near] -= log_shift
    out[reflect] = _log_pi_over_sin(z[reflect]) - out[reflect]
    out = out.reshape(arr.shape)
    return complex(out) if arr.ndim == 0 else out


def log_barnes_g(z: float) -> float:
    """log G(z) for real z > 0, via upward recurrence plus the asymptotic series.

    The recurrence G(z+1) = Gamma(z) G(z) shifts the argument to z >= 32 where
    the asymptotic expansion of log G(y+1) (with Bernoulli-number corrections
    through y^-8) is accurate to well below 1e-12 absolute.
    """
    if not z > 0:
        raise DomainError("barnes_g requires z > 0")
    n = max(0, int(np.ceil(_BARNES_SHIFT - z)))
    shift = sum(math.lgamma(z + j) for j in range(n))
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


def jacobi_p(n: int, alpha, beta, x):
    """P_n^(alpha,beta)(x), degree n >= 0 and orders alpha, beta real or complex,
    scalars or arrays that broadcast against x: the explicit sum
    sum_s binom(n+alpha, n-s) binom(n+beta, s) y^s w^(n-s) with y = (x-1)/2 and
    w = (x+1)/2 (DLMF 18.5.7), summed in nested form.

    term_s = binom(n+beta, s) y^s / (n-s)! is built up in s, and each step
    multiplies the running total by (alpha+s) w, so the binomials in alpha are
    never formed and nothing divides by an order.  y, w and term keep the shape
    of x (and beta); only the total broadcasts against alpha.  A negative n
    raises DomainError.
    """
    if n < 0:
        raise DomainError("Jacobi degree must be nonnegative")
    x = np.asarray(x, dtype=complex)
    y, w = (x - 1) / 2, (x + 1) / 2
    term = total = 1.0 / math.factorial(n)
    for s in range(1, n + 1):
        term = term * ((n + beta - s + 1) * (n - s + 1) / s) * y
        total = term + (alpha + s) * (w * total)
    # degree 0 never entered the loop; its value still takes the shape of x and the orders
    total = total + np.zeros(np.broadcast(x, alpha, beta).shape, dtype=complex)
    return complex(total) if total.ndim == 0 else total


def jacobi_p_deriv(n: int, alpha, beta, x):
    """d/dx P_n^(alpha,beta)(x), with the arguments of `jacobi_p`:
    (n+alpha+beta+1)/2 P_(n-1)^(alpha+1,beta+1)(x) (DLMF 18.9.15)."""
    if n == 0:
        return 0 * jacobi_p(n, alpha, beta, x)
    return (n + alpha + beta + 1) / 2 * jacobi_p(n - 1, alpha + 1, beta + 1, x)
