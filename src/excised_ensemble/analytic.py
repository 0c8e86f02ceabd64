"""Closed-form and residue-series quantities for SO(2N) and its excised
sub-ensemble: Selberg integral, normalization constants, moments and the
small-value cumulative, the diagonal of the Jacobi Christoffel-Darboux kernel,
and the excised one-level density with its hard gap.

The excised density is a Bromwich (inverse Mellin) integral through r = c > 0,
equal to the sum of residues at r = 0 and the negative half-integers.  The
residue series converges factorially fast in the bulk but only algebraically
as theta approaches the hard-gap edge, so wherever its error estimate misses
1e-9 the integral is summed on a parabola instead.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .special_functions import (
    JacobiOrder,
    jacobi_p,
    jacobi_p_deriv,
    log_barnes_g,
    log_gamma,
)

__all__ = [
    "NormalizationResult",
    "DensityGrid",
    "r1_so2n_unscaled",
    "selberg_integral",
    "c_so2n",
    "moments_so2n",
    "h_exact",
    "h_asymptotic",
    "value_cumulative_small_x",
    "normalization_ratio",
    "cd_kernel_diag",
    "excised_integrand",
    "kernel_residue_at_minus_half",
    "r1_excised_line_integral",
    "theta_inf",
    "gap_margin",
    "density_grid",
    "write_density_csv",
]

_LOG2 = np.log(2.0)
_CONTOUR_RADIUS = 0.1
_CONTOUR_NODES = 128
_RATIO_TOL = 1e-10
_DENSITY_TOL = 1e-9
_EPS = np.finfo(float).eps
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_KAPPA0 = 0.15  # curvature of the Bromwich parabola times _leading_power(N)
_PARABOLA_DECAY = 40.0  # kappa d s^2 at the parabola's end


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def r1_so2n_unscaled(n_pairs: int, theta):
    """One-level density (2N-1)/(2pi) + sin((2N-1)t)/(2pi sin t) of SO(2N) on [0, pi].

    The Dirichlet-kernel ratio is summed as 1 + 2 sum_{k=1}^{N-1} cos 2kt,
    which it equals identically, so t = 0 and t = pi need no special case.
    """
    if n_pairs < 1:
        raise DomainError("n_pairs must be >= 1")
    th = np.asarray(theta, dtype=float)
    ratio = 1.0 + 2.0 * np.sum(np.cos(2.0 * np.multiply.outer(th, np.arange(1, n_pairs))), axis=-1)
    out = (2 * n_pairs - 1) / (2 * np.pi) + ratio / (2 * np.pi)
    return float(out) if out.ndim == 0 else out


def _is_real(z) -> bool:
    return np.imag(z) == 0


def _log_gamma_run(z, count: int):
    """sum_{j<count} log Gamma(z+j) = count log Gamma(z) + sum_j (count-1-j) log(z+j):
    one log-Gamma evaluation plus count-1 logarithms.  Equal to the term-by-term
    sum modulo 2 pi i, which its exponential does not see."""
    z = np.asarray(z, dtype=complex)
    total = count * log_gamma(z)
    for j in range(count - 1):
        total = total + (count - 1 - j) * np.log(z + j)
    return total


def selberg_integral(n_pairs: int, r, s):
    """Selberg's angular integral of prod (1-cos)^r (1+cos)^s times the squared
    Vandermonde in cosines over [0, pi]^N.

    Requires Re(r), Re(s) > -1/2 strictly.
    """
    if np.real(r) <= -0.5 or np.real(s) <= -0.5:
        raise DomainError("selberg_integral requires Re(r), Re(s) > -1/2")
    total = (
        n_pairs * (n_pairs + r + s - 1) * _LOG2
        + _log_gamma_run(2.0, n_pairs)
        + _log_gamma_run(s + 0.5, n_pairs)
        + _log_gamma_run(r + 0.5, n_pairs)
        - _log_gamma_run(s + r + n_pairs, n_pairs)
    )
    value = np.exp(total)
    if _is_real(r) and _is_real(s):
        return float(np.real(value))
    return complex(value)


def c_so2n(n_pairs: int) -> float:
    """Weyl normalization constant of the SO(2N) eigenphase measure, 1 / selberg_integral(N, 0, 0).

    Raises DomainError where it overflows a float (N >= 36).
    """
    with np.errstate(divide="ignore", over="ignore"):
        value = 1.0 / np.float64(selberg_integral(n_pairs, 0, 0))
    if not np.isfinite(value):
        raise DomainError(f"c_so2n({n_pairs}) overflows a float")
    return float(value)


def _log_moment_gammas(n_pairs: int, s, lead):
    """lead (2Ns log 2 for `moments_so2n`, added first as it always was) plus the Gamma products of log M_O(N, s)."""
    return (lead + _log_gamma_run(float(n_pairs), n_pairs) + _log_gamma_run(s + 0.5, n_pairs)
            - _log_gamma_run(0.5, n_pairs) - _log_gamma_run(s + n_pairs, n_pairs))


def moments_so2n(n_pairs: int, s, analytic_continuation: bool = False):
    """Moment generating function M_O(N, s) of the characteristic polynomial at 1.

    The defining Haar integral converges only for Re(s) > -1/2; pass
    analytic_continuation=True to evaluate the meromorphic product formula
    elsewhere (used for residue extraction around s = -1/2).  An array `s`
    gives a complex array of the same shape.  A real `s` whose moment
    overflows a float raises DomainError, unless continuing analytically.
    """
    if n_pairs < 1:
        raise DomainError("n_pairs must be >= 1")
    if not analytic_continuation and not np.all(np.isfinite(s) & (np.real(s) > -0.5)):
        raise DomainError("moments_so2n requires a finite s with Re(s) > -1/2")
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.exp(_log_moment_gammas(n_pairs, s, 2 * n_pairs * s * _LOG2))
    if np.ndim(value):
        return value
    if not _is_real(s):
        return complex(value)
    if not (analytic_continuation or np.isfinite(value)):
        raise DomainError(f"moments_so2n({n_pairs}, {s}) overflows a float")
    return float(np.real(value))


def h_exact(n_pairs: int) -> float:
    """Residue of M_O(N, s) at s = -1/2 (explicit Gamma product)."""
    total = np.real(
        _log_gamma_run(float(n_pairs), n_pairs)
        + _log_gamma_run(1.0, n_pairs - 1)
        - _log_gamma_run(0.5, n_pairs)
        - _log_gamma_run(n_pairs - 0.5, n_pairs)
    )
    return float(np.exp(total - n_pairs * _LOG2))


def h_asymptotic(n_pairs: int) -> float:
    """Large-N form 2^(-7/8) G(1/2) pi^(-1/4) N^(3/8) of h(N)."""
    return float(2.0 ** (-7.0 / 8.0) * np.exp(log_barnes_g(0.5)) * np.pi ** (-0.25) * n_pairs ** (3.0 / 8.0))


def value_cumulative_small_x(n_pairs: int, x) -> float:
    """Small-x cumulative 2 sqrt(x) h(N) = Prob(0 <= Lambda <= x)."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("cumulative requires x >= 0")
    out = 2.0 * np.sqrt(x) * h_exact(n_pairs)
    return float(out) if out.ndim == 0 else out


def theta_inf(n_pairs: int, log_cutoff: float) -> float:
    """Hard-gap edge arccos(1 - 2^-(2N-1) e^X); no eigenphase of the excised
    ensemble lies below it."""
    if log_cutoff >= 2 * n_pairs * _LOG2:
        raise DomainError("cutoff at or above the attainable maximum: ensemble is empty")
    return float(np.arccos(1.0 - 2.0 ** (-(2 * n_pairs - 1)) * np.exp(log_cutoff)))


def gap_margin(n_pairs: int, log_cutoff: float, theta):
    """d(theta, X) = (2N-1) log 2 + log(1-cos theta) - X; negative inside the hard gap."""
    th = np.asarray(theta, dtype=float)
    with np.errstate(divide="ignore"):
        out = (2 * n_pairs - 1) * _LOG2 + np.log1p(-np.cos(th)) - log_cutoff
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Jacobi kernel
# ---------------------------------------------------------------------------

def _wronskian(n_pairs: int, r, x):
    """P(N, r, theta) = P_N' P_{N-1} - P_N P_{N-1}' at x = cos theta, orders (r-1/2, -1/2)."""
    a = np.asarray(r, dtype=complex) - 0.5
    pn = jacobi_p(JacobiOrder(n_pairs, a, -0.5), x)
    pnm1 = jacobi_p(JacobiOrder(n_pairs - 1, a, -0.5), x)
    dn = jacobi_p_deriv(JacobiOrder(n_pairs, a, -0.5), x)
    dnm1 = jacobi_p_deriv(JacobiOrder(n_pairs - 1, a, -0.5), x)
    return dn * pnm1 - pn * dnm1


def _kernel_log_gammas(n_pairs: int, r):
    """log[Gamma(N+1) Gamma(N+r) / (Gamma(N+r-1/2) Gamma(N-1/2))], from the kernel's constant."""
    return log_gamma(n_pairs + 1.0) + log_gamma(n_pairs + r) - log_gamma(n_pairs + r - 0.5) - log_gamma(n_pairs - 0.5)


def _kernel_diag(n_pairs: int, r, x):
    """f_N^(r-1/2,-1/2)(theta, theta) at x = cos theta (no domain check)."""
    r = np.asarray(r, dtype=complex)
    const = 2.0 ** (1 - r) / (2 * n_pairs + r - 1) * np.exp(_kernel_log_gammas(n_pairs, r))
    return (1 - x) ** r * const * _wronskian(n_pairs, r, x)


def cd_kernel_diag(n_pairs: int, r, theta):
    """Diagonal f_N^(r-1/2,-1/2)(theta, theta) of the Christoffel-Darboux kernel.

    At r = 0 this reduces to the SO(2N) one-level density.
    """
    th = np.asarray(theta, dtype=float)
    if np.any(th <= 0) or np.any(th >= np.pi):
        raise DomainError("cd_kernel_diag requires theta in the open interval (0, pi)")
    out = _kernel_diag(n_pairs, r, np.cos(th))
    if np.ndim(out) == 0:
        return complex(out) if not _is_real(r) else float(np.real(out))
    return out


# ---------------------------------------------------------------------------
# contour machinery for the excised ensemble
# ---------------------------------------------------------------------------

def excised_integrand(n_pairs: int, log_cutoff: float, theta, r):
    """Integrand of the Bromwich representation of the excised one-level
    density times the normalization ratio P(log Lambda >= X).

    It equals moments_so2n(N, r) f_N^(r-1/2,-1/2)(theta, theta) e^(-rX) / r;
    its residue at r = 0 is the SO(2N) one-level density.  Its powers
    2^(2Nr) 2^(-r) (1 - cos theta)^r e^(-rX) are e^(r d), d = `gap_margin`, so it
    is built in place as exp(r d + log-Gamma terms) times 2 W / (r (2N+r-1)),
    W the Wronskian: one exponential, as two can give inf * 0.
    """
    r = np.asarray(r, dtype=complex)
    if np.any(r == 0):
        raise DomainError("excised_integrand has a pole at r = 0")
    half = r + 0.5
    if np.any((half.imag == 0) & (half.real <= 0) & (half.real == np.round(half.real))):
        raise DomainError("excised_integrand evaluated at a half-integer pole")
    th = np.asarray(theta, dtype=float)
    if np.any(th <= 0) or np.any(th > np.pi):
        raise DomainError("excised_integrand requires theta in (0, pi]")
    out = np.asarray(r * gap_margin(n_pairs, log_cutoff, th))
    out += _log_moment_gammas(n_pairs, r, _kernel_log_gammas(n_pairs, r))
    np.exp(out, out=out)
    out *= _wronskian(n_pairs, r, np.cos(th))
    out *= 2.0 / (r * (2 * n_pairs + r - 1))
    return out if out.ndim else complex(out)


def _contour_residue(func, center: float):
    """Residue via the trapezoid rule on a circle (spectrally accurate), and
    the mean magnitude of the summands, which sets its rounding error."""
    angles = 2.0 * np.pi * np.arange(_CONTOUR_NODES) / _CONTOUR_NODES
    z = center + _CONTOUR_RADIUS * np.exp(1j * angles)
    vals = func(z) * (z - center)
    return np.mean(vals, axis=-1), np.mean(np.abs(vals), axis=-1)


def _residue_series(func, truncation_K: int, *closed_forms):
    """(value, error) of a residue series, the pair `_line_quadrature` returns.

    `value` is the sum of the `closed_forms` (residues known exactly) plus the
    contour residues of `func` at -3/2, ..., -(2K+1)/2.  `error` is |residue|
    at -(2K+3)/2, the truncation tail, plus the rounding floor: eps times the
    summed magnitudes of the terms, the closed forms and the contour summands.

    Each residue is folded in before the next is computed: holding all K
    across the density's (points x nodes) temporaries raised its peak memory
    by 3.6 MiB at 2000 points, N = 2, in some runs (2-vCPU host, glibc malloc).
    """
    total = magnitude = 0.0
    for k in range(1, truncation_K + 1):
        res, size = _contour_residue(func, -(2 * k + 1) / 2.0)
        total, magnitude = total + res, magnitude + size
    tail = np.abs(_contour_residue(func, -(2 * truncation_K + 3) / 2.0)[0])
    value = sum(closed_forms) + np.real(total)
    return value, tail + _EPS * (sum(np.abs(f) for f in closed_forms) + magnitude)


def kernel_residue_at_minus_half(n_pairs: int, log_cutoff: float, theta):
    """Closed-form residue of the excised integrand at the simple pole r = -1/2:
    -2 e^(X/2) h(N) times the kernel diagonal f_N^(-1,-1/2)(theta, theta).

    Vanishes identically for N = 1, where the Gamma factors cancel the pole.
    Accepts theta in (0, pi], unlike `cd_kernel_diag`.
    """
    th = np.asarray(theta, dtype=float)
    if n_pairs == 1:
        return 0.0 if th.ndim == 0 else np.zeros_like(th)
    diag = np.real(_kernel_diag(n_pairs, -0.5, np.cos(th)))
    out = -2.0 * np.exp(0.5 * log_cutoff) * h_exact(n_pairs) * diag
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class NormalizationResult:
    """The Haar probability P(log Lambda >= X), summed as a residue series,
    and `tail_estimate`, the magnitude of the first residue left out plus the
    rounding floor, as in `DensityGrid.tails`."""

    value: float
    tail_estimate: float


def normalization_ratio(n_pairs: int, log_cutoff: float, truncation_K: int = 10) -> NormalizationResult:
    """Haar probability that log Lambda >= X, as the residue series
    1 + (simple pole at -1/2, closed form) + sum of higher contour residues.

    Raises DomainError when the truncated series does not lie in (0, 1]: for
    large N it is summed outside the range where it converges.  Also raises
    when it is not certified to 1e-10: when its error, the next pole's
    residue plus the rounding floor, exceeds it.
    """
    if n_pairs < 1:
        raise DomainError("n_pairs must be >= 1")
    if log_cutoff >= 2 * n_pairs * _LOG2:
        raise DomainError("cutoff at or above the attainable maximum: ensemble is empty")
    if truncation_K < 1:
        raise DomainError("truncation_K must be >= 1")

    def integrand(z):
        return moments_so2n(n_pairs, z, analytic_continuation=True) * np.exp(-z * log_cutoff) / z

    minus_half = -2.0 * h_exact(n_pairs) * np.exp(0.5 * log_cutoff)
    result = NormalizationResult(*map(float, _residue_series(integrand, truncation_K, 1.0, minus_half)))
    if not 0.0 < result.value <= 1.0:
        raise DomainError(
            f"normalization ratio {result.value:.6g} at N={n_pairs}, X={log_cutoff:g} lies outside (0, 1]: "
            "the residue series is summed outside the range where it converges"
        )
    if result.tail_estimate > _RATIO_TOL:
        raise DomainError(
            f"normalization ratio {result.value:.6g} at N={n_pairs}, X={log_cutoff:g} is not certified: "
            f"its error estimate is {result.tail_estimate:.2g}, against {_RATIO_TOL:.0e}"
        )
    return result


# ---------------------------------------------------------------------------
# Bromwich integral on a parabola
# ---------------------------------------------------------------------------

def _leading_power(n_pairs: int) -> float:
    # |integrand(c + it)| ~ const * t^(-p) along vertical lines
    return n_pairs * n_pairs - 2 * n_pairs + 2 - (n_pairs - 1) / 2.0


def _line_quadrature(n_pairs: int, log_cutoff: float, theta: float, c: float):
    """(1/2 pi i) times the Bromwich integral of the excised integrand (d > 0)
    on the parabola r = c + is - kappa s^2, kappa = 0.15 / p (Weideman and
    Trefethen, Math. Comp. 76, 2007), where e^(r d) decays like
    e^(-kappa d s^2): Gauss-Legendre panels 0.2 wide up to s = 2 and s/10
    beyond, to kappa d s^2 = 40.  Scaling by 1/p keeps large N, whose Jacobi
    sums cancel far from the real axis, near the vertical line.  By conjugate
    symmetry the value is Im(sum w f r') / pi over s > 0.

    Returns (value, error estimate), both still to be divided by the ratio:
    the last panel's magnitude, which bounds the remainder, plus the rounding
    floor, as each term is the exponential of r d and 4(N+1) log-Gamma terms
    of size up to (|r|+N) log(|r|+2N+1), and errs by eps times their sum.
    """
    d = gap_margin(n_pairs, log_cutoff, theta)
    kappa = _KAPPA0 / _leading_power(n_pairs)
    s_max = np.sqrt(_PARABOLA_DECAY / (kappa * d))
    edges = [0.0]
    while edges[-1] < s_max:
        edges.append(edges[-1] + max(0.2, edges[-1] / 10.0))
    edges = np.asarray(edges)[:, None]
    mid, half = (edges[:-1] + edges[1:]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
    s, wts = (mid + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()
    r = c + 1j * s - kappa * s * s
    terms = wts * (1j - 2.0 * kappa * s) * excised_integrand(n_pairs, log_cutoff, theta, r)
    size, mag = np.abs(terms), np.abs(r)
    exponent_size = mag * d + 4 * (n_pairs + 1) * (mag + n_pairs) * np.log(mag + 2 * n_pairs + 1)
    error = size[-len(_GL_NODES):].sum() + _EPS * np.sum(size * exponent_size)
    return float(np.sum(terms).imag / np.pi), float(error / np.pi)


def r1_excised_line_integral(n_pairs: int, log_cutoff: float, theta: float, c: float = 0.5) -> float:
    """Excised one-level density by direct quadrature of the Bromwich integral
    along the parabola through c: the oracle for `density_grid`'s residue route.

    Inside the hard gap the contour closes to the right and the value is 0.
    Raises DomainError when the quadrature's error estimate exceeds 1e-9.
    """
    if c <= 0:
        raise DomainError("contour abscissa c must be positive")
    d = gap_margin(n_pairs, log_cutoff, theta)
    if abs(d) < 1e-12:
        raise DomainError("theta sits on the hard-gap boundary (d = 0): value is direction-dependent")
    if d < 0:
        return 0.0
    ratio = normalization_ratio(n_pairs, log_cutoff).value
    value, tail_err = _line_quadrature(n_pairs, log_cutoff, theta, c)
    if tail_err / ratio > _DENSITY_TOL:
        raise DomainError(f"line-integral error estimate {tail_err / ratio:.2e} exceeds tolerance {_DENSITY_TOL:.0e}")
    return value / ratio


# ---------------------------------------------------------------------------
# excised one-level density (residues, with line fallback near the gap edge)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityGrid:
    """Excised one-level density on an ascending theta grid.  `tails` holds the
    error estimate, divided by the ratio like the values, of the route that
    produced each value: the next pole's residue plus the rounding floor, or
    the parabola's where `line_route` is set.  `ratio` is the normalization
    the values were divided by."""

    thetas: np.ndarray
    values: np.ndarray
    tails: np.ndarray
    line_route: np.ndarray
    ratio: NormalizationResult

    def __post_init__(self):
        if np.any(np.diff(self.thetas) <= 0):
            raise DomainError("theta grid must be strictly ascending")
        if np.any(self.values < 0):
            raise DomainError("density values must be nonnegative")


def density_grid(n_pairs: int, log_cutoff: float, thetas, truncation_K: int = 10) -> DensityGrid:
    """Excised one-level density R_1 on an ascending grid of angles.

    Off the gap it sums R_1 of SO(2N), the closed-form residue at r = -1/2
    and the contour residues at -3/2, ..., -(2K+1)/2, and divides by
    `normalization_ratio(n_pairs, log_cutoff)`.  Zero on the hard gap (the
    boundary d = 0 is assigned to the gap).  Where the residue series' error
    exceeds 1e-9 (next to the gap edge, and where the residue terms cancel)
    the value is recomputed on the Bromwich parabola through c = 1/2.  A
    point whose final tail still exceeds 1e-9 keeps its value; `tails` shows
    the miss.  A negative value within its tail of 0 becomes 0; one further
    below, or NaN, raises DomainError.
    """
    if truncation_K < 1:
        raise DomainError("truncation_K must be >= 1")
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    ratio = normalization_ratio(n_pairs, log_cutoff)
    norm = ratio.value
    values = np.zeros_like(thetas)
    tails = np.zeros_like(thetas)
    live = gap_margin(n_pairs, log_cutoff, thetas) > 0
    if np.any(live):
        th = thetas[live]
        sums, errors = _residue_series(
            lambda z: excised_integrand(n_pairs, log_cutoff, th[:, None], z), truncation_K,
            r1_so2n_unscaled(n_pairs, th), kernel_residue_at_minus_half(n_pairs, log_cutoff, th),
        )
        values[live] = sums / norm
        tails[live] = errors / norm
    line_route = tails > _DENSITY_TOL
    for i in np.nonzero(line_route)[0]:
        value, tail_err = _line_quadrature(n_pairs, log_cutoff, float(thetas[i]), 0.5)
        values[i], tails[i] = value / norm, tail_err / norm
    below = ~(values >= -tails)
    if np.any(below):
        i = np.argmax(below)
        raise DomainError(f"density {values[i]:.6g} at theta={float(thetas[i])!r} is below -tail = {-tails[i]:.2g}")
    return DensityGrid(thetas, np.maximum(values, 0.0), tails, line_route, ratio)


def write_density_csv(grid: DensityGrid, path) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["theta", "r1"])
        for t, v in zip(grid.thetas, grid.values):
            writer.writerow([repr(float(t)), repr(float(v))])
