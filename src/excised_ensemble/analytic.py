"""Closed-form and residue-series quantities for SO(2N) and its excised
sub-ensemble: Selberg integral, normalization constants, moments and the
small-value cumulative, the diagonal of the Jacobi Christoffel-Darboux kernel,
and the excised one-level density with its hard gap.

The excised density is a Bromwich (inverse Mellin) integral through r = c > 0,
equal to the sum of residues at r = 0 and the negative half-integers.  The
residue series converges factorially fast in the bulk but only algebraically
as theta approaches the hard-gap edge, so wherever its error estimate misses
1e-9 the integral is summed on a parabola instead.  The residue at r = 0 is
a closed form; every other is a trapezoid sum on a circle with theta factored
out: the Jacobi Wronskian is a cosine polynomial in theta, and the exponential
e^(r d) splits into one table shared by every pole and one scalar per
(point, pole).  Every integrand is real on the real axis, so each circle is
summed on its upper half only, and one complex and one real matrix product
give every pole's values and their rounding sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _check_pairs, check_ensemble
from .special_functions import (
    _log,
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
    "r1_excised_line_integral",
    "theta_inf",
    "gap_margin",
    "density_grid",
]

_LOG2 = np.log(2.0)
_CONTOUR_RADIUS = 0.1
_CONTOUR_NODES = 128
_JACOBI_ENTRIES = 8192  # complex entries of one Jacobi array in the residue pass
_RATIO_TOL = 1e-10
_DENSITY_TOL = 1e-9
_EPS = np.finfo(float).eps
# The 12-point Gauss-Legendre rule, equal bit for bit to
# numpy.polynomial.legendre.leggauss(12), written out so that no start-up
# imports numpy.polynomial.  The rule is symmetric: its six nodes and weights
# at x > 0 give the whole of it.
_GL_NODES, _GL_WEIGHTS = (
    np.concatenate([sign * half[::-1], half])
    for sign, half in (
        (-1.0, np.array([0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
                         0.7699026741943047, 0.9041172563704748, 0.9815606342467192])),
        (1.0, np.array([0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
                        0.16007832854334642, 0.10693932599531907, 0.04717533638651141])),
    )
)
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
    _check_pairs(n_pairs)
    th = np.asarray(theta, dtype=float)
    ratio = 1.0 + 2.0 * np.sum(np.cos(2.0 * np.multiply.outer(th, np.arange(1, n_pairs))), axis=-1)
    out = (2 * n_pairs - 1) / (2 * np.pi) + ratio / (2 * np.pi)
    return float(out) if out.ndim == 0 else out


def _is_real(z) -> bool:
    return np.imag(z) == 0


def _log_gamma_run(z, count: int):
    """sum_{j<count} log Gamma(z+j) = count log Gamma(z) + sum_j (count-1-j) log(z+j):
    one log-Gamma evaluation plus count-1 logarithms.  Off the negative real
    axis log Gamma(z+1) = log Gamma(z) + log z on the principal branches, so
    this is the principal sum, imaginary part included."""
    total = count * log_gamma(z)
    z = np.asarray(z, dtype=complex)
    for j in range(count - 1):
        total = total + (count - 1 - j) * _log(z + j)
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


def _log_moment_constant(n_pairs: int) -> float:
    """log prod_{j<N} Gamma(N+j) / Gamma(1/2+j), the r-free part of log M_O(N, r)."""
    return sum(math.lgamma(n_pairs + j) - math.lgamma(0.5 + j) for j in range(n_pairs))


def _log_moment_gammas(n_pairs: int, r):
    """log M_O(N, r) - 2N r log 2, by the Gamma product that continues the
    moment to every complex r off the poles -1/2, -3/2, ...."""
    upper, lower = _log_gamma_run(np.stack([r + 0.5, r + n_pairs]), n_pairs)
    return _log_moment_constant(n_pairs) + upper - lower


def moments_so2n(n_pairs: int, s):
    """Moment generating function M_O(N, s) = E[Lambda^s] of the characteristic
    polynomial at 1, for a finite s with Re(s) > -1/2, where its Haar integral
    converges.  An array `s` gives a complex array of the same shape.  A moment
    that overflows a float raises DomainError."""
    _check_pairs(n_pairs)
    if not np.all(np.isfinite(s) & (np.real(s) > -0.5)):
        raise DomainError("moments_so2n requires a finite s with Re(s) > -1/2")
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.exp(2 * n_pairs * s * _LOG2 + _log_moment_gammas(n_pairs, s))
    if not np.all(np.isfinite(value)):
        raise DomainError(f"moments_so2n({n_pairs}, {s}) overflows a float")
    if np.ndim(value):
        return value
    return float(np.real(value)) if _is_real(s) else complex(value)


def h_exact(n_pairs: int) -> float:
    """Residue of M_O(N, s) at s = -1/2 (explicit Gamma product)."""
    _check_pairs(n_pairs)
    total = _log_moment_constant(n_pairs) + _log_gamma_run(1.0, n_pairs - 1) - _log_gamma_run(n_pairs - 0.5, n_pairs)
    return float(np.exp(np.real(total) - n_pairs * _LOG2))


def h_asymptotic(n_pairs: int) -> float:
    """Large-N form 2^(-7/8) G(1/2) pi^(-1/4) N^(3/8) of h(N)."""
    _check_pairs(n_pairs)
    return float(2.0 ** (-7.0 / 8.0) * np.exp(log_barnes_g(0.5)) * np.pi ** (-0.25) * n_pairs ** (3.0 / 8.0))


def value_cumulative_small_x(n_pairs: int, x) -> float:
    """Small-x cumulative 2 sqrt(x) h(N) = Prob(0 <= Lambda <= x)."""
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0):
        raise DomainError("cumulative requires a number x >= 0")
    out = 2.0 * np.sqrt(x) * h_exact(n_pairs)
    return float(out) if out.ndim == 0 else out


def theta_inf(n_pairs: int, log_cutoff: float) -> float:
    """Hard-gap edge 2 arcsin(2^-N e^(X/2)), where 2^(2N) sin^2(theta / 2) = e^X;
    no eigenphase of the excised ensemble lies below it.  This is
    arccos(1 - 2^-(2N-1) e^X) without its cancellation, so it keeps full
    relative precision when the edge nears 0 (large N or deep cutoffs)."""
    check_ensemble(n_pairs, log_cutoff)
    return float(2.0 * np.arcsin(np.exp(log_cutoff / 2 - n_pairs * _LOG2)))


def gap_margin(n_pairs: int, log_cutoff: float, theta):
    """d(theta, X) = 2N log 2 + 2 log sin(theta / 2) - X, the same as
    (2N-1) log 2 + log(1 - cos theta) - X but finite down to the smallest theta;
    negative inside the hard gap."""
    th = np.asarray(theta, dtype=float)
    with np.errstate(divide="ignore"):
        out = 2 * n_pairs * _LOG2 + 2 * np.log(np.sin(th / 2)) - log_cutoff
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Jacobi kernel
# ---------------------------------------------------------------------------

def _wronskian(n_pairs: int, r, x):
    """P(N, r, theta) = P_N' P_{N-1} - P_N P_{N-1}' at x = cos theta, orders (r-1/2, -1/2)."""
    a = np.asarray(r, dtype=complex) - 0.5
    pn = jacobi_p(n_pairs, a, -0.5, x)
    pnm1 = jacobi_p(n_pairs - 1, a, -0.5, x)
    dn = jacobi_p_deriv(n_pairs, a, -0.5, x)
    dnm1 = jacobi_p_deriv(n_pairs - 1, a, -0.5, x)
    return dn * pnm1 - pn * dnm1


def _kernel_log_gammas(n_pairs: int, r):
    """log[Gamma(N+1) Gamma(N+r) / (Gamma(N+r-1/2) Gamma(N-1/2))], from the kernel's constant."""
    return log_gamma(n_pairs + 1.0) + log_gamma(n_pairs + r) - log_gamma(n_pairs + r - 0.5) - log_gamma(n_pairs - 0.5)


def _log_integrand_gammas(n_pairs: int, r):
    """The Gamma products of the excised integrand, those of log M_O(N, r) plus
    `_kernel_log_gammas`.  The kernel's Gamma(N+r-1/2) cancels the last factor
    of the moment's run Gamma(r+1/2) ... Gamma(r+N-1/2), and its Gamma(N+r) the
    first of the run Gamma(r+N) ... Gamma(r+2N-1), leaving two runs of N-1
    factors, whose two log-Gammas are taken in one call: half the log-Gammas
    of r that `_log_moment_gammas` + `_kernel_log_gammas` would take."""
    r = np.asarray(r, dtype=complex)
    constant = math.lgamma(n_pairs + 1.0) - math.lgamma(n_pairs - 0.5) + _log_moment_constant(n_pairs)
    upper, lower = _log_gamma_run(np.stack([r + 0.5, r + (n_pairs + 1.0)]), n_pairs - 1)
    return constant + upper - lower


def cd_kernel_diag(n_pairs: int, r, theta):
    """Diagonal f_N^(r-1/2,-1/2)(theta, theta) of the Christoffel-Darboux kernel.

    At r = 0 this reduces to the SO(2N) one-level density.
    """
    th = np.asarray(theta, dtype=float)
    if np.any(th <= 0) or np.any(th >= np.pi):
        raise DomainError("cd_kernel_diag requires theta in the open interval (0, pi)")
    r, x = np.asarray(r, dtype=complex), np.cos(th)
    const = 2.0 ** (1 - r) / (2 * n_pairs + r - 1) * np.exp(_kernel_log_gammas(n_pairs, r))
    out = (1 - x) ** r * const * _wronskian(n_pairs, r, x)
    if np.ndim(out) == 0:
        return complex(out) if not _is_real(r) else float(np.real(out))
    return out


# ---------------------------------------------------------------------------
# contour machinery for the excised ensemble
# ---------------------------------------------------------------------------

def excised_integrand(n_pairs: int, log_cutoff: float, theta, r):
    """Integrand of the Bromwich representation of the excised one-level
    density times the normalization ratio P(log Lambda >= X).

    It equals M_O(N, r) f_N^(r-1/2,-1/2)(theta, theta) e^(-rX) / r, M_O continued
    by its Gamma product; its residue at r = 0 is the SO(2N) one-level density.
    Its powers 2^(2Nr) 2^(-r) (1 - cos theta)^r e^(-rX) are e^(r d), d = `gap_margin`,
    so it is built in place as exp(r d + `_log_integrand_gammas`) times
    2 W / (r (2N+r-1)), W the Wronskian: one exponential, as two can give inf * 0.
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
    out += _log_integrand_gammas(n_pairs, r)
    np.exp(out, out=out)
    out *= _wronskian(n_pairs, r, np.cos(th))
    out *= 2.0 / (r * (2 * n_pairs + r - 1))
    return out if out.ndim else complex(out)


def _exponent_size(n_pairs: int, modulus, d):
    """Summed size of the exponent of an integrand at |r| <= modulus, for both
    routes and the ratio: r d and at most 4(N+1) log-Gamma terms of size up to
    (|r|+N) log(|r|+2N+1).  A value built as its exponential errs by eps times
    this.  Capped at the largest float, so that an exactly-zero value carries
    a rounding size of 0, not inf * 0 = NaN."""
    with np.errstate(over="ignore"):
        size = modulus * d + 4 * (n_pairs + 1) * (modulus + n_pairs) * np.log(modulus + 2 * n_pairs + 1)
    return np.minimum(size, np.finfo(float).max)


def _contour_nodes(centers):
    """The trapezoid nodes with phi in [0, pi] on the circle around each center,
    shape centers.shape + (65,), and their weights, 1/128 at phi = 0 and pi and
    2/128 between: every integrand here is real on the real axis, so a circle's
    mean over all 128 nodes is the real part of the weighted sum over these."""
    nodes = np.exp(2j * np.pi * np.arange(_CONTOUR_NODES // 2 + 1) / _CONTOUR_NODES)
    weights = np.r_[1.0, np.full(len(nodes) - 2, 2.0), 1.0] / _CONTOUR_NODES
    return np.add.outer(centers, _CONTOUR_RADIUS * nodes), weights


def _wronskian_cosine_coefficients(n_pairs: int, r):
    """C_k(r), k < 2N-1, with W(cos theta, r) = sum_k C_k(r) cos k theta: W is a
    polynomial of degree 2N-2 in cos theta, so its values at the 2N-1
    Chebyshev roots give the C_k exactly by discrete cosine orthogonality.
    Shape r.shape + (2N-1,)."""
    size = 2 * n_pairs - 1
    roots = (np.arange(size) + 0.5) * np.pi / size
    dct = (2.0 / size) * np.cos(np.multiply.outer(roots, np.arange(size)))
    dct[:, 0] /= 2.0
    values = _wronskian(n_pairs, r[..., None], np.cos(roots))
    return values @ dct


def _density_residue(n_pairs: int, log_cutoff: float, thetas):
    """residue(centers) -> (values, magnitudes), one row per center: the
    trapezoid residue of the excised integrand on the circle around each
    center at every theta (all off the gap, d > 0), with theta factored out.

    On the circle r = c + rho e^(i phi), e^(r d) = e^((c+rho) d) T, where
    T = e^((rho e^(i phi) - rho) d) has modulus <= 1 and is one table shared
    by every pole, and W = sum_k C_k cos k theta.  Each residue is then the
    real part of the sum over the half-circle nodes of `_contour_nodes` and
    over k of T B cos k theta, B[m, k] = C_k(z_m) times the node's weight,
    rational factor and Gamma factor over the circle's largest, times one
    exponential per (point, pole), so no factor overflows into inf * 0: one
    complex product of the table with B gives every pole's sums.  `magnitude`
    sums the moduli of the same terms, one real product |T| |B|, contracted
    with |cos k theta|, plus `_exponent_size` times |residue|: the
    exponentials that a residue's terms share err together and scale the
    residue as a whole.  The cosine coefficients take as few Jacobi calls as
    keep each array within _JACOBI_ENTRIES.

    Each call builds B once and the theta part, T, |T|, the cosines and the
    two products, in blocks of angles whose table holds at most
    _JACOBI_ENTRIES entries, 126 angles of the 65 nodes, each block written
    into the (pole, angle) results and each built in the same buffers, which
    the call allocates once.  Built whole, those arrays grew with the grid:
    5 MiB of peak memory at N = 2 on 2000 angles and 466 MiB on 200 000.
    Every row of a product depends on its own angle only, so the blocks give
    the same values.

    T is built from real ufuncs: |T| = exp(d rho (cos phi - 1)), and
    T = |T| (cos x + i sin x) with x = d rho sin phi, cos x = 1 - 2 sin^2(x/2)
    and sin x from tan(x / 2), as `haar._sin_squared` builds sin^2.  numpy's
    AVX-512 builds vectorize the real `exp` and `tan` but not the complex
    `exp`, nor `sin` and `cos`: on the 2-vCPU Xeon a block's complex `exp`
    took about 250 us, its `tan` 22 us and its real `exp` 13 us.  A relative
    error e in tan(x / 2) moves x by at most e, also where x passes pi and
    the tangent nears its pole; sin^2 keeps cos x accurate to an ulp of 1
    where x is small.  The product with B stays complex: two real products,
    of Re T and of Im T, took half the time, but their two sums cancel: at
    N = 12, X = -40 they moved values by up to 1.2 eps times the magnitudes
    from those of a complex `exp` table, against 0.6 for the complex product.
    """
    d = gap_margin(n_pairs, log_cutoff, thetas)
    size = 2 * n_pairs - 1
    offsets, node_weights = _contour_nodes(0.0)
    per_call = max(1, _JACOBI_ENTRIES // (len(offsets) * size))
    per_block = _JACOBI_ENTRIES // len(offsets)
    decay, half_turn = offsets.real - _CONTOUR_RADIUS, offsets.imag / 2  # log |T| and x / 2 per unit d

    def residue(centers):
        z = np.add.outer(centers, offsets)
        log_g = _log_integrand_gammas(n_pairs, z)
        top = np.max(log_g.real, axis=1, keepdims=True)
        weights = np.exp(log_g - top) * 2.0 * offsets / (z * (2 * n_pairs + z - 1)) * node_weights
        b = np.concatenate([_wronskian_cosine_coefficients(n_pairs, z[start:start + per_call])
                            for start in range(0, len(centers), per_call)])
        b *= weights[..., None]
        b = b.swapaxes(0, 1).reshape(len(offsets), -1)  # columns (pole, k)
        b_abs = np.abs(b)
        values = np.empty((len(centers), len(d)))
        magnitudes = np.empty_like(values)
        rows = min(per_block, len(d))
        table = np.empty((rows, len(offsets)), complex)  # T of a block's angles
        planes = np.empty((4, rows, len(offsets)))  # |T| and three planes of scratch
        for start in range(0, len(d), per_block):
            run = slice(start, start + per_block)
            t, (modulus, half, sin_sq, denominator) = table[: len(d[run])], planes[:, : len(d[run])]
            np.exp(np.multiply(d[run, None], decay, out=modulus), out=modulus)
            np.tan(np.multiply(d[run, None], half_turn, out=half), out=half)
            # with tan = tan(x / 2): 2 sin^2(x / 2) = 2 tan^2 / (1 + tan^2) and sin x = 2 tan / (1 + tan^2)
            np.add(np.square(half, out=sin_sq), 1.0, out=denominator)
            denominator *= 0.5
            sin_sq /= denominator
            half /= denominator
            np.multiply(half, modulus, out=t.imag)
            np.subtract(1.0, sin_sq, out=sin_sq)  # cos x = 1 - 2 sin^2(x / 2)
            np.multiply(sin_sq, modulus, out=t.real)
            cosines = np.cos(np.multiply.outer(thetas[run], np.arange(size)))
            shape = (len(cosines), len(centers), size)
            values[:, run] = np.einsum("pck,pk->cp", (t @ b).real.reshape(shape), cosines)
            magnitudes[:, run] = np.einsum("pck,pk->cp", (modulus @ b_abs).reshape(shape), np.abs(cosines))
        with np.errstate(over="ignore"):
            scales = np.exp(np.multiply.outer(centers + _CONTOUR_RADIUS, d) + top)
        values *= scales
        magnitudes *= scales
        magnitudes += _exponent_size(n_pairs, np.abs(centers)[:, None] + _CONTOUR_RADIUS, d) * np.abs(values)
        return values, magnitudes

    return residue


def _residue_series(residue, truncation_K: int, at_zero):
    """(value, error) of a residue series, the pair `_line_quadrature` returns.

    `residue(centers)` returns the residue at each of `centers` and the size
    of its rounding error in units of eps, one row per center.  `value` is
    `at_zero`, the residue at r = 0 in closed form, plus the contour residues
    r_0, ..., r_K at -1/2, -3/2, ..., -(2K+1)/2.  `error` is the truncation
    tail plus the rounding floor: eps times |at_zero| and the summed sizes of
    the residues.  The tail is 2 |r_(K+1)| / (1 - q), q the larger of
    |r_(K+1) / r_K| and |r_(K+2) / r_(K+1)|: the remainder of a geometric
    series of ratio q, doubled for a ratio that still creeps up, and infinite
    when q >= 1.  |r_(K+1)| alone undercounts the remainder where the residues
    decay slowly, as next to the hard-gap edge.  A ratio of two residues that
    both lie below the rounding floor is rounding, not decay, and is left out
    of q; with both left out the tail is 2 |r_(K+1)|.
    """
    res, sizes = residue(-(2 * np.arange(truncation_K + 3) + 1) / 2.0)
    total, magnitude = sum(res[:-2]), sum(sizes[:-2])
    floor = _EPS * (np.abs(at_zero) + magnitude)
    last, left_out, after = np.abs(res[-3:])
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.fmax(
            np.where(np.fmax(last, left_out) < floor, 0.0, left_out / last),
            np.where(np.fmax(left_out, after) < floor, 0.0, after / left_out),
        )
        tail = np.where(left_out == 0, 0.0, np.where(q < 1, 2 * left_out / (1 - q), np.inf))
    return at_zero + total, tail + floor


@dataclass(frozen=True)
class NormalizationResult:
    """The Haar probability P(log Lambda >= X), summed as a residue series
    (1 at r = 0, then contour residues at -1/2, -3/2, ...), and
    `tail_estimate`, the bound on the residues left out (a geometric tail
    from the first two of them, see `_residue_series`) plus the rounding
    floor, as in `DensityGrid.tails`."""

    value: float
    tail_estimate: float


def normalization_ratio(n_pairs: int, log_cutoff: float, truncation_K: int = 10) -> NormalizationResult:
    """Haar probability that log Lambda >= X, as the residue series
    1 (the pole at r = 0) + the contour residues at -1/2, ..., -(2K+1)/2 of
    M_O(N, r) e^(-rX) / r = exp(r d + `_log_moment_gammas`) / r, d = `gap_margin` at pi.

    Raises DomainError when the truncated series does not lie in (0, 1]: for
    large N it is summed outside the range where it converges.  Also raises
    when it is not certified to 1e-10: when its error, the geometric bound on
    the residues left out plus the rounding floor, exceeds it.
    """
    check_ensemble(n_pairs, log_cutoff)
    if truncation_K < 1:
        raise DomainError("truncation_K must be >= 1")

    d = gap_margin(n_pairs, log_cutoff, np.pi)  # the moment's 2^(2Nr) e^(-rX) is e^(r d)

    def residue(centers):
        # the trapezoid rule on the circles, spectrally accurate; its rounding
        # is that of the summands and of the exponentials they share
        z, weights = _contour_nodes(centers)
        with np.errstate(over="ignore", invalid="ignore"):  # where the series diverges; the (0, 1] check raises
            terms = np.exp(z * d + _log_moment_gammas(n_pairs, z)) / z * (z - centers[:, None])
            values = terms.real @ weights
            shared = _exponent_size(n_pairs, np.abs(centers) + _CONTOUR_RADIUS, d)
            return values, np.abs(terms) @ weights + shared * np.abs(values)

    result = NormalizationResult(*map(float, _residue_series(residue, truncation_K, 1.0)))
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


def _line_quadrature(n_pairs: int, log_cutoff: float, thetas, c: float):
    """(1/2 pi i) times the Bromwich integral of the excised integrand at each
    of the ascending `thetas` (d > 0) on the parabola r = c + is - kappa s^2,
    kappa = 0.15 / p (Weideman and Trefethen, Math. Comp. 76, 2007), where
    e^(r d) decays like e^(-kappa d s^2): Gauss-Legendre panels 0.2 wide up to
    s = 2 and s/10 beyond, to kappa d s^2 = 40.  Scaling by 1/p keeps large N,
    whose Jacobi sums cancel far from the real axis, near the vertical line.
    By conjugate symmetry each value is Im(sum w f r') / pi over s > 0.
    d grows with theta, so runs of consecutive angles share the nodes of their
    first, smallest d, each run as long as keeps its (angle, node) arrays
    within _JACOBI_ENTRIES: one integrand call, and one pass of the theta-free
    log-Gammas, a run.

    Raises DomainError naming the first angle where a term is not finite: next
    to the gap edge at large N the nodes reach |r| where the Jacobi forms'
    products overflow, and at c d above the log of the largest float
    e^(c d), the size of e^(r d) at s = 0, overflows by itself; the message
    names e^(c d) and its exponent there.

    Returns arrays (values, error estimates), both still to be divided by the
    ratio: the last panel's magnitude, which bounds the remainder, plus the
    rounding floor, as each term is the exponential of r d and of at most
    4(N+1) log-Gamma terms of size up to (|r|+N) log(|r|+2N+1), and errs by
    eps times their sum.
    """
    d = gap_margin(n_pairs, log_cutoff, thetas)
    kappa = _KAPPA0 / _leading_power(n_pairs)
    values, errors = np.empty_like(d), np.empty_like(d)
    start = 0
    while start < len(d):
        s_max = np.sqrt(_PARABOLA_DECAY / (kappa * d[start]))
        edges = [0.0]
        while edges[-1] < s_max:
            edges.append(edges[-1] + max(0.2, edges[-1] / 10.0))
        edges = np.asarray(edges)[:, None]
        mid, half = (edges[:-1] + edges[1:]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
        s, wts = (mid + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()
        r = c + 1j * s - kappa * s * s
        run = slice(start, start + max(1, _JACOBI_ENTRIES // len(s)))
        with np.errstate(over="ignore", invalid="ignore"):
            terms = wts * (1j - 2.0 * kappa * s) * excised_integrand(n_pairs, log_cutoff, thetas[run, None], r)
        overflow = ~np.isfinite(terms).all(axis=1)
        if np.any(overflow):
            first = np.argmax(overflow)
            exponent, log_max = c * d[run][first], np.log(np.finfo(float).max)
            cause = (f"e^(c d) on the Bromwich parabola overflows a float, c d = {exponent:.6g} > {log_max:.6g}"
                     if exponent > log_max else "the Jacobi forms on the Bromwich parabola overflow a float")
            raise DomainError(f"density at theta={float(thetas[run][first])!r} is not finite: {cause}")
        size = np.abs(terms)
        values[run] = terms.sum(axis=1).imag / np.pi
        rounding = _EPS * np.sum(size * _exponent_size(n_pairs, np.abs(r), d[run, None]), axis=1)
        errors[run] = (size[:, -len(_GL_NODES):].sum(axis=1) + rounding) / np.pi
        start = run.stop
    return values, errors


def r1_excised_line_integral(n_pairs: int, log_cutoff: float, theta: float, c: float = 0.5) -> float:
    """Excised one-level density by direct quadrature of the Bromwich integral
    along the parabola through c: the oracle for `density_grid`'s residue route.

    Inside the hard gap the contour closes to the right and the value is 0.
    Raises DomainError when the quadrature's error estimate exceeds 1e-9 or a
    term overflows.
    """
    if c <= 0:
        raise DomainError("contour abscissa c must be positive")
    d = gap_margin(n_pairs, log_cutoff, theta)
    if abs(d) < 1e-12:
        raise DomainError("theta sits on the hard-gap boundary (d = 0): value is direction-dependent")
    if d < 0:
        return 0.0
    ratio = normalization_ratio(n_pairs, log_cutoff).value
    (value,), (tail_err,) = _line_quadrature(n_pairs, log_cutoff, np.array([theta], dtype=float), c)
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
    produced each value: the geometric bound on the residues left out plus
    the rounding floor (`_residue_series`), or the parabola's where
    `line_route` is set.  `ratio` is the normalization the values were
    divided by."""

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
    """Excised one-level density R_1 on an ascending grid of angles in [0, pi].

    Off the gap it sums R_1 of SO(2N), the residue at r = 0, and the
    contour residues at -1/2, -3/2, ..., -(2K+1)/2, and divides by
    `normalization_ratio(n_pairs, log_cutoff)`.  Zero on the hard gap (the
    boundary d = 0 is assigned to the gap).  Where the residue series' error
    exceeds 1e-9 (next to the gap edge, and where the residue terms cancel)
    the value is recomputed on the Bromwich parabola through c = 1/2, every
    such point in one `_line_quadrature` call, which needs the grid ascending.
    A point whose final tail still exceeds 1e-9 keeps its value; `tails` shows
    the miss.  A negative value within its tail of 0 becomes 0; one further
    below, or NaN, raises DomainError, and so does a parabola whose terms
    overflow (next to the gap edge at large N), and so does a grid that is not
    strictly ascending, before any route runs.
    """
    if truncation_K < 1:
        raise DomainError("truncation_K must be >= 1")
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    outside = ~((thetas >= 0) & (thetas <= np.pi))
    if np.any(outside):
        raise DomainError(f"theta={float(thetas[np.argmax(outside)])!r} is not a finite angle in [0, pi]")
    if np.any(np.diff(thetas) <= 0):
        raise DomainError("theta grid must be strictly ascending")
    ratio = normalization_ratio(n_pairs, log_cutoff)
    norm = ratio.value
    values = np.zeros_like(thetas)
    tails = np.zeros_like(thetas)
    live = gap_margin(n_pairs, log_cutoff, thetas) > 0
    if np.any(live):
        th = thetas[live]
        sums, errors = _residue_series(
            _density_residue(n_pairs, log_cutoff, th), truncation_K, r1_so2n_unscaled(n_pairs, th)
        )
        values[live] = sums / norm
        tails[live] = errors / norm
    line_route = tails > _DENSITY_TOL
    line_values, line_errors = _line_quadrature(n_pairs, log_cutoff, thetas[line_route], 0.5)
    values[line_route], tails[line_route] = line_values / norm, line_errors / norm
    below = ~(values >= -tails)
    if np.any(below):
        i = np.argmax(below)
        raise DomainError(f"density {values[i]:.6g} at theta={float(thetas[i])!r} is below -tail = {-tails[i]:.2g}")
    return DensityGrid(thetas, np.maximum(values, 0.0), tails, line_route, ratio)
