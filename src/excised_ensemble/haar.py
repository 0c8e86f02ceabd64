"""Haar SO(2N) eigenphases, drawn two ways, and the characteristic
polynomial evaluated at the symmetry point.

The sampler draws from the Killip-Nenciu model (Killip & Nenciu, IMRN 2004,
Thm 2, with beta = 2 and a = b = -1/2): x = 2 cos theta of Haar SO(2N) has the
law of the eigenvalues of an N x N tridiagonal (Jacobi) matrix built from
2N - 1 independent Beta variables, and log Lambda_A(1, N) is a sum over those
variables, so a cutoff can be tested before any eigen-solve.  The eigenvalues
of J come in closed form from its bands at N <= 2 and from one `eigvalsh`
call on the dense stack above.

In that model y ~ Beta(c, c) is (1 + Z) / 2, where Z is the first coordinate
of a uniform point on the sphere S^(2c).  The shapes of N <= 2 (c = 1/2, 1,
3/2) then come exactly from uniforms U, U_1, U_2 on [0, 1): the arcsine law
y = cos^2(pi U / 2) from the circle, y = 1 - U from Archimedes' theorem on
S^2, and the semicircle law y = (1 + r cos phi) / 2 from the uniform point
(r, phi) = (sqrt(U_1), 2 pi U_2) of the unit disk, the projection of S^3.
Above N = 2 the variables come from numpy's Beta sampler.

The reference route draws the matrices themselves: the QR decomposition of an
i.i.d. standard Gaussian matrix with the R-diagonal sign correction is Haar on
O(2N) (Mezzadri 2007); matrices landing in the det = -1 coset are translated
into SO(2N) by flipping the last column (right multiplication by a fixed
reflection preserves Haar invariance).  Their eigenphases come from one real
symmetric eigen-solve.
"""

from __future__ import annotations

import functools

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily; importing it here keeps that out of the first draw

from .errors import _check_pairs

__all__ = [
    "sample_beta_batch",
    "beta_log_char_poly_batch",
    "jacobi_eigenphases_batch",
    "sample_so2n_batch",
    "eigenphases_batch",
    "log_char_poly_batch",
]


def sample_beta_batch(n_pairs: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Killip-Nenciu variables of `count` Haar SO(2N) spectra, shape (count, 2N - 1).

    Column k holds y_k ~ Beta(c_k, c_k) with c_k = (2N - 1 - k) / 2; the
    Verblunsky coefficients of the spectral measure are alpha_k = 1 - 2 y_k.
    At N <= 2 (c_k in {3/2, 1, 1/2}) each row maps a fixed number of uniforms,
    1 at N = 1 and 4 at N = 2, by the exact transforms in the module
    docstring; above that one broadcast `rng.beta` call draws them.  Either
    way the rows consume the generator in order, so the draws do not depend
    on how they are split into batches.  At N <= 2 every y lies in (0, 1] and
    keeps its relative accuracy near 0, where log y enters the cutoff test.
    """
    _check_pairs(n_pairs)
    if n_pairs > 2:
        shape = (2 * n_pairs - 1 - np.arange(2 * n_pairs - 1)) / 2
        return rng.beta(shape, shape, size=(count, 2 * n_pairs - 1))
    uniforms = rng.random((count, 4 if n_pairs == 2 else 1)).T
    betas = np.empty((2 * n_pairs - 1, count))
    # c = 1/2: cos^2(pi U / 2) as sin^2(pi (1 - U) / 2), accurate where it nears 0
    _sin_squared(np.multiply(1.0 - uniforms[-1], np.pi / 2, out=betas[-1]))
    if n_pairs == 2:
        # c = 3/2: (1 + r cos phi) / 2 as (1 - U_1) / (2 (1 + r)) + r sin^2(pi (U_2 - 1/2)), no cancellation
        r = np.sqrt(uniforms[0])
        np.divide(1.0 - uniforms[0], 2.0 * (1.0 + r), out=betas[0])
        betas[0] += r * _sin_squared(np.pi * (uniforms[1] - 0.5))
        np.subtract(1.0, uniforms[2], out=betas[1])  # c = 1
    return betas.T


def _sin_squared(t: np.ndarray) -> np.ndarray:
    """sin^2 t = tan^2 t / (1 + tan^2 t) for |t| <= pi / 2, in place, to a few
    ulp relative.  numpy's AVX-512 builds vectorize `tan` but not `sin`: on
    the 2-vCPU Xeon `tan` costs 2 ns an element and `sin` 9-12 ns."""
    np.tan(t, out=t)
    np.square(t, out=t)
    return np.divide(t, 1.0 + t, out=t)


def beta_log_char_poly_batch(betas: np.ndarray) -> np.ndarray:
    """log Lambda_A(1, N) = log det(2 - J) = 2N log 2 + sum_k log y_k, exactly, rows = spectra."""
    n = (betas.shape[-1] + 1) // 2
    logs = np.log(betas)
    # numpy reduces short rows slowly, so the N <= 2 columns are folded; from N = 3 on the row sum is faster
    total = functools.reduce(np.add, logs.T) if n <= 2 else np.sum(logs, axis=-1)
    return 2 * n * np.log(2.0) + total


def _jacobi_bands(betas: np.ndarray) -> tuple:
    """Diagonal (count, N) and off-diagonal (count, N - 1) of the Jacobi matrices J
    of the Killip-Nenciu variables.

    With alpha_{-1} = alpha_{2N-1} = -1 the Geronimus relations give, for k = 0 ... N-1,
    J[k, k] = (1 - alpha_{2k-1}) alpha_{2k} - (1 + alpha_{2k-1}) alpha_{2k-2} and
    J[k, k+1] = J[k+1, k] = sqrt((1 - alpha_{2k-1}) (1 - alpha_{2k}^2) (1 + alpha_{2k+1})).
    """
    alpha = np.pad(1 - 2 * betas, ((0, 0), (1, 1)), constant_values=-1.0)
    odd, even = alpha[:, 0::2], alpha[:, 1::2]  # alpha_{2k-1} for k = 0 ... N; alpha_{2k} for k = 0 ... N-1
    # alpha_{-2} is multiplied by 1 + alpha_{-1} = 0
    even_before = np.pad(even[:, :-1], ((0, 0), (1, 0)))
    diagonal = (1 - odd[:, :-1]) * even - (1 + odd[:, :-1]) * even_before
    off = np.sqrt((1 - odd[:, :-2]) * (1 - even[:, :-1] ** 2) * (1 + odd[:, 1:-1]))
    return diagonal, off


def _jacobi_matrix_batch(betas: np.ndarray) -> np.ndarray:
    """The N x N Jacobi matrices J of the Killip-Nenciu variables, shape (count, N, N)."""
    diagonal, off = _jacobi_bands(betas)
    count, n = diagonal.shape
    jacobi = np.zeros((count, n * n))
    jacobi[:, :: n + 1] = diagonal
    jacobi[:, 1 :: n + 1] = off  # superdiagonal
    jacobi[:, n :: n + 1] = off  # subdiagonal
    return jacobi.reshape(count, n, n)


def jacobi_eigenphases_batch(betas: np.ndarray) -> np.ndarray:
    """Eigenphases theta = arccos(x / 2) of the eigenvalues x of the Jacobi
    matrices J of the Killip-Nenciu variables, shape (count, N), each row ascending.

    At N <= 2 the eigenvalues come in closed form from the variables, with no
    matrix built (see `_closed_form_cosines`).  Above that one `eigvalsh`
    call solves the dense stack.
    """
    n = (betas.shape[-1] + 1) // 2
    if n > 2:
        cosines = np.linalg.eigvalsh(_jacobi_matrix_batch(betas))[..., ::-1] / 2
    else:
        cosines = _closed_form_cosines(betas)
    return np.arccos(np.clip(cosines, -1.0, 1.0, out=cosines), out=cosines)


def _closed_form_cosines(betas: np.ndarray) -> np.ndarray:
    """x / 2 for the eigenvalues x of J at N <= 2, shape (count, N), rows descending.

    These are `_jacobi_bands`' Geronimus relations with alpha_{-1} = alpha_{2N-1} = -1
    put in: x = J[0, 0] = 2 alpha_0 at N = 1, and at N = 2
    x = mid +- sqrt(((d_0 - d_1) / 2)^2 + e^2) with mid = (d_0 + d_1) / 2 (the
    2 x 2 formula of LAPACK's dlae2), where d_0 = 2 alpha_0,
    d_1 = (1 - alpha_1) alpha_2 - (1 + alpha_1) alpha_0 and
    e^2 = 2 (1 - alpha_0^2) (1 + alpha_1).  |alpha_k| <= 1 bounds the bands, so
    the square root needs no `hypot` scaling, which numpy does not vectorize.
    """
    alpha = 1 - 2 * betas
    if alpha.shape[-1] == 1:
        return alpha
    a0, a1, a2 = alpha.T
    d0 = 2 * a0
    d1 = (1 - a1) * a2 - (1 + a1) * a0
    half_gap = (d0 - d1) / 2
    radius = np.sqrt(half_gap * half_gap + 2 * (1 - a0 * a0) * (1 + a1))
    mid = (d0 + d1) / 2
    cosines = np.empty((len(alpha), 2))
    np.add(mid, radius, out=cosines[:, 0])
    np.subtract(mid, radius, out=cosines[:, 1])
    cosines /= 2
    return cosines


def sample_so2n_batch(n_pairs: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of `count` Haar SO(2N) matrices, shape (count, 2N, 2N)."""
    _check_pairs(n_pairs)
    gauss = rng.standard_normal((count, 2 * n_pairs, 2 * n_pairs))
    q, r = np.linalg.qr(gauss)
    signs = np.sign(np.diagonal(r, axis1=1, axis2=2))
    signs[signs == 0] = 1.0
    q = q * signs[:, None, :]
    dets = np.linalg.det(q)
    q[dets < 0, :, -1] *= -1.0
    return q


def eigenphases_batch(matrices: np.ndarray) -> np.ndarray:
    """Eigenphases of a stack of SO(2N) matrices, shape (count, N), each row ascending.

    The eigenvalues pair as e^(+-i theta_j), so (A + A^T)/2 has the eigenvalues
    cos theta_j, each twice; one of each pair in descending order gives the
    phases in ascending order.  Clipping to [-1, 1] maps +-1 exactly to 0, pi.
    """
    cosines = np.linalg.eigvalsh(matrices + np.swapaxes(matrices, -1, -2))[..., ::-2] / 2
    return np.arccos(np.clip(cosines, -1.0, 1.0))


def log_char_poly_batch(phases: np.ndarray) -> np.ndarray:
    """log Lambda_A(1, N) = 2N log 2 + 2 sum_j log sin(theta_j / 2), rows = spectra.

    Returns -inf for spectra containing a phase exactly 0.
    """
    n = phases.shape[-1]
    with np.errstate(divide="ignore"):
        return 2 * n * np.log(2.0) + 2 * np.sum(np.log(np.sin(phases / 2)), axis=-1)
