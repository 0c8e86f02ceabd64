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

A share of the sampler draws many batches of one width, and at N <= 2 it
allocates their arrays once, before its first batch (`_SmallBatch`): the
uniforms are drawn into them, the accepted rows compressed into them and the
phases written straight into the share's rows of the output.  Allocated
afresh for each batch, every temporary of 128 KiB or more was mapped and
unmapped by glibc, and the worker thread's malloc arena was trimmed between
batches, so each 8192-row batch faulted its pages in again: on the 2-vCPU
Xeon a fresh `first-eigenvalue --n 2` pass of 200 000 spectra took 3 242
minor page faults, against 927 for the same pass repeated in process.  With
the arrays reused it takes 1 045, about 780 of them the output's own pages.

The reference route draws the matrices themselves: the QR decomposition of an
i.i.d. standard Gaussian matrix with the R-diagonal sign correction is Haar on
O(2N) (Mezzadri 2007); matrices landing in the det = -1 coset are translated
into SO(2N) by flipping the last column (right multiplication by a fixed
reflection preserves Haar invariance).  Their eigenphases come from one real
symmetric eigen-solve.
"""

from __future__ import annotations

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
    betas = np.empty((2 * n_pairs - 1, count))
    _draw_small_betas(rng, np.empty((count, _UNIFORMS[n_pairs])), betas, np.empty((2, count)))
    return betas.T


_UNIFORMS = {1: 1, 2: 4}  # uniforms that make one row of Beta variables at N <= 2


def _draw_small_betas(rng, uniforms: np.ndarray, betas: np.ndarray, work: np.ndarray) -> None:
    """The N <= 2 variables of len(uniforms) spectra as the rows y_k of
    `betas`, from one `rng.random` call into `uniforms` and with the two rows
    of `work` as scratch, so nothing is allocated."""
    rng.random(out=uniforms)
    u = uniforms.T
    # c = 1/2: cos^2(pi U / 2) as sin^2(pi (1 - U) / 2), accurate where it nears 0
    np.subtract(1.0, u[-1], out=betas[-1])
    betas[-1] *= np.pi / 2
    _sin_squared(betas[-1])
    if len(betas) == 3:
        # c = 3/2: (1 + r cos phi) / 2 as (1 - U_1) / (2 (1 + r)) + r sin^2(pi (U_2 - 1/2)), no cancellation
        r, t = work
        np.sqrt(u[0], out=r)
        np.add(1.0, r, out=t)
        t *= 2.0
        np.divide(np.subtract(1.0, u[0], out=betas[0]), t, out=betas[0])
        np.subtract(u[1], 0.5, out=t)
        t *= np.pi
        betas[0] += np.multiply(r, _sin_squared(t), out=t)
        np.subtract(1.0, u[2], out=betas[1])  # c = 1


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
    if n <= 2:
        return _small_log_char_poly(betas.T, np.empty(len(betas)), np.empty(len(betas)))
    # from N = 3 on the row sum is faster than a fold over the columns
    return 2 * n * np.log(2.0) + np.sum(np.log(betas), axis=-1)


def _small_log_char_poly(rows: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """`beta_log_char_poly_batch` of N <= 2 variables held as the rows y_k,
    into `out`, with `work` as scratch.  numpy reduces short rows slowly, so
    the rows are folded."""
    np.log(rows[0], out=out)
    for row in rows[1:]:
        out += np.log(row, out=work)
    out += (len(rows) + 1) * np.log(2.0)
    return out


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


def _jacobi_matrix_batch(betas: np.ndarray, stack=None) -> np.ndarray:
    """The N x N Jacobi matrices J of the Killip-Nenciu variables, shape (count, N, N),
    built in the first rows of `stack`, shape (rows, N^2), when one is given: only
    the bands are written, so it must be zero off them."""
    diagonal, off = _jacobi_bands(betas)
    count, n = diagonal.shape
    jacobi = np.zeros((count, n * n)) if stack is None else stack[:count]
    jacobi[:, :: n + 1] = diagonal
    jacobi[:, 1 :: n + 1] = off  # superdiagonal
    jacobi[:, n :: n + 1] = off  # subdiagonal
    return jacobi.reshape(count, n, n)


def jacobi_eigenphases_batch(betas: np.ndarray, stack=None) -> np.ndarray:
    """Eigenphases theta = arccos(x / 2) of the eigenvalues x of the Jacobi
    matrices J of the Killip-Nenciu variables, shape (count, N), each row ascending.

    At N <= 2 the eigenvalues come in closed form from the variables, with no
    matrix built (see `_closed_form_cosines`).  Above that one `eigvalsh`
    call solves the dense stack, built in `stack` when one is given (see
    `_jacobi_matrix_batch`).
    """
    n = (betas.shape[-1] + 1) // 2
    if n > 2:
        cosines = np.linalg.eigvalsh(_jacobi_matrix_batch(betas, stack))[..., ::-1] / 2
    else:
        cosines = np.empty((len(betas), n))
        _closed_form_cosines(1 - 2 * betas.T, cosines, np.empty((2, len(betas))))
    return _phases(cosines)


def _phases(cosines: np.ndarray) -> np.ndarray:
    """arccos of `cosines` clipped to [-1, 1], in place."""
    return np.arccos(np.clip(cosines, -1.0, 1.0, out=cosines), out=cosines)


def _closed_form_cosines(alpha: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
    """x / 2 for the eigenvalues x of J at N <= 2 into `out`, shape (count, N),
    rows descending, from the rows alpha_k = 1 - 2 y_k, which it overwrites,
    with the two rows of `work` as scratch.

    These are `_jacobi_bands`' Geronimus relations with alpha_{-1} = alpha_{2N-1} = -1
    put in: x = J[0, 0] = 2 alpha_0 at N = 1, and at N = 2
    x = mid +- sqrt(((d_0 - d_1) / 2)^2 + e^2) with mid = (d_0 + d_1) / 2 (the
    2 x 2 formula of LAPACK's dlae2), where d_0 = 2 alpha_0,
    d_1 = (1 - alpha_1) alpha_2 - (1 + alpha_1) alpha_0 and
    e^2 = 2 (1 - alpha_0^2) (1 + alpha_1).  |alpha_k| <= 1 bounds the bands, so
    the square root needs no `hypot` scaling, which numpy does not vectorize.
    Each array below is named for what it holds at that point.
    """
    if len(alpha) == 1:
        out[:, 0] = alpha[0]
        return
    a0, a1, a2 = alpha
    d0, d1 = work
    np.multiply(a0, 2.0, out=d0)
    np.subtract(1.0, a1, out=d1)
    d1 *= a2
    d1 -= np.multiply(np.add(a1, 1.0, out=a2), a0, out=a2)
    half_gap = np.subtract(d0, d1, out=a2)
    half_gap /= 2.0
    mid = np.add(d0, d1, out=d0)
    mid /= 2.0
    e_squared = np.subtract(1.0, np.multiply(a0, a0, out=d1), out=d1)
    e_squared *= 2.0
    e_squared *= np.add(a1, 1.0, out=a1)
    radius = np.multiply(half_gap, half_gap, out=a2)
    np.sqrt(np.add(radius, e_squared, out=radius), out=radius)
    np.add(mid, radius, out=out[:, 0])
    np.subtract(mid, radius, out=out[:, 1])
    out /= 2.0


class _SmallBatch:
    """The arrays of one sampler share's batches of `rows` spectra at N <= 2,
    allocated once and reused by every batch (see the module docstring): the
    uniforms, the Beta rows, two rows of scratch (log Lambda, then the closed
    form's intermediates) and the cutoff mask, 584 KiB at 8192 rows and N = 2.
    The draws and every value are those of `sample_beta_batch`,
    `beta_log_char_poly_batch` and `jacobi_eigenphases_batch`.
    """

    def __init__(self, n_pairs: int, rows: int):
        self.uniforms = np.empty((rows, _UNIFORMS[n_pairs]))
        self.betas = np.empty((2 * n_pairs - 1, rows))
        self.work = np.empty((2, rows))
        self.hits = np.empty(rows, dtype=bool)
        # the uniforms are spent once the Beta rows are built, so their memory holds the accepted rows
        self.accepted = self.uniforms.reshape(-1)[: self.betas.size].reshape(self.betas.shape)

    def draw(self, rng, log_cutoff: float) -> np.ndarray:
        """Draw a batch; returns the mask of its spectra with log Lambda >= `log_cutoff`."""
        _draw_small_betas(rng, self.uniforms, self.betas, self.work)
        return np.greater_equal(_small_log_char_poly(self.betas, *self.work), log_cutoff, out=self.hits)

    def eigenphases(self, hits: np.ndarray, out: np.ndarray) -> None:
        """The eigenphases of the last batch's spectra where `hits` is set, len(out) of them, into `out`."""
        alpha = np.compress(hits, self.betas, axis=1, out=self.accepted[:, : len(out)])
        np.subtract(1.0, np.multiply(alpha, 2.0, out=alpha), out=alpha)
        _closed_form_cosines(alpha, out, self.work[:, : len(out)])
        _phases(out)


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
