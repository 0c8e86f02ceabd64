"""Haar SO(2N) eigenphases, drawn two ways, and the characteristic
polynomial evaluated at the symmetry point.

The sampler draws from the Killip-Nenciu model (Killip & Nenciu, IMRN 2004,
Thm 2, with beta = 2 and a = b = -1/2): x = 2 cos theta of Haar SO(2N) has the
law of the eigenvalues of an N x N tridiagonal (Jacobi) matrix built from
2N - 1 independent Beta variables, and log Lambda_A(1, N) is a sum over those
variables, so a cutoff can be tested before any eigen-solve.

The reference route draws the matrices themselves: the QR decomposition of an
i.i.d. standard Gaussian matrix with the R-diagonal sign correction is Haar on
O(2N) (Mezzadri 2007); matrices landing in the det = -1 coset are translated
into SO(2N) by flipping the last column (right multiplication by a fixed
reflection preserves Haar invariance).  Their eigenphases come from one real
symmetric eigen-solve.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import DomainError

__all__ = [
    "sample_beta_batch",
    "beta_log_char_poly_batch",
    "jacobi_matrix_batch",
    "jacobi_eigenphases_batch",
    "sample_so2n_batch",
    "eigenphases_batch",
    "log_char_poly_batch",
    "max_log_char_poly",
    "write_spectra_csv",
]


def sample_beta_batch(n_pairs: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Killip-Nenciu variables of `count` Haar SO(2N) spectra, shape (count, 2N - 1).

    Column k holds y_k ~ Beta(c_k, c_k) with c_k = (2N - 1 - k) / 2; the
    Verblunsky coefficients of the spectral measure are alpha_k = 1 - 2 y_k.
    """
    if n_pairs < 1:
        raise DomainError("n_pairs must be >= 1")
    shape = (2 * n_pairs - 1 - np.arange(2 * n_pairs - 1)) / 2
    return rng.beta(shape, shape, size=(count, 2 * n_pairs - 1))


def beta_log_char_poly_batch(betas: np.ndarray) -> np.ndarray:
    """log Lambda_A(1, N) = log det(2 - J) = 2N log 2 + sum_k log y_k, exactly, rows = spectra."""
    n = (betas.shape[-1] + 1) // 2
    return 2 * n * np.log(2.0) + np.sum(np.log(betas), axis=-1)


def jacobi_matrix_batch(betas: np.ndarray) -> np.ndarray:
    """The N x N Jacobi matrices J of the Killip-Nenciu variables, shape (count, N, N).

    With alpha_{-1} = alpha_{2N-1} = -1 the Geronimus relations give, for k = 0 ... N-1,
    J[k, k] = (1 - alpha_{2k-1}) alpha_{2k} - (1 + alpha_{2k-1}) alpha_{2k-2} and
    J[k, k+1] = J[k+1, k] = sqrt((1 - alpha_{2k-1}) (1 - alpha_{2k}^2) (1 + alpha_{2k+1})).
    """
    count, n = betas.shape[0], (betas.shape[-1] + 1) // 2
    alpha = np.pad(1 - 2 * betas, ((0, 0), (1, 1)), constant_values=-1.0)
    odd, even = alpha[:, 0::2], alpha[:, 1::2]  # alpha_{2k-1} for k = 0 ... N; alpha_{2k} for k = 0 ... N-1
    # alpha_{-2} is multiplied by 1 + alpha_{-1} = 0
    even_before = np.pad(even[:, :-1], ((0, 0), (1, 0)))
    diagonal = (1 - odd[:, :-1]) * even - (1 + odd[:, :-1]) * even_before
    off = np.sqrt((1 - odd[:, :-2]) * (1 - even[:, :-1] ** 2) * (1 + odd[:, 1:-1]))
    jacobi = np.zeros((count, n * n))
    jacobi[:, :: n + 1] = diagonal
    jacobi[:, 1 :: n + 1] = off  # superdiagonal
    jacobi[:, n :: n + 1] = off  # subdiagonal
    return jacobi.reshape(count, n, n)


def jacobi_eigenphases_batch(jacobi: np.ndarray) -> np.ndarray:
    """Eigenphases theta = arccos(x / 2) of the eigenvalues x of a stack of
    Jacobi matrices, shape (count, N), each row ascending."""
    return np.arccos(np.clip(np.linalg.eigvalsh(jacobi)[..., ::-1] / 2, -1.0, 1.0))


def sample_so2n_batch(n_pairs: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of `count` Haar SO(2N) matrices, shape (count, 2N, 2N)."""
    if n_pairs < 1:
        raise DomainError("n_pairs must be >= 1")
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


def max_log_char_poly(n_pairs: int) -> float:
    """Upper bound 2N log 2 attained when all eigenvalues sit at -1."""
    return 2 * n_pairs * np.log(2.0)


def write_spectra_csv(path, phases: np.ndarray) -> None:
    """Raw spectrum dump: header theta_1,...,theta_N,log_lambda, one row per matrix."""
    phases = np.atleast_2d(phases)
    log_lambda = log_char_poly_batch(phases)
    n = phases.shape[1]
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"theta_{j + 1}" for j in range(n)] + ["log_lambda"])
        for row, ll in zip(phases, log_lambda):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(ll))])
