"""Haar-distributed SO(2N) matrices, eigenphase extraction, and the
characteristic polynomial evaluated at the symmetry point.

Sampling uses the QR decomposition of an i.i.d. standard Gaussian matrix with
the R-diagonal sign correction, which is Haar on O(2N) (Mezzadri 2007);
matrices landing in the det = -1 coset are translated into SO(2N) by flipping
the last column (right multiplication by a fixed reflection preserves Haar
invariance).  The eigenphases come from one real symmetric eigen-solve.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import DomainError

__all__ = [
    "sample_so2n_batch",
    "eigenphases_batch",
    "log_char_poly_batch",
    "max_log_char_poly",
    "write_spectra_csv",
]


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
