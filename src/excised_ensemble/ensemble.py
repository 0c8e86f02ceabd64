"""Rejection sampling of the excised ensemble and empirical statistics:
first-eigenvalue and one-level histograms, CDFs, and the mean-CDF-distance
error measure used to compare distributions.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .haar import (
    beta_log_char_poly_batch,
    jacobi_eigenphases_batch,
    jacobi_matrix_batch,
    max_log_char_poly,
    sample_beta_batch,
)
# the benchmark's traced runs wrap these three names here (ROADMAP item 6)
from .haar import eigenphases_batch, log_char_poly_batch, sample_so2n_batch  # noqa: F401

__all__ = [
    "ExcisionSpec",
    "SampleSummary",
    "Histogram",
    "default_bin_edges",
    "sample_excised",
    "first_eigenvalue_distribution",
    "empirical_one_level_density",
    "cdf_distance",
    "write_histogram_csv",
    "read_histogram_csv",
    "summary_json_dict",
]

_ACCEPTANCE_PROBE = 100_000
_BATCH_SIZE = 50_000
_MIN_ACCEPTANCE = 1e-6


@dataclass(frozen=True)
class ExcisionSpec:
    """Matrix half-size N and natural-log cutoff X defining the excised ensemble."""

    n_pairs: int
    log_cutoff: float

    def __post_init__(self):
        if self.n_pairs < 1:
            raise DomainError("n_pairs must be >= 1")
        if np.isnan(self.log_cutoff):
            raise DomainError("log_cutoff must be a number, not nan")
        if self.log_cutoff >= max_log_char_poly(self.n_pairs):
            raise DomainError("log_cutoff >= 2N log 2: the excised ensemble is empty")


@dataclass(frozen=True)
class SampleSummary:
    total_drawn: int
    accepted: int
    acceptance_rate: float
    mean_first_phase: float


@dataclass(frozen=True)
class Histogram:
    """Binned statistic rendered as a probability density.

    `counts` are per-bin counts (or any nonnegative per-bin masses);
    `values()` renders them as a density that integrates to `total_mass`
    (1 for probability densities, N for one-level densities).
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    total_mass: float = 1.0

    def __post_init__(self):
        if len(self.counts) != len(self.bin_edges) - 1:
            raise DomainError("need len(counts) == len(bin_edges) - 1")
        if not (np.all(np.isfinite(self.bin_edges)) and np.all(np.isfinite(self.counts))):
            raise DomainError("bin edges and counts must be finite")
        if np.any(np.diff(self.bin_edges) <= 0):
            raise DomainError("bin edges must be strictly ascending")
        if np.any(self.counts < 0):
            raise DomainError("counts must be nonnegative")

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.bin_edges)

    def values(self) -> np.ndarray:
        total = self.counts.sum()
        if total == 0:
            raise DomainError("empty histogram has no normalized values")
        return self.total_mass * self.counts / (total * self.widths)

    def cdf_at(self, x) -> np.ndarray:
        """Empirical CDF, piecewise linear between bin edges."""
        total = self.counts.sum()
        if total == 0:
            raise DomainError("empty histogram has no CDF")
        cum = np.concatenate([[0.0], np.cumsum(self.counts)]) / total
        return np.interp(np.asarray(x, dtype=float), self.bin_edges, cum, left=0.0, right=1.0)

    @property
    def support(self) -> tuple:
        nonzero = np.nonzero(self.counts)[0]
        if len(nonzero) == 0:
            raise DomainError("empty histogram has no support")
        return float(self.bin_edges[nonzero[0]]), float(self.bin_edges[nonzero[-1] + 1])


def default_bin_edges(n_bins: int = 100, scale: float = 1.0) -> np.ndarray:
    """Default binning: `n_bins` equal bins over [0, pi * scale]."""
    if n_bins < 1:
        raise DomainError(f"the number of bins must be >= 1, not {n_bins}")
    if not (np.isfinite(scale) and scale > 0):
        raise DomainError(f"scale must be finite and positive, got {scale}")
    return np.linspace(0.0, np.pi * scale, n_bins + 1)


def _as_phase_matrix(stream) -> np.ndarray:
    phases = np.asarray(stream, dtype=float)
    if phases.ndim == 1:
        phases = phases[None, :]
    if phases.size == 0:
        raise DomainError("empty spectrum stream")
    return phases


def _sample_excised_single(spec: ExcisionSpec, count: int, rng):
    accepted = []
    n_accepted = 0
    total = 0
    while n_accepted < count:
        need = count - n_accepted
        rate = max(n_accepted / total, _MIN_ACCEPTANCE) if total else 1.0
        batch = int(min(_BATCH_SIZE, max(np.ceil(1.1 * need / rate), 256)))
        betas = sample_beta_batch(spec.n_pairs, batch, rng)
        hits = np.nonzero(beta_log_char_poly_batch(betas) >= spec.log_cutoff)[0][:need]
        accepted.append(jacobi_eigenphases_batch(jacobi_matrix_batch(betas[hits])))
        n_accepted += len(hits)
        # the final batch counts draws up to its last hit only: a sequential rate estimate
        total += int(hits[-1]) + 1 if n_accepted == count else batch
        if total >= _ACCEPTANCE_PROBE and n_accepted / total < _MIN_ACCEPTANCE:
            raise DomainError(
                f"projected acceptance rate {n_accepted / total:.2e} below floor {_MIN_ACCEPTANCE:.0e} "
                f"after {total} draws (N={spec.n_pairs}, log_cutoff={spec.log_cutoff:g})"
            )
    return np.concatenate(accepted, axis=0), total


def sample_excised(spec: ExcisionSpec, count: int, seed, workers: int = 1):
    """Exactly `count` accepted eigenphase spectra of the excised ensemble.

    Rejection sampling: Haar SO(2N) spectra are drawn from the Killip-Nenciu
    tridiagonal model in batches of at most 50 000, those with
    log Lambda_A(1, N) < X are discarded before the eigen-solve, and a
    DomainError is raised when the acceptance rate falls below 1e-6.  With
    `workers` > 1 the draw is split across independently seeded substreams
    (spawned from `seed`), so results are deterministic for fixed
    (seed, workers) and independent of scheduling.

    Returns (spectra, summary): spectra has shape (count, N), rows sorted.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, not {workers}")
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    shares = [count // workers + (1 if i < count % workers else 0) for i in range(workers)]
    rngs = [np.random.default_rng(s) for s in seq.spawn(workers)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_sample_excised_single, spec, share, rng)
            for share, rng in zip(shares, rngs)
            if share > 0
        ]
        parts = [f.result() for f in futures]
    spectra = np.concatenate([p[0] for p in parts], axis=0)
    total = sum(p[1] for p in parts)
    summary = SampleSummary(
        total_drawn=int(total),
        accepted=int(len(spectra)),
        acceptance_rate=len(spectra) / total,
        mean_first_phase=float(np.mean(spectra[:, 0])),
    )
    return spectra, summary


def first_eigenvalue_distribution(stream, bin_edges, scale: float = 1.0) -> Histogram:
    """Probability density histogram of the smallest eigenphase, with samples
    multiplied by `scale` (mean-matching rescale) before binning."""
    phases = _as_phase_matrix(stream)
    firsts = phases.min(axis=1) * scale
    counts, _ = np.histogram(firsts, bins=bin_edges)
    return Histogram(np.asarray(bin_edges, float), counts)


def empirical_one_level_density(stream, bin_edges) -> Histogram:
    """Histogram over all phases of all spectra, normalized so that the
    density integrates to N (one-level density convention)."""
    phases = _as_phase_matrix(stream)
    counts, _ = np.histogram(phases.ravel(), bins=bin_edges)
    return Histogram(np.asarray(bin_edges, float), counts, total_mass=float(phases.shape[1]))


def cdf_distance(a: Histogram, b: Histogram, n_grid: int = 64) -> float:
    """Mean of |CDF_a - CDF_b| over `n_grid` evenly spaced points spanning
    the support of `b` (the reference data).  Raises DomainError when the
    supports are disjoint or `n_grid` < 1.
    """
    if n_grid < 1:
        raise DomainError("n_grid must be >= 1")
    lo_a, hi_a = a.support
    lo_b, hi_b = b.support
    if hi_a <= lo_b or hi_b <= lo_a:
        raise DomainError("histogram supports are disjoint")
    grid = np.linspace(lo_b, hi_b, n_grid)
    return float(np.mean(np.abs(a.cdf_at(grid) - b.cdf_at(grid))))


def write_histogram_csv(hist: Histogram, path) -> None:
    """CSV rows bin_left,bin_right,value with the histogram's density values."""
    values = hist.values()
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["bin_left", "bin_right", "value"])
        for left, right, val in zip(hist.bin_edges[:-1], hist.bin_edges[1:], values):
            writer.writerow([repr(float(left)), repr(float(right)), repr(float(val))])


def read_histogram_csv(path) -> Histogram:
    """Rebuild a histogram from a bin_left,bin_right,value CSV of densities.

    Each density times its bin width is stored as the bin's mass, which is
    all the CDF machinery needs.
    """
    lefts, rights, vals = [], [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            lefts.append(float(row["bin_left"]))
            rights.append(float(row["bin_right"]))
            vals.append(float(row["value"]))
    if not lefts:
        raise DomainError(f"no histogram rows in {path}")
    edges = np.asarray(lefts + [rights[-1]], dtype=float)
    vals = np.asarray(vals, dtype=float)
    return Histogram(edges, vals * np.diff(edges))


def summary_json_dict(summary: SampleSummary, spec: ExcisionSpec, seed) -> dict:
    return {
        "total_drawn": summary.total_drawn,
        "accepted": summary.accepted,
        "acceptance_rate": summary.acceptance_rate,
        "mean_first_phase": summary.mean_first_phase,
        "seed": seed,
        "n_pairs": spec.n_pairs,
        "log_cutoff": spec.log_cutoff,
    }

