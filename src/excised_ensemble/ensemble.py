"""Rejection sampling of the excised ensemble and empirical statistics:
first-eigenvalue and one-level histograms, CDFs, and the mean-CDF-distance
error measure used to compare distributions.
"""

from __future__ import annotations

import csv
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_ensemble
from .haar import (
    _SmallBatch,
    beta_log_char_poly_batch,
    jacobi_eigenphases_batch,
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
]

_ACCEPTANCE_PROBE = 100_000
# Rows of every N <= 2 batch, whose row is 2N - 1 <= 3 Beta variables.  At this
# size a batch's arrays stay in cache; at 50 000 rows the N <= 2 draw ran about
# 3x slower, and its peak memory varied by up to 8 MiB with the seed as the heap
# fragmented.  Each share allocates those arrays once and every batch reuses
# them (`haar._SmallBatch`, 584 KiB at N = 2): allocated afresh, a fresh pass of
# 200 000 spectra took 3 242 minor page faults instead of 1 045, as glibc mapped
# and unmapped each array of 128 KiB or more and trimmed the worker's arena
# between batches.  From N = 3 on every batch holds _BATCH_SIZE * 3 Beta
# variables, so its rows shrink as 1 / (2N - 1), down to one row from N = 12 289
# on: there the largest temporary is the dense N x N Jacobi stack that `eigvalsh`
# solves, which at 8192 rows would grow as N^2: 9.4 MB at N = 12 and 105 MB at
# N = 40.
_BATCH_SIZE = 8192
_MIN_ACCEPTANCE = 1e-6


@dataclass(frozen=True)
class ExcisionSpec:
    """Matrix half-size N and natural-log cutoff X defining the excised ensemble."""

    n_pairs: int
    log_cutoff: float

    def __post_init__(self):
        check_ensemble(self.n_pairs, self.log_cutoff)


@dataclass(frozen=True)
class SampleSummary:
    total_drawn: int
    accepted: int
    acceptance_rate: float
    mean_first_phase: float


@dataclass(frozen=True)
class Histogram:
    """Binned statistic rendered as a probability density.

    `counts` are per-bin counts (or any nonnegative per-bin masses), not all
    zero: an empty histogram raises DomainError when it is built, so it has
    no density, CDF or support to ask for.  `values()` renders the counts as
    a density that integrates to `total_mass` (1 for probability densities,
    N for one-level densities).
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
        if not np.any(self.counts):
            raise DomainError("the histogram is empty: every count is 0")

    @classmethod
    def of_samples(cls, samples, bin_edges, transform=np.asarray, total_mass: float = 1.0) -> Histogram:
        """Counts of `transform(block)` summed over the blocks of _BATCH_SIZE
        entries of `samples`, which add up to the counts of the whole.  Each
        block's values are built inside the np.histogram call and freed before
        the next block's are built: built whole, the rescaled smallest phases
        of 200 000 spectra took 2.5 MiB of peak memory, against 0.13 MiB."""
        edges = np.asarray(bin_edges, float)
        counts = np.zeros(len(edges) - 1, dtype=np.intp)
        for start in range(0, len(samples), _BATCH_SIZE):
            counts += np.histogram(transform(samples[start : start + _BATCH_SIZE]), bins=edges)[0]
        return cls(edges, counts, total_mass)

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.bin_edges)

    def values(self) -> np.ndarray:
        return self.total_mass * self.counts / (self.counts.sum() * self.widths)

    def cdf_at(self, x) -> np.ndarray:
        """Empirical CDF, piecewise linear between bin edges."""
        cum = np.concatenate([[0.0], np.cumsum(self.counts)]) / self.counts.sum()
        return np.interp(np.asarray(x, dtype=float), self.bin_edges, cum, left=0.0, right=1.0)

    @property
    def support(self) -> tuple:
        nonzero = np.nonzero(self.counts)[0]
        return float(self.bin_edges[nonzero[0]]), float(self.bin_edges[nonzero[-1] + 1])


def default_bin_edges(n_bins: int = 100, scale: float = 1.0) -> np.ndarray:
    """Default binning: `n_bins` equal bins over [0, pi * scale].

    Raises DomainError unless pi * scale is finite and each bin's width is
    positive and at least the smallest normal float, so that every density,
    at most 1 / width, is finite too."""
    if n_bins < 1:
        raise DomainError(f"the number of bins must be >= 1, not {n_bins}")
    stop = np.pi * float(scale)
    if not (np.isfinite(stop) and stop / n_bins >= np.finfo(float).tiny):
        raise DomainError(f"scale must be finite and positive, with pi * scale / bins a normal float, got {scale}")
    return np.linspace(0.0, stop, n_bins + 1)


def _sample_excised_single(spec: ExcisionSpec, out: np.ndarray, rng, batch: int) -> int:
    """Fill the rows of `out` with accepted spectra drawn `batch` rows at a
    time; returns the draws counted.  At N <= 2 the share allocates its batch
    arrays once, before its first batch, and writes the phases straight into
    `out` (see _BATCH_SIZE and `haar._SmallBatch`).  Above that it zeroes one
    dense Jacobi stack of `batch` rows, and each batch writes only the bands
    of its accepted rows: a fresh stack a batch cost std-n12 1.5 MiB of peak
    memory."""
    count = len(out)
    small = _SmallBatch(spec.n_pairs, batch) if spec.n_pairs <= 2 else None
    stack = np.zeros((batch, spec.n_pairs**2)) if small is None else None
    n_accepted = 0
    total = 0
    while n_accepted < count:
        if small is None:
            betas = sample_beta_batch(spec.n_pairs, batch, rng)
            hits = beta_log_char_poly_batch(betas) >= spec.log_cutoff
        else:
            hits = small.draw(rng, spec.log_cutoff)
        found, wanted = np.count_nonzero(hits), count - n_accepted
        drawn = batch
        if found >= wanted:
            # the final batch counts draws up to its last hit only: a sequential rate estimate
            drawn = int(np.flatnonzero(hits)[wanted - 1]) + 1
            hits[drawn:] = False
            found = wanted
        rows = out[n_accepted : n_accepted + found]
        if small is None:
            rows[:] = jacobi_eigenphases_batch(np.compress(hits, betas, axis=0), stack)
        else:
            small.eigenphases(hits, rows)
        n_accepted += found
        total += drawn
        if total >= _ACCEPTANCE_PROBE and n_accepted / total < _MIN_ACCEPTANCE:
            raise DomainError(
                f"projected acceptance rate {n_accepted / total:.2e} below floor {_MIN_ACCEPTANCE:.0e} "
                f"after {total} draws (N={spec.n_pairs}, log_cutoff={spec.log_cutoff:g})"
            )
    return total


def sample_excised(spec: ExcisionSpec, count: int, seed, workers: int = 1):
    """Exactly `count` accepted eigenphase spectra of the excised ensemble.

    Rejection sampling: Haar SO(2N) spectra are drawn from the Killip-Nenciu
    tridiagonal model in batches of one width, 8192 rows at N <= 2 and
    24 576 // (2N - 1) rows (at least one) above, 1068 at N = 12, so the
    dense N x N stack of a batch stays near 1.2 MB at N = 12 and 4 MB at
    N = 40 instead of growing as N^2.  Those with log Lambda_A(1, N) < X are
    discarded before the eigen-solve (closed form at N <= 2, `eigvalsh`
    above), and a DomainError is raised when the acceptance rate falls below
    1e-6.  The draws do not depend on the batch width.  The count is split
    into min(`workers`, `count`) shares, each drawn from its own substream
    of `SeedSequence(seed)` (`seed` >= 0) on at most `os.cpu_count()`
    threads, so results are deterministic for fixed (seed, workers), and
    `workers` above `count` gives the output of `workers` = `count`.  Before
    any draw, a DomainError is raised when N > 2 and a batch's dense stack,
    8 N^2 bytes a row, exceeds the host's physical memory (from N = 12 289
    on, a batch is one row: 74.5 GiB at N = 100 000).

    Returns (spectra, summary): spectra has shape (count, N), rows sorted.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, not {workers}")
    if seed < 0:
        raise DomainError("seed must be >= 0")
    batch = max(1, _BATCH_SIZE * 3 // max(2 * spec.n_pairs - 1, 3))
    stack, memory = 8 * spec.n_pairs**2 * batch, os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if spec.n_pairs > 2 and stack > memory:
        raise DomainError(
            f"the dense Jacobi stack of a {batch}-row batch at N = {spec.n_pairs} needs {stack / 2**30:.1f} GiB, "
            f"more than the host's {memory / 2**30:.1f} GiB of physical memory"
        )
    # held in a local to the end: spawned from a temporary, it cost a cold N = 2
    # pass of 200 000 spectra ~2000 more minor page faults and 2-4 ms
    seq = np.random.SeedSequence(seed)
    streams = min(workers, count)
    shares = [count // streams + (1 if i < count % streams else 0) for i in range(streams)]
    starts = np.cumsum([0] + shares)
    rngs = [np.random.default_rng(s) for s in seq.spawn(streams)]
    spectra = np.empty((count, spec.n_pairs))
    with ThreadPoolExecutor(max_workers=min(streams, os.cpu_count() or 1)) as pool:
        futures = [
            pool.submit(_sample_excised_single, spec, spectra[start : start + share], rng, batch)
            for start, share, rng in zip(starts, shares, rngs)
        ]
        total = sum(f.result() for f in futures)
    summary = SampleSummary(
        total_drawn=int(total),
        accepted=int(len(spectra)),
        acceptance_rate=len(spectra) / total,
        mean_first_phase=float(np.mean(spectra[:, 0])),
    )
    return spectra, summary


def first_eigenvalue_distribution(stream, bin_edges, scale: float = 1.0) -> Histogram:
    """Probability density histogram of the smallest eigenphase, with samples
    multiplied by `scale` (mean-matching rescale) before binning, counted in
    blocks of _BATCH_SIZE spectra.  A stream of no phases is a DomainError."""
    # a fold over the N columns, as numpy reduces short rows slowly.  From +inf
    # it puts a spectrum of no phases outside every bin, and at N = 1 it returns
    # a new array, not the caller's column
    return Histogram.of_samples(np.atleast_2d(np.asarray(stream, dtype=float)), bin_edges,
                                lambda block: functools.reduce(np.minimum, block.T, np.inf) * scale)


def empirical_one_level_density(stream, bin_edges) -> Histogram:
    """Histogram over all phases of all spectra, normalized so that the
    density integrates to N (one-level density convention), counted in
    blocks of _BATCH_SIZE phases (`Histogram.of_samples`): built whole,
    np.histogram's sorted copies took 1 MiB of peak memory on 20 000 spectra
    at N = 12, against 0.07 MiB in blocks."""
    phases = np.atleast_2d(np.asarray(stream, dtype=float))
    return Histogram.of_samples(phases.ravel(), bin_edges, total_mass=float(phases.shape[1]))


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
