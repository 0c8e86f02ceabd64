import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

from excised_ensemble import ensemble as ensemble_module
from excised_ensemble.analytic import theta_inf
from excised_ensemble.ensemble import (
    ExcisionSpec,
    Histogram,
    cdf_distance,
    default_bin_edges,
    empirical_one_level_density,
    first_eigenvalue_distribution,
    read_histogram_csv,
    sample_excised,
    write_histogram_csv,
)
from excised_ensemble.errors import DomainError
from excised_ensemble.haar import eigenphases_batch, log_char_poly_batch, sample_beta_batch, sample_so2n_batch

X_TENTH = np.log(0.1)
NO_CUT = -1e6


class TestExcisionSpec:
    def test_empty_ensemble_rejected(self):
        with pytest.raises(DomainError):
            ExcisionSpec(2, 4 * np.log(2.0))
        with pytest.raises(DomainError):
            ExcisionSpec(0, -1.0)

    def test_valid(self):
        spec = ExcisionSpec(2, X_TENTH)
        assert spec.n_pairs == 2

    def test_nan_cutoff_rejected(self):
        with pytest.raises(DomainError, match="nan"):
            ExcisionSpec(2, np.nan)


class TestSampleExcised:
    def test_everything_accepted_below_attainable_minimum(self):
        spectra, summary = sample_excised(ExcisionSpec(2, NO_CUT), 10_000, seed=1)
        assert summary.acceptance_rate == 1.0
        assert summary.total_drawn == summary.accepted >= 10_000
        assert spectra.shape == (10_000, 2)

    def test_hard_gap_enforced_analytically(self):
        spec = ExcisionSpec(2, X_TENTH)
        spectra, _ = sample_excised(spec, 20_000, seed=2)
        assert spectra.min() > theta_inf(2, X_TENTH)

    def test_exact_count_and_summary_consistency(self):
        spectra, summary = sample_excised(ExcisionSpec(2, X_TENTH), 5000, seed=3)
        assert len(spectra) == 5000
        assert summary.accepted == 5000
        assert summary.accepted <= summary.total_drawn
        assert summary.acceptance_rate == pytest.approx(summary.accepted / summary.total_drawn)
        assert summary.mean_first_phase == pytest.approx(np.mean(spectra[:, 0]))

    def test_seed_determinism(self):
        a, sa = sample_excised(ExcisionSpec(2, X_TENTH), 1000, seed=7)
        b, sb = sample_excised(ExcisionSpec(2, X_TENTH), 1000, seed=7)
        assert np.array_equal(a, b)
        assert sa == sb

    def test_workers_deterministic(self):
        a, _ = sample_excised(ExcisionSpec(2, X_TENTH), 3000, seed=5, workers=3)
        b, _ = sample_excised(ExcisionSpec(2, X_TENTH), 3000, seed=5, workers=3)
        assert np.array_equal(a, b)
        assert len(a) == 3000

    def test_threads_are_capped_at_the_cpu_count(self, monkeypatch):
        # `workers` still sets the shares and substreams, so only the thread count changes
        spec = ExcisionSpec(2, X_TENTH)
        a, sa = sample_excised(spec, 2000, seed=23, workers=8)
        pools = []

        class RecordingPool(ensemble_module.ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(ensemble_module.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(ensemble_module, "ThreadPoolExecutor", RecordingPool)
        b, sb = sample_excised(spec, 2000, seed=23, workers=8)
        assert pools and max(pools) <= 2
        assert np.array_equal(a, b)
        assert sa == sb

    @pytest.mark.parametrize(
        "n_pairs, log_cutoff, count, workers",
        [(1, X_TENTH, 2000, 1), (2, X_TENTH, 2000, 1), (1, X_TENTH, 2000, 2), (2, X_TENTH, 2000, 2),
         (3, X_TENTH, 1000, 1), (12, np.log(0.005424), 1000, 2)],
    )
    def test_batch_split_does_not_change_the_draws(self, monkeypatch, n_pairs, log_cutoff, count, workers):
        # the accept loop relies on draws not depending on how they are split into
        # batches; with two workers at N <= 2 two shares each reuse their own arrays
        spec = ExcisionSpec(n_pairs, log_cutoff)
        a, sa = sample_excised(spec, count, seed=19, workers=workers)
        monkeypatch.setattr(ensemble_module, "_BATCH_SIZE", 257)
        b, sb = sample_excised(spec, count, seed=19, workers=workers)
        assert np.array_equal(a, b)
        assert sa == sb
        assert sa.total_drawn > 257 * workers

    def test_width_sized_batches_match_one_batch(self, monkeypatch):
        # from N = 3 on a batch's rows shrink as 1 / (2N - 1): 311 at N = 40
        spec = ExcisionSpec(40, -12.5)
        batches = []

        def recording_sample_beta_batch(n_pairs, count, rng):
            batches.append(count)
            return sample_beta_batch(n_pairs, count, rng)

        monkeypatch.setattr(ensemble_module, "sample_beta_batch", recording_sample_beta_batch)
        a, sa = sample_excised(spec, 1000, seed=19)
        assert len(batches) >= 3 and set(batches) == {311}
        batches.clear()
        monkeypatch.setattr(ensemble_module, "_BATCH_SIZE", 2**20)
        b, sb = sample_excised(spec, 1000, seed=19)
        assert len(batches) == 1
        assert np.array_equal(a, b)
        assert sa == sb

    def test_batches_of_zero_rows_are_never_drawn(self, monkeypatch):
        # a width rule of 0 rows (here _BATCH_SIZE = 1 at N = 3, as 8192 does from
        # N = 12 289 on) once asked for empty batches forever; it is floored at one row
        spec = ExcisionSpec(3, X_TENTH)
        a, sa = sample_excised(spec, 20, seed=29)
        batches = []

        def recording_sample_beta_batch(n_pairs, count, rng):
            assert count >= 1, "asked for a batch of 0 rows"
            batches.append(count)
            return sample_beta_batch(n_pairs, count, rng)

        monkeypatch.setattr(ensemble_module, "_BATCH_SIZE", 1)
        monkeypatch.setattr(ensemble_module, "sample_beta_batch", recording_sample_beta_batch)
        b, sb = sample_excised(spec, 20, seed=29)
        assert set(batches) == {1} and len(batches) == sb.total_drawn
        assert np.array_equal(a, b)
        assert sa == sb

    def test_workers_above_count_build_one_generator_per_spectrum(self, monkeypatch):
        # 10 000 workers for 5 spectra once built 10 000 generators
        spec = ExcisionSpec(2, X_TENTH)
        a, sa = sample_excised(spec, 5, seed=31, workers=5)
        calls = []
        default_rng = np.random.default_rng

        def counting_default_rng(seed=None):
            calls.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(ensemble_module.np.random, "default_rng", counting_default_rng)
        b, sb = sample_excised(spec, 5, seed=31, workers=10_000)
        assert len(calls) <= 5
        assert np.array_equal(a, b)
        assert sa == sb

    @pytest.mark.parametrize("n_pairs, log_cutoff, count", [(12, np.log(0.005424), 20_000), (40, -12.5, 2000)])
    def test_working_set_does_not_grow_with_n_squared(self, n_pairs, log_cutoff, count):
        # beyond the output, 8192-row batches peaked at 12.4 MiB (N = 12) and 28.2 MiB
        # (N = 40), most of it the dense N x N stack; width-sized ones at 1.7 and 4.4 MiB
        tracemalloc.start()
        try:
            spectra, _ = sample_excised(ExcisionSpec(n_pairs, log_cutoff), count, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - spectra.nbytes < 8 * 2**20

    def test_phase_rounding_to_zero_is_still_accepted(self):
        # every draw, by any route, is a spectrum whose phase rounds to 0:
        # uniforms of 1 - 2^-53 give the arcsine variable y = sin^2(pi 2^-54) = 3e-32
        # and Beta variables of 1e-20 give y = 1e-20, so x = 2 - 4y; identity
        # Gaussians give the identity rotation; log Lambda = log 4y clears X = -1e9
        class PhaseZeroGenerator:
            def random(self, out):
                out[...] = 1 - 2.0**-53
                return out

            def beta(self, a, b, size):
                return np.full(size, 1e-20)

            def standard_normal(self, size):
                return np.broadcast_to(np.eye(size[-1]), size).copy()

        phases = np.empty((5, 1))
        total = ensemble_module._sample_excised_single(ExcisionSpec(1, -1e9), phases, PhaseZeroGenerator(), 8192)
        assert np.array_equal(phases, np.zeros((5, 1)))
        assert total == 5

    @pytest.mark.parametrize(
        "count, workers, seed, message",
        [(0, 1, 0, "count must be >= 1"), (5, 0, 0, "workers must be >= 1"), (5, 1, -1, "seed must be >= 0")],
        ids=["count0", "workers0", "seed-1"],
    )
    def test_argument_below_its_floor_rejected(self, count, workers, seed, message):
        with pytest.raises(DomainError, match=message):
            sample_excised(ExcisionSpec(2, X_TENTH), count, seed=seed, workers=workers)

    @pytest.mark.parametrize(
        "n_pairs, pages, message",
        [(100_000, 2**21, "needs 74.5 GiB, more than the host's 8.0 GiB"), (10_000_000, None, "needs 745058.1 GiB")],
        ids=["n1e5-8GiB-host", "n1e7-host-memory"],
    )
    def test_stack_beyond_physical_memory_raises_before_any_allocation(self, monkeypatch, n_pairs, pages, message):
        # from N = 12 289 on a batch is one row, whose dense Jacobi stack takes
        # 8 N^2 bytes: at N = 100 000 numpy once failed to allocate 74.5 GiB
        def fail(*args):
            raise AssertionError("drew a batch")

        monkeypatch.setattr(ensemble_module, "sample_beta_batch", fail)
        if pages is not None:
            monkeypatch.setattr(ensemble_module.os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}.get)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=r"a 1-row batch at N = \d+ " + message):
                sample_excised(ExcisionSpec(n_pairs, X_TENTH), 5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # not even the (5, N) output

    def test_raising_cutoff_never_accepts_more(self):
        # acceptance is a threshold on a per-matrix scalar
        phases = eigenphases_batch(sample_so2n_batch(2, 5000, np.random.default_rng(11)))
        lam = log_char_poly_batch(phases)
        keep_low = lam >= -3.0
        keep_high = lam >= -1.0
        assert np.all(keep_low | ~keep_high)
        assert keep_high.sum() <= keep_low.sum()

    def test_low_acceptance_aborts(self):
        # N = 1 with the cutoff nearly at the maximum 2 log 2
        spec = ExcisionSpec(1, np.log(4.0 * (1 - 1e-13)))
        with pytest.raises(DomainError, match="acceptance"):
            sample_excised(spec, 10, seed=1)

    def test_so24_acceptance_matches_residue_series(self):
        # the calibrated large-matrix regime: cutoff 2.188 e^-6 at N = 12
        cutoff = np.log(2.188) - 6.0
        phases = eigenphases_batch(sample_so2n_batch(12, 20_000, np.random.default_rng(24)))
        frac = float(np.mean(log_char_poly_batch(phases) >= cutoff))
        from excised_ensemble.analytic import normalization_ratio

        predicted = normalization_ratio(12, cutoff).value
        stderr = np.sqrt(predicted * (1 - predicted) / len(phases))
        assert abs(frac - predicted) <= 3 * stderr

    def test_unexcised_limit_matches_haar(self):
        # X = -40: excised and plain ensembles are statistically identical
        a, _ = sample_excised(ExcisionSpec(2, -40.0), 30_000, seed=21)
        b = eigenphases_batch(sample_so2n_batch(2, 30_000, np.random.default_rng(22)))
        assert ks_2samp(a.min(axis=1), b.min(axis=1)).pvalue > 0.01


class TestHistogram:
    def test_shape_validation(self):
        with pytest.raises(DomainError):
            Histogram(np.array([0.0, 1.0]), np.array([1, 2]))
        with pytest.raises(DomainError):
            Histogram(np.array([0.0, 1.0, 0.5]), np.array([1, 2]))

    @pytest.mark.parametrize(
        "counts, message", [([1, -1], "counts must be nonnegative"), ([0, 0], "empty"), ([0.0, 0.0], "empty")]
    )
    def test_negative_or_all_zero_counts_rejected(self, counts, message):
        # an empty histogram is refused when built, so no method checks it again
        with pytest.raises(DomainError, match=message):
            Histogram(np.array([0.0, 1.0, 2.0]), np.array(counts))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_edges_or_counts_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            Histogram(np.array([0.0, 1.0, bad]), np.array([1, 2]))
        with pytest.raises(DomainError, match="finite"):
            Histogram(np.array([0.0, 1.0, 2.0]), np.array([1.0, bad]))

    def test_pdf_integral_is_total_mass(self):
        h = Histogram(np.linspace(0, 1, 11), np.arange(10), total_mass=3.0)
        assert np.sum(h.values() * h.widths) == pytest.approx(3.0, abs=1e-12)

    def test_cdf_interpolation(self):
        h = Histogram(np.array([0.0, 1.0, 2.0]), np.array([1, 3]))
        assert h.cdf_at(0.0) == 0.0
        assert h.cdf_at(2.0) == 1.0
        assert h.cdf_at(1.0) == pytest.approx(0.25)
        assert h.cdf_at(1.5) == pytest.approx(0.25 + 0.75 / 2)


class TestFirstEigenvalue:
    def test_single_spectrum_mass_in_one_bin(self):
        edges = np.linspace(0, np.pi, 11)
        hist = first_eigenvalue_distribution(np.array([[0.3, 1.2]]), edges)
        vals = hist.values()
        idx = np.searchsorted(edges, 0.3) - 1
        assert vals[idx] > 0
        assert np.count_nonzero(vals) == 1

    def test_mean_matching_scale(self):
        # the paper-style rescale 0.4081/0.365 = 1.118 multiplies sample means
        scale = round(0.4081 / 0.365, 3)
        assert scale == 1.118
        spectra, _ = sample_excised(ExcisionSpec(2, X_TENTH), 4000, seed=13)
        edges = default_bin_edges(80, scale=scale)
        hist = first_eigenvalue_distribution(spectra, edges, scale=scale)
        firsts = spectra.min(axis=1)
        centers = (edges[:-1] + edges[1:]) / 2
        hist_mean = np.sum(hist.values() * hist.widths * centers)
        assert hist_mean == pytest.approx(scale * firsts.mean(), rel=5e-3)

    def test_pdf_normalization(self):
        spectra, _ = sample_excised(ExcisionSpec(2, NO_CUT), 2000, seed=4)
        hist = first_eigenvalue_distribution(spectra, default_bin_edges(50))
        assert np.sum(hist.values() * hist.widths) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("shape", [(0, 2), (1, 0), (3, 0), (0,)])
    @pytest.mark.parametrize("statistic", [first_eigenvalue_distribution, empirical_one_level_density])
    def test_empty_stream_rejected(self, statistic, shape):
        # at (1, 0) and (3, 0) the fold over no columns starts from its +inf
        with pytest.raises(DomainError, match="empty"):
            statistic(np.empty(shape), default_bin_edges(10))

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
    def test_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(DomainError, match="scale"):
            default_bin_edges(10, scale=scale)

    @pytest.mark.parametrize("n_bins", [0, -3])
    def test_bins_below_one_rejected(self, n_bins):
        with pytest.raises(DomainError, match="bins must be >= 1"):
            default_bin_edges(n_bins)

    @pytest.mark.parametrize("n_pairs", [1, 2, 12])
    def test_row_minimum_of_unsorted_rows(self, n_pairs):
        phases = np.random.default_rng(30 + n_pairs).uniform(0.0, np.pi, (5000, n_pairs))
        edges = default_bin_edges(40)
        counts, _ = np.histogram(phases.min(axis=1), edges)
        assert np.array_equal(first_eigenvalue_distribution(phases, edges).counts, counts)

    def test_peak_memory_does_not_grow_with_the_stream(self):
        # the whole column of smallest phases and its rescaled copy peaked at
        # 2.53 MiB on 200 000 spectra; blocks of _BATCH_SIZE rows at 0.13 MiB
        phases = np.sort(np.random.default_rng(5).uniform(0.0, np.pi, (200_000, 2)), axis=1)
        edges = default_bin_edges(100, scale=1.118)
        tracemalloc.start()
        try:
            first_eigenvalue_distribution(phases, edges, scale=1.118)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 2**20

    def test_single_phase_spectra_are_left_unmodified(self):
        # at N = 1 the fold over columns returns the caller's own column, so a
        # rescale in place would overwrite the input
        phases = np.random.default_rng(9).uniform(0.0, np.pi, (1000, 1))
        before = phases.copy()
        hist = first_eigenvalue_distribution(phases, default_bin_edges(30, scale=2.0), scale=2.0)
        assert np.array_equal(phases, before)
        assert np.array_equal(hist.counts, np.histogram(2.0 * before[:, 0], default_bin_edges(30, scale=2.0))[0])

    def test_two_pass_consistency(self):
        # histogram CDF against an independently computed empirical CDF
        spectra, _ = sample_excised(ExcisionSpec(2, NO_CUT), 20_000, seed=15)
        edges = default_bin_edges(100)
        hist = first_eigenvalue_distribution(spectra, edges)
        firsts = np.sort(spectra.min(axis=1))
        ecdf_at_edges = np.searchsorted(firsts, edges, side="right") / len(firsts)
        assert np.max(np.abs(hist.cdf_at(edges) - ecdf_at_edges)) < 1e-12


class TestOneLevelDensity:
    def test_so2_uniform_level(self):
        spectra, _ = sample_excised(ExcisionSpec(1, NO_CUT), 100_000, seed=6)
        hist = empirical_one_level_density(spectra, default_bin_edges(20))
        vals = hist.values()
        stderr = np.sqrt(len(spectra) / 20) / (len(spectra) * np.pi / 20)
        assert np.max(np.abs(vals - 1 / np.pi)) < 5 * stderr

    def test_integral_is_n(self):
        spectra, _ = sample_excised(ExcisionSpec(3, NO_CUT), 500, seed=8)
        hist = empirical_one_level_density(spectra, default_bin_edges(40))
        assert np.sum(hist.values() * hist.widths) == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("n_pairs", [1, 2, 12])
def test_blocked_counts_equal_one_histogram(monkeypatch, n_pairs):
    # counts over disjoint blocks add up to those of the whole, here in blocks
    # of 7 rows (first eigenvalue) and of 7 phases (one-level density)
    phases = np.sort(np.random.default_rng(40 + n_pairs).uniform(0.0, np.pi, (1000, n_pairs)), axis=1)
    edges = default_bin_edges(40, scale=1.118)
    first = np.histogram(phases.min(axis=1) * 1.118, edges)[0]
    level = np.histogram(phases.ravel(), edges)[0]
    monkeypatch.setattr(ensemble_module, "_BATCH_SIZE", 7)
    assert np.array_equal(first_eigenvalue_distribution(phases, edges, scale=1.118).counts, first)
    assert np.array_equal(empirical_one_level_density(phases, edges).counts, level)


class TestCdfDistance:
    def _uniform_hist(self, lo, hi, n=1000):
        edges = np.linspace(lo, hi, 21)
        counts = np.full(20, n // 20)
        return Histogram(edges, counts)

    def test_identical_is_zero(self):
        h = self._uniform_hist(0, 1)
        assert cdf_distance(h, h) == 0.0

    def test_full_shift_approaches_one(self):
        a = self._uniform_hist(0.0, 1.0)
        b = self._uniform_hist(1.0 - 1e-9, 2.0 - 1e-9)  # shifted by one support width
        # on b's support, CDF_a is already 1 while CDF_b sweeps 0 to 1
        assert cdf_distance(a, b) == pytest.approx(0.5, abs=0.02)
        # just right of a's support the CDFs are separated by essentially 1
        grid = np.linspace(1.0, 1.02, 64)
        assert np.mean(np.abs(a.cdf_at(grid) - b.cdf_at(grid))) > 0.97

    def test_disjoint_supports_rejected(self):
        a = self._uniform_hist(0.0, 1.0)
        b = self._uniform_hist(1.5, 2.0)
        with pytest.raises(DomainError):
            cdf_distance(a, b)

    def test_repeatability_of_independent_runs(self):
        edges = default_bin_edges(100)
        a, _ = sample_excised(ExcisionSpec(2, NO_CUT), 100_000, seed=31)
        b, _ = sample_excised(ExcisionSpec(2, NO_CUT), 100_000, seed=32)
        ha = first_eigenvalue_distribution(a, edges)
        hb = first_eigenvalue_distribution(b, edges)
        assert cdf_distance(ha, hb) < 0.01


class TestCsvRoundTrip:
    def test_write_then_read(self, tmp_path):
        spectra, _ = sample_excised(ExcisionSpec(2, X_TENTH), 2000, seed=9)
        hist = first_eigenvalue_distribution(spectra, default_bin_edges(30))
        path = tmp_path / "hist.csv"
        write_histogram_csv(hist, path)
        again = read_histogram_csv(path)
        assert np.allclose(again.values(), hist.values())
        assert np.allclose(again.cdf_at([0.5, 1.0]), hist.cdf_at([0.5, 1.0]))

    def test_header(self, tmp_path):
        hist = Histogram(np.array([0.0, 1.0]), np.array([5]))
        path = tmp_path / "h.csv"
        write_histogram_csv(hist, path)
        assert path.read_text().split("\n")[0] == "bin_left,bin_right,value"
