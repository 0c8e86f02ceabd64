import json

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
    summary_json_dict,
    write_histogram_csv,
)
from excised_ensemble.errors import DomainError
from excised_ensemble.haar import eigenphases_batch, log_char_poly_batch, sample_so2n_batch

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

    @pytest.mark.parametrize(
        "n_pairs, log_cutoff, count, workers",
        [(2, X_TENTH, 2000, 1), (12, np.log(0.005424), 1000, 2)],
    )
    def test_batch_split_does_not_change_the_draws(self, monkeypatch, n_pairs, log_cutoff, count, workers):
        # the accept loop relies on draws not depending on how they are split into batches
        spec = ExcisionSpec(n_pairs, log_cutoff)
        a, sa = sample_excised(spec, count, seed=19, workers=workers)
        monkeypatch.setattr(ensemble_module, "_BATCH_SIZE", 257)
        b, sb = sample_excised(spec, count, seed=19, workers=workers)
        assert np.array_equal(a, b)
        assert sa == sb
        assert sa.total_drawn > 257 * workers

    def test_phase_rounding_to_zero_is_still_accepted(self):
        # every draw, by either route, is a spectrum whose phase rounds to 0:
        # Beta variables of 1e-20 give x = 2 - 4e-20, and identity Gaussians give
        # the identity rotation; log Lambda = log 4e-20 clears X = -1e9
        class PhaseZeroGenerator:
            def beta(self, a, b, size):
                return np.full(size, 1e-20)

            def standard_normal(self, size):
                return np.broadcast_to(np.eye(size[-1]), size).copy()

        phases, total = ensemble_module._sample_excised_single(ExcisionSpec(1, -1e9), 5, PhaseZeroGenerator())
        assert np.array_equal(phases, np.zeros((5, 1)))
        assert total == 5

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

    def test_empty_stream_rejected(self):
        with pytest.raises(DomainError):
            first_eigenvalue_distribution(np.empty((0, 2)), default_bin_edges(10))

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
    def test_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(DomainError, match="scale"):
            default_bin_edges(10, scale=scale)

    @pytest.mark.parametrize("n_bins", [0, -3])
    def test_bins_below_one_rejected(self, n_bins):
        with pytest.raises(DomainError, match="bins must be >= 1"):
            default_bin_edges(n_bins)

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


class TestSummaryJson:
    def test_documented_schema(self):
        spec = ExcisionSpec(2, X_TENTH)
        _, summary = sample_excised(spec, 500, seed=17)
        payload = json.loads(json.dumps(summary_json_dict(summary, spec, 17)))
        assert set(payload) == {
            "total_drawn", "accepted", "acceptance_rate", "mean_first_phase",
            "seed", "n_pairs", "log_cutoff",
        }
        assert payload["accepted"] == 500
        assert payload["seed"] == 17


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
