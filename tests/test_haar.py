import numpy as np
import pytest
from scipy.special import digamma
from scipy.stats import beta as beta_dist
from scipy.stats import chi2, ks_2samp, kstest

from excised_ensemble.analytic import moments_so2n, r1_so2n_unscaled
from excised_ensemble.errors import DomainError
from excised_ensemble.haar import (
    _jacobi_matrix_batch,
    beta_log_char_poly_batch,
    eigenphases_batch,
    jacobi_eigenphases_batch,
    log_char_poly_batch,
    sample_beta_batch,
    sample_so2n_batch,
)


def rotation_block(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def block_diag(*blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    i = 0
    for b in blocks:
        out[i : i + b.shape[0], i : i + b.shape[0]] = b
        i += b.shape[0]
    return out


def one_matrix(n_pairs, seed):
    return sample_so2n_batch(n_pairs, 1, np.random.default_rng(seed))[0]


def phases_of(matrix):
    return eigenphases_batch(matrix[None])[0]


def one_level_chi_square(phases, n_bins=50):
    """Chi-square statistic of the pooled eigenphases of Haar SO(2N) spectra
    (rows) against the exact one-level density, on `n_bins` equal bins."""
    n = phases.shape[1]
    counts, edges = np.histogram(phases.ravel(), bins=n_bins, range=(0, np.pi))
    grid = np.linspace(0, np.pi, 4001)
    dens = r1_so2n_unscaled(n, grid)
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(grid))])
    expected = len(phases) * np.diff(np.interp(edges, grid, cdf))
    return float(np.sum((counts - expected) ** 2 / expected))


def tridiagonal_phases(n_pairs, count, seed):
    betas = sample_beta_batch(n_pairs, count, np.random.default_rng(seed))
    return jacobi_eigenphases_batch(betas)


class TestSampling:
    def test_rejects_n_zero(self):
        with pytest.raises(DomainError):
            sample_so2n_batch(0, 1, np.random.default_rng(1))

    def test_group_membership_bulk(self):
        mats = sample_so2n_batch(3, 10_000, np.random.default_rng(11))
        eye = np.eye(6)
        prods = mats @ np.swapaxes(mats, 1, 2)
        assert np.max(np.abs(prods - eye)) < 1e-10
        assert np.max(np.abs(np.linalg.det(mats) - 1.0)) < 1e-8

    def test_seed_determinism(self):
        a = one_matrix(4, 123)
        b = one_matrix(4, 123)
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = one_matrix(2, 1)
        b = one_matrix(2, 2)
        assert not np.allclose(a, b)

    def test_so2_rotation_angle_uniform(self):
        # Haar on SO(2) is the uniform angle; chi-square at the 1% level
        mats = sample_so2n_batch(1, 100_000, np.random.default_rng(7))
        angles = np.arctan2(mats[:, 1, 0], mats[:, 0, 0]) % (2 * np.pi)
        counts, _ = np.histogram(angles, bins=50, range=(0, 2 * np.pi))
        expected = len(angles) / 50
        stat = np.sum((counts - expected) ** 2 / expected)
        assert chi2.sf(stat, df=49) > 0.01


class TestTridiagonalModel:
    """The Killip-Nenciu draw against exact laws of Haar SO(2N) and the QR route."""

    def test_rejects_n_zero(self):
        with pytest.raises(DomainError):
            sample_beta_batch(0, 1, np.random.default_rng(1))

    @pytest.mark.parametrize("n_pairs", [1, 2, 3])
    def test_each_column_has_its_beta_law(self, n_pairs):
        # uniform transforms at N <= 2, numpy's Beta sampler at N = 3; nine KS tests in all, each at 0.1%
        betas = sample_beta_batch(n_pairs, 200_000, np.random.default_rng(160 + n_pairs))
        assert np.all((betas > 0) & (betas <= 1))
        for k, column in enumerate(betas.T):
            c = (2 * n_pairs - 1 - k) / 2
            assert kstest(column, beta_dist(c, c).cdf).pvalue > 1e-3, k
            # E log y = psi(c) - psi(2c) for y ~ Beta(c, c)
            logs = np.log(column)
            stderr = logs.std(ddof=1) / np.sqrt(len(logs))
            assert abs(logs.mean() - (digamma(c) - digamma(2 * c))) <= 4 * stderr, k

    @pytest.mark.parametrize("n_pairs", [1, 2, 3, 12])
    def test_moments_match_exact(self, n_pairs):
        log_lambda = beta_log_char_poly_batch(sample_beta_batch(n_pairs, 200_000, np.random.default_rng(70 + n_pairs)))
        for s in (0.5, 1.0, 2.0):
            lam = np.exp(s * log_lambda)
            stderr = lam.std(ddof=1) / np.sqrt(len(lam))
            assert abs(lam.mean() - moments_so2n(n_pairs, s)) <= 4 * stderr, s

    @pytest.mark.parametrize("n_pairs", [1, 2, 3, 12])
    def test_log_lambda_is_log_det_of_two_minus_j(self, n_pairs):
        betas = sample_beta_batch(n_pairs, 20_000, np.random.default_rng(80 + n_pairs))
        shifted = 2 * np.eye(n_pairs) - _jacobi_matrix_batch(betas)
        # det(2 - J) is good to about eps / smallest eigenvalue; compare where that is >= 1e-2
        well_posed = np.linalg.eigvalsh(shifted)[:, 0] >= 1e-2
        assert well_posed.mean() > 0.2
        sign, log_det = np.linalg.slogdet(shifted[well_posed])
        assert np.all(sign == 1)
        assert np.max(np.abs(log_det - beta_log_char_poly_batch(betas[well_posed]))) < 1e-12

    def test_jacobi_matrix_is_symmetric_tridiagonal(self):
        jacobi = _jacobi_matrix_batch(sample_beta_batch(5, 100, np.random.default_rng(3)))
        assert np.array_equal(jacobi, np.swapaxes(jacobi, 1, 2))
        assert np.all(np.triu(jacobi, 2) == 0)
        assert np.all(np.diagonal(jacobi, 1, axis1=1, axis2=2) > 0)

    @pytest.mark.parametrize("n_pairs", [2, 3, 12])
    def test_log_lambda_matches_phases_in_bulk(self, n_pairs):
        betas = sample_beta_batch(n_pairs, 20_000, np.random.default_rng(90 + n_pairs))
        phases = jacobi_eigenphases_batch(betas)
        bulk = np.all((phases > 0.05) & (phases < np.pi - 0.05), axis=1)
        assert bulk.mean() > 0.3
        diff = log_char_poly_batch(phases[bulk]) - beta_log_char_poly_batch(betas[bulk])
        assert np.max(np.abs(diff)) < 1e-10

    @pytest.mark.parametrize("n_pairs", [3, 12])
    def test_one_level_density_chi_square(self, n_pairs):
        stat = one_level_chi_square(tridiagonal_phases(n_pairs, 50_000, 100 + n_pairs))
        assert chi2.sf(stat, df=49) > 0.01

    @pytest.mark.parametrize("n_pairs", [2, 12])
    def test_first_phase_matches_qr_reference(self, n_pairs):
        ours = tridiagonal_phases(n_pairs, 10_000, 210 + n_pairs)[:, 0]
        reference = eigenphases_batch(sample_so2n_batch(n_pairs, 10_000, np.random.default_rng(120 + n_pairs)))[:, 0]
        assert ks_2samp(ours, reference).pvalue > 0.01

    def test_so2_phase_uniform(self):
        phases = tridiagonal_phases(1, 100_000, 130)
        assert kstest(phases[:, 0], "uniform", args=(0.0, np.pi)).pvalue > 0.01

    def test_shape_and_ascending_rows(self):
        phases = tridiagonal_phases(5, 1000, 140)
        assert phases.shape == (1000, 5)
        assert np.all(np.diff(phases, axis=1) >= 0)
        assert np.all((phases >= 0) & (phases <= np.pi))

    @pytest.mark.parametrize("n_pairs", [1, 2])
    def test_closed_form_matches_eigvalsh(self, n_pairs):
        betas = sample_beta_batch(n_pairs, 100_000, np.random.default_rng(150 + n_pairs))
        phases = jacobi_eigenphases_batch(betas)
        cosines = np.linalg.eigvalsh(_jacobi_matrix_batch(betas))[..., ::-1] / 2
        assert np.max(np.abs(np.cos(phases) - cosines)) <= 4 * np.finfo(float).eps
        assert np.all(np.diff(phases, axis=1) >= 0)

    @pytest.mark.parametrize(
        "betas, expected",
        [
            # y_0 in {0, 1} puts x = +-2 on the diagonal, so the phase is exactly 0 or pi
            ([[0.0], [0.5], [1.0]], [[0.0], [np.pi / 2], [np.pi]]),
            # N = 2: y_0 in {0, 1} or y_1 = 1 makes the off-diagonal 0
            ([[0.0, 0.5, 0.0], [1.0, 0.5, 1.0]], [[0.0, np.pi / 2], [np.pi / 2, np.pi]]),
            ([[0.5, 1.0, 0.0], [0.5, 1.0, 1.0]], [[0.0, np.pi / 2], [np.pi / 2, np.pi]]),
            # J = diag(2, -2) and diag(-2, 2): the same phases 0 and pi
            ([[0.0, 0.0, 0.0], [1.0, 0.0, 1.0]], [[0.0, np.pi], [0.0, np.pi]]),
        ],
    )
    def test_closed_form_at_the_ends_of_the_beta_range(self, betas, expected):
        phases = jacobi_eigenphases_batch(np.array(betas))
        assert np.array_equal(phases, np.array(expected))
        reference = np.linalg.eigvalsh(_jacobi_matrix_batch(np.array(betas)))[..., ::-1] / 2
        assert np.allclose(np.cos(phases), reference, rtol=0, atol=4 * np.finfo(float).eps)


class TestEigenphases:
    def test_identity_matrix(self):
        assert np.allclose(phases_of(np.eye(4)), [0.0, 0.0])

    def test_rotation_blocks(self):
        phases = phases_of(block_diag(rotation_block(np.pi / 3), rotation_block(np.pi / 2)))
        assert np.allclose(phases, [np.pi / 3, np.pi / 2], atol=1e-12)

    def test_block_order_irrelevant(self):
        a = phases_of(block_diag(rotation_block(0.4), rotation_block(2.2)))
        b = phases_of(block_diag(rotation_block(2.2), rotation_block(0.4)))
        assert np.array_equal(a, b)

    def test_reproduces_general_eigensolver(self):
        mat = one_matrix(5, 42)
        phases = phases_of(mat)
        ours = np.sort(np.concatenate([np.exp(1j * phases), np.exp(-1j * phases)]))
        ref = np.sort(np.linalg.eigvals(mat))
        assert np.max(np.abs(ours - ref)) < 1e-8

    def test_eigenvalue_at_minus_one_maps_to_pi(self):
        phases = phases_of(block_diag(rotation_block(np.pi), rotation_block(0.5)))
        assert phases[-1] == np.pi

    @pytest.mark.parametrize("n_pairs", [2, 12])
    def test_matches_general_eigensolver_in_bulk(self, n_pairs):
        mats = sample_so2n_batch(n_pairs, 2000, np.random.default_rng(40 + n_pairs))
        # oracle: the upper-half-plane angles of the general complex eigenvalues
        oracle = np.sort(np.abs(np.angle(np.linalg.eigvals(mats))), axis=-1)[:, ::2]
        assert np.max(np.abs(eigenphases_batch(mats) - oracle)) < 1e-9


class TestLogCharPoly:
    def test_single_pair_at_pi(self):
        assert log_char_poly_batch(np.array([[np.pi]]))[0] == pytest.approx(np.log(4.0))

    def test_all_phases_at_half_pi(self):
        for n in (1, 3, 8):
            val = log_char_poly_batch(np.full((1, n), np.pi / 2))[0]
            assert val == pytest.approx(n * np.log(2.0), rel=1e-14)

    def test_minus_infinity_at_zero_phase(self):
        assert log_char_poly_batch(np.array([[0.0, 1.0]]))[0] == -np.inf

    def test_against_direct_determinant(self):
        mat = one_matrix(4, 99)
        direct = np.log(np.linalg.det(np.eye(8) - mat))
        assert log_char_poly_batch(phases_of(mat)[None])[0] == pytest.approx(direct, abs=1e-8)

    def test_upper_bound(self):
        # 2N log 2, attained when all eigenvalues sit at -1
        phases = eigenphases_batch(sample_so2n_batch(3, 2000, np.random.default_rng(5)))
        assert np.all(log_char_poly_batch(phases) <= 6 * np.log(2.0) + 1e-12)


class TestEmpiricalDensity:
    def test_so4_matches_analytic_density(self):
        # chi-square of the pooled eigenphase histogram against the exact
        # one-level density, 50 bins at the 1% level
        phases = eigenphases_batch(sample_so2n_batch(2, 100_000, np.random.default_rng(17)))
        counts, edges = np.histogram(phases.ravel(), bins=50, range=(0, np.pi))
        grid = np.linspace(0, np.pi, 2001)
        dens = r1_so2n_unscaled(2, grid)
        cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(grid))])
        bin_mass = np.interp(edges, grid, cdf)
        expected = len(phases) * np.diff(bin_mass)
        stat = np.sum((counts - expected) ** 2 / expected)
        assert chi2.sf(stat, df=49) > 0.01
