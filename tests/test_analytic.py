import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from excised_ensemble import analytic
from excised_ensemble.analytic import (
    DensityGrid,
    c_so2n,
    cd_kernel_diag,
    density_grid,
    excised_integrand,
    gap_margin,
    h_asymptotic,
    h_exact,
    moments_so2n,
    normalization_ratio,
    r1_excised_line_integral,
    r1_so2n_unscaled,
    selberg_integral,
    theta_inf,
    value_cumulative_small_x,
)
from excised_ensemble.errors import DomainError

X_TENTH = np.log(0.1)


def so4_joint_marginal(log_cutoff, theta):
    """Exact R_1 of the excised SO(4) ensemble at theta, times P(log Lambda >= X).

    The two eigenphases have density (cos t1 - cos t2)^2 / pi^2 on [0, pi]^2.
    Given one at theta, log Lambda >= X holds exactly when the other, t, has
    sin(t/2) >= e^(-d/2), d the gap margin, i.e. t >= phi0 = pi - L with
    L = 2 asin(sqrt(1 - e^-d)); integrating over t in [phi0, pi] gives
    (2/pi^2)[a^2 L + 2a sin phi0 + L/2 - sin(2 phi0)/4], a = cos theta.
    """
    d = gap_margin(2, log_cutoff, theta)
    if d <= 0:
        return 0.0
    arc = 2 * np.arcsin(np.sqrt(-np.expm1(-d)))
    phi0, a = np.pi - arc, np.cos(theta)
    return 2 / np.pi**2 * (a * a * arc + 2 * a * np.sin(phi0) + arc / 2 - np.sin(2 * phi0) / 4)


class TestSo2nDensity:
    def test_so2_is_uniform(self):
        for theta in (0.0, 0.3, 2.9, np.pi):
            assert r1_so2n_unscaled(1, theta) == pytest.approx(1 / np.pi, rel=1e-14)

    def test_limit_at_zero(self):
        for n in (1, 2, 5):
            assert r1_so2n_unscaled(n, 0.0) == pytest.approx((2 * n - 1) / np.pi, rel=1e-12)
            assert r1_so2n_unscaled(n, 1e-9) == pytest.approx((2 * n - 1) / np.pi, rel=1e-8)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_integrates_to_n(self, n):
        val, _ = quad(lambda t: r1_so2n_unscaled(n, t), 0, np.pi, limit=200)
        assert val == pytest.approx(n, abs=1e-9)

    def test_vectorized(self):
        grid = np.linspace(0, np.pi, 7)
        vals = r1_so2n_unscaled(3, grid)
        assert vals.shape == grid.shape

    def test_value_at_pi(self):
        for n in (2, 3, 12, 40):
            assert r1_so2n_unscaled(n, np.pi) == pytest.approx((2 * n - 1) / np.pi, rel=1e-14)

    @pytest.mark.parametrize("n", [2, 12, 40])
    def test_matches_sine_ratio_in_the_bulk(self, n):
        # the sine ratio loses digits only where sin(theta) is small
        grid = np.linspace(0.1, np.pi - 0.1, 500)
        ratio_form = (2 * n - 1) / (2 * np.pi) + np.sin((2 * n - 1) * grid) / (2 * np.pi * np.sin(grid))
        np.testing.assert_allclose(r1_so2n_unscaled(n, grid), ratio_form, rtol=0, atol=1e-13)


def selberg_quadrature_oracle(r, s, nodes=220):
    """Tensor Gauss-Legendre quadrature of the N = 2 Selberg integrand."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    phi = (x + 1) * np.pi / 2
    wts = w * np.pi / 2
    weight = (1 - np.cos(phi)) ** r * (1 + np.cos(phi)) ** s
    c = np.cos(phi)
    inner = (c[:, None] - c[None, :]) ** 2 * weight[:, None] * weight[None, :]
    return float(wts @ inner @ wts)


class TestSelberg:
    def test_n1_trivial(self):
        assert selberg_integral(1, 0, 0) == pytest.approx(np.pi, rel=1e-14)

    @pytest.mark.parametrize("r,s", [(0, 0), (1, 0), (1, 0.5)])
    def test_against_quadrature(self, r, s):
        assert selberg_integral(2, r, s) == pytest.approx(selberg_quadrature_oracle(r, s), rel=1e-6)

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            selberg_integral(2, -0.5, 0)
        with pytest.raises(DomainError):
            selberg_integral(2, 0, -0.6)

    def test_complex_parameters(self):
        val = selberg_integral(2, 0.3 + 0.2j, 0.1)
        assert isinstance(val, complex)


class TestNormalizationConstant:
    def test_n1(self):
        assert c_so2n(1) == pytest.approx(1 / np.pi, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_inverse_of_selberg(self, n):
        assert c_so2n(n) * selberg_integral(n, 0, 0) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [36, 40])
    def test_overflow_raises(self, n):
        # 1/selberg_integral is inf at N = 36 and a division by 0.0 at N = 40
        with pytest.raises(DomainError, match="overflows"):
            c_so2n(n)


class TestMoments:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_total_mass(self, n):
        assert moments_so2n(n, 0.0) == pytest.approx(1.0, rel=1e-13)

    def test_so2_mean(self):
        # E[2(1 - cos t)] = 2 for t uniform on [0, pi]
        assert moments_so2n(1, 1.0) == pytest.approx(2.0, rel=1e-13)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            moments_so2n(2, -0.5)
        with pytest.raises(DomainError):
            moments_so2n(2, -0.6)

    def test_array_matches_scalar_calls(self):
        s = np.array([[0.0, 1.0, -0.3], [0.3 + 2.1j, 4.2 - 7.5j, 2.5]])
        values = moments_so2n(12, s)
        assert values.shape == s.shape
        np.testing.assert_array_equal(values, np.vectorize(lambda t: complex(moments_so2n(12, t)))(s))


class TestSmallValueDensity:
    def test_h1_closed_form(self):
        assert h_exact(1) == pytest.approx(1 / (2 * np.pi), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_h_matches_contour_residue(self, n):
        # extract Res_{s=-1/2} M_O(N, s) by trapezoid quadrature on a small circle
        nodes = 256
        z = -0.5 + 0.1 * np.exp(2j * np.pi * np.arange(nodes) / nodes)
        vals = np.exp(2 * n * z * np.log(2.0) + analytic._log_moment_gammas(n, z))
        residue = np.mean(vals * (z + 0.5)).real
        assert h_exact(n) == pytest.approx(residue, abs=1e-8)

    def test_asymptotic_approaches_exact(self):
        assert abs(h_asymptotic(50) / h_exact(50) - 1) <= 0.02
        assert abs(h_asymptotic(100) / h_exact(100) - 1) < abs(h_asymptotic(50) / h_exact(50) - 1)

    def test_cumulative_vanishes_at_zero(self):
        assert value_cumulative_small_x(2, 0.0) == 0.0

    def test_cumulative_rejects_nan(self):
        with pytest.raises(DomainError, match="a number x >= 0"):
            value_cumulative_small_x(2, np.nan)


class TestThetaInf:
    def test_direct_substitutions(self):
        assert theta_inf(1, np.log(2.0)) == pytest.approx(np.pi / 2, rel=1e-12)
        assert theta_inf(2, X_TENTH) == pytest.approx(np.arccos(1 - 0.1 / 8), rel=1e-12)

    def test_vanishes_as_cutoff_drops(self):
        assert theta_inf(2, -60.0) < 1e-12

    def test_monotonicity(self):
        assert theta_inf(3, -2.0) < theta_inf(2, -2.0)
        assert theta_inf(2, -1.0) > theta_inf(2, -2.0)

    def test_empty_ensemble(self):
        with pytest.raises(DomainError):
            theta_inf(1, np.log(4.0))

    @pytest.mark.parametrize("call", [theta_inf, normalization_ratio], ids=["theta_inf", "normalization_ratio"])
    @pytest.mark.parametrize(
        "n, log_cutoff, message",
        [
            (2, np.nan, "the log cutoff must be a number above -inf, not nan"),  # theta_inf gave nan
            (2, -np.inf, "the log cutoff must be a number above -inf, not -inf"),  # the ratio gave 1.0, tail nan
            (0, -1.0, "n_pairs must be >= 1"),  # theta_inf gave 1.30
            (2, 4 * np.log(2.0), "ensemble is empty"),
        ],
    )
    def test_cutoff_outside_the_ensemble_raises(self, call, n, log_cutoff, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            call(n, log_cutoff)

    @pytest.mark.parametrize("n_pairs", [12, 24, 40, 100])
    def test_edge_and_margin_match_mpmath(self, n_pairs):
        # at the paper's cutoff arccos(1 - 2^-(2N-1) e^X) is off by 3e-8 at N = 12 and reads 0 from N = 24
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        log_cutoff = np.log(0.005424)
        edge = 2 * mp.asin(mp.mpf(2) ** -n_pairs * mp.exp(mp.mpf(log_cutoff) / 2))
        assert abs(theta_inf(n_pairs, log_cutoff) / edge - 1) < 1e-12
        for theta in (float(edge) * 1.5, float(edge) * 1e3, 1e-9, 1.0):
            margin = 2 * n_pairs * mp.log(2) + 2 * mp.log(mp.sin(mp.mpf(theta) / 2)) - mp.mpf(log_cutoff)
            assert abs(gap_margin(n_pairs, log_cutoff, theta) - margin) < 1e-12 * abs(margin), theta

    def test_margin_is_finite_below_the_cosine_resolution(self):
        # log1p(-cos theta) is -inf for theta below about 1e-8
        assert np.isfinite(gap_margin(12, np.log(0.005424), 1e-9))
        assert gap_margin(2, X_TENTH, theta_inf(2, X_TENTH)) == pytest.approx(0.0, abs=1e-13)


class TestNormalizationRatio:
    def test_so2_closed_form(self):
        # for N = 1 the acceptance probability is 1 - arccos(1 - e^X / 2) / pi
        for x in (-1.0, X_TENTH, -3.0):
            exact = 1 - np.arccos(1 - np.exp(x) / 2) / np.pi
            assert normalization_ratio(1, x).value == pytest.approx(exact, abs=1e-12)

    def test_limit_is_one(self):
        assert normalization_ratio(2, -40.0).value == pytest.approx(1.0, abs=1e-8)

    def test_range_and_monotonicity(self):
        cuts = [-0.5, -1.0, -2.0, -4.0, -8.0]
        vals = [normalization_ratio(2, x).value for x in cuts]
        assert all(0 < v <= 1 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_empty_ensemble(self):
        with pytest.raises(DomainError):
            normalization_ratio(1, 10.0)

    @pytest.mark.parametrize(
        "n, log_cutoff",
        [
            (6, 12 * np.log(2.0) - 0.5),  # series sums to about -18.65
            (16, X_TENTH),  # about 1.21
            (24, np.log(0.005424)),  # about 2069; Beta-product Monte Carlo gives 0.887
        ],
    )
    def test_value_outside_unit_interval_raises(self, n, log_cutoff):
        with pytest.raises(DomainError, match=r"outside \(0, 1\]"):
            normalization_ratio(n, log_cutoff)

    @pytest.mark.parametrize(
        "n, log_cutoff",
        [
            (13, 0.0),  # series gives 0.524; Beta-product Monte Carlo gives 0.299
            (14, -1.0),  # 0.553 against 0.460
            (12, 1.0),  # 0.21-0.24 depending on rounding, against 0.157
            (15, -2.0),  # 0.618 against 0.608
            # the paper's cutoff: tails 2.1e-9, 5.3e-7, 8.5e-5 and 9.0e-3; at N = 20
            # and 21 the series is off from the Gil-Pelaez value by 9.6e-5 and 1.1e-2
            (18, np.log(0.005424)),
            (19, np.log(0.005424)),
            (20, np.log(0.005424)),
            (21, np.log(0.005424)),
        ],
    )
    def test_cancelling_series_raises(self, n, log_cutoff):
        # each value lies inside (0, 1] but its terms cancel below the rounding
        # floor, or its truncated tail exceeds the tolerance
        with pytest.raises(DomainError, match="not certified"):
            normalization_ratio(n, log_cutoff)

    @pytest.mark.parametrize("n, log_cutoff", [(2, X_TENTH), (12, np.log(0.005424))])
    def test_tail_estimate_counts_the_rounding_floor(self, n, log_cutoff):
        # like the density's tails, the estimate is the geometric bound on the
        # residues left out plus eps times the summed term magnitudes; that bound
        # alone is 5.2e-30 and 6.9e-32 here
        ratio = normalization_ratio(n, log_cutoff)
        assert ratio.tail_estimate >= np.finfo(float).eps * ratio.value

    def test_residues_below_the_rounding_floor_set_no_ratio(self):
        # |r_10|, |r_11|, |r_12| are 2.2e-26, 1.1e-25 and 2.7e-27 here, against a
        # rounding floor of 3.6e-14: their ratio 5 once made the tail infinite
        ratio = normalization_ratio(3, 0.75)
        longer = normalization_ratio(3, 0.75, truncation_K=12)
        assert ratio.tail_estimate <= 1e-13
        assert abs(ratio.value - longer.value) <= ratio.tail_estimate

    @pytest.mark.parametrize("n", [1, 2, 12, 24])
    @pytest.mark.parametrize("log_cutoff", [X_TENTH, np.log(0.001466), np.log(0.005424)])
    def test_half_circle_residues_match_the_full_circle(self, monkeypatch, n, log_cutoff):
        # each residue is summed on phi in [0, pi] only; against the mean over all
        # 128 nodes it may differ by the rounding of its terms, each the
        # exponential of an exponent of size `_exponent_size` (the returned
        # size, which scales that by |residue|, is exceeded up to 19 times at N = 24)
        residues = []
        original = analytic._residue_series

        def spy(residue, *args):
            residues.append(residue)
            return original(residue, *args)

        monkeypatch.setattr(analytic, "_residue_series", spy)
        try:
            normalization_ratio(n, log_cutoff)
        except DomainError:  # at N = 24 the series does not converge here; each residue still stands
            pass
        centers = -(2 * np.arange(13) + 1) / 2.0
        values, _ = residues[0](centers)
        z = centers[:, None] + 0.1 * np.exp(2j * np.pi * np.arange(128) / 128)
        d = gap_margin(n, log_cutoff, np.pi)
        terms = np.exp(z * d + analytic._log_moment_gammas(n, z)) / z * (z - centers[:, None])
        size = analytic._exponent_size(n, np.abs(centers) + 0.1, d)
        full = np.mean(terms, axis=1)
        assert np.all(np.abs(values - full) <= np.finfo(float).eps * size * np.mean(np.abs(terms), axis=1))

    def test_contour_nodes_span_the_upper_half_circle(self):
        z, weights = analytic._contour_nodes(np.array([-0.5, -1.5]))
        assert z.shape == (2, 65) and np.all(z.imag >= 0)
        np.testing.assert_allclose(z[:, [0, -1]], [[-0.4, -0.6], [-1.4, -1.6]], rtol=0, atol=1e-15)
        assert np.sum(weights) == 1.0

    @given(st.integers(1, 12), st.floats(0.01, 45.0), st.floats(0.01, 45.0))
    @settings(max_examples=60, deadline=None)
    def test_certified_ratio_is_a_decreasing_probability(self, n, gap1, gap2):
        # P(log Lambda >= X) falls as X rises to its maximum 2N log 2; a ratio
        # the series cannot certify raises DomainError, and that example says
        # nothing here
        top = 2 * n * np.log(2.0)
        x1, x2 = top - max(gap1, gap2), top - min(gap1, gap2)
        try:
            low, high = normalization_ratio(n, x1).value, normalization_ratio(n, x2).value
        except DomainError:
            assume(False)
        assert 0.0 < high <= 1.0 and 0.0 < low <= 1.0
        assert low >= high - 1e-10


class TestKernel:
    @pytest.mark.parametrize("n", [2, 3])
    def test_r_zero_reduces_to_so2n(self, n):
        for theta in np.linspace(0.08, np.pi - 0.08, 9):
            assert cd_kernel_diag(n, 0.0, theta) == pytest.approx(
                r1_so2n_unscaled(n, theta), abs=1e-8
            )

    def test_n1_r1_closed_form(self):
        # P_1^(1/2,-1/2)(x) = x + 1/2 gives f(theta,theta) = (1 - cos theta)/pi
        for theta in (0.4, 1.0, 2.5):
            assert cd_kernel_diag(1, 1.0, theta) == pytest.approx(
                (1 - np.cos(theta)) / np.pi, rel=1e-12
            )

    def test_gaudin_normalization(self):
        val, _ = quad(lambda t: cd_kernel_diag(2, 0.5, t), 0, np.pi, limit=200)
        assert val == pytest.approx(2.0, abs=1e-9)

    def test_endpoint_domain(self):
        with pytest.raises(DomainError):
            cd_kernel_diag(2, 0.5, 0.0)
        with pytest.raises(DomainError):
            cd_kernel_diag(2, 0.5, np.pi)


class TestExcisedIntegrand:
    def test_conjugate_symmetry(self):
        rs = np.array([0.5 + 2.3j, 1.2 - 0.7j])
        vals = excised_integrand(2, X_TENTH, 1.0, rs)
        vals_conj = excised_integrand(2, X_TENTH, 1.0, np.conj(rs))
        assert np.allclose(vals_conj, np.conj(vals), rtol=1e-12)

    def test_scalar_inputs(self):
        value = excised_integrand(2, X_TENTH, 1.0, 0.5 + 1j)
        batched = excised_integrand(2, X_TENTH, np.array([1.0]), np.array([0.5 + 1j]))
        assert value == pytest.approx(batched[0], rel=1e-15)

    def test_exponential_growth_rate_along_real_axis(self):
        # |integrand| ~ exp(r d) times a power correction for large real r
        theta = 1.0
        d = gap_margin(2, X_TENTH, theta)
        g1 = abs(excised_integrand(2, X_TENTH, theta, np.array([60.0 + 0j]))[0])
        g2 = abs(excised_integrand(2, X_TENTH, theta, np.array([120.0 + 0j]))[0])
        rate = (np.log(g2) - np.log(g1)) / 60.0
        assert rate == pytest.approx(d, abs=0.05)

    def test_residue_at_zero_matches_closed_form(self):
        nodes = 128
        z = 0.1 * np.exp(2j * np.pi * np.arange(nodes) / nodes)
        residue = np.mean(excised_integrand(2, X_TENTH, 1.0, z) * z).real
        assert residue == pytest.approx(r1_so2n_unscaled(2, 1.0), abs=1e-9)

    def test_minus_half_residue_closed_form(self):
        # the pole at -1/2 is simple, with residue -2 e^(X/2) h(N) f_N^(-1,-1/2)(theta, theta)
        for n, log_cutoff in itertools.product([2, 3, 12], [X_TENTH, np.log(0.005424), -12.0]):
            thetas = np.linspace(0, np.pi, 61)[1:-1]
            thetas = thetas[gap_margin(n, log_cutoff, thetas) > 0]
            (residue,), _ = analytic._density_residue(n, log_cutoff, thetas)(np.array([-0.5]))
            closed = -2.0 * np.exp(log_cutoff / 2) * h_exact(n) * np.real(cd_kernel_diag(n, -0.5, thetas))
            assert np.all(np.abs(residue.real - closed) <= 1e-12 * np.abs(closed).max()), (n, log_cutoff)

    def test_minus_half_residue_vanishes_at_n1(self):
        # at N = 1 the Gamma factors cancel the pole
        thetas = np.linspace(0, np.pi, 61)[1:]
        (residue,), _ = analytic._density_residue(1, -2.0, thetas)(np.array([-0.5]))
        assert np.all(np.abs(residue) <= 1e-16)

    @pytest.mark.parametrize("n", [1, 2, 3, 12])
    @pytest.mark.parametrize("log_cutoff", [X_TENTH, np.log(0.005424), -12.0])
    def test_ratio_minus_half_residue_closed_form(self, monkeypatch, n, log_cutoff):
        # M_O(N, r) e^(-rX) / r has residue -2 h(N) e^(X/2) at -1/2
        residues = []
        original = analytic._residue_series

        def spy(residue, *args):
            residues.append(residue)
            return original(residue, *args)

        monkeypatch.setattr(analytic, "_residue_series", spy)
        normalization_ratio(n, log_cutoff)
        (value,), _ = residues[0](np.array([-0.5]))
        assert value == pytest.approx(-2.0 * h_exact(n) * np.exp(log_cutoff / 2), rel=1e-12)

    def test_pole_inputs_rejected(self):
        with pytest.raises(DomainError):
            excised_integrand(2, X_TENTH, 1.0, np.array([0.0 + 0j]))
        with pytest.raises(DomainError):
            excised_integrand(2, X_TENTH, 1.0, np.array([-1.5 + 0j]))

    @pytest.mark.parametrize("theta", [0.0, np.pi + 1e-12, 4.0])
    def test_angle_outside_zero_pi_rejected(self, theta):
        with pytest.raises(DomainError, match=re.escape("requires theta in (0, pi]")):
            excised_integrand(2, X_TENTH, theta, np.array([0.5 + 1j]))


class TestExcisedDensity:
    def test_hard_gap_zero(self):
        ti = theta_inf(2, X_TENTH)
        for theta in (0.0, ti / 2, ti):
            assert density_grid(2, X_TENTH, [theta]).values[0] == 0.0

    def test_limit_recovers_so2n(self):
        for theta in (0.5, 1.5, 3.0):
            assert density_grid(2, -40.0, [theta]).values[0] == pytest.approx(
                r1_so2n_unscaled(2, theta), abs=1e-8
            )
        # at X = -8000, e^(r d) overflows on the contours unless each pole's
        # exponential is split as e^((c+rho) d) times a factor of modulus <= 1;
        # theta = 0 stays in the gap (d = -inf)
        thetas = np.linspace(0, np.pi, 50)
        values = density_grid(2, -8000.0, thetas).values
        assert np.all(np.isfinite(values)) and values[0] == 0.0
        np.testing.assert_allclose(values[1:], r1_so2n_unscaled(2, thetas[1:]), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [36, 40])
    def test_limit_recovers_so2n_past_weyl_constant_overflow(self, n):
        # the Weyl constant c_so2n overflows here; the density never carries it
        thetas = np.linspace(0.01, np.pi, 200)
        values = density_grid(n, -40.0, thetas).values
        np.testing.assert_allclose(values, r1_so2n_unscaled(n, thetas), rtol=1e-7)

    def test_matches_line_integral_in_bulk(self):
        for theta in (0.7, 1.3, 2.4, 3.1):
            a = density_grid(2, X_TENTH, [theta], truncation_K=12).values[0]
            b = r1_excised_line_integral(2, X_TENTH, theta)
            assert a == pytest.approx(b, abs=1e-9)

    def test_detail_reports_line_route_near_edge(self):
        ti = theta_inf(2, X_TENTH)
        assert density_grid(2, X_TENTH, [ti + 0.01]).line_route[0]
        bulk = density_grid(2, X_TENTH, [2.0], truncation_K=12)
        assert not bulk.line_route[0] and bulk.tails[0] < 1e-9

    def test_line_route_tail_is_reported(self):
        # next to the gap edge the point takes the line route; its tail is returned, not hidden
        ti = theta_inf(2, X_TENTH)
        dg = density_grid(2, X_TENTH, [ti + 0.01])
        assert dg.line_route[0] and dg.tails[0] > 1e-20
        assert dg.values[0] == density_grid(2, X_TENTH, [ti + 0.01]).values[0]

    def test_cancelling_residue_terms_take_line_route(self):
        # at N = 6, X = 0 the residue terms near theta = 0.105 cancel below the
        # rounding floor; the residue sum gave 0.142 there, Haar Monte Carlo
        # agrees with the line integral's 0.189
        thetas = np.linspace(0, np.pi, 300)
        dg = density_grid(6, 0.0, thetas)
        assert dg.line_route[10]
        assert dg.values[10] == pytest.approx(r1_excised_line_integral(6, 0.0, thetas[10], c=1.0), rel=1e-8)
        # with the floor counting the terms of the cosine form of W, the points
        # near theta = 0.26-0.45 that missed the oracle by up to 6.6e-10, beyond
        # tails <= 3.2e-10, take the line route too
        live = gap_margin(6, 0.0, thetas) > 0
        oracle = np.array([r1_excised_line_integral(6, 0.0, t, c=1.0) for t in thetas[live]])
        assert np.all(np.abs(dg.values[live] - oracle) <= dg.tails[live] + 1e-10)

    def test_residue_route_matches_line_integral_near_x_one(self):
        # the residue route reports a tail of 6.6e-10 here; Jacobi values that
        # lost digits near x = 1 once put it off by 6e-5
        log_cutoff = np.log(0.005424)
        thetas = np.linspace(0, np.pi, 100)
        value = density_grid(12, log_cutoff, thetas).values[5]
        assert value == pytest.approx(r1_excised_line_integral(12, log_cutoff, thetas[5]), rel=1e-6)

    @pytest.mark.parametrize(
        "n,theta",
        [(12, t) for t in np.linspace(0, np.pi, 100)[5:11]] + [(16, np.pi)],
        ids=[f"n12-row{i}" for i in range(5, 11)] + ["n16-pi"],
    )
    def test_density_matches_line_integral_at_paper_cutoff(self, n, theta):
        # Jacobi values that lost digits once put the residue route off by up
        # to 6.5e-5 on std-n12 benchmark grid rows 5-10 (x near 1), and the
        # line integral off by 2.4e-3 at N = 16, theta = pi (x = -1)
        log_cutoff = np.log(0.005424)
        value = density_grid(n, log_cutoff, [theta]).values[0]
        assert value == pytest.approx(r1_excised_line_integral(n, log_cutoff, theta, c=1.0), rel=1e-9)

    @pytest.mark.parametrize("log_cutoff", [X_TENTH, np.log(0.001466)], ids=["cutoff-0.1", "cutoff-0.001466"])
    def test_matches_exact_so4_law(self, log_cutoff):
        # 12 points approaching the gap edge, theta_inf (1 + 10^-k), and 50 bulk
        # points; the line route was once off by up to 8.6e-4 near the edge
        edge = theta_inf(2, log_cutoff)
        near = edge * (1 + 10.0 ** -np.arange(12, 0, -1))
        thetas = np.concatenate([near, np.linspace(edge, np.pi, 51)[1:]])
        thetas.sort()
        ratio, _ = quad(lambda t: so4_joint_marginal(log_cutoff, t), edge, np.pi, epsabs=1e-12, limit=200)
        exact = np.array([so4_joint_marginal(log_cutoff, t) for t in thetas]) / (ratio / 2)
        dg = density_grid(2, log_cutoff, thetas)
        assert dg.line_route[:12].all()
        np.testing.assert_allclose(dg.values, exact, rtol=0, atol=1e-9)

    @pytest.mark.parametrize(
        "n, log_cutoff", [(2, X_TENTH), (2, np.log(0.001466)), (3, X_TENTH)], ids=["n2-0.1", "n2-0.001466", "n3-0.1"]
    )
    def test_residue_route_tail_bounds_the_remainder(self, n, log_cutoff):
        # next to the gap edge the residues decay by a ratio near 0.19 per pole,
        # and the first one left out undercounted the remainder: at N = 2,
        # X = log 0.1, theta = 0.3372778661447192 the value was 5.6e-10 from
        # the truncation_K = 40 sum against a tail of 4.5e-10; on these sweeps
        # 28, 13 and 13 residue-route points missed by up to 1.26 times their tails
        edge = theta_inf(n, log_cutoff)
        thetas = np.concatenate([edge * (1 + np.geomspace(1e-9, 10.0, 300)), np.linspace(0, np.pi, 200)])
        thetas = np.unique(np.append(thetas[thetas <= np.pi], 0.3372778661447192))
        dg = density_grid(n, log_cutoff, thetas)
        reference = density_grid(n, log_cutoff, thetas, truncation_K=40).values
        residue_route = (gap_margin(n, log_cutoff, thetas) > 0) & ~dg.line_route
        assert np.all(np.abs(dg.values - reference)[residue_route] <= dg.tails[residue_route])

    def test_peak_memory_of_the_eff_n2_grid(self):
        # full 128-node tables built out of place peaked at 7.83 MiB, the
        # half-circle tables built in place at 6.1 MiB, whole at 5.0 MiB and
        # in blocks of 126 angles at 1.5 MiB
        thetas = np.linspace(0, np.pi, 2000)
        tracemalloc.start()
        try:
            density_grid(2, np.log(0.001466), thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20

    def test_peak_memory_of_a_grid_ten_times_eff_n2(self):
        # the whole half-circle table and its products peaked at 46.8 MiB, the
        # blocks at 11 MiB, most of it the (pole x angle) arrays
        thetas = np.linspace(0, np.pi, 20_000)
        tracemalloc.start()
        try:
            density_grid(2, np.log(0.001466), thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_negative_beyond_tail_raises(self, monkeypatch):
        # the line route once returned -1.8e13 near the edge, which was clipped to 0
        monkeypatch.setattr(analytic, "_line_quadrature", lambda *args: (-1.0, 1e-12))
        theta = theta_inf(2, X_TENTH) + 0.01
        with pytest.raises(DomainError, match=re.escape(f"theta={theta!r}")):
            density_grid(2, X_TENTH, [theta])

    def test_negative_within_tail_is_clipped(self, monkeypatch):
        monkeypatch.setattr(analytic, "_line_quadrature", lambda *args: (-1e-13, 1e-12))
        dg = density_grid(2, X_TENTH, [theta_inf(2, X_TENTH) + 0.01])
        assert dg.line_route[0] and dg.values[0] == 0.0

    @pytest.mark.parametrize("k", [7, 8, 9])
    def test_overflow_next_to_the_gap_edge_raises(self, k):
        # at N = 24 the parabola's nodes at theta_inf (1 + 10^-k) reach |r|
        # where products of the Jacobi forms overflow; that once surfaced as
        # "density nan ... is below -tail = nan" after a RuntimeWarning
        theta = theta_inf(24, -12.0) * (1 + 10.0**-k)
        overflow = r"is not finite: the Jacobi forms .* overflow"
        with pytest.raises(DomainError, match=overflow):
            density_grid(24, -12.0, [theta])
        with pytest.raises(DomainError, match=overflow):
            r1_excised_line_integral(24, -12.0, theta)

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -0.1, 4.0])
    def test_angle_outside_zero_pi_raises(self, monkeypatch, theta):
        # NaN once read 0, 4.0 read 0.595 and inf raised a RuntimeWarning
        def fail(*args, **kwargs):
            raise AssertionError("summed the ratio before checking the angles")

        monkeypatch.setattr(analytic, "normalization_ratio", fail)
        with pytest.raises(DomainError, match=re.escape(f"theta={theta!r}")):
            density_grid(2, X_TENTH, [1.0, theta, 2.0, np.nan])

    def test_descending_grid_raises_before_any_route(self, monkeypatch):
        # the order was once checked only by DensityGrid, after every route had run
        def fail(*args, **kwargs):
            raise AssertionError("summed the ratio before checking the order")

        monkeypatch.setattr(analytic, "normalization_ratio", fail)
        with pytest.raises(DomainError, match="strictly ascending"):
            density_grid(2, X_TENTH, [2.0, 1.0])

    @pytest.mark.parametrize("truncation_K", [0, -3])
    def test_truncation_below_one_raises(self, truncation_K):
        # the highest "pole" summed was then r = +1.5, where there is none
        with pytest.raises(DomainError, match="truncation_K must be >= 1"):
            density_grid(2, X_TENTH, [1.0], truncation_K=truncation_K)
        with pytest.raises(DomainError, match="truncation_K must be >= 1"):
            normalization_ratio(2, X_TENTH, truncation_K=truncation_K)

    @pytest.mark.parametrize(
        "call",
        [
            lambda n: density_grid(n, X_TENTH, [1.0]),
            lambda n: normalization_ratio(n, X_TENTH),
            lambda n: moments_so2n(n, 1.0),
            lambda n: r1_so2n_unscaled(n, 1.0),
            h_exact,
            h_asymptotic,
            lambda n: value_cumulative_small_x(n, 0.25),
        ],
        ids=["density_grid", "normalization_ratio", "moments_so2n", "r1_so2n_unscaled", "h_exact", "h_asymptotic",
             "value_cumulative_small_x"],
    )
    @pytest.mark.parametrize("n", [0, -2])
    def test_n_pairs_below_one_raises(self, call, n):
        with pytest.raises(DomainError, match="n_pairs must be >= 1"):
            call(n)

    def test_nonnegative_on_grid(self):
        grid = np.linspace(0, np.pi, 301)
        vals = density_grid(2, X_TENTH, grid).values
        assert np.all(vals >= 0)

    def test_so2_excised_is_uniform_above_gap(self):
        # N = 1: conditioning is a hard threshold on the single angle, so the
        # density is 1/(pi - theta_inf) above the gap
        ti = theta_inf(1, -2.0)
        expected = 1 / (np.pi - ti)
        for theta in (ti + 0.05, 1.0, 3.0):
            assert density_grid(1, -2.0, [theta]).values[0] == pytest.approx(expected, rel=1e-9)

    def test_integral_is_n_pairs(self):
        ti = theta_inf(2, X_TENTH)
        val, _ = quad(lambda t: density_grid(2, X_TENTH, [t]).values[0], ti, np.pi, limit=300)
        assert val == pytest.approx(2.0, abs=1e-7)


class TestFactoredResidues:
    @pytest.mark.parametrize("n", [1, 2, 3, 12, 17])
    @pytest.mark.parametrize("center", [-1.5, -10.5])
    def test_cosine_coefficients_reproduce_wronskian(self, n, center):
        rng = np.random.default_rng(14)
        thetas = np.pi - rng.uniform(0.0, np.pi, 64)  # in (0, pi]
        z, _ = analytic._contour_nodes(center)
        coefficients = analytic._wronskian_cosine_coefficients(n, z)
        series = coefficients @ np.cos(np.multiply.outer(np.arange(2 * n - 1), thetas))
        direct = analytic._wronskian(n, z[:, None], np.cos(thetas))
        # at N = 17 the Jacobi sum itself errs by about 2e-13 in the interior
        # (x = -0.23 against 40-digit mpmath), on both sides of the comparison
        tol = 2e-12 if n == 17 else 1e-13
        assert np.all(np.abs(series - direct) <= tol * np.abs(direct).max(axis=1, keepdims=True))

    @pytest.mark.parametrize(
        "n,log_cutoff", [(1, -2.0), (2, X_TENTH), (3, X_TENTH), (12, np.log(0.005424))], ids=["n1", "n2", "n3", "n12"]
    )
    def test_factored_sum_matches_direct_trapezoid_sum(self, n, log_cutoff):
        thetas = np.linspace(0, np.pi, 61)
        thetas = thetas[gap_margin(n, log_cutoff, thetas) > 0]
        closed = r1_so2n_unscaled(n, thetas)
        value, error = analytic._residue_series(analytic._density_residue(n, log_cutoff, thetas), 10, closed)
        residues = 0.0
        for k in range(11):
            center = -(2 * k + 1) / 2.0
            z = center + 0.1 * np.exp(2j * np.pi * np.arange(128) / 128)
            residues = residues + np.mean(excised_integrand(n, log_cutoff, thetas[:, None], z) * (z - center), axis=1)
        assert thetas[-1] == np.pi
        assert np.all(np.abs(value - (closed + residues.real)) <= error)

    @pytest.mark.parametrize(
        "n,log_cutoff", [(1, -2.0), (2, np.log(0.001466)), (3, 0.75), (12, np.log(0.005424)), (24, -12.0), (40, -12.5)]
    )
    def test_batched_poles_match_one_pole_calls(self, n, log_cutoff):
        centers = -(2 * np.arange(13) + 1) / 2.0
        nodes = len(analytic._contour_nodes(0.0)[0])
        # the batched coefficients span more than one call from N = 12 on; at N <= 3 they take one
        assert (len(centers) > analytic._JACOBI_ENTRIES // (nodes * (2 * n - 1))) == (n >= 12)
        thetas = np.linspace(0, np.pi, 101)
        thetas = thetas[gap_margin(n, log_cutoff, thetas) > 0]
        residue = analytic._density_residue(n, log_cutoff, thetas)
        values, magnitudes = residue(centers)
        for c in range(len(centers)):
            (value,), (magnitude,) = residue(centers[c:c + 1])
            # the product's summation order depends on its width; at N = 1 every
            # contour residue is 0, and the two roundings differ by up to 1.6 eps
            # times the magnitude here (2.6 on a 300-point grid)
            assert np.all(np.abs(values[c] - value) <= 4 * np.finfo(float).eps * magnitude)
            np.testing.assert_allclose(magnitudes[c], magnitude, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n,log_cutoff", [(1, -2.0), (2, np.log(0.001466)), (12, np.log(0.005424))])
    def test_blocks_of_angles_match_one_block(self, n, log_cutoff, monkeypatch):
        # blocks of 7 angles, against one block of all 1001; every row of the
        # products is its own angle's, so only the summation order may move
        thetas = np.linspace(0, np.pi, 1001)
        thetas = thetas[gap_margin(n, log_cutoff, thetas) > 0]
        centers = -(2 * np.arange(13) + 1) / 2.0
        monkeypatch.setattr(analytic, "_JACOBI_ENTRIES", 2**30)
        whole, whole_sizes = analytic._density_residue(n, log_cutoff, thetas)(centers)
        monkeypatch.setattr(analytic, "_JACOBI_ENTRIES", 7 * 65)
        values, magnitudes = analytic._density_residue(n, log_cutoff, thetas)(centers)
        assert np.all(np.abs(values - whole) <= 4 * np.finfo(float).eps * whole_sizes)
        np.testing.assert_allclose(magnitudes, whole_sizes, rtol=1e-12, atol=0)


class TestLineIntegral:
    def test_gauss_legendre_rule_is_leggauss_bit_for_bit(self):
        nodes, weights = np.polynomial.legendre.leggauss(12)
        assert analytic._GL_NODES.tobytes() == nodes.tobytes()
        assert analytic._GL_WEIGHTS.tobytes() == weights.tobytes()

    @pytest.mark.parametrize("log_cutoff", [-1420.0, -1500.0])
    def test_overflow_of_the_exponential_alone_is_named(self, log_cutoff):
        # c d = 710.7 and 750.7 > log(largest float) = 709.8: e^(c d) overflows by
        # itself, which once read "the Jacobi forms ... overflow"
        with pytest.raises(DomainError, match=re.escape("e^(c d)") + r".*c d = 7[15]0\.65"):
            r1_excised_line_integral(2, log_cutoff, 1.0)

    def test_gap_interior_is_zero(self):
        ti = theta_inf(2, X_TENTH)
        assert r1_excised_line_integral(2, X_TENTH, ti * 0.5) == 0.0

    def test_boundary_rejected(self):
        theta_edge = theta_inf(2, X_TENTH)
        with pytest.raises(DomainError):
            r1_excised_line_integral(2, X_TENTH, theta_edge)

    def test_bad_abscissa(self):
        with pytest.raises(DomainError):
            r1_excised_line_integral(2, X_TENTH, 1.0, c=0.0)

    def test_error_estimate_above_tolerance_raises(self):
        # 1e-9 past the gap edge the parabola's rounding floor exceeds 1e-9
        theta = theta_inf(2, X_TENTH) * (1 + 1e-9)
        with pytest.raises(DomainError, match=re.escape("error estimate 1.04e-09 exceeds tolerance 1e-09")):
            r1_excised_line_integral(2, X_TENTH, theta)

    def test_contour_choice_irrelevant(self):
        a = r1_excised_line_integral(2, X_TENTH, 1.0, c=0.5)
        b = r1_excised_line_integral(2, X_TENTH, 1.0, c=0.31)
        assert a == pytest.approx(b, abs=1e-10)

    def test_two_sided_quadrature_is_real(self):
        # conjugate symmetry makes the full-line integral real; verify on a
        # symmetric trapezoid discretization of both half-lines
        ts = np.linspace(-400.0, 400.0, 160_001)
        vals = excised_integrand(2, X_TENTH, 1.0, 0.5 + 1j * ts)
        integral = np.trapezoid(vals, ts) / (2 * np.pi)
        assert abs(integral.imag) <= 1e-10 * abs(integral.real)


class TestBatchedLineRoute:
    """The line route's points go to `_line_quadrature` in one call, which
    takes them in runs of consecutive angles on the nodes of each run's first."""

    EFF_N2 = (2, np.log(0.001466), np.linspace(0, np.pi, 2000))
    STD_N12 = (12, np.log(0.005424), np.linspace(0, np.pi, 100))
    N6 = (6, 0.0, np.linspace(0, np.pi, 301))

    @pytest.mark.parametrize("grid, calls", [(EFF_N2, 13), (STD_N12, 8)], ids=["eff-n2", "std-n12"])
    def test_one_integrand_call_per_grid(self, monkeypatch, grid, calls):
        # one call per line point before the batching: 13 and 8
        seen = []

        def spy(*args):
            seen.append(args)
            return excised_integrand(*args)

        monkeypatch.setattr(analytic, "excised_integrand", spy)
        assert density_grid(*grid).line_route.sum() == calls
        assert len(seen) == 1

    @pytest.mark.parametrize("grid, points", [(EFF_N2, 13), (STD_N12, 8), (N6, 45)], ids=["eff-n2", "std-n12", "n6"])
    def test_batch_matches_one_angle_calls(self, grid, points):
        n, log_cutoff, thetas = grid
        line = thetas[density_grid(*grid).line_route]
        assert len(line) == points
        values, errors = analytic._line_quadrature(n, log_cutoff, line, 0.5)
        for theta, value in zip(line, values):
            (alone,), (error,) = analytic._line_quadrature(n, log_cutoff, np.array([theta]), 0.5)
            assert abs(value - alone) <= 0.1 * error

    def test_overflow_names_the_first_angle_of_a_run(self):
        thetas = theta_inf(24, -12.0) * (1 + 10.0 ** -np.array([9.0, 8.0, 7.0]))
        with pytest.raises(DomainError, match=re.escape(f"density at theta={float(thetas[0])!r} is not finite")):
            density_grid(24, -12.0, thetas)

    def test_peak_memory_of_a_grid_next_to_the_gap_edge(self):
        # 302 line points with d from 2e-9 to 5.5: one batch on the nodes of the
        # smallest d peaked at 60.1 MiB, runs of consecutive angles at 7.9 MiB
        ti = theta_inf(6, 0.0)
        thetas = np.sort(np.r_[np.linspace(0, np.pi, 2000), ti * (1 + 10.0 ** -np.arange(3, 10))])
        tracemalloc.start()
        try:
            density_grid(6, 0.0, thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20


class TestRoundingSizesStayFinite:
    """An exponent beyond a float once made a rounding size inf, and an
    exactly-zero residue's size inf * 0 = NaN, or leaked an overflow warning."""

    def test_ratio_at_a_huge_negative_cutoff(self):
        # the tail read NaN and passed the 1e-10 check, as nan > 1e-10 is False
        result = normalization_ratio(2, -1e308)
        assert result.value == 1.0 and result.tail_estimate <= 2.3e-16

    def test_density_at_a_huge_negative_cutoff_is_that_of_so2n(self):
        # the tails read NaN, and the grid raised "is below -tail = nan"
        thetas = np.linspace(0, np.pi, 9)[1:]
        dg = density_grid(2, -1e308, thetas)
        assert np.array_equal(dg.values, r1_so2n_unscaled(2, thetas))
        assert np.all(dg.tails <= 2.3e-16)

    def test_divergent_ratio_raises_without_an_overflow_warning(self):
        with pytest.raises(DomainError, match=re.escape("lies outside (0, 1]")):
            normalization_ratio(30000, -2.0)

    def test_grid_next_to_the_gap_edge_at_n36_leaks_no_warning(self):
        # the residue pass's scales overflowed to inf at the poles far from this edge point
        thetas = np.sort(np.r_[np.linspace(0, np.pi, 5), 1.01 * theta_inf(36, -12.0)])
        dg = density_grid(36, -12.0, thetas)
        assert np.all(np.isfinite(dg.values)) and np.all(dg.values[1:] > 0)


class TestDensityGrid:
    def test_grid_zero_below_gap(self):
        grid = np.linspace(0, np.pi, 101)
        dg = density_grid(2, X_TENTH, grid, truncation_K=6)
        ti = theta_inf(2, X_TENTH)
        assert np.all(dg.values[grid <= ti] == 0)
        assert np.all(dg.values[grid > ti + 0.2] > 0)

    def test_invariants_enforced(self):
        diagnostics = (np.zeros(2), np.zeros(2, dtype=bool), normalization_ratio(2, X_TENTH))
        with pytest.raises(DomainError):
            DensityGrid(np.array([0.2, 0.1]), np.array([0.0, 0.0]), *diagnostics)
        with pytest.raises(DomainError):
            DensityGrid(np.array([0.1, 0.2]), np.array([-0.1, 0.0]), *diagnostics)

    def test_ratio_is_the_one_that_scaled_the_values(self):
        grid = np.linspace(0, np.pi, 9)
        for poles in (4, 10):
            dg = density_grid(2, X_TENTH, grid, truncation_K=poles)
            assert dg.ratio.value == normalization_ratio(2, X_TENTH, 10).value
        dg = density_grid(2, X_TENTH, grid, truncation_K=12)
        assert dg.ratio.value == normalization_ratio(2, X_TENTH, 12).value

    def test_ratio_does_not_follow_the_density_truncation(self):
        dg = density_grid(2, X_TENTH, [1.0], truncation_K=40)
        assert dg.ratio.value == normalization_ratio(2, X_TENTH).value
