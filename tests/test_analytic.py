import re

import numpy as np
import pytest
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
    kernel_residue_at_minus_half,
    moments_so2n,
    normalization_ratio,
    r1_excised_line_integral,
    r1_so2n_unscaled,
    selberg_integral,
    theta_inf,
    value_cumulative_small_x,
    write_density_csv,
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

    def test_continuation_flag(self):
        val = moments_so2n(2, -0.6 + 0.05j, analytic_continuation=True)
        assert np.isfinite(val)


class TestSmallValueDensity:
    def test_h1_closed_form(self):
        assert h_exact(1) == pytest.approx(1 / (2 * np.pi), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_h_matches_contour_residue(self, n):
        # extract Res_{s=-1/2} M_O(N, s) by trapezoid quadrature on a small circle
        nodes = 256
        z = -0.5 + 0.1 * np.exp(2j * np.pi * np.arange(nodes) / nodes)
        vals = np.array([moments_so2n(n, s, analytic_continuation=True) for s in z])
        residue = np.mean(vals * (z + 0.5)).real
        assert h_exact(n) == pytest.approx(residue, abs=1e-8)

    def test_asymptotic_approaches_exact(self):
        assert abs(h_asymptotic(50) / h_exact(50) - 1) <= 0.02
        assert abs(h_asymptotic(100) / h_exact(100) - 1) < abs(h_asymptotic(50) / h_exact(50) - 1)

    def test_cumulative_vanishes_at_zero(self):
        assert value_cumulative_small_x(2, 0.0) == 0.0


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
        # like the density's tails, the estimate is the next pole's residue plus
        # eps times the summed term magnitudes; the next residue alone is 2.6e-30 and 3.5e-32 here
        ratio = normalization_ratio(n, log_cutoff)
        assert ratio.tail_estimate >= np.finfo(float).eps * ratio.value


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
        nodes = 128
        z = -0.5 + 0.1 * np.exp(2j * np.pi * np.arange(nodes) / nodes)
        residue = np.mean(excised_integrand(2, X_TENTH, 1.0, z) * (z + 0.5)).real
        assert residue == pytest.approx(kernel_residue_at_minus_half(2, X_TENTH, 1.0), rel=1e-9)

    def test_pole_inputs_rejected(self):
        with pytest.raises(DomainError):
            excised_integrand(2, X_TENTH, 1.0, np.array([0.0 + 0j]))
        with pytest.raises(DomainError):
            excised_integrand(2, X_TENTH, 1.0, np.array([-1.5 + 0j]))


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

    @pytest.mark.parametrize("truncation_K", [0, -3])
    def test_truncation_below_one_raises(self, truncation_K):
        # the highest "pole" summed was then r = +1.5, where there is none
        with pytest.raises(DomainError, match="truncation_K must be >= 1"):
            density_grid(2, X_TENTH, [1.0], truncation_K=truncation_K)

    @pytest.mark.parametrize(
        "call",
        [
            lambda n: density_grid(n, X_TENTH, [1.0]),
            lambda n: normalization_ratio(n, X_TENTH),
            lambda n: moments_so2n(n, 1.0),
        ],
        ids=["density_grid", "normalization_ratio", "moments_so2n"],
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


class TestLineIntegral:
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

    def test_csv_output(self, tmp_path):
        grid = np.linspace(0, np.pi, 9)
        dg = density_grid(2, X_TENTH, grid, truncation_K=4)
        path = tmp_path / "density.csv"
        write_density_csv(dg, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "theta,r1"
        assert len(lines) == 10
