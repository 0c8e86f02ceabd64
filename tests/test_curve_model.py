from importlib import resources

import numpy as np
import pytest

from excised_ensemble.curve_model import (
    CurveFamilyParams,
    _count_points_character_sum,
    _is_prime,
    _sieve,
    a_s_truncated,
    count_points_double_loop,
    count_points_fp,
    cutoff_eff,
    cutoff_report,
    cutoff_std,
    delta_from_vanishing_constant,
    n_eff,
    n_std,
    point_counts,
    read_curve_config,
)
from excised_ensemble.errors import DomainError

E11_WEIERSTRASS = (0, -1, 1, 0, 0)
# first Dirichlet coefficients of the conductor-11 newform (well-known values)
E11_AP = {2: -2, 3: -1, 5: 1, 7: -2, 11: 1, 13: 4, 17: -2, 19: 0}
CURVE37 = (0, 0, 1, -1, 0)  # y^2 + y = x^3 - x, conductor 37
# Curves for the baby-step giant-step counter: E11 and 37a, and two CM curves,
# y^2 = x^3 - x and y^2 = x^3 + 1, with a_p = 0 at half the primes and full
# 2- or 3-torsion, so many points have too small an order to fix a(p).
BSGS_CURVES = {"E11": E11_WEIERSTRASS, "37a": CURVE37, "x3-x": (0, 0, 0, -1, 0), "x3+1": (0, 0, 0, 0, 1)}


def _vanishing_constant(delta):
    """(8/3) 2^(-7/8) G(1/2) pi^(-1/4) delta^(1/2), the relation that
    `delta_from_vanishing_constant` inverts; G(1/2) = 0.60324428120944621."""
    return (8 / 3) * 2 ** (-7 / 8) * 0.60324428120944621 * np.pi ** (-0.25) * np.sqrt(delta)


@pytest.fixture(scope="module")
def e11():
    return CurveFamilyParams(
        conductor_M=11,
        weierstrass=E11_WEIERSTRASS,
        kappa_E=6.346046521,
        a_minus_half=0.732728078,
        r1=2.8600,
        delta=0.185116,
        sign_omega=1,
    )


class TestMatrixSizes:
    def test_e11_standard_size(self):
        assert n_std(11, 400_000) == pytest.approx(12.26, abs=0.005)

    def test_trivial_values(self):
        assert n_std(1, 2 * np.pi) == pytest.approx(0.0, abs=1e-14)
        assert n_std(4, np.pi) == pytest.approx(0.0, abs=1e-14)

    def test_effective_size(self):
        assert n_eff(12.26, 2.8600) == pytest.approx(2.14, abs=0.005)
        assert n_eff(3.7, 0.5) == pytest.approx(3.7)
        assert n_eff(0.0, 2.0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            n_std(0, 10.0)
        with pytest.raises(DomainError):
            n_eff(1.0, 0.0)


class TestCutoffConstants:
    def test_c_std(self, e11):
        assert cutoff_std(e11) == pytest.approx(2.188, abs=5e-4)

    def test_c_eff(self, e11):
        assert cutoff_eff(e11) == pytest.approx(0.5916, abs=5e-4)

    def test_delta_kappa(self, e11):
        assert e11.delta * e11.kappa_E == pytest.approx(1.17475, abs=5e-5)

    def test_delta_from_observed_constant(self):
        assert delta_from_vanishing_constant(0.2834620) == pytest.approx(0.185116, abs=5e-6)

    def test_inversion_identity(self):
        assert delta_from_vanishing_constant(_vanishing_constant(1.0)) == pytest.approx(1.0)

    def test_round_trip_stable(self):
        delta = 0.3721
        again = delta_from_vanishing_constant(_vanishing_constant(delta))
        assert again == pytest.approx(delta, rel=1e-12)


class TestCutoffReport:
    def test_e11_pipeline(self, e11):
        report = cutoff_report(e11, 400_000)
        assert report.n_std == pytest.approx(12.26, abs=0.005)
        assert report.n_eff == pytest.approx(2.14, abs=0.005)
        assert report.n_std_matrix == 12
        assert report.n_eff_matrix == 2
        assert report.abs_cutoff_std == pytest.approx(0.005424, abs=5e-7)
        assert report.abs_cutoff_eff == pytest.approx(0.001466, abs=5e-7)

    def test_exponent_identity(self, e11):
        # r1 * N_eff = N_std / 2 exactly, so the two cutoff exponent forms agree
        report = cutoff_report(e11, 400_000)
        assert e11.r1 * report.n_eff == pytest.approx(report.n_std / 2, rel=1e-14)

    def test_json_fields(self, e11):
        d = cutoff_report(e11, 400_000).to_json_dict()
        assert d["X_bound"] == 400_000
        assert set(d) >= {"N_std", "N_eff", "c_std", "c_eff", "abs_cutoff_std", "abs_cutoff_eff"}

    def test_matrix_size_below_one_rejected(self, e11):
        # X = 1 gives N_std = -0.64 and X = 3 gives 0.46: no matrix of that size
        for x_bound in (1, 3):
            with pytest.raises(DomainError):
                cutoff_report(e11, x_bound)
        assert cutoff_report(e11, 4).n_std_matrix == 1


class TestPointCounting:
    def test_known_coefficients(self):
        for p, ap in E11_AP.items():
            assert count_points_fp(E11_WEIERSTRASS, p) == ap

    def test_double_loop_agrees(self):
        for p in (2, 3, 5, 7, 11, 13, 37, 101):
            assert count_points_fp(E11_WEIERSTRASS, p) == count_points_double_loop(E11_WEIERSTRASS, p)

    def test_hasse_bound(self):
        for p in (5, 7, 13, 29, 53, 97):
            assert abs(count_points_fp(E11_WEIERSTRASS, p)) <= 2 * np.sqrt(p)

    def test_non_prime_rejected(self):
        with pytest.raises(DomainError):
            count_points_fp(E11_WEIERSTRASS, 9)

    def test_other_curve(self):
        # y^2 + y = x^3 - x (conductor 37): a_2 = -2, a_3 = -3, a_5 = -2, a_7 = -1
        for p, ap in [(2, -2), (3, -3), (5, -2), (7, -1)]:
            assert count_points_fp(CURVE37, p) == ap

    @pytest.mark.parametrize("curve", BSGS_CURVES.values(), ids=BSGS_CURVES.keys())
    def test_agrees_with_character_sum_up_to_1e4(self, curve):
        primes = [int(p) for p in _sieve(10_000) if p >= 5]
        wrong = [p for p in primes if count_points_fp(curve, p) != _count_points_character_sum(curve, p)]
        assert wrong == []

    def test_bad_primes(self):
        # multiplicative reduction: the count, singular point included, gives +-1
        assert count_points_fp(E11_WEIERSTRASS, 11) == 1
        assert count_points_fp(CURVE37, 37) == count_points_double_loop(CURVE37, 37) == -1
        # y^2 = x^3 + x + 7 has discriminant -16 * 1327, a prime above the
        # baby-step giant-step range, where that search would read the
        # nonsingular group's order p - 1 as a trace of 2
        assert count_points_fp((0, 0, 0, 1, 7), 1327) == count_points_double_loop((0, 0, 0, 1, 7), 1327) == 1

    def test_large_primes(self):
        assert count_points_fp(E11_WEIERSTRASS, 999_983) == _count_points_character_sum(E11_WEIERSTRASS, 999_983)
        # the character sum gives 2992 too, in ~0.9 s and with 10^7-entry arrays
        assert count_points_fp(E11_WEIERSTRASS, 9_999_991) == 2992

    def test_is_prime_matches_sieve_below_1e5(self):
        primes = set(_sieve(100_000).tolist())
        assert [n for n in range(100_000) if _is_prime(n) != (n in primes)] == []

    def test_is_prime_at_pseudoprimes_and_large_primes(self):
        # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to the
        # bases 2, 3, 5 and 7
        assert not _is_prime(561) and not _is_prime(3_215_031_751)
        assert all(_is_prime(p) for p in (999_983, 9_999_991, 2**61 - 1))

    def test_point_counts_table(self):
        assert point_counts(E11_WEIERSTRASS, 20, 11) == E11_AP
        # the conductor's count rides along when it lies above p_max
        assert point_counts(E11_WEIERSTRASS, 7, 11) == {2: -2, 3: -1, 5: 1, 7: -2, 11: 1}


class TestEulerProduct:
    def test_s_zero_is_one(self):
        for p_max in (10, 100, 1000):
            result = a_s_truncated(point_counts(E11_WEIERSTRASS, p_max, 11), 11, +1, 0.0, p_max)
            assert result.value == pytest.approx(1.0, abs=1e-14)

    def test_e11_value_moderate_truncation(self):
        result = a_s_truncated(point_counts(E11_WEIERSTRASS, 10_000, 11), 11, +1, -0.5, 10_000)
        assert result.value == pytest.approx(0.732728078, abs=1e-2)

    def test_decade_diagnostics_populated(self):
        result = a_s_truncated(point_counts(E11_WEIERSTRASS, 1000, 11), 11, +1, -0.5, 1000)
        assert 10 in result.decade_values and 100 in result.decade_values
        assert np.isfinite(result.last_decade_increment)

    def test_no_decade_increment_below_p_max_100(self):
        # only the decade 10 lies below p_max = 50, so there is nothing to compare with
        result = a_s_truncated(point_counts(E11_WEIERSTRASS, 50, 11), 11, +1, -0.5, 50)
        assert result.last_decade_increment is None
        assert np.isfinite(result.value)

    def test_conductor_factor_always_applied(self):
        # p_max below the conductor: the M-factor must still be present.
        # Swapping the declared conductor changes only the M-factor, so the
        # ratio of the two products isolates it.
        with_11 = a_s_truncated(point_counts(E11_WEIERSTRASS, 7, 11), 11, +1, -0.5, 7).value
        with_13 = a_s_truncated(point_counts(E11_WEIERSTRASS, 7, 13), 13, +1, -0.5, 7).value

        def m_factor(m):
            lam = count_points_fp(E11_WEIERSTRASS, m) / np.sqrt(m)
            return (1 - 1 / m) ** (3 / 8) * (1 - lam / np.sqrt(m)) ** 0.5

        assert with_11 / with_13 == pytest.approx(m_factor(11) / m_factor(13), rel=1e-12)

    def test_p_max_domain(self):
        with pytest.raises(DomainError):
            a_s_truncated({2: -2, 11: 1}, 11, +1, -0.5, 1)
        with pytest.raises(DomainError):
            point_counts(E11_WEIERSTRASS, 1, 11)


class TestParamsAndConfig:
    def test_non_prime_conductor_rejected(self):
        with pytest.raises(DomainError):
            CurveFamilyParams(12, E11_WEIERSTRASS, 1.0, 1.0, 1.0, 1.0, 1)

    def test_positivity_enforced(self):
        with pytest.raises(DomainError):
            CurveFamilyParams(11, E11_WEIERSTRASS, -1.0, 1.0, 1.0, 1.0, 1)

    def test_bad_sign(self):
        with pytest.raises(DomainError):
            CurveFamilyParams(11, E11_WEIERSTRASS, 1.0, 1.0, 1.0, 1.0, 2)

    def test_bundled_config_loads(self):
        path = resources.files("excised_ensemble.data") / "e11.cfg"
        params, x_bound = read_curve_config(str(path))
        assert params.conductor_M == 11
        assert params.weierstrass == E11_WEIERSTRASS
        assert params.r2 is None
        assert x_bound == 400_000

    def test_missing_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("conductor = 11\n")
        with pytest.raises(DomainError, match="missing"):
            read_curve_config(bad)

    def test_comments_and_blank_lines(self, tmp_path):
        path = resources.files("excised_ensemble.data") / "e11.cfg"
        text = path.read_text() + "\n# trailing comment\n\n"
        cfg = tmp_path / "copy.cfg"
        cfg.write_text(text)
        params, _ = read_curve_config(cfg)
        assert params.kappa_E == pytest.approx(6.346046521)

    @pytest.mark.parametrize("key, bad", [("kappa_E", "6.3x"), ("conductor", "11.0"), ("X_bound", "")])
    def test_non_numeric_value_names_the_key(self, tmp_path, key, bad):
        path = resources.files("excised_ensemble.data") / "e11.cfg"
        lines = [f"{key} = {bad}" if ln.split("=")[0].strip() == key else ln for ln in path.read_text().splitlines()]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError, match=key):
            read_curve_config(cfg)
