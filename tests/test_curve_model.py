import re
import tracemalloc
import warnings
from importlib import resources
from math import isqrt

import numpy as np
import pytest

from excised_ensemble import curve_model
from excised_ensemble.curve_model import (
    CurveFamilyParams,
    _count_points_character_sum,
    _counts_at,
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


def _e11_newform(n_max):
    """a_n, n <= n_max, of q prod (1 - q^n)^2 (1 - q^11n)^2 = eta(z)^2 eta(11z)^2,
    the newform of the isogeny class 11a that E11 lies in: Euler's pentagonal
    series gives prod (1 - q^n), and numpy FFT products rounded to integers
    give the rest (exact while their rounding errors stay far below 1/2)."""

    def product(f, g):
        size = 1 << (2 * n_max).bit_length()
        exact = np.fft.irfft(np.fft.rfft(f, size) * np.fft.rfft(g, size), size)[: n_max + 1]
        rounded = np.rint(exact)
        assert np.abs(exact - rounded).max() < 0.1
        return rounded

    euler = np.zeros(n_max + 1)
    euler[0] = 1.0
    k = np.arange(1, isqrt(2 * n_max) + 2)
    for pentagonal in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
        keep = pentagonal <= n_max
        euler[pentagonal[keep]] = (-1.0) ** k[keep]
    square = product(euler, euler)
    square_11 = np.zeros(n_max + 1)
    square_11[::11] = square[: n_max // 11 + 1]
    a = np.zeros(n_max + 1, dtype=np.int64)
    a[1:] = product(square, square_11)[:n_max]
    return a


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

    @pytest.mark.parametrize("observed", [0.0, -0.28])
    def test_vanishing_constant_must_be_positive(self, observed):
        with pytest.raises(DomainError, match="observed constant must be positive"):
            delta_from_vanishing_constant(observed)


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

    @pytest.mark.parametrize("count", [count_points_fp, count_points_double_loop])
    def test_non_prime_rejected(self, count):
        with pytest.raises(DomainError, match="p must be prime"):
            count(E11_WEIERSTRASS, 9)

    def test_other_curve(self):
        # y^2 + y = x^3 - x (conductor 37): a_2 = -2, a_3 = -3, a_5 = -2, a_7 = -1
        for p, ap in [(2, -2), (3, -3), (5, -2), (7, -1)]:
            assert count_points_fp(CURVE37, p) == ap

    @pytest.mark.parametrize("curve", BSGS_CURVES.values(), ids=BSGS_CURVES.keys())
    def test_agrees_with_character_sum_up_to_1e4(self, curve):
        # one batch: mixed baby-step counts, giant-step counts and retries
        # (the conductor argument only adds a prime above p_max)
        counts = point_counts(curve, 10_000, 2)
        assert list(counts) == [int(p) for p in _sieve(10_000)]
        wrong = [p for p, a in counts.items() if p >= 5 and a != _count_points_character_sum(curve, p)]
        assert wrong == []

    def test_retry_heavy_primes(self, monkeypatch):
        # on E11 the first point fixing a(p) is the sixth tried at p = 757,
        # the fifth at 3499 and the fourth at 22511
        rows = []
        kernel = curve_model._bsgs_traces

        def spy(p, *args):
            rows.append(p.tolist())
            return kernel(p, *args)

        monkeypatch.setattr(curve_model, "_bsgs_traces", spy)
        primes = [757, 3499, 22511]
        assert _counts_at(E11_WEIERSTRASS, primes) == {p: _count_points_character_sum(E11_WEIERSTRASS, p) for p in primes}
        assert len(rows) == 2 and rows[0] == primes

    def test_each_row_adds_only_its_own_table_steps(self, monkeypatch):
        # every prime of the p_max = 3e4 pass in one kernel call: each row
        # needs m baby and 2 top giant steps, gP, and one addition per 3-bit
        # window of p + 1 + top g after the first; the giant steps past each
        # drop of top add the rest (tables sized for the largest prime of the
        # call added 169 335)
        primes = [q for q in _sieve(30_000).tolist() if q > 229]
        added = []
        add = curve_model._add_affine

        def spy(R, Q, a, p):
            added.append(len(p))
            return add(R, Q, a, p)

        monkeypatch.setattr(curve_model, "_add_affine", spy)
        p = np.array(primes)
        one = np.ones_like(p)
        curve_model._bsgs_traces(p, one, 3 * one, one)  # d = f(1) on y^2 = x^3 + x + 1
        bound = [isqrt(4 * q) for q in primes]
        m = [isqrt(b) + 1 for b in bound]
        top = [(b + k) // (2 * k + 1) for b, k in zip(bound, m)]
        windows = (max(q + 1 + t * (2 * k + 1) for q, t, k in zip(primes, top, m)).bit_length() + 2) // 3
        floor = sum(k + 2 * t for k, t in zip(m, top)) + len(primes) * windows
        assert floor <= sum(added) <= 1.01 * floor

    def test_peak_memory_of_the_3e4_pass(self):
        # the 3195-row first pass of p_max = 3e4 peaked at 3.95 MiB while the
        # baby y table stayed alive through the giant table's inversion, and
        # at 3.5 MiB with only its parity kept
        p = np.array([q for q in _sieve(30_000).tolist() if q > 229])
        one = np.ones_like(p)
        tracemalloc.start()
        try:
            curve_model._bsgs_traces(p, one, 3 * one, one)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.75 * 2**20

    def test_peak_memory_of_the_3e4_counts(self):
        # the kernel's residues are int32 below p = 2^15: 3.97 MiB in int64
        tracemalloc.start()
        try:
            point_counts(E11_WEIERSTRASS, 30_000, 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.75 * 2**20

    @pytest.mark.parametrize("curve", BSGS_CURVES.values(), ids=BSGS_CURVES.keys())
    def test_residue_dtype_at_2_to_the_15(self, curve, monkeypatch):
        # the largest primes below 2^15 count on int32 residues in a call of
        # their own, and on int64 in one with the smallest primes above it
        below = [32693, 32707, 32713, 32717, 32719, 32749]
        above = [32771, 32779, 32783, 32789, 32797, 32801]
        dtypes = []
        kernel = curve_model._bsgs_traces

        def spy(p, *args):
            dtypes.append(p.dtype)
            return kernel(p, *args)

        monkeypatch.setattr(curve_model, "_bsgs_traces", spy)
        for primes, dtype in ((below + above, np.int64), (below, np.int32)):
            dtypes.clear()
            assert _counts_at(curve, primes) == {q: _count_points_character_sum(curve, q) for q in primes}
            assert dtypes and set(dtypes) == {np.dtype(dtype)}

    def test_int32_and_int64_kernels_agree_on_the_3e4_rows(self):
        p = np.array([q for q in _sieve(30_000).tolist() if q > 229])
        outputs = []
        for dtype in (np.int32, np.int64):
            one = np.ones(len(p), dtype=dtype)
            outputs.append(curve_model._bsgs_traces(p.astype(dtype), one, 3 * one, one))
        (a32, fixed32), (a64, fixed64) = outputs
        assert np.array_equal(a32, a64) and np.array_equal(fixed32, fixed64)

    @pytest.mark.parametrize("curve", BSGS_CURVES.values(), ids=BSGS_CURVES.keys())
    def test_table_boundary_rows(self, curve):
        # one call: 233 has the least m, 6; at 277 and 311 a window digit 7
        # reads the baby table's last entry, (m + 1)P; and top drops from 3
        # to 2 at 317 -> 331, 4 to 3 at 1021 -> 1031, 5 to 4 at 2477 -> 2503,
        # where m steps up, so giant steps cover a row past the drop that
        # needs fewer of them
        primes = [233, 277, 311, 317, 331, 1021, 1031, 2477, 2503]
        m = [isqrt(isqrt(4 * q)) + 1 for q in primes]
        top = [(isqrt(4 * q) + k) // (2 * k + 1) for q, k in zip(primes, m)]
        n = [q + 1 + t * (2 * k + 1) for q, t, k in zip(primes, top, m)]
        assert m[:4] == [6] * 4 and all("7" in oct(v)[2:] for v in n[1:3])
        assert [top[i] - top[i + 1] for i in (3, 5, 7)] == [1, 1, 1]
        assert _counts_at(curve, primes) == {q: _count_points_character_sum(curve, q) for q in primes}

    def test_group_law_in_every_case(self):
        # y^2 = x^3 + x + 1 over F_23, one case per row; O is the point at
        # infinity, (4, 0) has order 2, and (3, 10) + (9, 7) = (17, 20),
        # 2 (3, 10) = (7, 12) are the textbook values.  The first operand is
        # taken to Jacobian coordinates scaled by lambda, (l^2 x, l^3 y, l),
        # the second stays affine.
        O = (0, 0, True)
        cases = [
            ((3, 10, False), (9, 7, False), (17, 20, False)),
            ((3, 10, False), (3, 10, False), (7, 12, False)),
            ((3, 10, False), (3, 13, False), O),
            (O, (3, 10, False), (3, 10, False)),
            ((3, 10, False), O, (3, 10, False)),
            (O, O, O),
            ((4, 0, False), (4, 0, False), O),
            # the coordinates an O carries are never read
            ((3, 10, False), (3, 13, True), (3, 10, False)),
            ((3, 13, True), (3, 10, False), (3, 10, False)),
            # P = Q reached through the mixed add from a scaled representative
            ((3, 10, False), (3, 10, False), (7, 12, False)),
        ]
        scale = np.array([1] * 9 + [5])
        P, Q, want = (tuple(np.array(c) for c in zip(*points)) for points in zip(*cases))
        p = np.full(len(cases), 23)
        a = np.full(len(cases), 1)
        x, y, z = curve_model._jacobian(P)
        R = (x * scale**2 % p, y * scale**3 % p, z * scale % p)
        x, y, z = (c[None] for c in curve_model._add_affine(R, Q, a, p))
        inf = curve_model._to_affine(x, y, z, p, curve_model._bits(p - 2))[0]
        assert inf.tolist() == want[2].tolist()
        assert (x[0][~inf].tolist(), y[0][~inf].tolist()) == (want[0][~inf].tolist(), want[1][~inf].tolist())

    def test_doubling_in_jacobian_coordinates(self):
        # on the same curve: 2 (3, 10) = (7, 12) from scaled representatives,
        # and the 2-torsion point (4, 0), scaled or not, doubles to O
        p = np.full(4, 23)
        scale = np.array([1, 7, 1, 7])
        x, y = np.array([3, 3, 4, 4]), np.array([10, 10, 0, 0])
        R = (x * scale**2 % p, y * scale**3 % p, scale)
        x, y, z = (c[None] for c in curve_model._double(R, np.full(4, 1), p))
        inf = curve_model._to_affine(x, y, z, p, curve_model._bits(p - 2))[0]
        assert inf.tolist() == [False, False, True, True]
        assert (x[0, :2].tolist(), y[0, :2].tolist()) == ([7, 7], [12, 12])

    def test_scaled_representatives_normalize_to_one_point(self):
        # (l^2 x, l^3 y, l) is (x, y) for every l != 0 mod p; l = 0 is O
        p = np.full(23, 23)
        lam = np.arange(23)
        X, Y, Z = (lam**2 * 3 % p)[None], (lam**3 * 10 % p)[None], lam[None].copy()
        inf = curve_model._to_affine(X, Y, Z, p, curve_model._bits(p - 2))[0]
        assert inf.tolist() == [True] + [False] * 22
        assert (X[0, 1:].tolist(), Y[0, 1:].tolist()) == ([3] * 22, [10] * 22)

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_simultaneous_inversion(self, dtype):
        # each column has its own prime, one above 2^31 in Python integers;
        # a 0 stays 0, and the rest match pow(z, -1, p) entry by entry
        primes = [23, 30011, 2_147_483_647] + ([3_037_000_493] if dtype is object else [])
        rng = np.random.default_rng(7)
        z = np.array([[int(rng.integers(1, q)) for q in primes] for _ in range(6)], dtype=dtype)
        z[2, 0] = z[0, 1] = z[5, -1] = 0
        p = np.array(primes, dtype=dtype)
        inv = z.copy()
        curve_model._invert(inv, p, curve_model._bits(p - 2))
        want = [[pow(int(v), -1, q) if v else 0 for v, q in zip(row, primes)] for row in z.tolist()]
        assert [[int(v) for v in row] for row in inv.tolist()] == want

    def test_at_most_four_fermat_powers_per_kernel_call(self, monkeypatch):
        # the three tables' inversions and the square test, whatever p is
        calls = []
        pow_mod = curve_model._pow_mod

        def spy(*args):
            calls.append(1)
            return pow_mod(*args)

        monkeypatch.setattr(curve_model, "_pow_mod", spy)
        for primes in ([30011, 30013], [999_983], [3_037_000_493]):
            calls.clear()
            dtype = np.int64 if max(primes) < 2**31 else object
            p = np.array(primes, dtype=dtype)
            one = np.ones(len(p), dtype=dtype)
            curve_model._bsgs_traces(p, one, 3 * one, one)  # d = f(1) on y^2 = x^3 + x + 1
            assert len(calls) <= 4

    def test_largest_prime_on_the_int64_path(self):
        # 2^31 - 1 is the largest prime whose residues stay int64: every
        # product of two of them stays below 2^62
        assert count_points_fp(E11_WEIERSTRASS, 2_147_483_647) == 37073

    def test_primes_above_2_to_the_31(self):
        # residues leave int64 for Python integers here; 3037000493 is the
        # largest prime whose square fits an int64
        assert count_points_fp(E11_WEIERSTRASS, 2_147_483_659) == -37030
        assert count_points_fp(E11_WEIERSTRASS, 3_037_000_493) == 93144

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

    @pytest.mark.parametrize(
        "curve",
        [*BSGS_CURVES.values(), (0, -1, 1, -10, -20), (1, 0, 1, 4, -6), (0, 0, 1, -7, 6)],
        ids=[*BSGS_CURVES.keys(), "11a1", "14a1", "5077a"],
    )
    def test_character_sum_at_3(self, curve):
        # completing the square only multiplies by 4, so the character sum is
        # exact at every odd prime; y^2 = x^3 + 1 is bad at 3
        assert _count_points_character_sum(curve, 3) == count_points_double_loop(curve, 3)

    def test_double_loop_serves_only_p_2(self, monkeypatch):
        enumerated = []
        double_loop = curve_model.count_points_double_loop

        def spy(weierstrass, p):
            enumerated.append(p)
            return double_loop(weierstrass, p)

        monkeypatch.setattr(curve_model, "count_points_double_loop", spy)
        assert point_counts(CURVE37, 50, 37)[3] == -3
        assert enumerated == [2]

    def test_point_counts_table(self):
        assert point_counts(E11_WEIERSTRASS, 20, 11) == E11_AP
        # the conductor's count rides along when it lies above p_max
        assert point_counts(E11_WEIERSTRASS, 7, 11) == {2: -2, 3: -1, 5: 1, 7: -2, 11: 1}


class TestNewformOracle:
    """`point_counts` on E11 against the coefficients of its newform."""

    @pytest.fixture(scope="class")
    def newform(self):
        return _e11_newform(10**6)

    def test_oracle_first_coefficients(self, newform):
        assert newform[:12].tolist() == [0, 1, -2, -1, 2, 1, 2, -2, 0, -2, -2, 1]
        assert {p: int(newform[p]) for p in E11_AP} == E11_AP

    def test_every_prime_to_2e5(self, newform):
        counts = point_counts(E11_WEIERSTRASS, 200_000, 11)
        assert len(counts) == 17_984
        assert [p for p, a in counts.items() if a != newform[p]] == []

    def test_a_minus_half_at_1e6(self, newform):
        # a_{-1/2} to p = 10^6 (0.7327345 from point counts), here from the
        # oracle's table
        table = {int(p): newform[p] for p in _sieve(10**6)}
        result = a_s_truncated(table, 11, +1, -0.5, 10**6)
        assert result.value == pytest.approx(0.7327344868, abs=1e-9)
        assert result.value == pytest.approx(0.7327345, abs=5e-8)
        assert result.last_decade_increment == pytest.approx(1.4857746e-05, abs=1e-12)

    def test_window_below_1e6(self, newform):
        window = [int(p) for p in _sieve(10**6) if p > 10**6 - 5000]
        counts = _counts_at(E11_WEIERSTRASS, window)
        assert len(counts) == 360
        assert [p for p, a in counts.items() if a != newform[p]] == []


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

    @pytest.mark.parametrize(
        "p_max, conductor, keys, increment",
        [
            (7, 11, [7], None),
            (7, 13, [7], None),
            (10, 11, [10], None),
            (50, 11, [10, 50], None),
            (1000, 11, [10, 100, 1000], 7.0118605e-4),
            # no prime lies in (1000, 1001], so there is no key 1000
            (1001, 11, [10, 100, 1001], 7.0118605e-4),
            (30000, 11, [10, 100, 1000, 10000, 30000], 1.0994035e-4),
        ],
    )
    def test_decade_keys(self, p_max, conductor, keys, increment):
        result = a_s_truncated(point_counts(E11_WEIERSTRASS, p_max, conductor), conductor, +1, -0.5, p_max)
        assert list(result.decade_values) == keys
        assert result.decade_values[p_max] == result.value
        if increment is None:
            assert result.last_decade_increment is None
        else:
            assert result.last_decade_increment == pytest.approx(increment, rel=1e-7)

    def test_decade_value_is_the_product_to_the_decade(self):
        table = point_counts(E11_WEIERSTRASS, 1000, 11)
        to_100 = a_s_truncated(table, 11, +1, -0.5, 100).value
        assert a_s_truncated(table, 11, +1, -0.5, 1000).decade_values[100] == pytest.approx(to_100, rel=1e-15)

    def test_decades_carry_the_conductor_above_p_max(self):
        # M = 1009 > p_max: each decade, like the value, carries the M-factor
        # (1.0046), so the increment compares one decade's primes only
        table = point_counts(E11_WEIERSTRASS, 1005, 1009)
        result = a_s_truncated(table, 1009, +1, -0.5, 1005)
        assert list(result.decade_values) == [10, 100, 1000, 1005]
        assert result.last_decade_increment == pytest.approx(7.6e-4, rel=0.02)
        to_100 = a_s_truncated(table, 1009, +1, -0.5, 100).value
        assert result.decade_values[100] == pytest.approx(to_100, rel=1e-15)

    def test_missing_prime_is_domain_error(self):
        # the conductor's factor is always applied, so its a(M) is needed too
        with pytest.raises(DomainError, match="prime 11$"):
            a_s_truncated({2: -2, 3: -1, 5: 1, 7: -2}, 11, +1, -0.5, 7)
        with pytest.raises(DomainError, match="prime 5$"):
            a_s_truncated({2: -2, 3: -1, 7: -2, 11: 1}, 11, +1, -0.5, 7)

    @pytest.mark.parametrize("p_max", [10, 100])
    def test_composite_conductor_is_domain_error(self, p_max):
        # 14a1 has bad reduction at 2 and 7, but only p == M takes the bad
        # factor: M = 14 would give 2 and 7 the good factor (0.8103 at p_max
        # 100) or count points mod 14 (0.6678 at p_max 10)
        e14 = (1, 0, 1, 4, -6)
        with pytest.raises(DomainError, match="prime conductor, not 14"):
            point_counts(e14, p_max, 14)
        table = _counts_at(e14, [int(p) for p in _sieve(p_max)])
        with pytest.raises(DomainError, match="prime conductor, not 14"):
            a_s_truncated(table, 14, +1, -0.5, p_max)

    @pytest.mark.parametrize("s", [1e10, 1e308, -1e308])
    def test_overflow_is_domain_error(self, s):
        a_p = point_counts(E11_WEIERSTRASS, 50, 11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflows a float"):
                a_s_truncated(a_p, 11, +1, s, 50)
            # an underflow is a value, the correctly rounded 0.0
            assert a_s_truncated(a_p, 11, +1, 400.0, 50).value == 0.0

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

    def test_four_coefficients_rejected(self):
        with pytest.raises(DomainError, match=re.escape("(c1, c2, c3, c4, c6)")):
            CurveFamilyParams(11, E11_WEIERSTRASS[:4], 1.0, 1.0, 1.0, 1.0, 1)

    def test_bundled_config_loads(self):
        path = resources.files("excised_ensemble.data") / "e11.cfg"
        params, x_bound = read_curve_config(str(path))
        assert params.conductor_M == 11
        assert params.weierstrass == E11_WEIERSTRASS
        assert x_bound == 400_000

    def test_missing_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("conductor = 11\n")
        with pytest.raises(DomainError, match="missing"):
            read_curve_config(bad)

    def test_line_without_equals_rejected(self, tmp_path):
        path = resources.files("excised_ensemble.data") / "e11.cfg"
        cfg = tmp_path / "bare.cfg"
        cfg.write_text(path.read_text() + "delta 0.2\n")
        with pytest.raises(DomainError, match="malformed config line: 'delta 0.2'"):
            read_curve_config(cfg)

    def test_repeated_key_rejected(self, tmp_path):
        path = resources.files("excised_ensemble.data") / "e11.cfg"
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(path.read_text() + "delta = 0.2\n")
        with pytest.raises(DomainError, match="config key delta is given twice"):
            read_curve_config(cfg)

    def test_unused_key_ignored(self, tmp_path):
        path = resources.files("excised_ensemble.data") / "e11.cfg"
        cfg = tmp_path / "extra.cfg"
        cfg.write_text(path.read_text() + "r2 = 0.5\n")
        assert read_curve_config(cfg) == read_curve_config(path)

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
