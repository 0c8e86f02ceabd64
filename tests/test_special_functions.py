import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_jacobi, gammaln, loggamma, roots_jacobi

from excised_ensemble import analytic
from excised_ensemble.errors import DomainError
from excised_ensemble.special_functions import (
    barnes_g,
    jacobi_p,
    jacobi_p_deriv,
    log_barnes_g,
    log_gamma,
)

# anchors computed offline with an arbitrary-precision library
LOG_GAMMA_3_4J = -1.756626784603784110530604 + 4.742664438034657928194889j
BARNES_G_HALF = 0.60324428120944621


class TestLogGamma:
    def test_gamma_one(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_gamma_half(self):
        assert log_gamma(0.5).real == pytest.approx(np.log(np.sqrt(np.pi)), rel=1e-14)

    def test_complex_anchor(self):
        assert abs(log_gamma(3 + 4j) - LOG_GAMMA_3_4J) < 1e-12 * abs(LOG_GAMMA_3_4J)

    def test_moderate_argument_anchor(self):
        # offline arbitrary-precision value of log Gamma(50.5)
        assert log_gamma(50.5).real == pytest.approx(146.5192554907206272, rel=1e-13)

    def test_pole_rejected(self):
        for z in (0.0, -1.0, -7.0, complex(-3.0, 0.0), complex(-3.0, -0.0), np.array([2.5, -2.0, 1.0 + 1j])):
            with pytest.raises(DomainError):
                log_gamma(z)

    @given(
        st.floats(min_value=-20, max_value=20),
        st.floats(min_value=0.1, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_reflection(self, x, y):
        z = complex(x, y)
        lhs = np.exp(log_gamma(z) + log_gamma(1 - z))
        rhs = np.pi / np.sin(np.pi * z)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_array_input(self):
        zs = np.array([1.0 + 0j, 2.0 + 1j, 0.5 - 3j])
        out = log_gamma(zs)
        assert out.shape == zs.shape
        assert out[0] == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize(
        "z,shown",
        [
            (math.nan, "nan"),
            (math.inf, "inf"),
            (-math.inf, "inf"),
            (complex(1.0, math.inf), "inf"),
            (complex(math.nan, 0.0), "nan"),
            (np.array([0.5, 2.0 + 1j, math.nan]), "nan"),
        ],
    )
    def test_non_finite_argument_rejected(self, z, shown):
        with pytest.raises(DomainError, match=f"finite argument.*{shown}"):
            log_gamma(z)


EPS = np.finfo(float).eps
# the 128-node circles of radius 0.1 around the poles -(2k+1)/2, k <= 40, of
# the residue series
CIRCLES = np.add.outer(-(2 * np.arange(41) + 1) / 2.0, 0.1 * np.exp(2j * np.pi * np.arange(128) / 128))
NEGATIVE_REALS = [-0.5, -0.536, -2.5, -14.004]


def _circle_arguments(n):
    """The shifts by 1/2, N, N - 1/2 and N + 1 that the moments, the kernel and
    the integrand's runs take of the circles."""
    return np.stack([CIRCLES + 0.5, CIRCLES + n, CIRCLES + (n - 0.5), CIRCLES + (n + 1)])


def _parabola_arguments(n, d, monkeypatch):
    """Every array argument `_line_quadrature` passes to log_gamma at gap margin d."""
    seen = []

    def spy(z):
        seen.append(np.array(z).ravel())
        return log_gamma(z)

    monkeypatch.setattr(analytic, "log_gamma", spy)
    try:
        analytic._line_quadrature(n, (2 * n - 1) * math.log(2.0) - d, np.array([math.pi / 2]), 0.5)
    except DomainError as error:  # the Jacobi sums of N = 35 overflow far along the parabola at d = 1e-12
        assert "overflow" in str(error)
    return np.concatenate([z for z in seen if z.size > 1])


def _scaled_error(value, reference):
    return np.max(np.abs(value - reference) / np.maximum(1.0, np.abs(reference)))


class TestLogGammaOracles:
    """log_gamma against scipy.special.loggamma, which implements the same
    scheme, and against 40-digit mpmath, on the arguments the package takes."""

    @pytest.mark.parametrize("n", [1, 2, 12, 35])
    def test_circles_match_scipy(self, n):
        z = _circle_arguments(n)
        assert _scaled_error(log_gamma(z), loggamma(z)) <= 48 * EPS

    @pytest.mark.parametrize("n", [1, 2, 12, 35])
    @pytest.mark.parametrize("d", [1e-12, 1.0, 30.0])
    def test_parabola_nodes_match_scipy(self, n, d, monkeypatch):
        z = _parabola_arguments(n, d, monkeypatch)
        assert _scaled_error(log_gamma(z), loggamma(z)) <= 48 * EPS

    @pytest.mark.parametrize("n", [1, 2, 12, 35])
    def test_circles_match_mpmath(self, n):
        mp = pytest.importorskip("mpmath")
        z = _circle_arguments(n)[:, :, ::16].ravel()
        with mp.workdps(40):
            reference = np.array([complex(mp.loggamma(mp.mpc(v.real, v.imag))) for v in z])
        assert _scaled_error(log_gamma(z), reference) <= 24 * EPS

    @pytest.mark.parametrize("d", [1e-12, 1.0, 30.0])
    def test_parabola_nodes_match_mpmath(self, d, monkeypatch):
        mp = pytest.importorskip("mpmath")
        z = _parabola_arguments(12, d, monkeypatch)[::8]
        with mp.workdps(40):
            reference = np.array([complex(mp.loggamma(mp.mpc(v.real, v.imag))) for v in z])
        assert _scaled_error(log_gamma(z), reference) <= 24 * EPS

    @pytest.mark.parametrize("count", [1, 2, 12, 35])
    def test_gamma_run_is_the_principal_sum(self, count):
        # the run's one log-Gamma plus logarithms lands on the principal branch, no 2 pi i off;
        # the shifts by 1/2, N and N + 1 are those the moments' and the integrand's runs take
        z = _circle_arguments(count)[[0, 1, 3]]
        termwise = sum(log_gamma(z + j) for j in range(count))
        assert _scaled_error(analytic._log_gamma_run(z, count), termwise) <= 32 * EPS

    @pytest.mark.parametrize("x", NEGATIVE_REALS)
    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["plus0", "minus0"])
    def test_negative_real_axis_takes_scipy_branch(self, x, zero):
        z = complex(x, zero)
        assert log_gamma(z).imag == loggamma(z).imag
        assert log_gamma(np.array([z, 3.0 + 1j]))[0].imag == loggamma(z).imag
        assert log_gamma(z).real == pytest.approx(loggamma(z).real, rel=32 * EPS)

    def test_scalar_and_array_calls_agree(self):
        # one of each class: Stirling (far right, far up, far left and up),
        # shifted, reflected, the negative real axis, and a real positive float
        z = np.array([12.3 + 0.4j, 1.5 + 9.0j, -30.2 + 8.0j, 0.7 - 2.0j, 3.0 + 0.0j,
                      -4.3 + 0.2j, -0.5 - 6.5j, -2.5 + 0.0j, 0.05 + 0.0j, 40.0 + 0.0j])
        together = log_gamma(z)
        one_at_a_time = np.array([log_gamma(complex(v)) for v in z])
        real_scalars = np.array([log_gamma(float(v.real)) for v in z if v.imag == 0 and v.real > 0])
        # each entry is computed alone; only the last bits of numpy's vector and scalar loops differ
        assert _scaled_error(together, one_at_a_time) <= 8 * EPS
        assert _scaled_error(together[(z.imag == 0) & (z.real > 0)], real_scalars) <= 8 * EPS
        assert np.all(np.abs(together.imag - one_at_a_time.imag) < 1.0)  # one branch
        assert log_gamma(z.reshape(2, 5)).shape == (2, 5)
        assert isinstance(log_gamma(2.5), complex) and isinstance(log_gamma(2.5 + 1j), complex)


class TestBarnesG:
    def test_g_one_and_two(self):
        assert barnes_g(1.0) == pytest.approx(1.0, rel=1e-12)
        assert barnes_g(2.0) == pytest.approx(1.0, rel=1e-12)

    def test_g_three_is_gamma_two_times_g_two(self):
        assert barnes_g(3.0) == pytest.approx(1.0, rel=1e-12)
        assert barnes_g(4.0) == pytest.approx(2.0, rel=1e-12)

    def test_g_half(self):
        assert barnes_g(0.5) == pytest.approx(BARNES_G_HALF, rel=1e-10)

    @pytest.mark.parametrize("z", [0.5, 1.5, 2.5, 7.3])
    def test_recurrence(self, z):
        lhs = np.exp(log_barnes_g(z + 1) - log_barnes_g(z))
        rhs = np.exp(log_gamma(z).real)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            barnes_g(0.0)
        with pytest.raises(DomainError):
            barnes_g(-1.5)


class TestJacobi:
    def test_degree_zero(self):
        assert jacobi_p(0, 0.37 + 2j, -0.5, 0.2) == 1.0

    def test_endpoint_identity(self):
        # P_n(1) = binom(n+a, n) = Gamma(n+a+1) / (Gamma(n+1) Gamma(a+1))
        for n, a in [(1, 0.3), (3, 1.7), (5, -0.2), (4, 0.5 + 0.5j)]:
            val = jacobi_p(n, a, -0.5, 1.0)
            binom = np.exp(log_gamma(n + a + 1) - log_gamma(n + 1.0) - log_gamma(a + 1))
            assert abs(val - binom) < 1e-12 * max(1.0, abs(val))

    def test_dual_route_grid(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(150):
            n = int(rng.integers(0, 7))
            a = rng.uniform(-0.4, 3.0)
            x = rng.uniform(-1.0, 1.0)
            val = jacobi_p(n, a, -0.5, x)
            ref = complex(mp.jacobi(n, a, -0.5, x))
            worst = max(worst, abs(val - ref) / max(1.0, abs(ref)))
        assert worst < 1e-10

    def test_against_scipy(self):
        for n, a, b, x in [(2, 0.5, -0.5, 0.1), (5, 2.0, 0.3, -0.7), (6, 0.0, -0.5, 0.99)]:
            assert jacobi_p(n, a, b, x) == pytest.approx(eval_jacobi(n, a, b, x), rel=1e-11)

    def test_complex_order_routes_agree(self):
        mp = pytest.importorskip("mpmath")
        a = -0.75 + 0.3j
        ref = complex(mp.jacobi(4, mp.mpc(a), -0.5, 0.4))
        assert abs(jacobi_p(4, a, -0.5, 0.4) - ref) < 1e-11

    def test_near_singular_alpha_uses_recurrence(self):
        # alpha = -1 makes the hypergeometric c-parameter vanish (scipy returns
        # nan here); the polynomial itself is finite: P_2^(-1,-1/2) expands to
        # (3/32)(5x^2 - 2x - 3)
        x = 0.3
        val = jacobi_p(2, -1.0, -0.5, x)
        assert val == pytest.approx(3 / 32 * (5 * x * x - 2 * x - 3), rel=1e-12)

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError):
            jacobi_p(-1, 0.0, 0.0, 0.3)
        with pytest.raises(DomainError):
            jacobi_p_deriv(-1, 0.0, 0.0, 0.3)


class TestJacobiDerivative:
    def test_degree_zero(self):
        assert jacobi_p_deriv(0, 1.1, -0.5, 0.3) == 0.0

    def test_degree_one(self):
        for a, b in [(0.2, -0.5), (1.5 + 1j, -0.5), (-1.0, -0.5)]:
            val = jacobi_p_deriv(1, a, b, 0.77)
            assert abs(val - (a + b + 2) / 2) < 1e-12

    @pytest.mark.parametrize(
        "n,a,x",
        [(4, 1.2, -0.2), (3, -1.0, 0.3), (5, 0.25, 0.7), (6, 2.3, -0.9)],
    )
    def test_finite_difference(self, n, a, x):
        # Richardson-extrapolated central differences: O(h^4) oracle
        def central(h):
            return (jacobi_p(n, a, -0.5, x + h) - jacobi_p(n, a, -0.5, x - h)) / (2 * h)

        fd = (4 * central(5e-5) - central(1e-4)) / 3
        assert abs(jacobi_p_deriv(n, a, -0.5, x) - fd) < 1e-7 * max(1.0, abs(fd))


def _jacobi_norm(n, a, b):
    """h_n = 2^(a+b+1)/(2n+a+b+1) Gamma(n+a+1)Gamma(n+b+1)/(Gamma(n+1)Gamma(n+a+b+1))."""
    log_ratio = gammaln(n + a + 1) + gammaln(n + b + 1) - gammaln(n + 1) - gammaln(n + a + b + 1)
    return 2 ** (a + b + 1) / (2 * n + a + b + 1) * np.exp(log_ratio)


class TestOrthogonality:
    @pytest.mark.parametrize("a,b", [(0.7, -0.3), (1.5, -0.5), (0.0, 0.0)])
    def test_gauss_jacobi_quadrature(self, a, b):
        # nodes/weights from scipy's Golub-Welsch: an independent oracle that
        # integrates polynomials of degree <= 23 exactly against the weight
        nodes, weights = roots_jacobi(12, a, b)
        for n in range(5):
            for m in range(n, 5):
                pn = np.array([jacobi_p(n, a, b, x) for x in nodes])
                pm = np.array([jacobi_p(m, a, b, x) for x in nodes])
                integral = np.sum(weights * pn * pm).real
                if n == m:
                    assert integral == pytest.approx(_jacobi_norm(n, a, b), rel=1e-8)
                else:
                    assert abs(integral) < 1e-8
