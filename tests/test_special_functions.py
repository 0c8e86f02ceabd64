import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_jacobi, gammaln, roots_jacobi

from excised_ensemble.errors import DomainError
from excised_ensemble.special_functions import (
    JacobiOrder,
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
        for z in (0.0, -1.0, -7.0):
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
        assert jacobi_p(JacobiOrder(0, 0.37 + 2j, -0.5), 0.2) == 1.0

    def test_endpoint_identity(self):
        # P_n(1) = binom(n+a, n) = Gamma(n+a+1) / (Gamma(n+1) Gamma(a+1))
        for n, a in [(1, 0.3), (3, 1.7), (5, -0.2), (4, 0.5 + 0.5j)]:
            val = jacobi_p(JacobiOrder(n, a, -0.5), 1.0)
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
            val = jacobi_p(JacobiOrder(n, a, -0.5), x)
            ref = complex(mp.jacobi(n, a, -0.5, x))
            worst = max(worst, abs(val - ref) / max(1.0, abs(ref)))
        assert worst < 1e-10

    def test_against_scipy(self):
        for n, a, b, x in [(2, 0.5, -0.5, 0.1), (5, 2.0, 0.3, -0.7), (6, 0.0, -0.5, 0.99)]:
            assert jacobi_p(JacobiOrder(n, a, b), x) == pytest.approx(eval_jacobi(n, a, b, x), rel=1e-11)

    def test_complex_order_routes_agree(self):
        mp = pytest.importorskip("mpmath")
        a = -0.75 + 0.3j
        ref = complex(mp.jacobi(4, mp.mpc(a), -0.5, 0.4))
        assert abs(jacobi_p(JacobiOrder(4, a, -0.5), 0.4) - ref) < 1e-11

    def test_near_singular_alpha_uses_recurrence(self):
        # alpha = -1 makes the hypergeometric c-parameter vanish (scipy returns
        # nan here); the polynomial itself is finite: P_2^(-1,-1/2) expands to
        # (3/32)(5x^2 - 2x - 3)
        x = 0.3
        val = jacobi_p(JacobiOrder(2, -1.0, -0.5), x)
        assert val == pytest.approx(3 / 32 * (5 * x * x - 2 * x - 3), rel=1e-12)

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError):
            JacobiOrder(-1, 0.0, 0.0)


class TestJacobiDerivative:
    def test_degree_zero(self):
        assert jacobi_p_deriv(JacobiOrder(0, 1.1, -0.5), 0.3) == 0.0

    def test_degree_one(self):
        for a, b in [(0.2, -0.5), (1.5 + 1j, -0.5), (-1.0, -0.5)]:
            val = jacobi_p_deriv(JacobiOrder(1, a, b), 0.77)
            assert abs(val - (a + b + 2) / 2) < 1e-12

    @pytest.mark.parametrize(
        "n,a,x",
        [(4, 1.2, -0.2), (3, -1.0, 0.3), (5, 0.25, 0.7), (6, 2.3, -0.9)],
    )
    def test_finite_difference(self, n, a, x):
        # Richardson-extrapolated central differences: O(h^4) oracle
        order = JacobiOrder(n, a, -0.5)

        def central(h):
            return (jacobi_p(order, x + h) - jacobi_p(order, x - h)) / (2 * h)

        fd = (4 * central(5e-5) - central(1e-4)) / 3
        assert abs(jacobi_p_deriv(order, x) - fd) < 1e-7 * max(1.0, abs(fd))


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
                pn = np.array([jacobi_p(JacobiOrder(n, a, b), x) for x in nodes])
                pm = np.array([jacobi_p(JacobiOrder(m, a, b), x) for x in nodes])
                integral = np.sum(weights * pn * pm).real
                if n == m:
                    assert integral == pytest.approx(_jacobi_norm(n, a, b), rel=1e-8)
                else:
                    assert abs(integral) < 1e-8
