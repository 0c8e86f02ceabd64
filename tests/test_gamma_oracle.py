"""The Gamma products of `analytic` against 40-digit mpmath references."""

import numpy as np
import pytest

from excised_ensemble import analytic
from excised_ensemble.analytic import c_so2n, h_exact, moments_so2n

mp = pytest.importorskip("mpmath")

SIZES = [2, 6, 12, 20, 35]
HALF = mp.mpf(1) / 2


@mp.workdps(40)
def _moment(n, s):
    # 2^(2Ns) prod_j Gamma(N+j-1) Gamma(s+j-1/2) / (Gamma(j-1/2) Gamma(s+j+N-1))
    s = mp.mpmathify(s)
    value = mp.mpf(2) ** (2 * n * s)
    for j in range(1, n + 1):
        value *= mp.gamma(n + j - 1) * mp.gamma(s + j - HALF) / (mp.gamma(j - HALF) * mp.gamma(s + j + n - 1))
    return value


@mp.workdps(40)
def _residue_at_minus_half(n):
    # (s + 1/2) Gamma(s + 1/2) -> 1 in the j = 1 factor of the moment product
    value = mp.mpf(2) ** (-n)
    for j in range(1, n + 1):
        value *= mp.gamma(n + j - 1) / (mp.gamma(j - HALF) * mp.gamma(j + n - 1 - HALF))
    for j in range(2, n + 1):
        value *= mp.gamma(j - 1)
    return value


@mp.workdps(40)
def _weyl_constant(n):
    # 1 / int over [0, pi]^N of prod_{j<k} (cos t_j - cos t_k)^2
    return mp.mpf(2) ** ((n - 1) ** 2) / (mp.pi**n * mp.factorial(n))


def _rel(value, reference):
    return float(abs(mp.mpmathify(value) / reference - 1))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("s", [0.5, 1.7, -0.3, 0.3 + 2.1j, 4.2 - 7.5j])
def test_moments(n, s):
    assert _rel(moments_so2n(n, s), _moment(n, s)) < 1e-11


@pytest.mark.parametrize("n", [2, 12, 35])
@pytest.mark.parametrize("center", [-0.5, -2.5, -12.5])
def test_moments_continuation(n, center):
    # the normalization ratio's contour nodes around the poles it sums; the
    # moment is compared in mpmath, whose exponent range holds it at N = 35
    z, _ = analytic._contour_nodes(np.array([center]))
    computed = analytic._log_moment_gammas(n, z[0])
    for r, log_gammas in zip(z[0], computed):
        reference = _moment(n, r) / mp.mpf(2) ** (2 * n * mp.mpmathify(r))
        assert _rel(mp.exp(mp.mpmathify(log_gammas)), reference) < 1e-11, r


@pytest.mark.parametrize("n", SIZES)
def test_h_exact(n):
    assert _rel(h_exact(n), _residue_at_minus_half(n)) < 1e-11


@pytest.mark.parametrize("n", SIZES)
def test_c_so2n(n):
    assert _rel(c_so2n(n), _weyl_constant(n)) < 1e-11
