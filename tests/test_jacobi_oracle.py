"""`jacobi_p` and `jacobi_p_deriv` against 40-digit mpmath references at the
orders the excised density runs: (r - 1/2, -1/2) with r on the residue contours
around the poles -(2k+1)/2 (alpha on circles around -(k+1)), at r = -1/2
(alpha = -1) and on the vertical line Re r = 1 (alpha = 1/2 + it)."""

import numpy as np
import pytest

from excised_ensemble.special_functions import jacobi_p, jacobi_p_deriv

mp = pytest.importorskip("mpmath")

DEGREES = [1, 2, 6, 12, 17, 24]
THETAS = [0.0, 0.02, 0.16, 0.9, np.pi / 2, 2.3, 3.1, np.pi]
ORDERS = {
    **{f"contour-{k}": [-(k + 1) + 0.1 * np.exp(1j * (0.3 + j * np.pi / 2)) for j in range(4)] for k in (1, 5, 11)},
    "minus-one": [-1.0],
    "line": [0.5 + 1j * t for t in (0.0, 3.0, 40.0)],
}


def _tolerance(n):
    return 5e-12 if n <= 17 else 1e-9


def _cases(family):
    return [(a, np.cos(theta)) for a in ORDERS[family] for theta in THETAS]


@mp.workdps(40)
def _jacobi(n, a, x):
    return complex(mp.jacobi(n, mp.mpc(a), -0.5, x))


@mp.workdps(40)
def _jacobi_deriv(n, a, x):
    return complex(mp.diff(lambda t: mp.jacobi(n, mp.mpc(a), -0.5, t), x))


@pytest.mark.parametrize("family", ORDERS)
@pytest.mark.parametrize("n", DEGREES)
def test_jacobi_p(n, family):
    for a, x in _cases(family):
        ref = _jacobi(n, a, x)
        assert abs(jacobi_p(n, a, -0.5, x) - ref) <= _tolerance(n) * max(1.0, abs(ref))


@pytest.mark.parametrize("family", ORDERS)
@pytest.mark.parametrize("n", DEGREES)
def test_jacobi_p_deriv(n, family):
    for a, x in _cases(family):
        ref = _jacobi_deriv(n, a, x)
        assert abs(jacobi_p_deriv(n, a, -0.5, x) - ref) <= _tolerance(n) * max(1.0, abs(ref))
