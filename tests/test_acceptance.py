"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion report
lines (with plain `pytest -v` the verdicts are carried by the test names).
The Monte Carlo criteria share session-scoped sample streams with frozen
seeds, so the whole suite is deterministic.
"""

import time
from importlib import resources

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi2

from excised_ensemble.analytic import (
    c_so2n,
    density_grid,
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
from excised_ensemble.curve_model import (
    a_s_truncated,
    count_points_double_loop,
    count_points_fp,
    cutoff_report,
    delta_from_vanishing_constant,
    point_counts,
    read_curve_config,
)
from excised_ensemble.ensemble import ExcisionSpec, sample_excised
from excised_ensemble.haar import eigenphases_batch, log_char_poly_batch, sample_so2n_batch
from excised_ensemble.special_functions import barnes_g

X_TENTH = np.log(0.1)
E11_CFG = str(resources.files("excised_ensemble.data") / "e11.cfg")


def report(num, name, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {num:02d} {name}: {verdict} ({detail})"
    print("\n" + line)
    assert passed, line


@pytest.fixture(scope="session")
def haar_so4_stream():
    """10^6 Haar SO(4) spectra with their log characteristic values."""
    rng = np.random.default_rng(118_711)
    phases = np.concatenate(
        [eigenphases_batch(sample_so2n_batch(2, 100_000, rng)) for _ in range(10)], axis=0
    )
    return phases, log_char_poly_batch(phases)


@pytest.fixture(scope="session")
def excised_so4_million():
    """10^6 accepted spectra of the excised SO(4) ensemble at cutoff 0.1."""
    spectra, summary = sample_excised(ExcisionSpec(2, X_TENTH), 1_000_000, seed=20_108)
    return spectra, summary


def test_c01_selberg_cross_check():
    start = time.perf_counter()
    nodes, weights = np.polynomial.legendre.leggauss(220)
    phi = (nodes + 1) * np.pi / 2
    wts = weights * np.pi / 2
    cos = np.cos(phi)
    worst = 0.0
    for r, s in [(0, 0), (1, 0), (1, 0.5)]:
        w = (1 - cos) ** r * (1 + cos) ** s
        inner = (cos[:, None] - cos[None, :]) ** 2 * w[:, None] * w[None, :]
        oracle = float(wts @ inner @ wts)
        worst = max(worst, abs(selberg_integral(2, r, s) / oracle - 1))
    elapsed = time.perf_counter() - start
    report(
        1,
        "selberg vs tensor quadrature",
        worst < 1e-6 and elapsed < 10,
        f"max rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_c02_moment_monte_carlo(haar_so4_stream):
    _, log_lambda = haar_so4_stream
    lam = np.exp(log_lambda[:100_000])
    target = moments_so2n(2, 1.0)
    stderr = lam.std(ddof=1) / np.sqrt(len(lam))
    z = abs(lam.mean() - target) / stderr
    report(2, "moment E[Lambda] Monte Carlo", z <= 3, f"mean {lam.mean():.5f} vs {target:.5f}, z = {z:.2f}")


def test_c03_acceptance_rate_vs_residue_series(haar_so4_stream):
    start = time.perf_counter()
    _, log_lambda = haar_so4_stream
    frac = float(np.mean(log_lambda >= X_TENTH))
    predicted = normalization_ratio(2, X_TENTH, 10).value
    stderr = np.sqrt(predicted * (1 - predicted) / len(log_lambda))
    z = abs(frac - predicted) / stderr
    elapsed = time.perf_counter() - start
    report(
        3,
        "acceptance rate vs residue series",
        z <= 3 and elapsed < 120,
        f"MC {frac:.6f} vs series {predicted:.6f}, z = {z:.2f}, {elapsed:.1f}s",
    )


def test_c04_hard_gap_exact(excised_so4_million):
    spectra, _ = excised_so4_million
    edge = theta_inf(2, X_TENTH)
    violations = int(np.count_nonzero(spectra.min(axis=1) <= edge))
    report(
        4,
        "hard gap has zero violations",
        violations == 0,
        f"{len(spectra)} accepted spectra, min phase {spectra.min():.6f} vs edge {edge:.6f}",
    )


def test_c05_one_level_density_consistency(excised_so4_million):
    start = time.perf_counter()
    spectra = excised_so4_million[0][:200_000]
    n_bins = 100
    edges = np.linspace(0.0, np.pi, n_bins + 1)
    observed, _ = np.histogram(spectra.ravel(), bins=edges)
    edge = theta_inf(2, X_TENTH)
    # expected counts: n_samples * integral of the analytic density over each
    # bin (16-node Gauss-Legendre per bin; the bin containing the gap edge is
    # integrated adaptively with a split at the edge)
    gl_x, gl_w = np.polynomial.legendre.leggauss(16)
    mid = (edges[:-1] + edges[1:]) / 2
    half = np.diff(edges) / 2
    thetas = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
    vals = density_grid(2, X_TENTH, thetas, truncation_K=10).values.reshape(n_bins, -1)
    bin_integrals = np.sum(vals * gl_w[None, :], axis=1) * half
    straddle = int(np.searchsorted(edges, edge) - 1)
    val, _ = quad(
        lambda t: density_grid(2, X_TENTH, [t]).values[0], edges[straddle], edges[straddle + 1],
        points=(edge,), limit=100,
    )
    bin_integrals[straddle] = val
    expected = len(spectra) * bin_integrals
    dev = np.abs(observed - expected) / np.sqrt(np.maximum(expected, 1e-12))
    elapsed = time.perf_counter() - start
    report(
        5,
        "analytic vs empirical one-level density",
        bool(np.all(dev <= 4.0)) and elapsed < 120,
        f"worst bin deviation {dev.max():.2f} Poisson sd, {elapsed:.1f}s",
    )


def test_c06_dual_route_identity():
    start = time.perf_counter()
    edge = theta_inf(2, X_TENTH)
    grid = np.linspace(edge + 0.05, np.pi, 20)
    worst = 0.0
    for theta in grid:
        point = density_grid(2, X_TENTH, [float(theta)], truncation_K=40)
        value, used_line = point.values[0], point.line_route[0]
        assert not used_line, "residue route must be genuinely used for the dual-route check"
        oracle = r1_excised_line_integral(2, X_TENTH, float(theta))
        worst = max(worst, abs(value - oracle))
    elapsed = time.perf_counter() - start
    report(
        6,
        "residue series vs line integral",
        worst <= 1e-8 and elapsed < 60,
        f"worst |diff| {worst:.2e} over 20 points, {elapsed:.1f}s",
    )


def test_c07_limit_recovery():
    grid = np.linspace(0.001, np.pi, 200)
    vals = density_grid(2, -40.0, grid, truncation_K=10).values
    sup = float(np.max(np.abs(vals - r1_so2n_unscaled(2, grid))))
    report(7, "X -> -inf recovers SO(4)", sup <= 1e-8, f"sup |diff| {sup:.2e} on 200-point grid")


def test_c08_density_normalization():
    start = time.perf_counter()
    edge = theta_inf(2, X_TENTH)
    val, est = quad(lambda t: density_grid(2, X_TENTH, [t], truncation_K=10).values[0], edge, np.pi, limit=400)
    err = abs(val - 2.0)
    elapsed = time.perf_counter() - start
    report(
        8,
        "excised density integrates to N",
        err <= 1e-6,
        f"integral {val:.9f}, |err| {err:.2e}, quad est {est:.1e}, {elapsed:.1f}s",
    )


def test_c09_calibration_numbers():
    params, x_bound = read_curve_config(E11_CFG)
    rep = cutoff_report(params, 400_000)
    delta = delta_from_vanishing_constant(0.2834620)
    checks = {
        "N_std~12.26": abs(rep.n_std - 12.26) <= 0.005,
        "N_eff~2.14": abs(rep.n_eff - 2.14) <= 0.005,
        "c_std~2.188": abs(rep.c_std - 2.188) <= 5e-4,
        "c_eff~0.5916": abs(rep.c_eff - 0.5916) <= 5e-5,
        "delta*kappa~1.17475": abs(rep.delta_kappa - 1.17475) <= 5e-6,
        "abs_std~0.005424": abs(rep.abs_cutoff_std - 0.005424) <= 5e-7,
        "abs_eff~0.001466": abs(rep.abs_cutoff_eff - 0.001466) <= 5e-7,
        "delta~0.185116": abs(delta - 0.185116) <= 5e-7,
        "config_X=400000": x_bound == 400_000,
    }
    failed = [k for k, ok in checks.items() if not ok]
    report(9, "calibration pipeline numbers", not failed, "all printed-precision targets met" if not failed else f"failed: {failed}")


def test_c10_special_function_anchors():
    g_half = barnes_g(0.5)
    h1 = h_exact(1)
    ratio_err = abs(h_asymptotic(50) / h_exact(50) - 1)
    ok = abs(g_half - 0.603244) <= 5e-6 and abs(h1 - 1 / (2 * np.pi)) <= 1e-12 and ratio_err <= 0.02
    report(
        10,
        "special-function anchors",
        ok,
        f"G(1/2) = {g_half:.7f}, h(1) err {abs(h1 - 1/(2*np.pi)):.1e}, h asym ratio err {ratio_err:.4f}",
    )


def test_c11_value_density_tail(haar_so4_stream):
    _, log_lambda = haar_so4_stream
    x = 1e-4
    frac = float(np.mean(log_lambda <= np.log(x)))
    predicted = value_cumulative_small_x(2, x)
    stderr = np.sqrt(predicted * (1 - predicted) / len(log_lambda))
    z = abs(frac - predicted) / stderr
    report(
        11,
        "small-value cumulative tail",
        z <= 3,
        f"MC {frac:.6f} vs 2 sqrt(x) h(2) = {predicted:.6f}, z = {z:.2f}",
    )


def test_c12_haar_validity_so6():
    phases = eigenphases_batch(sample_so2n_batch(3, 100_000, np.random.default_rng(61_803)))
    n_bins = 50
    counts, edges = np.histogram(phases.ravel(), bins=n_bins, range=(0.0, np.pi))
    grid = np.linspace(0.0, np.pi, 4001)
    dens = r1_so2n_unscaled(3, grid)
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(grid))])
    # each of the 10^5 matrices contributes 3 phases; bin probability is the
    # density integral over the bin divided by N = 3
    expected = (phases.size / 3.0) * np.diff(np.interp(edges, grid, cdf))
    stat = float(np.sum((counts - expected) ** 2 / expected))
    pvalue = float(chi2.sf(stat, df=n_bins - 1))
    report(
        12,
        "SO(6) eigenphase density chi-square",
        pvalue > 0.01,
        f"chi2 = {stat:.1f} on {n_bins - 1} dof, p = {pvalue:.3f}",
    )


def test_c13_arithmetic():
    start = time.perf_counter()
    params, _ = read_curve_config(E11_CFG)
    curve = params.weierstrass
    primes_200 = [p for p in range(2, 201) if all(p % q for q in range(2, int(p**0.5) + 1))]
    dual_ok = all(count_points_fp(curve, p) == count_points_double_loop(curve, p) for p in primes_200)
    hasse_ok = all(abs(count_points_fp(curve, p)) <= 2 * np.sqrt(p) for p in primes_200 if p <= 100)
    a_p = point_counts(curve, 100_000, params.conductor_M)
    result = a_s_truncated(a_p, params.conductor_M, params.sign_omega, -0.5, 100_000)
    value_err = abs(result.value - 0.732728078)
    increments = [
        abs(result.decade_values[10_000] - result.decade_values[1000]),
        abs(result.decade_values[100_000] - result.decade_values[10_000]),
    ]
    converging = increments[1] < increments[0]
    elapsed = time.perf_counter() - start
    report(
        13,
        "point counts and Euler product",
        dual_ok and hasse_ok and value_err <= 1e-2 and converging and elapsed < 120,
        f"a_-1/2 = {result.value:.6f} (err {value_err:.1e}), increments {increments[0]:.1e} -> {increments[1]:.1e}, {elapsed:.1f}s",
    )
