"""Elliptic-curve calibration pipeline: matrix sizes from the twist bound,
cutoff constants from the Waldspurger-type discretization, naive point counts
over F_p, and the arithmetic constant a_s(E) as a truncated Euler product.

Only prime conductors are supported.  The curve constants kappa_E, r1,
a_{-1/2} and delta are inputs (shipped for the conductor-11 example family);
deriving them is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .special_functions import log_barnes_g

__all__ = [
    "CurveFamilyParams",
    "CutoffReport",
    "EulerProductResult",
    "n_std",
    "n_eff",
    "cutoff_std",
    "cutoff_eff",
    "delta_from_vanishing_constant",
    "count_points_fp",
    "count_points_double_loop",
    "lambda_p",
    "a_s_truncated",
    "cutoff_report",
    "read_curve_config",
    "E11_CONFIG_KEYS",
]

E11_CONFIG_KEYS = (
    "conductor",
    "c1",
    "c2",
    "c3",
    "c4",
    "c6",
    "kappa_E",
    "a_minus_half",
    "r1",
    "r2",
    "delta",
    "omega",
    "X_bound",
)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _sieve(limit: int) -> np.ndarray:
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0]


@dataclass(frozen=True)
class CurveFamilyParams:
    """Inputs of the calibration pipeline for one quadratic-twist family."""

    conductor_M: int
    weierstrass: tuple  # (c1, c2, c3, c4, c6)
    kappa_E: float
    a_minus_half: float
    r1: float
    delta: float
    sign_omega: int
    r2: Optional[float] = None

    def __post_init__(self):
        if not _is_prime(self.conductor_M):
            raise DomainError("only prime conductors are supported")
        if len(self.weierstrass) != 5:
            raise DomainError("weierstrass coefficients must be (c1, c2, c3, c4, c6)")
        for name in ("kappa_E", "a_minus_half", "r1", "delta"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")
        if self.sign_omega not in (-1, 1):
            raise DomainError("sign_omega must be +1 or -1")


@dataclass(frozen=True)
class CutoffReport:
    """Matrix sizes and cutoff constants for a twist bound X.

    `n_std` and `n_eff` are the real-valued sizes; `n_std_matrix` and
    `n_eff_matrix` are the integer sizes actually usable for matrix
    generation.  The absolute cutoffs c * exp(-n_std_matrix / 2) follow the
    integer size, which is what a sampled ensemble of that size requires.
    """

    x_bound: float
    n_std: float
    n_eff: float
    n_std_matrix: int
    n_eff_matrix: int
    c_std: float
    c_eff: float
    abs_cutoff_std: float
    abs_cutoff_eff: float
    delta_kappa: float

    def to_json_dict(self) -> dict:
        return {
            "X_bound": self.x_bound,
            "N_std": self.n_std,
            "N_eff": self.n_eff,
            "N_std_matrix": self.n_std_matrix,
            "N_eff_matrix": self.n_eff_matrix,
            "c_std": self.c_std,
            "c_eff": self.c_eff,
            "abs_cutoff_std": self.abs_cutoff_std,
            "abs_cutoff_eff": self.abs_cutoff_eff,
            "delta_kappa": self.delta_kappa,
        }


def n_std(conductor_M: int, x_bound: float) -> float:
    """Standard matrix size log(sqrt(M) X / 2 pi) matching mean densities."""
    if conductor_M < 1 or x_bound <= 0:
        raise DomainError("need conductor >= 1 and X > 0")
    return float(np.log(np.sqrt(conductor_M) * x_bound / (2.0 * np.pi)))


def n_eff(n_std_value: float, r1: float) -> float:
    """Effective matrix size N_std / (2 r1) matching the next-to-leading term."""
    if r1 <= 0:
        raise DomainError("r1 must be positive")
    return n_std_value / (2.0 * r1)


def cutoff_std(params: CurveFamilyParams) -> float:
    """c_std = a_{-1/2}^-2 delta kappa_E (density matching at size N_std)."""
    return params.delta * params.kappa_E / params.a_minus_half**2


def cutoff_eff(params: CurveFamilyParams) -> float:
    """c_eff = a_{-1/2}^-2 (2 r1)^(-3/4) delta kappa_E (density matching at N_eff)."""
    return cutoff_std(params) * (2.0 * params.r1) ** (-0.75)


def delta_from_vanishing_constant(observed: float) -> float:
    """Invert (8/3) 2^(-7/8) G(1/2) pi^(-1/4) delta^(1/2) = observed for delta."""
    if observed <= 0:
        raise DomainError("observed constant must be positive")
    prefactor = (8.0 / 3.0) * 2.0 ** (-7.0 / 8.0) * np.exp(log_barnes_g(0.5)) * np.pi ** (-0.25)
    return float((observed / prefactor) ** 2)


def count_points_double_loop(weierstrass, p: int) -> int:
    """a(p) = p + 1 - #E(F_p) by exhaustive (x, y) enumeration.

    Independent oracle for `count_points_fp`; O(p^2), use for small p only.
    """
    if not _is_prime(p):
        raise DomainError("p must be prime")
    c1, c2, c3, c4, c6 = (int(v) % p for v in weierstrass)
    count = 1  # point at infinity
    for x in range(p):
        rhs = (x * x * x + c2 * x * x + c4 * x + c6) % p
        for y in range(p):
            if (y * y + c1 * x * y + c3 * y) % p == rhs:
                count += 1
    return p + 1 - count


def count_points_fp(weierstrass, p: int) -> int:
    """a(p) = p + 1 - #E(F_p) by completing the square and summing the
    quadratic character of the resulting cubic (O(p) per prime).

    p = 2 and p = 3 fall back to full two-variable enumeration of the general
    Weierstrass form, avoiding the characteristic-2/3 transformation.  At the
    conductor itself the count (singular point included) reproduces the
    multiplicative-reduction coefficient a(M) = +-1.
    """
    if not _is_prime(p):
        raise DomainError("p must be prime")
    if p in (2, 3):
        return count_points_double_loop(weierstrass, p)
    c1, c2, c3, c4, c6 = (int(v) for v in weierstrass)
    b2 = c1 * c1 + 4 * c2
    b4 = 2 * c4 + c1 * c3
    b6 = c3 * c3 + 4 * c6
    x = np.arange(p, dtype=np.int64)
    f = (4 * ((x * x % p) * x % p) + (b2 % p) * (x * x % p) + (2 * b4 % p) * x + b6) % p
    half = np.arange((p + 1) // 2, dtype=np.int64)
    is_square = np.zeros(p, dtype=bool)
    is_square[(half * half) % p] = True
    nonzero = f != 0
    chi_sum = int(np.count_nonzero(is_square[f] & nonzero)) - int(np.count_nonzero(~is_square[f] & nonzero))
    return -chi_sum


def lambda_p(weierstrass, p: int) -> float:
    """Normalized Dirichlet coefficient lambda(p) = a(p) / sqrt(p)."""
    return count_points_fp(weierstrass, p) / np.sqrt(p)


@dataclass(frozen=True)
class EulerProductResult:
    """Truncated Euler product with its convergence diagnostic."""

    value: float
    p_max: int
    last_decade_increment: Optional[float]
    decade_values: dict


def _combined_prime_factor(weierstrass, conductor_M: int, omega: int, s: float, p: int) -> float:
    """Per-prime factor of a_s(E) with the three displayed brackets merged.

    The leading bracket alone, (1 - 1/p)^(s(s-1)/2), diverges when multiplied
    over primes (the exponent is 3/8 at s = -1/2); only the combined factor
    is 1 + O(p^-1)-with-cancellation and yields a convergent product.
    """
    lam = lambda_p(weierstrass, p)
    lead = (1.0 - 1.0 / p) ** (s * (s - 1.0) / 2.0)
    if p == conductor_M:
        z = omega / np.sqrt(conductor_M)
        return lead * (1.0 - lam * z) ** (-s)
    zp = 1.0 / np.sqrt(p)
    plus = (1.0 - lam * zp + zp * zp) ** (-s)
    minus = (1.0 + lam * zp + zp * zp) ** (-s)
    return lead * (p / (p + 1.0)) * (1.0 / p + 0.5 * (plus + minus))


def a_s_truncated(weierstrass, conductor_M: int, omega: int, s: float, p_max: int) -> EulerProductResult:
    """Arithmetic constant a_s(E) as a product over primes p <= p_max.

    The conductor factor is always applied (it is a single prime), even when
    p_max < M.  `last_decade_increment` reports |value(p_max) - value(p_max/10)|
    as a convergence diagnostic; it is None for p_max < 100, where there is no
    earlier decade to compare with.
    """
    if p_max < 2:
        raise DomainError("p_max must be at least 2")
    primes = [int(p) for p in _sieve(max(p_max, 2))]
    if conductor_M > p_max:
        primes.append(conductor_M)
    log_total = 0.0
    decade_values = {}
    next_decade = 10
    for p in primes:
        while next_decade <= p_max and p > next_decade:
            decade_values[next_decade] = float(np.exp(log_total))
            next_decade *= 10
        log_total += np.log(_combined_prime_factor(weierstrass, conductor_M, omega, s, p))
    value = float(np.exp(log_total))
    decade_values[p_max] = value
    prev = [v for k, v in decade_values.items() if k <= p_max / 10]
    last_inc = abs(value - prev[-1]) if prev else None
    return EulerProductResult(value=value, p_max=p_max, last_decade_increment=last_inc, decade_values=decade_values)


def cutoff_report(params: CurveFamilyParams, x_bound: float) -> CutoffReport:
    """Full calibration for one family at twist bound X.

    Raises DomainError when N_std rounds below 1, since no matrix of that size
    exists to carry the absolute cutoffs.
    """
    ns = n_std(params.conductor_M, x_bound)
    ne = n_eff(ns, params.r1)
    ns_matrix = int(round(ns))
    if ns_matrix < 1:
        raise DomainError(f"N_std = {ns:.3g} rounds to {ns_matrix}: twist bound too small for a matrix model")
    ne_matrix = max(1, int(round(ne)))
    cs = cutoff_std(params)
    ce = cutoff_eff(params)
    absolute = np.exp(-ns_matrix / 2.0)
    return CutoffReport(
        x_bound=float(x_bound),
        n_std=ns,
        n_eff=ne,
        n_std_matrix=ns_matrix,
        n_eff_matrix=ne_matrix,
        c_std=cs,
        c_eff=ce,
        abs_cutoff_std=float(cs * absolute),
        abs_cutoff_eff=float(ce * absolute),
        delta_kappa=float(params.delta * params.kappa_E),
    )


def read_curve_config(path):
    """Parse a flat key-value config file into (params, x_bound).

    Lines are `key = value`; blank lines and #-comments are ignored.  Keys:
    conductor, c1..c6, kappa_E, a_minus_half, r1, r2 (optional), delta,
    omega, X_bound.  A malformed line, a missing key or a value that does not
    parse raises DomainError.
    """
    raw = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"malformed config line: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            raw[key] = value
    missing = [k for k in E11_CONFIG_KEYS if k not in raw and k not in ("r2",)]
    if missing:
        raise DomainError(f"config is missing keys: {', '.join(missing)}")

    def number(key, kind=float):
        try:
            return kind(raw[key])
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise DomainError(f"config key {key}: {raw[key]!r} is not {what}") from None

    params = CurveFamilyParams(
        conductor_M=number("conductor", int),
        weierstrass=tuple(number(k, int) for k in ("c1", "c2", "c3", "c4", "c6")),
        kappa_E=number("kappa_E"),
        a_minus_half=number("a_minus_half"),
        r1=number("r1"),
        delta=number("delta"),
        sign_omega=number("omega", int),
        r2=number("r2") if "r2" in raw else None,
    )
    return params, number("X_bound")

