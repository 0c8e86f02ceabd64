"""Elliptic-curve calibration pipeline: matrix sizes from the twist bound,
cutoff constants from the Waldspurger-type discretization, point counts over
F_p (baby-step giant-step on E or its quadratic twist), and the arithmetic
constant a_s(E) as a truncated Euler product of those counts.

Only prime conductors are supported.  The curve constants kappa_E, r1,
a_{-1/2} and delta are inputs (shipped for the conductor-11 example family);
deriving them is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
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
    "point_counts",
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


# Miller-Rabin with the first 12 prime bases is exact below 3.18e23, and with
# the first 4 below 3215031751: those are the least strong pseudoprimes to all
# of them (Pomerance-Selfridge-Wagstaff 1980; Sorenson-Webster 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_FOUR_BASES_BELOW = 3_215_031_751


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.18e23, in O(log^3 n)."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, twos = n - 1, 0
    while d % 2 == 0:
        d, twos = d // 2, twos + 1
    for q in _MR_BASES[:4] if n < _MR_FOUR_BASES_BELOW else _MR_BASES:
        x = pow(q, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
    """Standard matrix size log(sqrt(M) X / 2 pi) matching mean densities.

    Raises DomainError unless M >= 1, X > 0 and the size is a finite float
    (X = inf, and X near the ends of the float range, give +-inf)."""
    if conductor_M < 1 or not x_bound > 0:
        raise DomainError(f"need conductor >= 1 and X > 0, not M = {conductor_M}, X = {x_bound}")
    with np.errstate(over="ignore", divide="ignore"):
        value = float(np.log(np.sqrt(conductor_M) * x_bound / (2.0 * np.pi)))
    if not np.isfinite(value):
        raise DomainError(f"N_std = log(sqrt(M) X / 2 pi) is {value} at M = {conductor_M}, X = {x_bound}")
    return value


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


def _b_invariants(weierstrass) -> tuple:
    """(b2, b4, b6) of the general Weierstrass form: completing the square
    turns it into (2y + c1 x + c3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6."""
    c1, c2, c3, c4, c6 = (int(v) for v in weierstrass)
    return c1 * c1 + 4 * c2, 2 * c4 + c1 * c3, c3 * c3 + 4 * c6


def _count_points_character_sum(weierstrass, p: int) -> int:
    """a(p) by completing the square and summing the quadratic character of
    the resulting cubic over all of F_p; O(p), for p >= 5.

    At a prime of bad reduction the count (singular point included) gives
    the reduction's coefficient: +-1 when multiplicative, 0 when additive.
    """
    b2, b4, b6 = _b_invariants(weierstrass)
    x = np.arange(p, dtype=np.int64)
    f = (4 * ((x * x % p) * x % p) + (b2 % p) * (x * x % p) + (2 * b4 % p) * x + b6) % p
    half = np.arange((p + 1) // 2, dtype=np.int64)
    is_square = np.zeros(p, dtype=bool)
    is_square[(half * half) % p] = True
    nonzero = f != 0
    chi_sum = int(np.count_nonzero(is_square[f] & nonzero)) - int(np.count_nonzero(~is_square[f] & nonzero))
    return -chi_sum


# Above this bound E or its quadratic twist has a point whose order has
# exactly one multiple in the Hasse interval (Cremona-Sutherland 2010,
# extending Mestre), so the baby-step giant-step search always ends.
_MESTRE_BOUND = 229


def _ec_add(P, Q, a: int, p: int):
    """P + Q on y^2 = x^3 + a x + b over F_p; None is the point at infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


def _ec_mul(n: int, P, a: int, p: int):
    """n P by double-and-add."""
    if n < 0:
        n, P = -n, (P[0], -P[1] % p)
    result = None
    while n:
        if n & 1:
            result = _ec_add(result, P, a, p)
        P = _ec_add(P, P, a, p)
        n >>= 1
    return result


def _hasse_traces(P, a: int, p: int) -> set:
    """Every t with |t| <= 2 sqrt(p) and (p + 1 - t) P = O, or an empty set
    when P has order at most 2m, which leaves several such t.

    Baby steps store x(jP) for j = 1..m; giant steps write t = k g + j' with
    g = 2m + 1 and |j'| <= m, so (p + 1 - k g) P = +-jP is an x lookup.
    The sign is not tracked: each of k g +- j is checked by one scalar
    multiplication instead.
    """
    bound = isqrt(4 * p)
    m = isqrt(bound) + 1
    g = 2 * m + 1
    baby = {}
    R = P
    for j in range(1, m + 1):
        # a repeated x or a 2-torsion point means the order of P is at most 2m
        if R is None or R[0] in baby or R[1] == 0:
            return set()
        baby[R[0]] = j
        R = _ec_add(R, P, a, p)
    top = (bound + m) // g
    step = _ec_mul(-g, P, a, p)
    R = _ec_mul(p + 1 + top * g, P, a, p)  # (p + 1 - k g) P at k = -top
    traces = set()
    for k in range(-top, top + 1):
        if R is None:
            candidates = (k * g,)
        elif R[0] in baby:
            candidates = (k * g + baby[R[0]], k * g - baby[R[0]])
        else:
            candidates = ()
        for t in candidates:
            if abs(t) <= bound and _ec_mul(p + 1 - t, P, a, p) is None:
                traces.add(t)
        R = _ec_add(R, step, a, p)
    return traces


def _count_points_bsgs(c4: int, c6: int, p: int) -> int:
    """a(p) at a prime p > 229 of good reduction, from one point of E or of
    its quadratic twist whose order pins #E down within the Hasse interval.

    On the short model y^2 = f(x) = x^3 + A x + B, A = -27 c4 and B = -54 c6,
    each x0 with d = f(x0) != 0 gives the point (d x0, d^2) on
    Y^2 = X^3 + A d^2 X + B d^3, which is E when d is a square mod p and the
    twist of E, with trace -a(p), otherwise.
    """
    A = -27 * c4 % p
    B = -54 * c6 % p
    for x0 in range(p):
        d = (x0 * x0 * x0 + A * x0 + B) % p
        if d == 0:
            continue
        traces = _hasse_traces((d * x0 % p, d * d % p), A * d * d % p, p)
        if len(traces) == 1:
            (t,) = traces
            return t if pow(d, (p - 1) // 2, p) == 1 else -t
    raise ArithmeticError(f"no point pins down #E(F_{p}); impossible above p = {_MESTRE_BOUND}")


def count_points_fp(weierstrass, p: int) -> int:
    """a(p) = p + 1 - #E(F_p).

    At primes p > 229 of good reduction this is baby-step giant-step on E or
    its quadratic twist, O(p^(1/4)) group operations per prime (Mestre;
    Cohen, A Course in Computational Algebraic Number Theory, 7.4).  Below
    that, and at primes dividing c4^3 - c6^2 (the conductor among them), it
    sums the quadratic character of the cubic, O(p); at the conductor this
    reproduces the multiplicative-reduction coefficient a(M) = +-1.  p = 2
    and p = 3 fall back to full two-variable enumeration of the general
    Weierstrass form, avoiding the characteristic-2/3 transformation.
    """
    if not _is_prime(p):
        raise DomainError("p must be prime")
    if p in (2, 3):
        return count_points_double_loop(weierstrass, p)
    if p <= _MESTRE_BOUND:
        return _count_points_character_sum(weierstrass, p)
    b2, b4, b6 = _b_invariants(weierstrass)
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6
    if (c4**3 - c6**2) % p == 0:  # 1728 times the discriminant: bad reduction
        return _count_points_character_sum(weierstrass, p)
    return _count_points_bsgs(c4, c6, p)


def _euler_primes(p_max: int, conductor_M: int) -> list:
    """The primes p <= p_max, then the conductor when it exceeds p_max: the
    Euler product always carries the conductor's factor."""
    if p_max < 2:
        raise DomainError("p_max must be at least 2")
    primes = [int(p) for p in _sieve(p_max)]
    if conductor_M > p_max:
        primes.append(conductor_M)
    return primes


def point_counts(weierstrass, p_max: int, conductor_M: int) -> dict:
    """{p: a(p)} over the primes of `a_s_truncated(..., p_max)`: every prime
    p <= p_max, and the conductor when it exceeds p_max."""
    return {p: count_points_fp(weierstrass, p) for p in _euler_primes(p_max, conductor_M)}


@dataclass(frozen=True)
class EulerProductResult:
    """Truncated Euler product with its convergence diagnostic."""

    value: float
    p_max: int
    last_decade_increment: Optional[float]
    decade_values: dict


def _combined_prime_factor(a: int, conductor_M: int, omega: int, s: float, p: int) -> float:
    """Per-prime factor of a_s(E) with the three displayed brackets merged.

    The leading bracket alone, (1 - 1/p)^(s(s-1)/2), diverges when multiplied
    over primes (the exponent is 3/8 at s = -1/2); only the combined factor
    is 1 + O(p^-1)-with-cancellation and yields a convergent product.
    """
    lam = a / np.sqrt(p)  # lambda(p), the normalized Dirichlet coefficient
    lead = (1.0 - 1.0 / p) ** (s * (s - 1.0) / 2.0)
    if p == conductor_M:
        z = omega / np.sqrt(conductor_M)
        return lead * (1.0 - lam * z) ** (-s)
    zp = 1.0 / np.sqrt(p)
    plus = (1.0 - lam * zp + zp * zp) ** (-s)
    minus = (1.0 + lam * zp + zp * zp) ** (-s)
    return lead * (p / (p + 1.0)) * (1.0 / p + 0.5 * (plus + minus))


def a_s_truncated(a_p: dict, conductor_M: int, omega: int, s: float, p_max: int) -> EulerProductResult:
    """Arithmetic constant a_s(E) as a product over primes p <= p_max.

    `a_p` maps each of those primes to a(p), as `point_counts` returns it.
    The conductor factor is always applied (it is a single prime), even when
    p_max < M, so `a_p` must hold a(M) too.  `last_decade_increment` reports |value(p_max) - value(p_max/10)|
    as a convergence diagnostic; it is None for p_max < 100, where there is no
    earlier decade to compare with.
    """
    if not np.isfinite(s):
        raise DomainError(f"a_s(E) needs a finite s, not {s}")
    primes = _euler_primes(p_max, conductor_M)
    log_total = 0.0
    decade_values = {}
    next_decade = 10
    for p in primes:
        while next_decade <= p_max and p > next_decade:
            decade_values[next_decade] = float(np.exp(log_total))
            next_decade *= 10
        log_total += np.log(_combined_prime_factor(a_p[p], conductor_M, omega, s, p))
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

