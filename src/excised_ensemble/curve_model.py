"""Elliptic-curve calibration pipeline: matrix sizes from the twist bound,
cutoff constants from the Waldspurger-type discretization, point counts over
F_p (baby-step giant-step on E or its quadratic twist, run for all primes in
lockstep as numpy arrays), and the arithmetic constant a_s(E) as a truncated
Euler product of those counts.

Only prime conductors are supported.  The curve constants kappa_E, r1,
a_{-1/2} and delta are inputs (shipped for the conductor-11 example family);
deriving them is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

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
    "delta",
    "omega",
    "X_bound",
)


# Miller-Rabin with the first 12 prime bases is exact below 3.18e23, the least
# strong pseudoprime to all of them (Sorenson-Webster 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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
    for q in _MR_BASES:
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
    the resulting cubic over all of F_p; O(p), exact for every odd p.

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
# Rows per kernel call.  Its two tables are arrays of m + 1 and 2 top + 1
# points per row at the call's largest p, m ~ 1.4 p^(1/4) and
# top ~ 0.7 p^(1/4); each row fills only the entries it needs.
_BSGS_ROWS = 4096
# Points tried at each prime still open in every pass after the first
_RETRY_POINTS = 8


def _bits(n) -> list:
    """The binary digits of every entry of n >= 0 as masks, lowest first."""
    return [(n >> i) & 1 == 1 for i in range(int(n.max()).bit_length())]


def _pow_mod(base, bits, p):
    """base^e mod p per row, with e given by `_bits(e)`."""
    result = np.ones_like(base)
    for bit in bits:
        result = np.where(bit, result * base % p, result)
        base = base * base % p
    return result


def _invert(z, p, inverse_bits):
    """Replace every entry of z by its inverse mod p, 0 staying 0, by
    simultaneous inversion along axis 0 (Montgomery, Math. Comp. 48, 1987):
    the running products of each column, one Fermat power of the last with
    exponent bits `inverse_bits` = `_bits(p - 2)`, then three products per
    entry on the way back."""
    zero = z == 0
    z[zero] = 1
    prod = np.empty_like(z)
    prod[0] = z[0]
    for k in range(1, len(z)):
        prod[k] = prod[k - 1] * z[k] % p
    last = _pow_mod(prod[-1], inverse_bits, p)  # 1 / (z[0] ... z[k]), from the last k down
    for k in range(len(z) - 1, 0, -1):
        prod[k] = last * prod[k - 1] % p
        last = last * z[k] % p
    z[1:] = prod[1:]
    z[0] = last
    z[zero] = 0


def _jacobian(P):
    """The affine points P = (x, y, is_infinity) as (X, Y, Z), Z = 1 or 0 at O."""
    x, y, o = P
    return x, y, np.where(o, 0, 1).astype(x.dtype)


def _to_affine(X, Y, Z, p, inverse_bits):
    """Jacobian points (X, Y, Z), x = X / Z^2 and y = Y / Z^3, to affine in
    place in X and Y, with one Fermat power per column of p (`_invert`, which
    overwrites Z).  Returns where Z was 0, the point at infinity, whose x and
    y become 0."""
    inf = Z == 0
    _invert(Z, p, inverse_bits)
    inv2 = Z * Z % p
    X *= inv2
    X %= p
    Y *= inv2
    Y %= p
    Y *= Z
    Y %= p
    return inf


def _double(R, a, p):
    """2R per row on y^2 = x^3 + a x + b over F_p, in Jacobian coordinates;
    2R = O, Z = 0, where R = O or y = 0.  Every product takes two residues
    in [0, p), so it stays below 2^62 in int64 while p < 2^31.  Every
    expression here and in `_add_affine` is one such product plus at most a
    few residues or small multiples of them; the largest,
    3 xx + a (zz^2 mod p), is below p^2 + 3p, under 2^30 + 2^17 < 2^31 in
    int32 while p < 2^15.  numpy's int32 arithmetic wraps on overflow without
    a warning, so that bound keeps a margin: p <= 46340 is the exact limit."""
    X, Y, Z = R
    xx = X * X % p
    yy = Y * Y % p
    zz = Z * Z % p
    s = 4 * (X * yy % p) % p
    slope = (3 * xx + a * (zz * zz % p)) % p
    X3 = (slope * slope - 2 * s) % p
    Y3 = (slope * ((s - X3) % p) - 8 * (yy * yy % p)) % p
    return X3, Y3, 2 * (Y * Z % p) % p


def _add_affine(R, Q, a, p):
    """R + Q per row, R in Jacobian coordinates (as `_double`) and Q affine,
    an (x, y, is_infinity) triple of arrays.  Where R = -Q the sum comes out
    with Z = 0, O; where R = Q it is `_double(R)`; where R or Q is O it is
    the other."""
    X, Y, Z = R
    x, y, o = Q
    zz = Z * Z % p
    h = (x * zz - X) % p
    r = (y * (zz * Z % p) - Y) % p
    hh = h * h % p
    hhh = h * hh % p
    v = X * hh % p
    X3 = (r * r - hhh - 2 * v) % p
    Y3 = (r * ((v - X3) % p) - Y * hhh % p) % p
    Z3 = Z * h % p
    r_is_o = Z == 0
    same = np.flatnonzero((h == 0) & (r == 0))
    same = same[~r_is_o[same] & ~o[same]]
    if same.size:
        X3[same], Y3[same], Z3[same] = _double((X[same], Y[same], Z[same]), a[same], p[same])
    for out, q_coord, r_coord in zip((X3, Y3, Z3), (x, y, 1), R):
        np.copyto(out, q_coord, where=r_is_o)  # O + Q = Q
        np.copyto(out, r_coord, where=o)  # R + O = R, O when both are
    return X3, Y3, Z3


def _first_rows(need, steps):
    """For each table entry i < steps, the first row whose need is at least
    i: entry i is computed from that row on, which covers every row that needs
    it, and only those where need is nondecreasing along the rows."""
    return np.searchsorted(np.maximum.accumulate(need), np.arange(steps))


def _chain(first, Q, starts, a, p, inverse_bits):
    """first + i Q per row, i = 0..len(starts) - 1, as affine (K, rows) tables
    (x, y, is_infinity): entry i is filled from row starts[i] on (`_first_rows`,
    starts[0] = 0) in Jacobian coordinates, one mixed addition of the affine Q
    per entry and row, and is O before that row; then the whole table is
    brought to affine by `_to_affine`."""
    X, Y, Z = (np.zeros((len(starts), len(p)), dtype=p.dtype) for _ in range(3))
    X[0], Y[0], Z[0] = first
    for i in range(1, len(starts)):
        tail = slice(starts[i], None)
        X[i, tail], Y[i, tail], Z[i, tail] = _add_affine(
            (X[i - 1, tail], Y[i - 1, tail], Z[i - 1, tail]), tuple(c[tail] for c in Q), a[tail], p[tail]
        )
    return X, Y, _to_affine(X, Y, Z, p, inverse_bits)


def _bsgs_traces(p, A, d, x0):
    """Baby-step giant-step in lockstep, one row per (p, x0) with
    d = x0^3 + A x0 + B != 0 mod p, p > 229.

    Row i works on P = (d x0, d^2) on Y^2 = X^3 + A d^2 X + B d^3, which is
    E at p when d is a square mod p and its quadratic twist, with trace
    -a(p), otherwise.  Baby steps tabulate x and y of jP, j = 1..m + 1, with
    m = isqrt(isqrt(4p)) + 1; giant steps write t = k g + j' with g = 2m + 1
    and |j'| <= m, so (p + 1 - k g) P = j'P is a match in the table's first m
    entries whose y gives the sign of j' by its parity.  Every t so found has
    (p + 1 - t) P = O, with no scalar multiplication to confirm it.  Where P
    has order above 2m, each such t is found once.  Where it has order at
    most 2m, every giant step inside the Hasse interval finds one, so the row
    finds several.

    Both tables are filled in Jacobian coordinates by mixed additions of the
    affine P or -gP, each entry only from the first row that needs it.  The
    rows of `_bsgs_counts` come in ascending p, so the m + 1 baby steps a row
    needs never fall along them, and each row takes only its own; its
    2 top + 1 giant steps, top = (isqrt(4p) + m) // g, fall where m steps up,
    and the rows past such a drop take, and mask, the extra steps.  The
    start (p + 1 + top g) P of the giant steps is read left to right in 3-bit
    digits, three doublings and one addition of a tabulated jP, j <= 7 <= m + 1
    (O at digit 0), per digit.  Each table, and gP, then takes one Fermat
    power per row to return to affine, and the square test on d a fourth.
    Each giant step is compared with the whole baby table, and only the few
    rows where it is O or matches read off t.

    Returns (a, fixed) per row: a(p) read from t, and whether that t was the
    only |t| <= 2 sqrt(p) with (p + 1 - t) P = O.
    """
    rows = np.arange(len(p))
    bound = np.array([isqrt(4 * q) for q in p.tolist()])
    m = np.array([isqrt(b) + 1 for b in bound.tolist()])
    g = 2 * m + 1
    top = (bound + m) // g
    a = A * (d * d % p) % p
    inverse_bits = _bits(p - 2)
    P = (d * x0 % p, d * d % p, np.zeros(len(p), dtype=bool))
    x, y, inf = _chain(_jacobian(P), P, _first_rows(m, m.max() + 1), a, p, inverse_bits)  # entry j - 1 holds jP

    def multiple(j):
        """jP per row from the baby table, O where j = 0."""
        return x[j - 1, rows], y[j - 1, rows], inf[j - 1, rows] | (j == 0)

    gX, gY, gZ = _add_affine(_jacobian(multiple(m)), multiple(m + 1), a, p)  # gP = mP + (m + 1)P
    g_inf = _to_affine(gX[None], gY[None], gZ[None], p, inverse_bits)[0]
    step = (gX, -gY % p, g_inf)
    n = p + 1 + top * g  # (p + 1 - k g) P at k = -top

    def digit(shift):
        """The 3-bit digit of n at `shift` as a point; an int64 index also
        where n holds Python integers."""
        return multiple((n >> shift & 7).astype(np.int64))

    high = 3 * ((int(n.max()).bit_length() - 1) // 3)
    R = _jacobian(digit(high))
    for shift in range(high - 3, -1, -3):
        for _ in range(3):
            R = _double(R, a, p)
        R = _add_affine(R, digit(shift), a, p)
    # a match R = +-jP has y_R = y_j or p - y_j, which differ in parity as p
    # is odd (and are equal where y_j = 0), so the sign needs only y_j's
    # parity; the baby y table is released before the giant table is built
    y_odd = y % 2 == 1
    del y
    starts = _first_rows(2 * top, 2 * top.max() + 1)
    Rx, Ry, R_inf = _chain(R, step, starts, a, p, inverse_bits)
    baby = (np.arange(len(x))[:, None] < m) & ~inf
    found = np.zeros(len(p), dtype=np.int64)
    trace = np.zeros(len(p), dtype=np.int64)
    for i, s in enumerate(starts):
        match = baby[:, s:] & (x[:, s:] == Rx[i, s:])
        near = np.flatnonzero(match.any(axis=0) | R_inf[i, s:])  # the few rows where R = O or +-jP
        r = s + near
        j = match[:, near].argmax(axis=0) + 1
        j_signed = np.where(y_odd[j - 1, r] == (Ry[i, r] % 2 == 1), j, -j)
        t = (i - top[r]) * g[r] + np.where(R_inf[i, r], 0, j_signed)
        hit = (i <= 2 * top[r]) & (np.abs(t) <= bound[r])
        found[r] += hit
        trace[r] = np.where(hit, t, trace[r])
    square = _pow_mod(d, _bits((p - 1) // 2), p) == 1
    return np.where(square, trace, -trace), found == 1


def _bsgs_counts(c4: int, c6: int, primes: list) -> list:
    """a(p) at primes p > 229 of good reduction, all of them in lockstep.

    On the short model y^2 = f(x) = x^3 + A x + B, A = -27 c4 and B = -54 c6,
    the first pass tries at each prime the least x0 >= 0 with f(x0) != 0,
    and each later pass the next `_RETRY_POINTS` such x0 at the primes that
    no point has fixed yet.  The largest prime of the call picks the dtype of
    the kernel's residues (`_double` bounds its expressions): int32 while
    p < 2^15, int64 while p < 2^31, and Python integers (object arrays) above.
    """
    dtype = np.int32 if max(primes) < 2**15 else np.int64 if max(primes) < 2**31 else object
    p = np.array(primes, dtype=dtype)
    A = np.array([-27 * c4 % q for q in primes], dtype=dtype)
    B = np.array([-54 * c6 % q for q in primes], dtype=dtype)
    counts = np.zeros(len(p), dtype=np.int64)
    pending = np.arange(len(p))
    is_open = np.ones(len(p), dtype=bool)
    tried = np.full(len(p), -1)  # the last x0 tried at each prime
    points = 1
    while pending.size:
        q = p[pending, None]
        x0 = tried[pending, None] + 1 + np.arange(points + 3)  # f has at most 3 roots
        if (x0 >= q).any():
            raise ArithmeticError(f"no point pins down #E(F_p); impossible above p = {_MESTRE_BOUND}")
        d = (x0 * x0 % q * x0 % q + A[pending, None] * x0 % q + B[pending, None]) % q
        use = (d != 0) & (np.cumsum(d != 0, axis=1) <= points)
        tried[pending] = np.where(use, x0, -1).max(axis=1)
        row_prime, d, x0 = pending[np.nonzero(use)[0]], d[use].astype(dtype), x0[use].astype(dtype)
        a = np.empty(len(row_prime), dtype=np.int64)
        fixed = np.empty(len(row_prime), dtype=bool)
        for s in range(0, len(row_prime), _BSGS_ROWS):
            chunk = slice(s, s + _BSGS_ROWS)
            rp = row_prime[chunk]
            a[chunk], fixed[chunk] = _bsgs_traces(p[rp], A[rp], d[chunk], x0[chunk])
        done, a = row_prime[fixed], a[fixed]
        first = np.ones(len(done), dtype=bool)  # done is sorted: the first row of each prime
        first[1:] = done[1:] != done[:-1]
        counts[done[first]] = a[first]
        is_open[done] = False
        pending = np.flatnonzero(is_open)
        points = _RETRY_POINTS
    return counts.tolist()


def _counts_at(weierstrass, primes: list) -> dict:
    """{p: a(p)} at the given primes, in their order, each counted once:
    p = 2 by `count_points_double_loop`, odd p <= 229 and the primes dividing
    c4^3 - c6^2 (1728 times the discriminant: bad reduction, the conductor
    among them) by the character sum, every other prime in one
    `_bsgs_counts` batch."""
    b2, b4, b6 = _b_invariants(weierstrass)
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6
    disc = c4**3 - c6**2
    counts, batch = {}, []
    for p in primes:
        if p == 2:
            counts[p] = count_points_double_loop(weierstrass, p)
        elif p <= _MESTRE_BOUND or disc % p == 0:
            counts[p] = _count_points_character_sum(weierstrass, p)
        else:
            batch.append(p)
    if batch:
        counts.update(zip(batch, _bsgs_counts(c4, c6, batch)))
    return {p: counts[p] for p in primes}


def count_points_fp(weierstrass, p: int) -> int:
    """a(p) = p + 1 - #E(F_p), by the dispatch of `point_counts` for one prime.

    At primes p > 229 of good reduction this is baby-step giant-step on E or
    its quadratic twist, O(p^(1/4)) group operations per prime (Mestre;
    Cohen, A Course in Computational Algebraic Number Theory, 7.4), run as
    a numpy kernel whose fixed cost per call (a median of 1.8 to 2.2 ms at
    p = 29 989 and 3.8 to 4.3 ms at p = 999 983 on a 2-vCPU Xeon) a batch
    of primes shares: count many primes with `point_counts`.  Below
    that, and at primes dividing c4^3 - c6^2 (the conductor among them), it
    sums the quadratic character of the cubic, O(p); at the conductor this
    reproduces the multiplicative-reduction coefficient a(M) = +-1.  p = 2
    falls back to full two-variable enumeration of the general Weierstrass
    form, where completing the square fails.
    """
    if not _is_prime(p):
        raise DomainError("p must be prime")
    p = int(p)
    return _counts_at(weierstrass, [p])[p]


def _euler_primes(p_max: int, conductor_M: int) -> list:
    """The primes p <= p_max, then the conductor when it exceeds p_max: the
    Euler product always carries the conductor's factor.  The conductor must
    be prime, as only p = M takes the bad-prime factor."""
    if p_max < 2:
        raise DomainError("p_max must be at least 2")
    if not _is_prime(conductor_M):
        raise DomainError(f"the Euler product needs a prime conductor, not {conductor_M}")
    primes = [int(p) for p in _sieve(p_max)]
    if conductor_M > p_max:
        primes.append(conductor_M)
    return primes


def point_counts(weierstrass, p_max: int, conductor_M: int) -> dict:
    """{p: a(p)} over the primes of `a_s_truncated(..., p_max)`: every prime
    p <= p_max, and the conductor when it exceeds p_max."""
    return _counts_at(weierstrass, _euler_primes(p_max, conductor_M))


@dataclass(frozen=True)
class EulerProductResult:
    """Truncated Euler product with its convergence diagnostic."""

    value: float
    last_decade_increment: float | None
    decade_values: dict


def a_s_truncated(a_p: dict, conductor_M: int, omega: int, s: float, p_max: int) -> EulerProductResult:
    """Arithmetic constant a_s(E) as a product over `_euler_primes(p_max, M)`.

    `a_p` maps each of those primes to a(p), as `point_counts` returns it, or
    DomainError names the first it lacks.  The conductor's factor is always
    applied, so `a_p` must hold a(M) even when p_max < M.  `decade_values[10^k]`
    is the value at p_max = 10^k, the product over primes <= 10^k and the
    conductor, for each 10^k <= p_max that a prime of the product exceeds, and
    `decade_values[p_max]` is the value.
    `last_decade_increment`, a convergence diagnostic, is |value - the entry
    at the largest key <= p_max/10|, or None if there is none (p_max < 100).
    A value or a decade value that overflows a float raises DomainError.
    """
    if not np.isfinite(s):
        raise DomainError(f"a_s(E) needs a finite s, not {s}")
    primes = _euler_primes(p_max, conductor_M)
    try:
        a = np.array([a_p[p] for p in primes], dtype=float)
    except KeyError as missing:
        raise DomainError(f"a_p has no a(p) at the prime {missing.args[0]}") from None
    p = np.array(primes, dtype=float)
    # The three displayed brackets merged per prime, as logs: the leading one
    # alone, (1 - 1/p)^(s(s-1)/2), diverges over primes (exponent 3/8 at
    # s = -1/2); only the merged factor is 1 + O(p^-1)-with-cancellation and
    # converges.  Its log is taken by log1p, not numpy's array power, whose
    # last-ulp errors share a sign and reach 1e-12 of the product at p = 10^6.
    lam = a / np.sqrt(p)  # lambda(p), the normalized Dirichlet coefficient
    zp = 1.0 / np.sqrt(p)
    bad = p == conductor_M
    decades = [10**k for k in range(1, len(str(p_max))) if 10**k < primes[-1]]  # 10^k <= p_max
    last = np.searchsorted(p, decades, side="right") - 1  # the last prime <= each decade
    with np.errstate(over="ignore", invalid="ignore"):  # a large |s|; the finite check below raises
        plus = (1.0 - lam * zp + zp * zp) ** (-s)
        minus = (1.0 + lam * zp + zp * zp) ** (-s)
        log_rest = np.log(p / (p + 1.0) * (1.0 / p + 0.5 * (plus + minus)))
        log_rest[bad] = -s * np.log1p(-lam[bad] * (omega / np.sqrt(conductor_M)))
        log_factor = s * (s - 1.0) / 2.0 * np.log1p(-1.0 / p) + log_rest
        log_partial = np.cumsum(log_factor)
        # a decade below the conductor carries its factor, as the value does
        log_decades = log_partial[last] + np.where(np.less(decades, conductor_M), log_factor[bad].sum(), 0.0)
        values = np.exp(np.append(log_decades, log_partial[-1]))
    if not np.all(np.isfinite(values)):
        raise DomainError(f"a_s(E) at s = {s} overflows a float")
    decade_values = dict(zip(decades + [p_max], values.tolist()))
    value = decade_values[p_max]
    prev = [v for k, v in decade_values.items() if k <= p_max / 10]
    last_inc = abs(value - prev[-1]) if prev else None
    return EulerProductResult(value=value, last_decade_increment=last_inc, decade_values=decade_values)


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
    conductor, c1..c6, kappa_E, a_minus_half, r1, delta, omega, X_bound; any
    other key is ignored.  A file that is not UTF-8 text, a malformed line, a
    key given twice, a missing key or a value that does not parse raises
    DomainError.
    """
    raw = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise DomainError(f"config {path} is not UTF-8 text") from None
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"malformed config line: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise DomainError(f"config key {key} is given twice")
        raw[key] = value
    missing = [k for k in E11_CONFIG_KEYS if k not in raw]
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
    )
    return params, number("X_bound")

