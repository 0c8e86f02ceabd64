"""The benchmark's workloads and the checks on their outputs.

A workload is a fixed list of CLI commands (one pass).  Sampling seeds are
derived from the benchmark's workload seed; `density` and `ap-count` take no
seed.  Every output path is relative to the pass directory.

The checks are statistical or structural, never golden hashes, so they keep
holding when a sampler maps seeds to new random streams.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Command:
    argv: tuple
    items: int  # spectra, grid points or primes the command produces
    rate: str  # the per-second metric those items feed

    @property
    def name(self) -> str:
        return self.argv[0]

    def flag(self, name: str) -> str:
        return self.argv[self.argv.index(name) + 1]


def cli_seed(workload: str, seed: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def primes_up_to(limit: int) -> list:
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(limit + 1) if sieve[p]]


AP_P_MAX = 30000
RATES = ("spectra_per_s", "density_points_per_s", "primes_per_s")


def commands(workload: str, seed: int) -> list:
    s = str(cli_seed(workload, seed))
    if workload == "eff-n2":
        sample = ("first-eigenvalue", "--n", "2", "--count", "200000", "--cutoff", "0.001466", "--scale", "1.118",
                  "--workers", "1", "--seed", s, "--out", "first_eigenvalue.csv", "--summary", "first_eigenvalue.json")
        density = ("density", "--n", "2", "--cutoff", "0.001466", "--grid", "2000",
                   "--out", "density.csv", "--summary", "density.json")
        return [Command(sample, 200000, "spectra_per_s"), Command(density, 2000, "density_points_per_s")]
    if workload == "std-n12":
        sample = ("sample", "--n", "12", "--count", "20000", "--cutoff", "0.005424", "--workers", "2",
                  "--histogram", "one-level", "--seed", s, "--out", "sample.csv", "--summary", "sample.json")
        # grid 100 rather than 200 halves the pass, so a run holds five passes
        density = ("density", "--n", "12", "--cutoff", "0.005424", "--grid", "100",
                   "--out", "density.csv", "--summary", "density.json")
        return [Command(sample, 20000, "spectra_per_s"), Command(density, 100, "density_points_per_s")]
    if workload == "arith-e11":
        ap = ("ap-count", "--config", "e11", "--p-max", str(AP_P_MAX), "--euler-s", "-0.5",
              "--out", "ap.csv", "--summary", "ap.json")
        return [Command(ap, len(primes_up_to(AP_P_MAX)), "primes_per_s")]
    raise KeyError(workload)


WORKLOADS = ("eff-n2", "std-n12", "arith-e11")


def live_points(cmd: Command) -> int:
    """Grid points of a density command outside the hard gap, where
    d = (2N-1) log 2 + log(1 - cos theta) - X > 0."""
    n, grid = int(cmd.flag("--n")), int(cmd.flag("--grid"))
    thetas = np.linspace(0.0, np.pi, grid)
    with np.errstate(divide="ignore"):
        margin = (2 * n - 1) * np.log(2.0) + np.log1p(-np.cos(thetas)) - np.log(float(cmd.flag("--cutoff")))
    return int(np.count_nonzero(margin > 0))


# -- checks ----------------------------------------------------------------------
# Each check takes the command and the pass directory and returns a list of
# problems; an empty list means the output is correct.


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_sampling(pkg, cmd: Command, out: Path) -> list:
    problems = []
    summary = json.loads((out / cmd.flag("--summary")).read_text())
    count = int(cmd.flag("--count"))
    if summary["accepted"] != count:
        problems.append(f"accepted {summary['accepted']} != count {count}")
    n, log_cutoff = int(cmd.flag("--n")), math.log(float(cmd.flag("--cutoff")))
    ratio = pkg.analytic.normalization_ratio(n, log_cutoff).value
    # count/draws of a negative-binomial draw has sd ~ p sqrt((1 - p) / count)
    sigma = ratio * math.sqrt((1.0 - ratio) / count)
    if abs(summary["acceptance_rate"] - ratio) > 4 * sigma:
        problems.append(f"acceptance rate {summary['acceptance_rate']:.6f} not within 4 sd of {ratio:.6f}")
    values = [float(r["value"]) for r in _rows(out / cmd.flag("--out"))]
    if len(values) != 100 or not all(math.isfinite(v) and v >= 0 for v in values):
        problems.append("histogram is not 100 finite nonnegative bins")
    return problems


def _check_density(pkg, cmd: Command, out: Path) -> list:
    problems = []
    n, grid = int(cmd.flag("--n")), int(cmd.flag("--grid"))
    summary = json.loads((out / cmd.flag("--summary")).read_text())
    rows = _rows(out / cmd.flag("--out"))
    thetas = [float(r["theta"]) for r in rows]
    values = [float(r["r1"]) for r in rows]
    if len(rows) != grid:
        return [f"{len(rows)} density rows, expected {grid}"]
    if any(v != 0.0 for t, v in zip(thetas, values) if t < summary["theta_inf"]):
        problems.append("nonzero density below theta_inf")
    if not all(math.isfinite(v) and v >= 0 for v in values):
        problems.append("density values are not finite and nonnegative")
    integral = sum((t1 - t0) * (v0 + v1) / 2 for t0, t1, v0, v1 in zip(thetas, thetas[1:], values, values[1:]))
    # the trapezoid rule's own error: 5e-5 N on 2000 points at N = 2, 3.3e-3 N
    # on 100 points at N = 12, where R_1 rises steeply at the gap edge
    if abs(integral - n) > 5e-3 * n:
        problems.append(f"trapezoid integral of R_1 is {integral:.6f}, expected {n}")
    return problems


def _check_ap_count(pkg, cmd: Command, out: Path) -> list:
    problems = []
    p_max = int(cmd.flag("--p-max"))
    rows = _rows(out / cmd.flag("--out"))
    primes = [int(r["p"]) for r in rows]
    a_p = [int(r["a_p"]) for r in rows]
    if primes != primes_up_to(p_max):
        problems.append("rows are not the primes up to p_max")
    if any(a * a > 4 * p for p, a in zip(primes, a_p)):
        problems.append("a_p outside the Hasse bound")
    params, _ = pkg.curve_model.read_curve_config(
        str(resources.files("excised_ensemble.data") / f"{cmd.flag('--config')}.cfg")
    )
    for p, a in zip(primes, a_p):
        if p > 60:
            break
        if a != pkg.curve_model.count_points_double_loop(params.weierstrass, p):
            problems.append(f"a_{p} disagrees with the double-loop count")
    summary = json.loads((out / cmd.flag("--summary")).read_text())
    if abs(summary["a_s_value"] - params.a_minus_half) > summary["a_s_last_decade_increment"]:
        problems.append(f"a_s {summary['a_s_value']} not within its last-decade increment of the config value")
    return problems


CHECKS = {
    "first-eigenvalue": _check_sampling,
    "sample": _check_sampling,
    "density": _check_density,
    "ap-count": _check_ap_count,
}


def check(pkg, cmd: Command, out: Path) -> list:
    try:
        return CHECKS[cmd.name](pkg, cmd, out)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]
