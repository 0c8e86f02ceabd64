"""Command-line front end.

Subcommands: sample, density, first-eigenvalue, moments, cutoff, ap-count,
compare.  Every run writes a JSON summary recording the seed, the parsed
parameters, and the package version, so outputs are reproducible
byte-for-byte from the command line alone.

Exit codes: 0 success, 1 domain error (an argument outside the mathematical
domain, such as a cutoff that empties the ensemble), 2 usage error (bad
flags, unreadable config, unwritable output).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from . import analytic, curve_model, ensemble
from .errors import DomainError
from .haar import write_spectra_csv


def _resolve_config_path(value: str) -> str:
    """A plain name like `e11` resolves to the bundled config of that name."""
    if Path(value).exists():
        return value
    if "/" not in value and "\\" not in value:
        bundled = resources.files("excised_ensemble.data") / f"{value.removesuffix('.cfg')}.cfg"
        if bundled.is_file():
            return str(bundled)
    return value


def _resolve_log_cutoff(args) -> float:
    """--cutoff-log wins over --cutoff when both are given.  NaN and -inf are
    domain errors; +inf is left to the callers, which report an empty ensemble."""
    if getattr(args, "cutoff_log", None) is not None:
        log_cutoff = float(args.cutoff_log)
    elif getattr(args, "cutoff", None) is not None:
        if args.cutoff <= 0:
            raise DomainError("--cutoff must be positive (use --cutoff-log for the log scale)")
        log_cutoff = float(np.log(args.cutoff))
    else:
        raise DomainError("one of --cutoff or --cutoff-log is required")
    if not log_cutoff > -np.inf:
        raise DomainError(f"the log cutoff must be a number above -inf, not {log_cutoff}")
    return log_cutoff


def _write_json(payload: dict, path) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_summary(args, **extra) -> dict:
    skip = {"func"}
    params = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    base = {"version": __version__, "seed": getattr(args, "seed", None), "parameters": params}
    base.update(extra)
    return base


def _add_sampling_flags(parser):
    parser.add_argument("--n", type=int, required=True, help="matrix half-size N (matrices are 2N x 2N)")
    parser.add_argument("--count", type=int, required=True, help="number of accepted spectra")
    parser.add_argument("--cutoff", type=float, help="linear cutoff: keep log Lambda >= log(cutoff)")
    parser.add_argument("--cutoff-log", type=float, help="log-scale cutoff X (wins over --cutoff)")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument("--workers", type=int, default=1, help="parallel sampling workers")
    parser.add_argument("--bins", type=int, default=100, help="number of histogram bins")
    parser.add_argument("--scale", type=float, default=1.0, help="horizontal rescale applied to samples")


def _sampling_spec(args) -> ensemble.ExcisionSpec:
    if args.cutoff_log is None and args.cutoff is None:
        log_cutoff = -1e9  # no excision: every spectrum is accepted
    else:
        log_cutoff = _resolve_log_cutoff(args)
    return ensemble.ExcisionSpec(n_pairs=args.n, log_cutoff=log_cutoff)


def _cmd_sample(args) -> int:
    spec = _sampling_spec(args)
    first = args.histogram == "first"
    # --bins and --scale are checked in every mode before sampling
    edges = ensemble.default_bin_edges(args.bins, scale=args.scale)
    if not first:
        edges = ensemble.default_bin_edges(args.bins)  # one-level densities bin raw phases on [0, pi]
    spectra, summary = ensemble.sample_excised(spec, args.count, args.seed, workers=args.workers)
    if args.histogram != "none":
        if first:
            hist = ensemble.first_eigenvalue_distribution(spectra, edges, scale=args.scale)
        else:
            hist = ensemble.empirical_one_level_density(spectra, edges)
        ensemble.write_histogram_csv(hist, args.out)
    if args.dump_spectra:
        write_spectra_csv(args.dump_spectra, spectra)
    payload = _run_summary(args, **ensemble.summary_json_dict(summary, spec, args.seed))
    _write_json(payload, args.summary)
    return 0


def _cmd_first_eigenvalue(args) -> int:
    spec = _sampling_spec(args)
    edges = ensemble.default_bin_edges(args.bins, scale=args.scale)
    spectra, summary = ensemble.sample_excised(spec, args.count, args.seed, workers=args.workers)
    hist = ensemble.first_eigenvalue_distribution(spectra, edges, scale=args.scale)
    ensemble.write_histogram_csv(hist, args.out)
    payload = _run_summary(args, **ensemble.summary_json_dict(summary, spec, args.seed))
    _write_json(payload, args.summary)
    return 0


def _cmd_density(args) -> int:
    log_cutoff = _resolve_log_cutoff(args)
    if args.grid < 1:
        raise DomainError("--grid must be >= 1")
    thetas = np.linspace(0.0, np.pi, args.grid)
    grid = analytic.density_grid(args.n, log_cutoff, thetas)
    analytic.write_density_csv(grid, args.out)
    ratio = grid.ratio
    payload = _run_summary(
        args,
        theta_inf=analytic.theta_inf(args.n, log_cutoff),
        normalization_ratio=ratio.value,
        ratio_tail_estimate=ratio.tail_estimate,
        line_route_points=int(np.count_nonzero(grid.line_route)),
        max_tail=float(grid.tails.max(initial=0.0)),
    )
    _write_json(payload, args.summary)
    return 0


def _cmd_moments(args) -> int:
    payload = _run_summary(
        args,
        moment=analytic.moments_so2n(args.n, args.s),
        h_exact=analytic.h_exact(args.n),
        h_asymptotic=analytic.h_asymptotic(args.n),
        c_so2n=analytic.c_so2n(args.n),
    )
    _write_json(payload, args.out)
    return 0


def _cmd_cutoff(args) -> int:
    params, x_config = curve_model.read_curve_config(_resolve_config_path(args.config))
    x_bound = args.x if args.x is not None else x_config
    report = curve_model.cutoff_report(params, x_bound)
    payload = _run_summary(args, **report.to_json_dict())
    _write_json(payload, args.out)
    return 0


def _cmd_ap_count(args) -> int:
    params, _ = curve_model.read_curve_config(_resolve_config_path(args.config))
    a_p = curve_model.point_counts(params.weierstrass, args.p_max, params.conductor_M)
    with open(args.out, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["p", "a_p", "lambda_p"])
        for p, ap in a_p.items():
            if p <= args.p_max:
                writer.writerow([p, ap, repr(ap / np.sqrt(p))])
    extra = {}
    if args.euler_s is not None:
        result = curve_model.a_s_truncated(a_p, params.conductor_M, params.sign_omega, args.euler_s, args.p_max)
        extra = {
            "a_s_value": result.value,
            "a_s_last_decade_increment": result.last_decade_increment,
        }
    payload = _run_summary(args, conductor=params.conductor_M, p_max=args.p_max, **extra)
    _write_json(payload, args.summary)
    return 0


def _load_histogram(path, kind: str, bins: int) -> ensemble.Histogram:
    """A parse failure is a domain error naming the file."""
    if kind == "samples" and bins < 1:
        raise DomainError(f"--bins must be >= 1 for a samples input, not {bins}")
    try:
        if kind == "hist":
            return ensemble.read_histogram_csv(path)
        values = np.loadtxt(path, ndmin=1)
    except (KeyError, ValueError, DomainError) as exc:
        raise DomainError(f"{path} is not a {kind} file: {exc!r}") from exc
    if values.size == 0:
        raise DomainError(f"no samples in {path}")
    if not np.all(np.isfinite(values)):
        raise DomainError(f"{path} holds a non-finite sample")
    lo, hi = float(values.min()), float(values.max())
    edges = np.linspace(lo, hi, bins + 1)
    if not np.all(np.diff(edges) > 0):
        raise DomainError(f"the samples in {path} span no range to split into {bins} bins: all lie in [{lo!r}, {hi!r}]")
    counts, _ = np.histogram(values, bins=edges)
    return ensemble.Histogram(edges, counts)


def _cmd_compare(args) -> int:
    hist_a = _load_histogram(args.a, args.a_kind, args.bins)
    hist_b = _load_histogram(args.b, args.b_kind, args.bins)
    distance = ensemble.cdf_distance(hist_a, hist_b, n_grid=args.grid)
    payload = _run_summary(args, cdf_distance=distance)
    _write_json(payload, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="excised-ensemble",
        description="Excised orthogonal ensemble: sampling, analytic densities, and curve calibration.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sample", help="rejection-sample the excised ensemble")
    _add_sampling_flags(p)
    p.add_argument("--histogram", choices=["first", "one-level", "none"], default="first")
    p.add_argument("--dump-spectra", help="optional raw spectrum CSV path")
    p.add_argument("--out", default="histogram.csv", help="histogram CSV path")
    p.add_argument("--summary", default="summary.json", help="JSON summary path")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("first-eigenvalue", help="first-eigenvalue distribution of the excised ensemble")
    _add_sampling_flags(p)
    p.add_argument("--out", default="first_eigenvalue.csv")
    p.add_argument("--summary", default="summary.json")
    p.set_defaults(func=_cmd_first_eigenvalue)

    p = sub.add_parser("density", help="analytic excised one-level density on a theta grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cutoff", type=float)
    p.add_argument("--cutoff-log", type=float)
    p.add_argument("--grid", type=int, default=500, help="number of grid points on [0, pi]")
    p.add_argument("--out", default="density.csv")
    p.add_argument("--summary", default="density_summary.json")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("moments", help="moments and small-value constants of SO(2N)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--out", default="moments.json")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("cutoff", help="calibration report from a curve config")
    p.add_argument("--config", required=True, help="config path, or a bundled name such as e11")
    p.add_argument("--x", type=float, help="twist bound X (defaults to X_bound from the config)")
    p.add_argument("--out", default="cutoff.json")
    p.set_defaults(func=_cmd_cutoff)

    p = sub.add_parser("ap-count", help="point counts a_p (baby-step giant-step) and optional Euler product")
    p.add_argument("--config", required=True)
    p.add_argument("--p-max", type=int, default=1000)
    p.add_argument("--euler-s", type=float, help="also evaluate a_s(E) at this s")
    p.add_argument("--out", default="ap.csv")
    p.add_argument("--summary", default="ap_summary.json")
    p.set_defaults(func=_cmd_ap_count)

    p = sub.add_parser("compare", help="mean CDF distance between two distributions")
    p.add_argument("--a", required=True, help="first input file")
    p.add_argument("--b", required=True, help="second input file (reference for the default grid)")
    p.add_argument("--a-kind", choices=["hist", "samples"], default="hist")
    p.add_argument("--b-kind", choices=["hist", "samples"], default="hist")
    p.add_argument("--bins", type=int, default=100, help="binning for raw-sample inputs")
    p.add_argument("--grid", type=int, default=64, help="evenly spaced comparison points")
    p.add_argument("--out", default="compare.json")
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
