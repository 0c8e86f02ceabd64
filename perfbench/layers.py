"""Where a traced pass wraps the package, and how its spans become the
per-layer metrics.

Every function is wrapped at the place its caller looks it up: the `cli`
calls `ensemble.sample_excised` through the module, so the module attribute
is patched; `ensemble` calls `sample_so2n_batch` through the name it imported
from `haar`, so `excised_ensemble.ensemble.sample_so2n_batch` is patched.
Nothing under `src/` is changed.
"""

from __future__ import annotations

import numpy as np

from tracer import aggregate, parallel_overlap

CLI_COMMANDS = ("first-eigenvalue", "sample", "density", "ap-count")
HAAR = ("sample_so2n_batch", "eigenphases_batch", "log_char_poly_batch")
HISTOGRAM = ("first_eigenvalue_distribution", "empirical_one_level_density", "write_histogram_csv")
JACOBI = ("jacobi_p", "jacobi_p_deriv")


def _evals(span, args, kwargs, result):
    span.counts["evals"] = int(np.size(result))


def _batch(span, args, kwargs, result):
    span.counts["matrices"] = int(result.shape[0])
    span.counts["bytes"] = int(result.nbytes)


def _phases(span, args, kwargs, result):
    span.counts["matrices"] = int(result.shape[0])


def _sampled(span, args, kwargs, result):
    summary = result[1]
    span.counts["draws"] = int(summary.total_drawn)
    span.counts["accepted"] = int(summary.accepted)


def _integrand(span, args, kwargs, result):
    span.counts["evals"] = int(np.size(result))
    theta = args[2] if len(args) > 2 else kwargs["theta"]
    # the residue sums pass a column of angles; the line quadrature passes one angle
    if np.ndim(theta) == 0:
        span.counts["line_theta"] = float(theta)


def install(tracer, package) -> None:
    """Wrap the public functions each module calls across a layer boundary."""
    ensemble, analytic, curve_model = package.ensemble, package.analytic, package.curve_model
    tracer.wrap(ensemble, "sample_excised", "ensemble.sample_excised", _sampled)
    for name in HISTOGRAM:
        tracer.wrap(ensemble, name, "ensemble.histogram")
    tracer.wrap(ensemble, "sample_so2n_batch", "haar.sample_so2n_batch", _batch)
    tracer.wrap(ensemble, "eigenphases_batch", "haar.eigenphases_batch", _phases)
    tracer.wrap(ensemble, "log_char_poly_batch", "haar.log_char_poly_batch")
    tracer.wrap(analytic, "density_grid", "analytic.density_grid")
    tracer.wrap(analytic, "normalization_ratio", "analytic.normalization_ratio")
    tracer.wrap(analytic, "excised_integrand", "analytic.excised_integrand", _integrand)
    tracer.wrap(analytic, "log_gamma", "special_functions.log_gamma", _evals)
    for name in JACOBI:
        tracer.wrap(analytic, name, f"special_functions.{name}", _evals)
    tracer.wrap(curve_model, "count_points_fp", "curve_model.count_points_fp")
    tracer.wrap(curve_model, "a_s_truncated", "curve_model.a_s_truncated")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def summarize(spans) -> dict:
    """Per-layer metrics of one traced pass whose commands ran inside
    `cli.<subcommand>` spans.  Layers the pass never entered read 0."""
    agg = aggregate(spans)

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    m = {f"cli.{cmd}.s": get(f"cli.{cmd}", "s") for cmd in CLI_COMMANDS}
    m["cli.self_s"] = sum(get(f"cli.{cmd}", "self_s") for cmd in CLI_COMMANDS)

    draws, accepted = get("ensemble.sample_excised", "draws"), get("ensemble.sample_excised", "accepted")
    haar_spans = [s for s in spans if s.name.startswith("haar.")]
    busy: dict[int, float] = {}
    for s in haar_spans:
        busy[s.thread] = busy.get(s.thread, 0.0) + s.duration
    m.update({
        "ensemble.sample_excised.s": get("ensemble.sample_excised", "s"),
        "ensemble.sample_excised.self_s": get("ensemble.sample_excised", "self_s"),
        "ensemble.draws": draws,
        "ensemble.accepted": accepted,
        "ensemble.acceptance_rate": _ratio(accepted, draws),
        "ensemble.batches": get("haar.sample_so2n_batch", "calls"),
        # (busiest - idlest worker) / busiest, over time spent in haar calls
        "ensemble.worker_busy_skew": _ratio(max(busy.values()) - min(busy.values()), max(busy.values()))
        if len(busy) > 1 else 0.0,
        "ensemble.histogram.s": get("ensemble.histogram", "s"),
    })

    matrices = get("haar.sample_so2n_batch", "matrices")
    m.update({
        "haar.sample_so2n_batch.s": get("haar.sample_so2n_batch", "s"),
        "haar.sample_so2n_batch.us_per_matrix": 1e6 * _ratio(get("haar.sample_so2n_batch", "s"), matrices),
        "haar.eigenphases_batch.s": get("haar.eigenphases_batch", "s"),
        "haar.eigenphases_batch.us_per_matrix": 1e6
        * _ratio(get("haar.eigenphases_batch", "s"), get("haar.eigenphases_batch", "matrices")),
        "haar.log_char_poly_batch.s": get("haar.log_char_poly_batch", "s"),
        "haar.matrices": matrices,
        # computed from the array size, batch x (2N)^2 x 8 B, not measured
        "haar.peak_batch_mb": max((s.counts["bytes"] for s in spans if s.name == "haar.sample_so2n_batch"), default=0)
        / 2**20,
    })

    line = [s for s in spans if s.name == "analytic.excised_integrand" and "line_theta" in s.counts]
    m.update({
        "analytic.density_grid.s": get("analytic.density_grid", "s"),
        "analytic.normalization_ratio.s": get("analytic.normalization_ratio", "s"),
        "analytic.normalization_ratio.calls": get("analytic.normalization_ratio", "calls"),
        "analytic.excised_integrand.self_s": get("analytic.excised_integrand", "self_s"),
        "analytic.excised_integrand.calls": get("analytic.excised_integrand", "calls"),
        "analytic.excised_integrand.evals": get("analytic.excised_integrand", "evals"),
        "analytic.line_route.points": len({s.counts["line_theta"] for s in line}),
        "analytic.line_route.s": sum(s.duration for s in line),
    })

    for name in ("log_gamma",) + JACOBI:
        key = f"special_functions.{name}"
        m[f"{key}.s"] = get(key, "s")
        m[f"{key}.evals"] = get(key, "evals")
    m["special_functions.log_gamma.calls"] = get("special_functions.log_gamma", "calls")

    calls = get("curve_model.count_points_fp", "calls")
    m.update({
        "curve_model.count_points_fp.s": get("curve_model.count_points_fp", "s"),
        "curve_model.count_points_fp.calls": calls,
        "curve_model.count_points_fp.us_per_call": 1e6 * _ratio(get("curve_model.count_points_fp", "s"), calls),
        "curve_model.a_s_truncated.self_s": get("curve_model.a_s_truncated", "self_s"),
    })

    # self times sum to the thread time of the pass: its duration plus the
    # time during which more than one worker thread was busy
    total_self = m["cli.self_s"] + sum(v["self_s"] for k, v in agg.items() if not k.startswith("cli."))
    cli_s = sum(m[f"cli.{cmd}.s"] for cmd in CLI_COMMANDS)
    m["trace.accounted_frac"] = _ratio(total_self, cli_s + parallel_overlap(spans))
    return m
