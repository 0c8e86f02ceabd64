"""Exception type shared across the package, and the excised ensemble's domain."""

import math


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def _check_pairs(n_pairs: int) -> None:
    if n_pairs < 1:
        raise DomainError("n_pairs must be >= 1")


def check_ensemble(n_pairs: int, log_cutoff: float) -> None:
    """The excised ensemble needs N >= 1 and a finite X below 2N log 2, the
    largest log Lambda: the sampler and the analytic side share this rule."""
    _check_pairs(n_pairs)
    if not log_cutoff > -math.inf:
        raise DomainError(f"the log cutoff must be a number above -inf, not {log_cutoff}")
    if log_cutoff >= 2 * n_pairs * math.log(2.0):
        raise DomainError("log_cutoff >= 2N log 2: the excised ensemble is empty")
