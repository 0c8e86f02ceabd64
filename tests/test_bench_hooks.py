"""The benchmark's traced runs (`perfbench/run.py --trace 1`) wrap package
functions by name where their callers look them up (`perfbench/layers.py`).
Deleting or renaming one of those names breaks the benchmark, so check that
every hook point exists, is wrapped, and is put back afterwards.
"""

import sys
from pathlib import Path

import excised_ensemble
import excised_ensemble.cli  # noqa: F401  (the benchmark imports it before installing)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

MODULES = [getattr(excised_ensemble, m) for m in ("analytic", "curve_model", "ensemble", "haar", "cli")]


def test_hook_points_exist_and_are_restored():
    before = [dict(vars(m)) for m in MODULES]
    tracer = Tracer()
    try:
        layers.install(tracer, excised_ensemble)  # raises AttributeError if a hook point is gone
        changed = [(m, k, old[k]) for m, old in zip(MODULES, before) for k, v in vars(m).items() if old.get(k) is not v]
        assert changed
        assert sorted(tracer.still_wrapped(MODULES)) == sorted(f"{m.__name__}.{k}" for m, k, _ in changed)
        for m, k, original in changed:
            assert vars(m)[k].__wrapped__ is original
    finally:
        tracer.restore()
    assert tracer.still_wrapped(MODULES) == []
    for m, old in zip(MODULES, before):
        assert all(vars(m)[k] is v for k, v in old.items())
