"""Benchmark of the excised-ensemble command line on the paper's two models
and its arithmetic job.

    python3 perfbench/run.py --workload eff-n2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root; the package is imported from ./src.  Each pass
runs the workload's CLI commands through `cli.main` in a fresh interpreter,
because every user run starts cold.  Passes repeat until --seconds is spent
(with a minimum count), and each metric is the median over passes.

--trace 0 reports the end-to-end metrics: setup_s, wall_s, peak_rss_mb.
--trace 1 alternates traced and untraced passes and reports the per-layer
metrics of the traced ones (see layers.py), the command rates of the
untraced ones, and the tracing overhead.

Every command's outputs are checked outside the timed region: the first
pass's outputs semantically (workloads.py), every later pass's by byte
identity with the first.  Count metrics must repeat exactly between traced
passes and between runs of the same seed on the same source tree.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
# Set before numpy is first imported here, and inherited by every pass: with
# --workers 2 the sampler then runs at most 2 compute threads, which is nproc
# on the reference machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_PASSES = 3
MIN_SETUPS = 7
RUN_LIMIT_S = 165.0

# Counts that must repeat exactly for one seed on one source tree.
COUNT_METRICS = (
    "haar.matrices",
    "ensemble.draws",
    "ensemble.accepted",
    "ensemble.batches",
    "analytic.normalization_ratio.calls",
    "analytic.excised_integrand.calls",
    "analytic.excised_integrand.evals",
    "analytic.line_route.points",
    "analytic.residue_route.points",
    "special_functions.log_gamma.calls",
    "special_functions.log_gamma.evals",
    "special_functions.jacobi_p.evals",
    "special_functions.jacobi_p_deriv.evals",
    "curve_model.count_points_fp.calls",
)

class Run:
    """Passes of one workload, with the bookkeeping for fail_frac."""

    def __init__(self, pkg, workload: str, seed: int, workdir: Path, started: float):
        self.pkg = pkg
        self.commands = workloads.commands(workload, seed)
        self.workdir = workdir
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[int, tuple] = {}  # command index -> (digest, ok)

    def _spawn(self, commands, trace: bool) -> dict:
        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        result = self.workdir / "pass.json"
        argv = [sys.executable, str(HERE / "passrun.py"), str(SRC), str(result)]
        if trace:
            argv.append("--trace")
        for cmd in commands:
            argv += ["--", *cmd.argv]
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        proc = subprocess.run(argv, cwd=out, capture_output=True, text=True, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(result.read_text())

    def setup_probe(self):
        """Set-up time of a fresh interpreter that runs no command, or None."""
        try:
            return self._spawn([], trace=False)["setup_s"]
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            self.problems.append(str(exc))
            return None

    def one_pass(self, trace: bool) -> dict:
        """Run and verify one pass; returns the pass record."""
        self.attempted += len(self.commands)
        try:
            record = self._spawn(self.commands, trace)
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            self.failed += len(self.commands)
            self.problems.append(str(exc))
            return None
        out = self.workdir / "out"
        if record["still_wrapped"]:
            self.problems.append(f"traced pass left wrapped: {record['still_wrapped']}")
        for i, (cmd, run) in enumerate(zip(self.commands, record["commands"])):
            ok = run["rc"] == 0 and self._verify(i, cmd, out)
            if run["rc"] != 0:
                self.problems.append(f"{cmd.name} exited {run['rc']}")
            self.failed += not ok
        return record

    def _verify(self, i: int, cmd, out: Path) -> bool:
        """Check the first outputs of command i, and compare later ones to them."""
        digest = hashlib.sha256()
        try:
            for flag in ("--out", "--summary"):
                digest.update((out / cmd.flag(flag)).read_bytes())
        except OSError as exc:
            self.problems.append(f"{cmd.name}: {exc}")
            return False
        digest = digest.hexdigest()
        if i not in self.reference:
            found = workloads.check(self.pkg, cmd, out)
            self.problems += [f"{cmd.name}: {p}" for p in found]
            self.reference[i] = (digest, not found)
        ref_digest, ref_ok = self.reference[i]
        if digest != ref_digest:
            self.problems.append(f"{cmd.name} output differs between passes of one seed")
        return ref_ok and digest == ref_digest


def _median(values) -> float:
    return float(statistics.median(values))


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def _keep_going(run: Run, deadline: float, last: float, passes: int) -> bool:
    """Whether another pass, taking as long as the last one, should start."""
    now = time.perf_counter()
    if now + last > run.started + RUN_LIMIT_S:
        return False
    return passes < MIN_PASSES or now + last <= deadline


def end_to_end(run: Run, seconds: float, units: dict) -> dict:
    deadline = run.started + seconds
    run.setup_probe()  # warm-up: the first import of a run reads cold files
    records, setups = [], []
    while True:
        t0 = time.perf_counter()
        record = run.one_pass(trace=False)
        if record is not None:
            records.append(record)
            setups.append(record["setup_s"])
        if record is None or not _keep_going(run, deadline, time.perf_counter() - t0, len(records)):
            break
    while len(setups) < MIN_SETUPS and time.perf_counter() + 5.0 < run.started + RUN_LIMIT_S:
        setup = run.setup_probe()
        if setup is None:
            break
        setups.append(setup)
    samples = {
        "setup_s": setups,
        "wall_s": [sum(c["s"] for c in r["commands"]) for r in records],
        "peak_rss_mb": [r["maxrss_mb"] for r in records],
    }
    # peak memory is the largest of the passes: with two sampling threads it
    # depends on how their batches happen to overlap
    summary = {"setup_s": _median, "wall_s": _median, "peak_rss_mb": max}
    return {k: (summary[k](samples[k]), unit, samples[k]) for k, unit in units.items() if samples[k]}


def per_layer(run: Run, seconds: float, units: dict, counts_file: Path) -> dict:
    deadline = run.started + seconds
    traced, plain = [], []
    while True:
        trace = len(traced) <= len(plain)  # traced, plain, traced, ...
        t0 = time.perf_counter()
        record = run.one_pass(trace=trace)
        if record is None:
            break
        (traced if trace else plain).append(record)
        if not _keep_going(run, deadline, time.perf_counter() - t0, len(traced) + len(plain)):
            break
    if not traced or not plain:
        return {}

    samples: dict[str, list] = {}
    for r in traced:
        layer = dict(r["layers"])
        layer["cli.bytes_written"] = r["bytes_written"]
        layer["cli.cpu_s"] = r["cpu_s"]
        for key, value in layer.items():
            samples.setdefault(key, []).append(value)

    live = sum(workloads.live_points(cmd) for cmd in run.commands if cmd.name == "density")
    samples["analytic.residue_route.points"] = [live - v for v in samples["analytic.line_route.points"]]
    primes = sum(c.items for c in run.commands if c.name == "ap-count")
    samples["curve_model.counts_per_prime"] = [
        v / primes if primes else 0.0 for v in samples["curve_model.count_points_fp.calls"]
    ]

    for key in COUNT_METRICS:
        if len(set(samples[key])) > 1:
            run.problems.append(f"count {key} differs between traced passes: {samples[key]}")
    counts = {key: samples[key][0] for key in COUNT_METRICS}
    if counts_file.exists():
        before = json.loads(counts_file.read_text())
        for key in COUNT_METRICS:
            if key in before and before[key] != counts[key]:
                run.problems.append(f"count {key} is {counts[key]}, an earlier run of this seed had {before[key]}")
    else:
        counts_file.parent.mkdir(parents=True, exist_ok=True)
        counts_file.write_text(json.dumps(counts, indent=1, sort_keys=True))

    for rate in workloads.RATES:
        samples[rate] = [0.0]  # the workload runs no command of this kind
    for i, cmd in enumerate(run.commands):
        samples[cmd.rate] = [cmd.items / r["commands"][i]["s"] for r in plain]
    walls = {k: [sum(c["s"] for c in r["commands"]) for r in group] for k, group in (("t", traced), ("u", plain))}
    samples["trace.overhead_frac"] = [_median(walls["t"]) / _median(walls["u"]) - 1.0]
    missing = sorted(set(units) - set(samples))
    if missing:
        run.problems.append(f"per-layer metrics not produced: {missing}")
    return {k: (_median(samples[k]), unit, samples[k]) for k, unit in units.items() if k in samples}


def source_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "excised_ensemble").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "commit": commit,
        "source": source_fingerprint(),
    }


def run_workload(pkg, name: str, seed: int, seconds: float, trace: bool, config: dict) -> tuple:
    workdir = WORK / f"{name}-{os.getpid()}"
    run = Run(pkg, name, seed, workdir, time.perf_counter())
    try:
        units = {m["name"]: m["unit"] for m in config["per_layer" if trace else "end_to_end"]}
        if trace:
            counts_file = WORK / "counts" / f"{name}-{seed}-{source_fingerprint()}.json"
            metrics = per_layer(run, seconds, units, counts_file)
        else:
            metrics = end_to_end(run, seconds, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in run.problems:
        print(f"{name}: FAILED CHECK {problem}", file=sys.stderr)
    print(f"{name}: fail_frac {run.failed / max(run.attempted, 1):.6g} ({run.failed} of {run.attempted} commands)")
    for key, (value, unit, values) in metrics.items():
        print(f"{name}: {key} {value:.6g} {unit} {_spread(values)}")
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "excised_ensemble" / "cli.py").is_file():
        print(f"error: no package at {SRC / 'excised_ensemble'}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import excised_ensemble as pkg

    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    print("env " + json.dumps(environment(), sort_keys=True))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in names:
        run, found = run_workload(pkg, name, args.seed, args.seconds, bool(args.trace), config)
        attempted += run.attempted
        failed += run.failed
        correct = correct and not run.problems and bool(found)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u, _) in found.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
