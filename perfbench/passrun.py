"""One benchmark pass in a fresh interpreter.

    python3 passrun.py SRC_DIR RESULT_JSON [--trace] [-- CLI ARGS ... [-- CLI ARGS ...]]

Times the import of `excised_ensemble.cli` plus building its parser (set-up),
then runs each CLI argument list through `cli.main` in the current directory
(the pass).  With --trace the pass runs under the span tracer and the result
carries its per-layer metrics.  With no argument lists only set-up is timed.
Only `sys` and `time` are imported before the set-up clock starts.
"""

import sys
import time


def main(argv) -> int:
    src, result_path, *rest = argv
    trace = bool(rest) and rest[0] == "--trace"
    if trace:
        rest = rest[1:]
    commands, current = [], None
    for arg in rest:
        if arg == "--":
            current = []
            commands.append(current)
        else:
            current.append(arg)

    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from excised_ensemble import cli

    cli.build_parser()
    setup_s = time.perf_counter() - t0

    import json
    import os
    import resource

    import excised_ensemble
    if not os.path.realpath(excised_ensemble.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"imported {excised_ensemble.__file__}, not the package under {src}")

    tracer = None
    if trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer, excised_ensemble)

    runs, still_wrapped = [], []
    cpu0 = time.process_time()
    try:
        for argv_cmd in commands:
            start = time.perf_counter()
            if tracer is None:
                rc = cli.main(argv_cmd)
            else:
                with tracer.span(f"cli.{argv_cmd[0]}"):
                    rc = cli.main(argv_cmd)
            runs.append({"argv": argv_cmd, "rc": rc, "s": time.perf_counter() - start})
    finally:
        if tracer is not None:
            tracer.restore()
            still_wrapped = tracer.still_wrapped(
                [getattr(excised_ensemble, m) for m in ("analytic", "curve_model", "ensemble", "haar", "cli")]
            )
    cpu_s = time.process_time() - cpu0

    result = {
        "setup_s": setup_s,
        "commands": runs,
        "cpu_s": cpu_s,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bytes_written": sum(os.path.getsize(f) for f in os.listdir(".") if os.path.isfile(f)),
        "still_wrapped": still_wrapped,
        "layers": layers.summarize(tracer.spans) if tracer is not None else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
