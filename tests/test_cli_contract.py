"""The command line's contract, checked on one table of argument lists run
through `cli.main` in process, each in a fresh directory:

- the exit code is 0, 1 or 2, and no exception or warning escapes `main`;
- on a nonzero exit, stderr is one `error:` line under 300 characters, and no
  file is left that did not exist before the run;
- on exit 0, every JSON file written parses as strict JSON (no NaN or
  Infinity), and every value in every CSV written is finite.

The rows take the edge values of each flag: nan, +-inf, 0, -1, +-1e308,
1e-320 and 2.5 for floats; 0, -1, 1, 3 and a large value for integers; and
malformed inputs.  Counts, grids and p_max are kept small.
"""

import json
import math
import warnings

import numpy as np
import pytest

from excised_ensemble import cli, ensemble

SAMPLE = ["sample", "--n", "2", "--cutoff", "0.1"]
FIRST = ["first-eigenvalue", "--n", "2", "--cutoff", "0.1"]
DENSITY = ["density", "--n", "2"]
AP_COUNT = ["ap-count", "--config", "e11", "--p-max", "50"]

ROWS = {
    # a path that cannot be written, after an output that was
    "density-unwritable-summary": (2, [*DENSITY, "--cutoff", "0.1", "--grid", "50", "--out", "d.csv",
                                       "--summary", "missing/s.json"]),
    "sample-unwritable-dump": (2, [*SAMPLE, "--count", "50", "--out", "h.csv", "--dump-spectra", "missing/x.csv"]),
    "sample-unwritable-dump-over-kept-out": (2, [*SAMPLE, "--count", "5", "--out", "kept.csv",
                                                 "--dump-spectra", "missing/x.csv"]),
    # cutoffs
    "density-cutoff-0": (1, [*DENSITY, "--cutoff", "0", "--grid", "9"]),
    "density-cutoff--1": (1, [*DENSITY, "--cutoff", "-1", "--grid", "9"]),
    "density-no-cutoff": (1, [*DENSITY, "--grid", "9"]),
    "density-cutoff-2.5": (0, [*DENSITY, "--cutoff", "2.5", "--grid", "9"]),
    "density-cutoff-1e-320": (0, [*DENSITY, "--cutoff", "1e-320", "--grid", "9"]),
    "density-cutoff-log--1e308": (0, [*DENSITY, "--cutoff-log=-1e308", "--grid", "9"]),
    "density-cutoff-log-1e308": (1, [*DENSITY, "--cutoff-log", "1e308", "--grid", "9"]),
    "first-cutoff-nan": (1, ["first-eigenvalue", "--n", "2", "--count", "5", "--cutoff", "nan"]),
    "sample-cutoff-log--inf": (1, ["sample", "--n", "2", "--count", "5", "--cutoff-log", "-inf"]),
    "sample-cutoff-inf": (1, ["sample", "--n", "2", "--count", "5", "--cutoff", "inf"]),
    # scales and other floats
    "first-scale-1e-320": (1, [*FIRST, "--count", "5", "--scale=1e-320"]),
    "first-scale-1e308": (1, [*FIRST, "--count", "5", "--scale", "1e308"]),
    "first-scale-2.5": (0, [*FIRST, "--count", "20", "--scale", "2.5"]),
    "moments-s-nan": (1, ["moments", "--n", "2", "--s", "nan"]),
    "moments-s--inf": (1, ["moments", "--n", "2", "--s=-inf"]),
    "moments-s-2.5": (0, ["moments", "--n", "2", "--s", "2.5"]),
    "moments-s-1e308": (1, ["moments", "--n", "2", "--s", "1e308"]),
    "cutoff-x-1e-320": (1, ["cutoff", "--config", "e11", "--x", "1e-320"]),
    "cutoff-x--1": (1, ["cutoff", "--config", "e11", "--x", "-1"]),
    "ap-count-euler-s-2.5": (0, [*AP_COUNT, "--euler-s", "2.5"]),
    "ap-count-euler-s--inf": (1, [*AP_COUNT, "--euler-s=-inf"]),
    "ap-count-euler-s-1e308": (1, [*AP_COUNT, "--euler-s", "1e308"]),
    # integers
    "sample-n-1e7": (1, ["sample", "--n", "10000000", "--count", "1", "--cutoff", "0.1"]),
    "first-n-0": (1, ["first-eigenvalue", "--n", "0", "--count", "5"]),
    "sample-count-0": (1, [*SAMPLE, "--count", "0"]),
    "sample-seed--1": (1, [*SAMPLE, "--count", "5", "--seed", "-1"]),
    "sample-workers-1e5": (0, [*SAMPLE, "--count", "3", "--workers", "100000"]),
    "sample-one-level-n3-bins-1": (0, ["sample", "--n", "3", "--count", "3", "--histogram", "one-level",
                                       "--bins", "1", "--dump-spectra", "x.csv"]),
    "density-grid-1": (0, [*DENSITY, "--cutoff", "0.1", "--grid", "1"]),
    "density-grid--1": (1, [*DENSITY, "--cutoff", "0.1", "--grid", "-1"]),
    "ap-count-p-max-1": (1, ["ap-count", "--config", "e11", "--p-max", "1"]),
    "ap-count-p-max-3": (0, ["ap-count", "--config", "e11", "--p-max", "3"]),
    # malformed inputs
    "cutoff-config-without-equals": (1, ["cutoff", "--config", "bare.cfg"]),
    "ap-count-config-without-equals": (1, ["ap-count", "--config", "bare.cfg", "--p-max", "50"]),
    "compare-header-only": (1, ["compare", "--a", "header.csv", "--b", "hist.csv"]),
    "compare-grid-0": (1, ["compare", "--a", "hist.csv", "--b", "hist.csv", "--grid", "0"]),
    "compare-samples-bins-3": (0, ["compare", "--a", "samples.txt", "--a-kind", "samples", "--b", "hist.csv",
                                   "--bins", "3"]),
    "compare-samples-empty": (1, ["compare", "--a", "empty.txt", "--a-kind", "samples", "--b", "hist.csv"]),
    "compare-samples-comments-only": (1, ["compare", "--a", "comments.txt", "--a-kind", "samples", "--b", "hist.csv"]),
}


def _inputs(directory):
    """The input files some rows read, and one output file that exists before its run."""
    ensemble.write_histogram_csv(ensemble.Histogram(np.linspace(0.0, 1.0, 5), np.array([1, 2, 3, 4])),
                                 directory / "hist.csv")
    (directory / "header.csv").write_text("bin_left,bin_right,value\n")
    (directory / "samples.txt").write_text("0.2\n0.5\n0.9\n")
    (directory / "empty.txt").write_text("")
    (directory / "comments.txt").write_text("# no samples\n\n")
    (directory / "bare.cfg").write_text("conductor = 11\nkappa_E 6.3\n")
    (directory / "kept.csv").write_text("an earlier output\n")


def _files(directory):
    return {path.relative_to(directory): path.read_bytes() for path in directory.rglob("*") if path.is_file()}


def _strict(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.fixture(autouse=True)
def no_large_draws(monkeypatch):
    # if the memory guard let the N = 10^7 row through, its one-row batch would
    # build an N x N stack; fail at the draw instead
    draw = ensemble.sample_beta_batch

    def small_draw(n_pairs, count, rng):
        assert n_pairs <= 1000, f"drew a batch at N = {n_pairs}"
        return draw(n_pairs, count, rng)

    monkeypatch.setattr(ensemble, "sample_beta_batch", small_draw)


@pytest.mark.parametrize("expected, argv", ROWS.values(), ids=ROWS.keys())
def test_command_line_contract(tmp_path, monkeypatch, capsys, expected, argv):
    monkeypatch.chdir(tmp_path)
    _inputs(tmp_path)
    before = _files(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    err = capsys.readouterr().err
    after = _files(tmp_path)
    assert code == expected
    assert set(before) <= set(after)
    if code:
        assert err.startswith("error:") and err.count("\n") == 1 and len(err) < 300, err
        assert set(after) == set(before)
        return
    written = [path for path in after if path not in before or after[path] != before[path]]
    assert written
    for path in written:
        if path.suffix == ".json":
            json.loads(after[path], parse_constant=_strict)
        else:
            header, *rows = after[path].decode().splitlines()
            assert rows and all(math.isfinite(float(v)) for row in rows for v in row.split(","))
