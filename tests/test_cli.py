import json
import warnings
from importlib import resources

import numpy as np
import pytest

from excised_ensemble import analytic, cli, curve_model, ensemble
from excised_ensemble.cli import main
from excised_ensemble.errors import DomainError
from excised_ensemble.haar import log_char_poly_batch

E11_CFG = str(resources.files("excised_ensemble.data") / "e11.cfg")


def run(args):
    return main([str(a) for a in args])


def test_one_parser_per_process(tmp_path, monkeypatch):
    # a rebuild cost 1.1-1.4 ms of every call, and a pass runs two commands
    builds = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    monkeypatch.chdir(tmp_path)
    for _ in range(2):
        assert run(["moments", "--n", 2, "--s", 0.5]) == 0
    # the subcommands' parsers are _Parser too, each named after its command
    assert builds.count("excised-ensemble") == 1


class TestDensityCommand:
    def test_writes_expected_csv(self, tmp_path):
        out = tmp_path / "density.csv"
        summary = tmp_path / "s.json"
        code = run(
            ["density", "--n", 2, "--cutoff", 0.1, "--grid", 40, "--out", out, "--summary", summary]
        )
        assert code == 0
        lines = out.read_text().split("\n")
        assert lines[0] == "theta,r1"
        assert len([ln for ln in lines if ln]) == 41
        meta = json.loads(summary.read_text())
        assert meta["theta_inf"] == pytest.approx(np.arccos(1 - 0.1 / 8))
        assert 0 < meta["normalization_ratio"] <= 1
        assert isinstance(meta["line_route_points"], int) and meta["line_route_points"] >= 1
        assert 0 <= meta["max_tail"] <= 1e-9

    def test_csv_holds_the_density_grid(self, tmp_path):
        out = tmp_path / "density.csv"
        code = run(["density", "--n", 2, "--cutoff", 0.1, "--grid", 9, "--out", out, "--summary", tmp_path / "s.json"])
        assert code == 0
        header, *rows = out.read_text().split("\n")[:-1]
        assert header == "theta,r1"
        assert len(rows) == 9
        fields = [row.split(",") for row in rows]
        assert all(field == repr(float(field)) for row in fields for field in row)
        grid = analytic.density_grid(2, np.log(0.1), np.linspace(0.0, np.pi, 9))
        assert np.array_equal(np.array(fields, dtype=float), np.column_stack([grid.thetas, grid.values]))

    def test_huge_negative_cutoff_gives_the_so2n_density(self, tmp_path):
        # rounding sizes of inf * 0 made every tail NaN: four RuntimeWarnings, then
        # "density 0.861699 ... is below -tail = nan" and exit 1
        out = tmp_path / "density.csv"
        code = run(["density", "--n", 2, "--cutoff-log=-1e308", "--grid", 9, "--out", out,
                    "--summary", tmp_path / "s.json"])
        assert code == 0
        thetas, values = np.loadtxt(out, delimiter=",", skiprows=1)[1:].T
        assert np.array_equal(values, analytic.r1_so2n_unscaled(2, thetas))
        assert json.loads((tmp_path / "s.json").read_text())["max_tail"] <= 2.3e-16

    def test_ratio_outside_unit_interval_is_domain_error(self, tmp_path, capsys):
        # the residue series gives 1.21 here; nothing may be scaled by it
        out = tmp_path / "density.csv"
        code = run(["density", "--n", 16, "--cutoff", 0.1, "--grid", 20,
                    "--out", out, "--summary", tmp_path / "s.json"])
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error:")

    def test_uncertified_ratio_is_domain_error(self, tmp_path, capsys):
        # the series tail is 8.5e-5 here and the ratio is off by 9.6e-5 relative
        out = tmp_path / "density.csv"
        code = run(["density", "--n", 20, "--cutoff", 0.005424, "--grid", 20,
                    "--out", out, "--summary", tmp_path / "s.json"])
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error:")

    def test_ratio_with_residues_below_the_rounding_floor(self, tmp_path):
        # the ratio's last residues lie far below its rounding floor; their
        # ratio once made its tail infinite and this command exit 1
        code = run(["density", "--n", 3, "--cutoff-log", 0.75, "--grid", 20,
                    "--out", tmp_path / "density.csv", "--summary", tmp_path / "s.json"])
        assert code == 0

    def test_past_weyl_constant_overflow(self, tmp_path):
        # c_so2n overflows at N = 40, but the density never uses it
        out = tmp_path / "density.csv"
        code = run(["density", "--n", 40, "--cutoff-log", -40, "--grid", 20,
                    "--out", out, "--summary", tmp_path / "s.json"])
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 21

    @pytest.mark.parametrize("grid", [0, -1])
    def test_grid_below_one_is_domain_error(self, tmp_path, capsys, grid):
        out, summary = tmp_path / "density.csv", tmp_path / "s.json"
        code = run(["density", "--n", 2, "--cutoff", 0.1, "--grid", grid, "--out", out, "--summary", summary])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists() and not summary.exists()

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_one_is_domain_error(self, tmp_path, capsys, n):
        out = tmp_path / "density.csv"
        code = run(["density", "--n", n, "--cutoff", 0.1, "--grid", 8, "--out", out, "--summary", tmp_path / "s.json"])
        assert code == 1
        assert "n_pairs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    # a separate -inf once exited 2, read by argparse as an option
    @pytest.mark.parametrize(
        "cutoff", [["--cutoff", "nan"], ["--cutoff-log", "nan"], ["--cutoff-log=-inf"], ["--cutoff-log", "-inf"]]
    )
    def test_non_finite_cutoff_is_domain_error(self, tmp_path, capsys, cutoff):
        out = tmp_path / "density.csv"
        code = run(["density", "--n", 2, *cutoff, "--grid", 8, "--out", out, "--summary", tmp_path / "s.json"])
        assert code == 1
        assert "the log cutoff must be a number" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_cutoff_empties_the_ensemble(self, tmp_path, capsys):
        out = tmp_path / "density.csv"
        code = run(["density", "--n", 2, "--cutoff", "inf", "--grid", 8,
                    "--out", out, "--summary", tmp_path / "s.json"])
        assert code == 1
        assert "ensemble is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_row_next_to_the_gap_edge(self, tmp_path):
        # theta = pi/99 lies 1e-9 above the gap edge in gap margin; the
        # vertical-line quadrature once gave 236.51 there
        out = tmp_path / "density.csv"
        code = run(["density", "--n", 3, "--cutoff-log=-4.128275124679277", "--grid", 100,
                    "--out", out, "--summary", tmp_path / "s.json"])
        assert code == 0
        theta, value = np.loadtxt(out, delimiter=",", skiprows=1)[1]
        assert theta == pytest.approx(np.pi / 99, rel=1e-15)
        assert 0 <= value <= 1e-9

    def test_integrand_evaluations_at_n12(self, tmp_path, monkeypatch):
        # the vertical line took 834100 evaluations here, most of them on
        # values already below 1e-15
        evaluated = []
        original = analytic.excised_integrand

        def counting(*args, **kwargs):
            out = original(*args, **kwargs)
            evaluated.append(np.size(out))
            return out

        monkeypatch.setattr(analytic, "excised_integrand", counting)
        code = run(["density", "--n", 12, "--cutoff", 0.005424, "--grid", 100,
                    "--out", tmp_path / "density.csv", "--summary", tmp_path / "s.json"])
        assert code == 0
        assert sum(evaluated) <= 150_000

    def test_byte_identical_reruns(self, tmp_path):
        paths = [(tmp_path / f"d{i}.csv", tmp_path / f"s{i}.json") for i in (1, 2)]
        for out, summ in paths:
            run(["density", "--n", 2, "--cutoff", 0.1, "--grid", 25, "--out", out, "--summary", summ])
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()

    def test_log_cutoff_precedence(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["density", "--n", 2, "--cutoff", 99.0, "--cutoff-log", np.log(0.1),
             "--grid", 25, "--out", a, "--summary", tmp_path / "sa.json"])
        run(["density", "--n", 2, "--cutoff-log", np.log(0.1),
             "--grid", 25, "--out", b, "--summary", tmp_path / "sb.json"])
        assert a.read_bytes() == b.read_bytes()


class TestSampleCommands:
    def test_sample_outputs(self, tmp_path):
        out = tmp_path / "hist.csv"
        summary = tmp_path / "summary.json"
        dump = tmp_path / "spectra.csv"
        code = run(
            ["sample", "--n", 2, "--count", 500, "--cutoff", 0.1, "--seed", 7,
             "--out", out, "--summary", summary, "--dump-spectra", dump]
        )
        assert code == 0
        meta = json.loads(summary.read_text())
        assert meta["accepted"] == 500
        assert meta["seed"] == 7
        assert meta["parameters"]["count"] == 500
        assert "version" in meta
        assert dump.read_text().startswith("theta_1,theta_2,log_lambda")

    def test_dumped_spectra(self, tmp_path):
        dump = tmp_path / "spectra.csv"
        code = run(["sample", "--n", 3, "--count", 4, "--seed", 0, "--dump-spectra", dump,
                    "--out", tmp_path / "hist.csv", "--summary", tmp_path / "s.json"])
        assert code == 0
        header, *rows = dump.read_text().split("\n")[:-1]
        assert header == "theta_1,theta_2,theta_3,log_lambda"
        assert len(rows) == 4
        fields = [row.split(",") for row in rows]
        assert all(field == repr(float(field)) for row in fields for field in row)
        table = np.array(fields, dtype=float)
        assert np.array_equal(table[:, -1], log_char_poly_batch(table[:, :-1]))

    def test_deterministic_for_seed(self, tmp_path):
        outs = []
        for i in (1, 2):
            out = tmp_path / f"h{i}.csv"
            run(["sample", "--n", 2, "--count", 300, "--cutoff", 0.1, "--seed", 11,
                 "--out", out, "--summary", tmp_path / f"s{i}.json"])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_first_eigenvalue_command(self, tmp_path):
        out = tmp_path / "first.csv"
        code = run(
            ["first-eigenvalue", "--n", 2, "--count", 400, "--cutoff", 0.1,
             "--seed", 3, "--scale", 1.118, "--out", out, "--summary", tmp_path / "s.json"]
        )
        assert code == 0
        hist = ensemble.read_histogram_csv(out)
        assert np.sum(hist.values() * hist.widths) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "subcommand",
        [["first-eigenvalue"], ["sample", "--histogram", "first"],
         ["sample", "--histogram", "one-level"], ["sample", "--histogram", "none"]],
    )
    def test_negative_scale_is_domain_error(self, tmp_path, capsys, monkeypatch, subcommand):
        # one-level and none once ignored the scale, drew every spectrum and wrote "scale": -1.0
        def fail(*args, **kwargs):
            raise AssertionError("sampled with a negative scale")

        monkeypatch.setattr(ensemble, "sample_excised", fail)
        out, summary = tmp_path / "first.csv", tmp_path / "s.json"
        code = run([*subcommand, "--n", 2, "--count", 50, "--cutoff", 0.1, "--scale", -1,
                    "--out", out, "--summary", summary])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: scale")
        assert not out.exists() and not summary.exists()

    @pytest.mark.parametrize("subcommand", [["sample"], ["first-eigenvalue"]])
    def test_nan_cutoff_is_rejected_before_sampling(self, tmp_path, capsys, monkeypatch, subcommand):
        # a NaN cutoff once drew 100256 matrices before any error
        def fail(*args, **kwargs):
            raise AssertionError("sampled with a NaN cutoff")

        monkeypatch.setattr(ensemble, "sample_excised", fail)
        out = tmp_path / "h.csv"
        code = run([*subcommand, "--n", 2, "--count", 10, "--cutoff-log", "nan",
                    "--out", out, "--summary", tmp_path / "s.json"])
        assert code == 1
        assert "the log cutoff must be a number" in capsys.readouterr().err
        assert not out.exists()

    def test_one_level_histogram_mode(self, tmp_path):
        out = tmp_path / "one.csv"
        run(["sample", "--n", 2, "--count", 400, "--seed", 3, "--histogram", "one-level",
             "--out", out, "--summary", tmp_path / "s.json"])
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        integral = sum((float(r) - float(l)) * float(v) for l, r, v in rows)
        assert integral == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("workers", [0, -3])
    @pytest.mark.parametrize("subcommand", [["sample"], ["first-eigenvalue"]])
    def test_workers_below_one_is_domain_error(self, tmp_path, capsys, subcommand, workers):
        # these once ran silently on one worker
        out, summary = tmp_path / "h.csv", tmp_path / "s.json"
        code = run([*subcommand, "--n", 2, "--count", 10, "--cutoff", 0.1, "--workers", workers,
                    "--out", out, "--summary", summary])
        assert code == 1
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not out.exists() and not summary.exists()

    @pytest.mark.parametrize("scale", ["1e-320", "1e308"])
    @pytest.mark.parametrize("subcommand", [["first-eigenvalue"], ["sample", "--histogram", "first"]])
    def test_scale_without_finite_normal_bins_is_domain_error(self, tmp_path, capsys, subcommand, scale):
        # 1e-320 once wrote inf densities over bins 3e-322 wide with exit 0, and
        # 1e308 leaked linspace's RuntimeWarning, an error under -W error
        out, summary = tmp_path / "h.csv", tmp_path / "s.json"
        code = run([*subcommand, "--n", 2, "--count", 5, "--seed", 1, f"--scale={scale}",
                    "--out", out, "--summary", summary])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: scale")
        assert not out.exists() and not summary.exists()

    @pytest.mark.parametrize("seed", [-1, -5])
    @pytest.mark.parametrize("subcommand", [["sample"], ["first-eigenvalue"]])
    def test_negative_seed_is_domain_error(self, tmp_path, capsys, subcommand, seed):
        # these once ended in a traceback from SeedSequence
        out, summary = tmp_path / "h.csv", tmp_path / "s.json"
        code = run([*subcommand, "--n", 2, "--count", 10, "--cutoff", 0.1, "--seed", seed,
                    "--out", out, "--summary", summary])
        assert code == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists() and not summary.exists()

    @pytest.mark.parametrize("bins", [0, -3])
    @pytest.mark.parametrize(
        "subcommand",
        [["sample"], ["sample", "--histogram", "one-level"], ["first-eigenvalue"], ["sample", "--histogram", "none"]],
    )
    def test_bins_below_one_is_rejected_before_sampling(self, tmp_path, capsys, monkeypatch, subcommand, bins):
        # these once drew every spectrum before failing, or died with a traceback
        def fail(*args, **kwargs):
            raise AssertionError("sampled with an empty binning")

        monkeypatch.setattr(ensemble, "sample_excised", fail)
        out, summary = tmp_path / "h.csv", tmp_path / "s.json"
        code = run([*subcommand, "--n", 2, "--count", 10, "--cutoff", 0.1, "--bins", bins,
                    "--out", out, "--summary", summary])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists() and not summary.exists()


class TestMomentsCommand:
    def test_values(self, tmp_path):
        out = tmp_path / "m.json"
        assert run(["moments", "--n", 2, "--s", 1.0, "--out", out]) == 0
        meta = json.loads(out.read_text())
        assert meta["moment"] == pytest.approx(2.0, rel=1e-12)
        assert meta["h_exact"] == pytest.approx(8 / (3 * np.pi**2), rel=1e-10)

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_one_is_domain_error(self, tmp_path, capsys, n):
        out = tmp_path / "m.json"
        assert run(["moments", "--n", n, "--s", 1.0, "--out", out]) == 1
        assert "n_pairs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_constant_overflow_is_domain_error(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert run(["moments", "--n", 40, "--s", 0.5, "--out", out]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("s", ["nan", "inf"])
    def test_non_finite_s_is_domain_error(self, tmp_path, capsys, s):
        # these once wrote "moment": NaN, which strict JSON rejects
        out = tmp_path / "m.json"
        assert run(["moments", "--n", 2, "--s", s, "--out", out]) == 1
        assert "requires a finite s" in capsys.readouterr().err
        assert not out.exists()

    def test_moment_overflow_is_domain_error(self, tmp_path, capsys):
        # this once wrote "moment": Infinity, which strict JSON rejects
        out = tmp_path / "m.json"
        assert run(["moments", "--n", 2, "--s", 1000, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "moments_so2n(2, 1000.0)" in err
        assert not out.exists()


class TestCutoffCommand:
    def test_e11_values(self, tmp_path):
        out = tmp_path / "cut.json"
        code = run(["cutoff", "--config", E11_CFG, "--x", 400000, "--out", out])
        assert code == 0
        meta = json.loads(out.read_text())
        assert meta["N_std"] == pytest.approx(12.26, abs=0.005)
        assert meta["N_eff"] == pytest.approx(2.14, abs=0.005)
        assert meta["c_std"] == pytest.approx(2.188, abs=5e-4)
        assert meta["c_eff"] == pytest.approx(0.5916, abs=5e-4)

    def test_x_defaults_to_config(self, tmp_path):
        out = tmp_path / "cut.json"
        run(["cutoff", "--config", E11_CFG, "--out", out])
        assert json.loads(out.read_text())["X_bound"] == 400000

    def test_matrix_size_below_one_is_domain_error(self, tmp_path):
        out = tmp_path / "cut.json"
        assert run(["cutoff", "--config", E11_CFG, "--x", 1, "--out", out]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("x", ["nan", "inf", "1e308", "5e-324"])
    def test_x_without_a_finite_matrix_size_is_domain_error(self, tmp_path, capsys, x):
        # these once died in int(round(N_std)) with a traceback
        out = tmp_path / "cut.json"
        assert run(["cutoff", "--config", E11_CFG, "--x", x, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


class TestApCountCommand:
    def test_csv_and_euler(self, tmp_path):
        out = tmp_path / "ap.csv"
        summary = tmp_path / "ap.json"
        code = run(["ap-count", "--config", E11_CFG, "--p-max", 200, "--euler-s", -0.5,
                    "--out", out, "--summary", summary])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "p,a_p,lambda_p"
        first = lines[1].split(",")
        assert first[0] == "2" and first[1] == "-2"
        meta = json.loads(summary.read_text())
        assert 0.5 < meta["a_s_value"] < 1.0

    def test_summary_is_strict_json_below_p_max_100(self, tmp_path):
        summary = tmp_path / "ap.json"
        code = run(["ap-count", "--config", E11_CFG, "--p-max", 50, "--euler-s", -0.5,
                    "--out", tmp_path / "ap.csv", "--summary", summary])
        assert code == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        meta = json.loads(summary.read_text(), parse_constant=reject)
        assert meta["a_s_last_decade_increment"] is None
        assert np.isfinite(meta["a_s_value"])

    @pytest.mark.parametrize("s", ["nan", "inf"])
    def test_non_finite_euler_s_is_domain_error(self, tmp_path, capsys, s):
        # these once wrote "a_s_value": NaN
        summary = tmp_path / "ap.json"
        code = run(["ap-count", "--config", E11_CFG, "--p-max", 50, "--euler-s", s,
                    "--out", tmp_path / "ap.csv", "--summary", summary])
        assert code == 1
        assert "needs a finite s" in capsys.readouterr().err
        assert not summary.exists()

    @pytest.mark.parametrize("s", ["1e10", "1e308", "-1e308"])
    def test_overflowing_euler_s_is_domain_error(self, tmp_path, capsys, s):
        # finite s whose product overflows once wrote "a_s_value": Infinity or NaN
        summary = tmp_path / "ap.json"
        code = run(["ap-count", "--config", E11_CFG, "--p-max", 50, f"--euler-s={s}",
                    "--out", tmp_path / "ap.csv", "--summary", summary])
        assert code == 1
        assert "overflows a float" in capsys.readouterr().err
        assert not summary.exists()

    @pytest.mark.parametrize("s", ["1e10", "nan"])
    def test_rejected_euler_s_leaves_no_file(self, tmp_path, monkeypatch, capsys, s):
        # the CSV was once written in full before the Euler product raised
        monkeypatch.chdir(tmp_path)
        assert run(["ap-count", "--config", "e11", "--p-max", 100, f"--euler-s={s}"]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("p_max", [-5, 0, 1])
    def test_p_max_below_two_is_domain_error(self, tmp_path, capsys, p_max):
        out = tmp_path / "ap.csv"
        code = run(["ap-count", "--config", E11_CFG, "--p-max", p_max, "--out", out, "--summary", tmp_path / "s.json"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_counts_each_prime_once(self, tmp_path, monkeypatch):
        # spy on the three counters that `point_counts` dispatches to: the
        # baby-step giant-step kernel takes its primes as one batch
        counted = []
        for name, primes_of in [("count_points_double_loop", lambda w, p: [p]),
                                ("_count_points_character_sum", lambda w, p: [p]),
                                ("_bsgs_counts", lambda c4, c6, primes: primes)]:
            original = getattr(curve_model, name)

            def counting(*args, original=original, primes_of=primes_of):
                counted.extend(primes_of(*args))
                return original(*args)

            monkeypatch.setattr(curve_model, name, counting)
        code = run(["ap-count", "--config", E11_CFG, "--p-max", 1000, "--euler-s", -0.5,
                    "--out", tmp_path / "ap.csv", "--summary", tmp_path / "ap.json"])
        assert code == 0
        assert len(counted) == 168 == len(set(counted))

    def test_lambda_p_is_a_plain_float(self, tmp_path):
        # numpy 2 once wrote this column as the text np.float64(...)
        out = tmp_path / "ap.csv"
        code = run(["ap-count", "--config", E11_CFG, "--p-max", 1000, "--out", out, "--summary", tmp_path / "ap.json"])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 168
        assert all(float(lam) == int(a) / np.sqrt(int(p)) for p, a, lam in rows)


class TestCompareCommand:
    def _write_hist(self, path, seed):
        spectra, _ = ensemble.sample_excised(ensemble.ExcisionSpec(2, np.log(0.1)), 3000, seed=seed)
        hist = ensemble.first_eigenvalue_distribution(spectra, ensemble.default_bin_edges(60))
        ensemble.write_histogram_csv(hist, path)
        return hist

    def test_identical_inputs_give_zero(self, tmp_path):
        a = tmp_path / "a.csv"
        self._write_hist(a, seed=1)
        out = tmp_path / "cmp.json"
        assert run(["compare", "--a", a, "--b", a, "--out", out]) == 0
        assert json.loads(out.read_text())["cdf_distance"] == 0.0

    def test_matches_library_distance(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        ha = self._write_hist(a, seed=1)
        hb = self._write_hist(b, seed=2)
        out = tmp_path / "cmp.json"
        run(["compare", "--a", a, "--b", b, "--out", out])
        expected = ensemble.cdf_distance(ha, hb)
        assert json.loads(out.read_text())["cdf_distance"] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("grid", [0, -3])
    def test_grid_below_one_is_domain_error(self, tmp_path, capsys, grid):
        a = tmp_path / "a.csv"
        self._write_hist(a, seed=1)
        out = tmp_path / "cmp.json"
        assert run(["compare", "--a", a, "--b", a, "--grid", grid, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_one_column_sample_loader(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = tmp_path / "zeros.csv"
        np.savetxt(samples, rng.uniform(0.2, 1.4, size=500))
        hist_path = tmp_path / "h.csv"
        self._write_hist(hist_path, seed=5)
        out = tmp_path / "cmp.json"
        code = run(["compare", "--a", hist_path, "--b", samples, "--b-kind", "samples", "--out", out])
        assert code == 0
        assert 0 < json.loads(out.read_text())["cdf_distance"] < 1

    def test_headed_spectra_as_samples_is_domain_error(self, tmp_path, capsys):
        hist_path, spectra = tmp_path / "h.csv", tmp_path / "spectra.csv"
        run(["sample", "--n", 2, "--count", 50, "--cutoff", 0.1, "--dump-spectra", spectra,
             "--out", hist_path, "--summary", tmp_path / "s.json"])
        out = tmp_path / "compare.json"
        code = run(["compare", "--a", hist_path, "--b", spectra, "--b-kind", "samples", "--out", out])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values", ["0.5\n0.5\n", "0.5\n"])
    def test_samples_spanning_no_range_is_domain_error(self, tmp_path, capsys, values):
        # zero-width bins once failed with "bin edges must be strictly ascending", naming no file
        two, same = tmp_path / "two.csv", tmp_path / "same.csv"
        two.write_text("0.2\n0.7\n")
        same.write_text(values)
        out = tmp_path / "compare.json"
        code = run(["compare", "--a", two, "--a-kind", "samples", "--b", same, "--b-kind", "samples", "--out", out])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(same) in err and "span no range" in err
        assert not out.exists()

    def test_empty_samples_file_is_domain_error(self, tmp_path, capsys):
        hist_path, samples = tmp_path / "h.csv", tmp_path / "empty.csv"
        self._write_hist(hist_path, seed=5)
        samples.write_text("")
        out = tmp_path / "compare.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's "input contained no data" must not escape
            code = run(["compare", "--a", hist_path, "--b", samples, "--b-kind", "samples", "--out", out])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bins", [0, -3])
    def test_samples_bins_below_one_is_domain_error(self, tmp_path, capsys, bins):
        samples = tmp_path / "zeros.csv"
        np.savetxt(samples, np.random.default_rng(0).uniform(0.2, 1.4, size=50))
        out = tmp_path / "cmp.json"
        code = run(["compare", "--a", samples, "--a-kind", "samples", "--b", samples, "--b-kind", "samples",
                    "--bins", bins, "--out", out])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("side", ["--a", "--b"])
    def test_non_finite_histogram_value_is_domain_error(self, tmp_path, capsys, side):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        self._write_hist(good, seed=5)
        lines = good.read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:2] + ["nan"])
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "cmp.json"
        inputs = {"--a": good, "--b": good, side: bad}
        code = run(["compare", "--a", inputs["--a"], "--b", inputs["--b"], "--out", out])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad) in err and "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("bad_value", ["nan", "inf", "-inf"])
    def test_non_finite_sample_is_domain_error(self, tmp_path, capsys, bad_value):
        hist_path, samples = tmp_path / "h.csv", tmp_path / "samples.csv"
        self._write_hist(hist_path, seed=5)
        samples.write_text(f"0.3\n0.7\n{bad_value}\n1.1\n")
        out = tmp_path / "cmp.json"
        code = run(["compare", "--a", hist_path, "--b", samples, "--b-kind", "samples", "--out", out])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(samples) in err and "non-finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["hist", "samples"])
    def test_binary_input_error_is_one_short_line(self, tmp_path, capsys, kind):
        # the error once embedded the decoded bytes: 27 KB on one line for a binary file
        binary = tmp_path / "binary"
        binary.write_bytes(b"\x7fELF\x02\x01\x01\x00" + np.random.default_rng(0).bytes(30_000))
        out = tmp_path / "compare.json"
        code = run(["compare", "--a", binary, "--b", binary, "--a-kind", kind, "--b-kind", kind, "--out", out])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and len(err) < 300
        assert str(binary) in err
        assert not out.exists()

    def test_summary_json_as_histogram_is_domain_error(self, tmp_path, capsys):
        hist_path, summary = tmp_path / "h.csv", tmp_path / "s.json"
        self._write_hist(hist_path, seed=5)
        run(["moments", "--n", 2, "--s", 1.0, "--out", summary])
        out = tmp_path / "compare.json"
        code = run(["compare", "--a", hist_path, "--b", summary, "--out", out])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestErrorPaths:
    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            run(["sample", "--n", 2])  # missing required --count
        assert exc.value.code == 2

    def test_domain_error_exit_code(self, tmp_path):
        # cutoff above the attainable maximum
        code = run(["sample", "--n", 1, "--count", 10, "--cutoff-log", 5.0,
                    "--out", tmp_path / "h.csv", "--summary", tmp_path / "s.json"])
        assert code == 1

    @pytest.mark.parametrize("subcommand", [["cutoff"], ["ap-count", "--p-max", 50]])
    def test_non_numeric_config_value(self, tmp_path, capsys, subcommand):
        cfg = tmp_path / "bad.cfg"
        text = resources.files("excised_ensemble.data").joinpath("e11.cfg").read_text()
        cfg.write_text(text.replace("kappa_E = 6.346046521", "kappa_E = 6.3x"))
        code = run([*subcommand, "--config", cfg, "--out", tmp_path / "o"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", [["cutoff"], ["ap-count", "--p-max", 50]])
    def test_config_that_is_not_utf8_text(self, tmp_path, capsys, subcommand):
        cfg = tmp_path / "binary.cfg"
        cfg.write_bytes(b"\xff\xfe\x00")
        code = run([*subcommand, "--config", cfg, "--out", tmp_path / "o"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(cfg) in err

    @pytest.mark.parametrize(
        "command, flag, value, same",
        [(["density", "--n", 2, "--grid", 20], "--cutoff-log", "-1e1", "-1e1"),
         (["ap-count", "--config", "e11", "--p-max", 100], "--euler-s", "-5e-1", "-0.5")],
    )
    def test_negative_exponent_form_is_a_value(self, tmp_path, monkeypatch, command, flag, value, same):
        # argparse alone reads -1e1 as an option and exits 2; the parser's
        # negative-number pattern, private in argparse, also takes exponent forms
        outputs = []
        for i, flags in enumerate([[flag, value], [f"{flag}={same}"]]):
            (tmp_path / str(i)).mkdir()
            monkeypatch.chdir(tmp_path / str(i))
            assert run([*command, *flags]) == 0
            outputs.append({path.name: path.read_bytes() for path in (tmp_path / str(i)).iterdir()})
        assert len(outputs[0]) == 2 and outputs[0] == outputs[1]

    def test_unreadable_config(self, tmp_path):
        code = run(["cutoff", "--config", tmp_path / "missing.cfg", "--out", tmp_path / "c.json"])
        assert code == 2



SAMPLING_PARAMETERS = {
    "bins", "count", "cutoff", "cutoff_log", "n", "out", "scale", "seed", "subcommand", "summary", "workers",
}
SAMPLING_KEYS = {"acceptance_rate", "accepted", "log_cutoff", "mean_first_phase", "n_pairs", "total_drawn"}
AP_COUNT_PARAMETERS = {"config", "euler_s", "out", "p_max", "subcommand", "summary"}
# (command line without the summary path, summary flag, keys beside version/seed/parameters, parameter keys)
SCHEMAS = {
    "sample": (
        ["sample", "--n", 2, "--count", 100, "--cutoff", 0.1, "--out", "h.csv"], "--summary",
        SAMPLING_KEYS, SAMPLING_PARAMETERS | {"dump_spectra", "histogram"},
    ),
    "first-eigenvalue": (
        ["first-eigenvalue", "--n", 2, "--count", 100, "--cutoff", 0.1, "--out", "f.csv"], "--summary",
        SAMPLING_KEYS, SAMPLING_PARAMETERS,
    ),
    "density": (
        ["density", "--n", 2, "--cutoff", 0.1, "--grid", 20, "--out", "d.csv"], "--summary",
        {"line_route_points", "max_tail", "normalization_ratio", "ratio_tail_estimate", "theta_inf"},
        {"cutoff", "cutoff_log", "grid", "n", "out", "subcommand", "summary"},
    ),
    "moments": (
        ["moments", "--n", 2, "--s", 0.5], "--out",
        {"c_so2n", "h_asymptotic", "h_exact", "moment"}, {"n", "out", "s", "subcommand"},
    ),
    "cutoff": (
        ["cutoff", "--config", "e11"], "--out",
        {"N_eff", "N_eff_matrix", "N_std", "N_std_matrix", "X_bound", "abs_cutoff_eff", "abs_cutoff_std",
         "c_eff", "c_std", "delta_kappa"},
        {"config", "out", "subcommand", "x"},
    ),
    "ap-count": (
        ["ap-count", "--config", "e11", "--p-max", 100, "--euler-s", -0.5, "--out", "ap.csv"], "--summary",
        {"a_s_last_decade_increment", "a_s_value", "conductor", "p_max"}, AP_COUNT_PARAMETERS,
    ),
    "ap-count-without-euler-s": (
        ["ap-count", "--config", "e11", "--p-max", 100, "--out", "ap.csv"], "--summary",
        {"conductor", "p_max"}, AP_COUNT_PARAMETERS,
    ),
    "compare": (
        ["compare", "--a", "a.csv", "--b", "a.csv"], "--out",
        {"cdf_distance"}, {"a", "a_kind", "b", "b_kind", "bins", "grid", "out", "subcommand"},
    ),
}


@pytest.mark.parametrize("case", sorted(SCHEMAS))
def test_summary_schema(tmp_path, monkeypatch, case):
    # every key, so that a numerical change cannot add, drop or rename a field
    monkeypatch.chdir(tmp_path)
    ensemble.write_histogram_csv(ensemble.Histogram(np.linspace(0.0, 1.0, 5), np.array([1, 2, 3, 4])), "a.csv")
    command, flag, keys, parameters = SCHEMAS[case]
    assert run([*command, flag, "summary.json"]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary) == {"version", "seed", "parameters"} | keys
    assert set(summary["parameters"]) == parameters


@pytest.mark.parametrize(
    "n_pairs, log_cutoff, message",
    [
        (2, np.nan, "the log cutoff must be a number above -inf, not nan"),
        (2, -np.inf, "the log cutoff must be a number above -inf, not -inf"),  # ExcisionSpec once sampled it
        (0, -1.0, "n_pairs must be >= 1"),
        (2, 4 * np.log(2.0), "log_cutoff >= 2N log 2: the excised ensemble is empty"),
    ],
    ids=["nan", "-inf", "n0", "empty"],
)
def test_sampler_and_density_share_one_domain_rule(tmp_path, capsys, n_pairs, log_cutoff, message):
    for call in (ensemble.ExcisionSpec, analytic.theta_inf):
        with pytest.raises(DomainError) as info:
            call(n_pairs, log_cutoff)
        assert str(info.value) == message
    for command in (["sample", "--count", 10], ["density", "--grid", 8]):
        out = tmp_path / "out.csv"
        code = run([*command, "--n", n_pairs, f"--cutoff-log={float(log_cutoff)!r}",
                    "--out", out, "--summary", tmp_path / "s.json"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
