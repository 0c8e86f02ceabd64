import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import excised_ensemble

MODULES = [
    importlib.import_module(f"excised_ensemble.{info.name}")
    for info in pkgutil.iter_modules(excised_ensemble.__path__)
]
WITH_ALL = [m for m in MODULES if hasattr(m, "__all__")]


def _public_definitions(module) -> set:
    """Public top-level functions and classes defined in `module` itself."""
    return {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }


def test_modules_declare_their_surface():
    assert {m.__name__.rsplit(".", 1)[1] for m in WITH_ALL} >= {
        "analytic", "curve_model", "ensemble", "haar", "special_functions",
    }


@pytest.mark.parametrize("module", WITH_ALL, ids=lambda m: m.__name__)
def test_all_lists_exactly_the_public_definitions(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(module.__all__) == len(set(module.__all__))
    callables = {
        name for name in module.__all__
        if inspect.isfunction(getattr(module, name)) or inspect.isclass(getattr(module, name))
    }
    assert _public_definitions(module) == callables


# Public names that nothing in the package calls, kept because a test uses
# each one as an independent reference.
ORACLES = {
    "value_cumulative_small_x",  # test_acceptance.py::test_c11_value_density_tail
    "delta_from_vanishing_constant",  # test_acceptance.py::test_c09_calibration_numbers
    "barnes_g",  # test_acceptance.py::test_c10_special_function_anchors
    "r1_excised_line_integral",  # test_acceptance.py::test_c06_dual_route_identity
    # test_analytic.py::TestKernel checks the kernel the density runs, and
    # TestExcisedIntegrand the residue at -1/2 that the contour sums against it
    "cd_kernel_diag",
    # the QR route is the reference sampler of test_acceptance.py c02, c03, c11 and c12,
    # of test_ensemble.py::TestSampleExcised and of test_haar.py::TestTridiagonalModel
    "sample_so2n_batch",
    "eigenphases_batch",
    # the one-prime form of `point_counts`' dispatch, which counts its primes
    # as one batch; test_acceptance.py::test_c13_arithmetic checks it prime by prime
    "count_points_fp",
}


def _referenced_names() -> set:
    """Every name and attribute that the package's source mentions."""
    names = set()
    for path in Path(excised_ensemble.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_or_is_a_named_oracle():
    exported = {name for module in WITH_ALL for name in module.__all__}
    unreferenced = exported - _referenced_names()
    assert unreferenced == ORACLES


def test_numerical_modules_write_no_files():
    # `cli` writes every output file; these modules only compute
    for name in ("haar", "analytic", "special_functions"):
        tree = ast.parse(Path(excised_ensemble.__file__).with_name(f"{name}.py").read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "csv" not in imported, name


def test_cli_start_up_imports_no_scipy():
    # every run starts cold, and scipy.special alone took longer to import than
    # most runs spend working; the sampler's numpy.random is loaded up front
    code = (
        "import sys\n"
        "import excised_ensemble.cli\n"
        "excised_ensemble.cli.build_parser()\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = str(Path(excised_ensemble.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split("\n")[:2] == ["[]", "True"]


def test_commands_import_no_numpy_ma(tmp_path):
    # numpy.ma is imported cold by np.unique (numpy >= 2.4) and took 17-33 ms
    # of an ap-count run; no command needs it
    commands = [
        ["ap-count", "--config", "e11", "--p-max", "3000", "--euler-s", "-0.5", "--out", "ap.csv"],
        ["density", "--n", "2", "--cutoff", "0.001466", "--grid", "50", "--out", "density.csv"],
        ["sample", "--n", "2", "--cutoff", "0.001466", "--count", "200", "--seed", "1",
         "--histogram", "one-level", "--out", "sample.csv"],
    ]
    code = (
        "import sys\n"
        "import excised_ensemble.cli\n"
        "assert excised_ensemble.cli.main(sys.argv[1:]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(excised_ensemble.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, cwd=tmp_path, check=True
        )
        assert proc.stdout.split("\n")[-2] == "False", argv


def test_start_up_and_density_import_no_numpy_polynomial(tmp_path):
    # the parabola's Gauss-Legendre rule is written out: importing
    # numpy.polynomial for leggauss raised the start-up's peak RSS by 1.5 MiB
    code = (
        "import sys\n"
        "import excised_ensemble.cli\n"
        "excised_ensemble.cli.build_parser()\n"
        "print(any(m.startswith('numpy.polynomial') for m in sys.modules))\n"
        "assert excised_ensemble.cli.main(sys.argv[1:]) == 0\n"
        "print(any(m.startswith('numpy.polynomial') for m in sys.modules))\n"
    )
    # 100 points put one on the parabola, whose quadrature takes the rule
    argv = ["density", "--n", "2", "--cutoff", "0.001466", "--grid", "100", "--out", "density.csv"]
    src = str(Path(excised_ensemble.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, cwd=tmp_path,
                          check=True)
    assert proc.stdout.split("\n")[:2] == ["False", "False"]
