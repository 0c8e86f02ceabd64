import ast
import importlib
import inspect
import pkgutil
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
    "cd_kernel_diag",  # test_analytic.py::TestKernel checks the kernel the density runs
    # the QR route is the reference sampler of test_acceptance.py c02, c03, c11 and c12,
    # of test_ensemble.py::TestSampleExcised and of test_haar.py::TestTridiagonalModel
    "sample_so2n_batch",
    "eigenphases_batch",
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
